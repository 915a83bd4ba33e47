"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Checks that every declared metric prints by name with its unit, that no
operation fails on the current sources, that a wrong expected value is
counted as a failure, and that the benchmark refuses to run without the
sources.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import client  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_prints_with_its_unit(workload: str, trace: int) -> None:
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    text = "\n".join(report)
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        line = next(ln for ln in report if ln.split()[:1] == [metric["name"]])
        assert line.split()[2] == metric["unit"], line
    assert "failed_ratio" in text and " 0 ratio " in text


def test_refuses_to_run_without_sources() -> None:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, NAMES[0], 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_wrong_expected_pair_is_a_failure() -> None:
    workload = client.LibraryPairs(1, False)
    checked = 0
    for op in itertools.islice(workload.stream, 300):
        outcome = workload.execute(op)[2]
        assert workloads.check_pair(op, outcome) is None
        if op.expect[0] == "ok":
            wrong_rank = dataclasses.replace(op, expect=(op.expect[0], op.expect[1] + 1, *op.expect[2:]))
            other = oracle.ADMITS if op.expect[5] == oracle.UNDETERMINED else oracle.UNDETERMINED
            wrong_verdict = dataclasses.replace(op, expect=(*op.expect[:5], other))
            assert workloads.check_pair(wrong_rank, outcome) is not None
            assert workloads.check_pair(wrong_verdict, outcome) is not None
            checked += 1
        else:
            wrong_kind = dataclasses.replace(op, expect=("ok",) + op.expect[1:])
            assert workloads.check_pair(wrong_kind, outcome) is not None
    assert checked > 200


def _bigger(alg: oracle.Algebra) -> oracle.Algebra:
    return dataclasses.replace(alg, real=alg.real + 1, ahyp=alg.ahyp + 1)


def test_wrong_expected_cli_result_is_a_failure() -> None:
    workload = client.CliOneshot(1, True)
    for op in itertools.islice(workload.stream, 50):
        outcome = workload.execute_in_process(op)[2]
        assert workloads.check_cli(op, *outcome) is None
        code, kind, data = op.expect
        wrong_code = dataclasses.replace(op, expect=(1 - code if code < 2 else 0, kind, data))
        assert workloads.check_cli(wrong_code, *outcome) is not None
        if code == 0 and kind != "embed-check":
            wrong = (_bigger(data[0]), data[1]) if isinstance(data, tuple) else _bigger(data)
            assert workloads.check_cli(dataclasses.replace(op, expect=(0, kind, wrong)), *outcome) is not None


def test_wrong_expected_sweep_is_a_failure() -> None:
    from ahrank import catalog

    scan = [str(spec) for spec in catalog.anomaly_scan(9)]
    op = workloads.Op(("anomaly_scan", 9), ("anomaly_scan", 9))
    assert workloads.check_sweep(op, scan) is None
    assert workloads.check_sweep(dataclasses.replace(op, expect=("anomaly_scan", 10)), scan) is not None
    report = catalog.verify_table1(3).to_dict()
    op = workloads.Op(("verify_table1", 3), ("verify_table1", 3))
    assert workloads.check_sweep(op, report) is None
    assert workloads.check_sweep(dataclasses.replace(op, expect=("verify_table1", 4)), report) is not None


def test_pacing_scales_each_stretch_by_its_factor() -> None:
    tally = client.Tally(client.SweepScan)
    op = workloads.Op(("anomaly_scan", 9), ("anomaly_scan", 9))
    for latency in (1.0, 2.0):
        tally.add(op, latency, latency, None)
    tally.pace(3.0)
    tally.add(op, 4.0, 4.0, None)
    tally.pace(0.5)
    assert list(tally.paced_latencies()) == [3.0, 6.0, 2.0]
    assert list(tally.latencies) == [1.0, 2.0, 4.0]
    assert tally.paced_busy_ms == 3.0 * 3 + 0.5 * 4
