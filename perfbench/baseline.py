"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 [--out FILE]

For every workload of ``BENCHMARK.json`` it runs ``run.py`` once per
seed with ``--trace 0`` and once with ``--trace 1`` (first seed), then
prints each end-to-end metric with its unit: the median, and the spread
(q3 - q1) / median from ``statistics.quantiles(values, n=4)`` against the
metric's bound; and ``failed_ratio`` over all runs.  ``--seeds 1`` is one pass over all
workloads.  ``--out`` writes the summary as JSON, the form of the
committed ``BENCH_*.json`` files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
from client import WORKLOADS

SPEC = json.loads(run.SPEC_FILE.read_text(encoding="utf-8"))


def seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def once(workload: str, seed: int, trace: int) -> dict:
    command = [
        sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(values: list[float], bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    summary = {"context": run.context(), "run_seconds": SPEC["run_seconds"], "seeds": args.seeds,
               "workloads": {}}
    for workload in [w["name"] for w in SPEC["workloads"]]:
        results = [once(workload, seed, 0) for seed in args.seeds]
        entry = {"attempted": [r["attempted"] for r in results], "failed": [r["failed"] for r in results],
                 "tail_percentile": WORKLOADS[workload].tail_percentile, "end_to_end": {}}
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            entry["end_to_end"][metric["name"]] = summarise(values, metric["bound"])
            s = entry["end_to_end"][metric["name"]]
            flag = "steady" if s["steady"] else "WIDE"
            print(f"{workload:14s} {metric['name']:12s} median {s['median']:12.6g} {metric['unit']:4s} "
                  f"spread {s['spread']:.4f} (bound {metric['bound']}) {flag}", flush=True)
        ratio = sum(entry["failed"]) / sum(entry["attempted"])
        print(f"{workload:14s} {'failed_ratio':12s} {ratio:.6g} ratio "
              f"({sum(entry['failed'])} failed of {sum(entry['attempted'])} attempted)", flush=True)
        traced = once(workload, args.seeds[0], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
