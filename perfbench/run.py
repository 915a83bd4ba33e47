"""Benchmark of the ahrank package, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the sources under ``src/``.
Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``cli-oneshot``   one ``python -m ahrank`` process per operation;
* ``library-pairs`` the ``decide`` pipeline in process, on a warmed engine;
* ``sweep-scan``    one cold forked child per ``anomaly_scan``/``verify_table1``.

With ``--trace 0`` it measures the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it reports the per-layer metrics from a traced run and
writes the spans under ``.perfbench/``.  The traced run starts two
clients with the same warm-up, one traced and one plain, and runs the
same blocks of ops on both, alternating which goes first;
``trace.overhead_ratio`` is the plain time over the traced time.  Every
output is checked against ``oracle.py``, which does not use the engine.
The report goes to stdout; its last line is the JSON result.  Without
``src/ahrank`` the benchmark exits with status 2 and prints no result.

Set-up: sources are compiled to bytecode first, as an installed package
would be.  Every child runs with this interpreter and one fixed
environment (``PYTHONPATH=src``, ``PYTHONHASHSEED=0``, no bytecode
writes).  ``setup_s`` is the median over ``SETUPS`` set-ups of the time
from spawning the workload's client process to its ``ready`` line.

The times behind ``setup_s``, ``op_p50_ms``, ``op_tail_ms`` and
``ops_per_s`` are corrected for the drifting speed of the shared host by
the probes of ``pace.py``; the report also prints these metrics as
measured, before the correction.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
SETUPS = 11
#: A client process must finish within this many seconds past --seconds.
GRACE_S = 120


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONUTF8="1",
    )
    return env


def context() -> dict:
    """Interpreter, core count and the code measured."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ahrank").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def start_client(args, env, mode: str) -> tuple[subprocess.Popen, float]:
    """Spawn a client of the workload; return it once ready, with the time taken."""
    command = [
        sys.executable, str(HERE / "client.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"client did not get ready (exit {proc.returncode})")
    return proc, elapsed


def finish(proc: subprocess.Popen, command: str, timeout: float) -> str:
    try:
        out, _ = proc.communicate(command + "\n", timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("client timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"client exited with status {proc.returncode}")
    return out


def last_json(out: str) -> dict:
    try:
        return json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError("client printed no result") from None


def measure(args) -> tuple[dict, list[float]]:
    """Time ``SETUPS`` set-ups and run the last client.  The set-ups are
    corrected with the median host probe of that client's run: a set-up is
    too short for the probes next to it to track the host, and the run's
    hundreds of probes follow its set-ups within seconds."""
    env = child_env()
    setups = []
    for index in range(SETUPS):
        proc, elapsed = start_client(args, env, "timed")
        setups.append(elapsed)
        if index < SETUPS - 1:
            finish(proc, "stop", GRACE_S)
    result = last_json(finish(proc, "go", args.seconds + GRACE_S))
    result["wall"]["setup_s"] = statistics.median(setups)
    factor = pace.REFERENCE_MS / result["probe_ms"]
    return result, [elapsed * factor for elapsed in setups]


def ask(proc: subprocess.Popen, command: str) -> dict:
    proc.stdin.write(command + "\n")
    proc.stdin.flush()
    return last_json(proc.stdout.readline())


def measure_traced(args) -> dict:
    """Run the traced prefix block by block on a plain and a traced client,
    each block first on one and then on the other, until the prefix or
    ``--seconds`` runs out."""
    env = child_env()
    clients: list[subprocess.Popen] = []
    try:
        for mode in ("plain", "traced"):
            clients.append(start_client(args, env, mode)[0])
        total_ms = [0.0, 0.0]
        deadline = time.perf_counter() + args.seconds
        block, more = 0, True
        while more and time.perf_counter() < deadline:
            for index in ((0, 1) if block % 2 == 0 else (1, 0)):
                reply = ask(clients[index], f"block {block}")
                total_ms[index] += reply["ms"]
                more = reply["more"]
            block += 1
        finish(clients[0], "end", GRACE_S)
        result = last_json(finish(clients[1], "end", GRACE_S))
    finally:
        for proc in clients:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    plain_ms, traced_ms = total_ms
    result["metrics"]["trace.overhead_ratio"] = plain_ms / traced_ms if traced_ms else 0.0
    return result


def report(args, spec: dict, result: dict, setups: list[float], ctx: dict) -> dict:
    """Print every metric by name with its unit; return the metrics object."""
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("context: " + " ".join(f"{k}={v}" for k, v in ctx.items()))
    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    notes = {"setup_s": f"median of {len(setups)} set-ups"}
    if not args.trace:
        t = result["tail"]
        notes["op_tail_ms"] = f"p{t['percentile']}, {t['beyond']} of {t['samples']} samples beyond"
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name not in values:
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
        print(f"  {name:42s} {values[name]:>14.6g} {metric['unit']:6s} {notes.get(name, '')}")
    attempted, failed = result["attempted"], result["failed"]
    ratio = failed / attempted
    print(f"  {'failed_ratio':42s} {ratio:>14.6g} {'ratio':6s} {failed} failed of {attempted} attempted")
    if not args.trace:
        inputs = " ".join(f"{k}={v:.6g}" for k, v in result["inputs"].items())
        print(f"inputs over the first {result['inputs_ops']} ops: {inputs}")
        wall = " ".join(f"{k}={v:.6g}" for k, v in result["wall"].items())
        print(f"as measured, before the host correction: {wall}")
        print(f"host probe: median {result['probe_ms']:.6g} ms over {result['probes']} probes, "
              f"reference {pace.REFERENCE_MS} ms")
        if "interp.start_ms" in result:
            floor = result["interp.start_ms"]
            share = floor / result["wall"]["op_p50_ms"]
            print(f"interp.start_ms={floor:.6g} ms: bare interpreter start is {share:.1%} "
                  "of op_p50_ms as measured")
    for reason in result["failures"]:
        print(f"FAILED {reason}")
    return metrics


def main() -> int:
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ahrank" / "__init__.py").is_file():
        print(f"perfbench: no ahrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for directory in (ROOT / "src", HERE):
        compileall.compile_dir(directory, quiet=1)
    try:
        if args.trace:
            result, setups = measure_traced(args), []
        else:
            result, setups = measure(args)
        metrics = report(args, spec, result, setups, context())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
