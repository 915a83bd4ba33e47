"""The client of one workload's closed loop: set up, signal readiness, run.

    python perfbench/client.py --workload NAME --seed N --seconds S --mode timed|plain|traced

``run.py`` starts this with the interpreter and environment that every
child of the benchmark shares.  The client prints ``ready`` once it is set
up.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished, and no threads are used.

* ``cli-oneshot``: one ``python -m ahrank ...`` process per operation,
  timed by wall clock from spawn to exit.
* ``library-pairs``: what ``ahrank decide G H`` does, in this process on a
  warmed engine: two parses, two rank profiles, the verdict, two renders.
* ``sweep-scan``: one cold child per operation running ``anomaly_scan(r)``
  or ``verify_table1(k)``, timed inside the child around the call.  The
  children are forked by a zygote that has imported the catalog and never
  called it, so interpreter start and import fall in set-up.

``--mode timed`` measures the end-to-end metrics: after ``ready`` the
client reads one line from stdin, ``go`` runs the workload for
``--seconds`` and anything else ends the process.  The result is one JSON
line on stdout.  Its latencies and ``ops_per_s`` are corrected for the
host's speed by the probes of ``pace.py``; ``wall`` holds them as
measured.

``--mode traced`` and ``--mode plain`` run a fixed prefix of the same
stream, block by block: each ``block K`` line on stdin runs block K and
prints ``{"ms": ..., "more": ...}``; ``end`` ends the process, and a
traced client first prints its per-layer result.  ``run.py`` drives one
client of each mode with the same warm-up and alternates which runs a
block first, so neither sees caches the other filled.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import importlib
import io
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import pace
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

#: Input properties are tallied over this many leading operations, a fixed
#: prefix of the seeded stream, so they repeat exactly for a seed and the
#: bookkeeping does not grow with the number of operations completed.
PROPERTY_OPS = 20_000

#: Children per start-up and import probe; the median is reported.
PROBES = 7


def import_engine(module: str = "ahrank"):
    """Import an ahrank module, refusing a copy from outside ``src/``."""
    loaded = importlib.import_module(module)
    if not Path(loaded.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"{module} imported from {loaded.__file__}, not from {SRC}")
    return loaded


def _python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=ROOT, check=False, **kwargs
    )


class Workload:
    """Settings every workload class sets.

    ``tail_percentile`` is the highest of 50, 75, 90, 95, 99 that keeps at
    least ten samples beyond it in a 35-second run even when the machine
    runs 1.5 times slower than it did for the seed commit.  It is fixed, so
    that a faster change is not read at a higher percentile.

    A traced run covers the first ``trace_ops`` operations, a fixed prefix
    so span counts repeat exactly for a seed, in blocks of ``trace_block``.
    Its operations are traced in this process unless ``traced_in_children``.

    ``in_process`` workloads run every operation in one long-lived process,
    the only kind that can see a factor again.  ``latency_slots`` are
    allocated before timing, so that peak RSS does not grow with the number
    of operations a faster engine completes.  ``interp_floor`` workloads
    also report the start-up time of a bare interpreter with their result.
    Timed runs probe the host speed (see ``pace.py``) after an operation
    once ``pace_every_s`` seconds have passed since the last probe.
    ``close`` stops any process the workload keeps running.
    """

    tail_percentile: int
    trace_ops: int
    trace_block: int
    traced_in_children = False
    in_process = False
    interp_floor = False
    seen: frozenset = frozenset()
    latency_slots = 1 << 12
    pace_every_s = 0.0

    def close(self) -> None:
        pass


class LibraryPairs(Workload):
    """In-process pairs on an engine warmed by a separate op stream.
    Its tail is read at p99: p99.9 has enough samples but spread too
    widely from seed to seed when tried."""

    WARMUP = 500
    tail_percentile = 99
    trace_ops = 5000
    trace_block = 50
    in_process = True
    latency_slots = 1 << 20
    pace_every_s = 0.25

    def __init__(self, seed: int, trace: bool) -> None:
        import_engine()
        from ahrank import cones, decision, notation

        self.notation, self.cones, self.decision = notation, cones, decision
        self.stream = workloads.pair_stream(seed)
        self.seen: set = set()
        for op in itertools.islice(workloads.pair_stream(seed, "warm-up"), self.WARMUP):
            self.seen |= op.keys
            self.execute(op)

    def _pair(self, g_text: str, h_text: str) -> tuple:
        notation, cones, decision = self.notation, self.cones, self.decision
        try:
            g = notation.parse_expression(g_text)
            h = notation.parse_expression(h_text)
        except notation.ParseError:
            return ("parse",)
        g_profile = cones.rank_profile(g.algebra)
        h_profile = cones.rank_profile(h.algebra)
        ranks = (g_profile.real_rank, g_profile.a_hyperbolic_rank,
                 h_profile.real_rank, h_profile.a_hyperbolic_rank)
        try:
            verdict = decision.decide(g_profile, h_profile).verdict.value
        except decision.NotASubgroupPairError:
            return ("domain", *ranks)
        return ("ok", *ranks, verdict, notation.render(g.algebra), notation.render(h.algebra))

    def execute(self, op):
        start = time.perf_counter_ns()
        try:
            outcome = self._pair(*op.args)
        except Exception:  # reported as a failed op, never fatal
            outcome = ("unexpected", traceback.format_exc())
        ms = (time.perf_counter_ns() - start) / 1e6
        return ms, ms, outcome

    execute_in_process = execute
    check = staticmethod(workloads.check_pair)

    @staticmethod
    def error_kind(outcome) -> str | None:
        return outcome[0] if outcome[0] in ("parse", "domain", "unexpected") else None

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class CliOneshot(Workload):
    """One ``python -m ahrank`` process per op, so no factor is ever seen
    twice; traced runs call ``cli.main`` in this process with stdout and
    stderr captured.  A child's ``ru_maxrss`` also counts the client pages
    it shared before ``exec``, so this client keeps its own memory small."""

    tail_percentile = 90
    trace_ops = 250
    trace_block = 25
    interp_floor = True

    def __init__(self, seed: int, trace: bool) -> None:
        if trace:
            import_engine("ahrank.cli")
        self.stream = workloads.cli_stream(seed)
        warm_up = workloads.cli_stream(seed, "warm-up")
        self.execute(next(warm_up))
        if trace:
            for op in itertools.islice(warm_up, self.trace_block):
                self.execute_in_process(op)

    def execute(self, op):
        start = time.perf_counter_ns()
        proc = _python("-m", "ahrank", *op.args)
        ms = (time.perf_counter_ns() - start) / 1e6
        return ms, ms, (proc.returncode, proc.stdout, proc.stderr)

    def execute_in_process(self, op):
        from ahrank import cli

        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter_ns()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(op.args))
            except Exception:  # reported as a failed op, never fatal
                code = -1
                err.write(traceback.format_exc())
        ms = (time.perf_counter_ns() - start) / 1e6
        return ms, ms, (code, out.getvalue(), err.getvalue())

    @staticmethod
    def peak_rss_kb() -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    @staticmethod
    def check(op, outcome) -> str | None:
        return workloads.check_cli(op, *outcome)

    @staticmethod
    def error_kind(outcome) -> str | None:
        return {2: "parse", 1: "domain", 0: None}.get(outcome[0], "unexpected")


class SweepScan(Workload):
    """One cold child per op, forked by a zygote (``sweep_child.py``) that
    has imported the catalog and never called it; the child times the
    catalog call itself and reports its peak RSS."""

    tail_percentile = 75
    trace_ops = 16
    trace_block = 1
    traced_in_children = True

    def __init__(self, seed: int, trace: bool) -> None:
        self.stream = workloads.sweep_stream(seed)
        self.peak_kb = 0
        self.zygote = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("sweep_child.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        self.execute(workloads.Op(("anomaly_scan", 9), ("anomaly_scan", 9)))

    def execute(self, op, span_file: Path | None = None, op_id: int = 0):
        call, arg = op.args
        request = json.dumps([call, arg, str(span_file) if span_file else None, op_id])
        start = time.perf_counter_ns()
        self.zygote.stdin.write(request + "\n")
        self.zygote.stdin.flush()
        line = self.zygote.stdout.readline()
        busy = (time.perf_counter_ns() - start) / 1e6
        try:
            payload = json.loads(line)
        except ValueError:
            return busy, busy, ("unexpected", "the zygote gave no reply")
        if "error" in payload:
            return busy, busy, ("unexpected", payload["error"])
        self.peak_kb = max(self.peak_kb, payload["rss_kb"])
        return payload["call_ms"], busy, ("ok", payload["result"], payload.get("trace"))

    def peak_rss_kb(self) -> int:
        return self.peak_kb

    def close(self) -> None:
        self.zygote.stdin.close()
        self.zygote.wait()
        self.zygote.stdout.close()

    @staticmethod
    def check(op, outcome) -> str | None:
        if outcome[0] != "ok":
            return f"{op.args}: child failed: {outcome[1][-300:]}"
        return workloads.check_sweep(op, outcome[1])

    @staticmethod
    def error_kind(outcome) -> str | None:
        return "unexpected" if outcome[0] != "ok" else None


WORKLOADS = {"cli-oneshot": CliOneshot, "library-pairs": LibraryPairs, "sweep-scan": SweepScan}


class Tally:
    """Counts and input properties over the operations of one run.

    Latencies are kept as measured; ``pace`` closes the stretch of
    operations since its last call with the host correction of ``pace.py``,
    which ``paced_latencies`` and ``paced_busy_ms`` apply."""

    def __init__(self, workload) -> None:
        self.seen = set(workload.seen)
        self.in_process = workload.in_process
        self.slots = array.array("d", [0.0]) * workload.latency_slots
        self.count = 0
        self.busy_ms = 0.0
        self.stretches: list[tuple[int, float]] = []
        self.paced_busy_ms = 0.0
        self.busy_at_pace = 0.0
        self.failures: list[str] = []
        self.failed = 0
        self.repeats = 0
        self.errors = 0
        self.max_nodes = 0

    @property
    def latencies(self):
        return self.slots[:self.count]

    def add(self, op, latency_ms: float, busy_ms: float, reason: str | None) -> None:
        if self.count < len(self.slots):
            self.slots[self.count] = latency_ms
        else:
            self.slots.append(latency_ms)
        self.count += 1
        self.busy_ms += busy_ms
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(reason)
        if self.count <= PROPERTY_OPS:
            # Only a long-lived process can see a factor again.
            if self.in_process and op.keys <= self.seen:
                self.repeats += 1
            self.seen |= op.keys
            self.errors += op.error
            self.max_nodes = max(self.max_nodes, op.nodes)

    def pace(self, factor: float) -> None:
        """Correct the operations since the last call by ``factor``."""
        self.stretches.append((self.count, factor))
        self.paced_busy_ms += (self.busy_ms - self.busy_at_pace) * factor
        self.busy_at_pace = self.busy_ms

    def paced_latencies(self) -> array.array:
        paced = self.latencies
        start = 0
        for end, factor in self.stretches:
            for index in range(start, end):
                paced[index] *= factor
            start = end
        return paced

    def inputs(self) -> dict:
        n = min(self.count, PROPERTY_OPS) or 1
        return {
            "workload.repeat_share": self.repeats / n,
            "workload.max_complex_rank": self.max_nodes,
            "workload.error_share": self.errors / n,
        }


def tail(values: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * percentile / 100))
    return ordered[rank - 1], len(ordered) - rank


def timed_run(workload: Workload, seconds: float) -> dict:
    tally = Tally(workload)
    pacer = pace.Pacer(workload.pace_every_s)
    deadline = time.perf_counter() + seconds
    for op in workload.stream:
        latency, busy, outcome = workload.execute(op)
        tally.add(op, latency, busy, workload.check(op, outcome))
        if pacer.due():
            tally.pace(pacer.factor())
        if time.perf_counter() >= deadline:
            break
    tally.pace(pacer.factor())
    # Read before copying and sorting the latencies, which allocates with
    # the op count.
    peak_rss_kb = workload.peak_rss_kb()
    percentile = workload.tail_percentile
    wall = tally.latencies
    latencies = tally.paced_latencies()
    tail_ms, beyond = tail(latencies, percentile)
    result = {
        "attempted": tally.count,
        "failed": tally.failed,
        "failures": tally.failures,
        "metrics": {
            "op_p50_ms": statistics.median(latencies),
            "op_tail_ms": tail_ms,
            "ops_per_s": tally.count / (tally.paced_busy_ms / 1e3),
            "peak_rss_mb": peak_rss_kb / 1024,
        },
        "wall": {
            "op_p50_ms": statistics.median(wall),
            "op_tail_ms": tail(wall, percentile)[0],
            "ops_per_s": tally.count / (tally.busy_ms / 1e3),
        },
        "probe_ms": pacer.median_ms(),
        "probes": len(pacer.probes),
        "tail": {"percentile": percentile, "beyond": beyond, "samples": tally.count},
        "inputs": tally.inputs(),
        "inputs_ops": min(tally.count, PROPERTY_OPS),
    }
    if workload.interp_floor:
        result["interp.start_ms"] = interp_start_ms()
    return result


def interp_start_ms() -> float:
    """Median wall time of ``python -c pass`` with the benchmark's settings."""
    times = []
    for _ in range(PROBES):
        start = time.perf_counter_ns()
        _python("-c", "pass")
        times.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(times)


def import_ms(module: str) -> float:
    """Median time of ``import <module>`` measured inside fresh children."""
    code = f"import time; t = time.perf_counter_ns(); import {module}; print(time.perf_counter_ns() - t)"
    return statistics.median(int(_python("-c", code).stdout) / 1e6 for _ in range(PROBES))


class TracedRun:
    """The fixed prefix of a traced or a plain client, run block by block.

    A traced client rebinds the public functions around each of its ops
    (or, when ``traced_in_children``, has each child trace itself) and
    keeps the spans; ``result`` writes them to
    ``.perfbench/<workload>-seed<seed>*.jsonl`` and sums them per layer."""

    def __init__(self, name: str, workload: Workload, seed: int, traced: bool) -> None:
        self.name, self.workload, self.seed, self.traced = name, workload, seed, traced
        self.ops = list(itertools.islice(workload.stream, workload.trace_ops))
        self.tally = Tally(workload)
        self.tracer = tracing.Tracer()
        self.summaries: list[dict] = []
        self.errors = dict.fromkeys(("parse", "domain", "unexpected"), 0)
        if traced:
            SPAN_DIR.mkdir(exist_ok=True)

    def _execute(self, index: int, op):
        workload = self.workload
        if workload.traced_in_children:
            span_file = SPAN_DIR / f"{self.name}-seed{self.seed}-op{index}.jsonl" if self.traced else None
            return workload.execute(op, span_file, index)
        self.tracer.op = index
        if self.traced:
            self.tracer.install()
        try:
            return workload.execute_in_process(op)
        finally:
            self.tracer.uninstall()

    def block(self, number: int) -> dict:
        """Run block ``number``; return its summed latency and whether
        another block follows."""
        size = self.workload.trace_block
        first = number * size
        total_ms = 0.0
        for index, op in enumerate(self.ops[first:first + size], first):
            latency, busy, outcome = self._execute(index, op)
            total_ms += latency
            if not self.traced:
                continue
            self.tally.add(op, latency, busy, self.workload.check(op, outcome))
            kind = self.workload.error_kind(outcome)
            if kind:
                self.errors[kind] += 1
            if self.workload.traced_in_children and outcome[0] == "ok":
                self.summaries.append(outcome[2])
        return {"ms": total_ms, "more": first + size < len(self.ops)}

    def result(self) -> dict:
        if not self.workload.traced_in_children:
            self.tracer.write(SPAN_DIR / f"{self.name}-seed{self.seed}.jsonl")
            self.summaries.append(self.tracer.summary())
        per_layer = tracing.merge(self.summaries)
        per_layer.update(self.tally.inputs())
        per_layer.update({f"errors.{kind}": count for kind, count in self.errors.items()})
        per_layer.update({
            "interp.start_ms": interp_start_ms(),
            "import.ahrank_ms": import_ms("ahrank"),
            "import.ahrank_cli_ms": import_ms("ahrank.cli"),
            "trace.ops": self.tally.count,
        })
        return {
            "attempted": self.tally.count,
            "failed": self.tally.failed,
            "failures": self.tally.failures,
            "metrics": per_layer,
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "plain", "traced"), required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload](args.seed, args.mode != "timed")
    try:
        serve(args, workload)
    finally:
        workload.close()
    return 0


def serve(args, workload: Workload) -> None:
    print("ready", flush=True)
    if args.mode == "timed":
        if sys.stdin.readline().strip() == "go":
            print(json.dumps(timed_run(workload, args.seconds)), flush=True)
        return
    run = TracedRun(args.workload, workload, args.seed, args.mode == "traced")
    line = ""
    for line in sys.stdin:
        command, _, number = line.partition(" ")
        if command != "block":
            break
        print(json.dumps(run.block(int(number))), flush=True)
    if run.traced and line.strip() == "end":
        print(json.dumps(run.result()), flush=True)


if __name__ == "__main__":
    sys.exit(main())
