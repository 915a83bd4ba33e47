"""Cold children of the sweep-scan workload, forked from an imported zygote.

    python perfbench/sweep_child.py

The zygote imports ``ahrank.catalog`` and never calls into it.  For each
JSON request ``[CALL, ARG, SPAN_FILE or null, OP_ID]`` on stdin it forks
one child, which runs the catalog call, times it inside, prints one JSON
line and exits; the zygote waits for the child before it reads the next
request, and ends at the end of its input.

Each child so starts as a fresh interpreter would after ``import
ahrank.catalog``, with no call made before it, while interpreter start and
import are paid once, in set-up.  A child's line holds the call's time,
its result, its peak RSS and, when a span file is given, the per-layer
summary of the traced call; or ``{"error": ...}`` if the call raised.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

from ahrank import catalog


def run_call(call: str, arg: int, span_file: str | None, op_id: int) -> dict:
    tracer = None
    if span_file:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.op = op_id
        tracer.install()
    function = getattr(catalog, call)
    start = time.perf_counter_ns()
    result = function(arg)
    elapsed = time.perf_counter_ns() - start
    payload = {
        "call_ms": elapsed / 1e6,
        "result": [str(spec) for spec in result] if call == "anomaly_scan" else result.to_dict(),
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(span_file)
        payload["trace"] = tracer.summary()
    payload["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return payload


def child(request: str) -> None:
    """Body of a forked child; never returns."""
    status = 1
    try:
        try:
            payload = run_call(*json.loads(request))
        except Exception:  # reported to the client as a failed op
            payload = {"error": traceback.format_exc()}
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()
        status = 0
    finally:
        os._exit(status)


def main() -> int:
    for request in sys.stdin:
        pid = os.fork()
        if pid == 0:
            child(request)
        _, status = os.waitpid(pid, 0)
        if status != 0:
            print(json.dumps({"error": f"child ended with wait status {status}"}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
