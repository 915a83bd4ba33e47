"""Spans around the public functions of the ahrank modules.

The tracer wraps each function named in ``SPANS`` and rebinds the wrapper
in every loaded ``ahrank`` module that holds the original, so calls made
inside the package are traced too.  Nothing under ``src/`` changes.

A span is (id, name, start_ns, end_ns, parent id, op id).  Spans stay in
memory until ``write``.  Self time is a span's duration minus the time its
direct child spans cover; calls are single-threaded, so children nest and
never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time

#: Traced functions as (module, function), in the package's layer order.
SPANS = (
    ("notation", "parse_expression"),
    ("notation", "render"),
    ("satake", "satake_of"),
    ("satake", "real_forms"),
    ("rootsys", "iota"),
    ("cones", "matching_classes"),
    ("cones", "antipodal_classes"),
    ("cones", "factor_profile"),
    ("cones", "rank_profile"),
    ("decision", "decide"),
    ("catalog", "anomaly_scan"),
    ("catalog", "verify_table1"),
    ("cli", "main"),
)
SPAN_NAMES = tuple(f"{module}.{function}" for module, function in SPANS)

#: Spans whose first argument is also counted once per distinct value.
DISTINCT = {"satake.satake_of"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self._stack: list[int] = []
        self._bindings: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        seen = self.distinct.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            if seen is not None:
                seen.add(args[0])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, name, start, end, parent, self.op)

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded ahrank module;
        functions of modules not loaded are never called, so stay as is."""
        modules = [m for n, m in list(sys.modules.items()) if n == "ahrank" or n.startswith("ahrank.")]
        for module_name, function in SPANS:
            home = sys.modules.get(f"ahrank.{module_name}")
            if home is None:
                continue
            original = getattr(home, function)
            wrapper = self._wrap(f"{module_name}.{function}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._bindings.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def summary(self) -> dict[str, float]:
        """``<span>.calls`` and ``<span>.self_ms`` for every span name, and
        ``<span>.distinct`` (distinct first arguments) for ``DISTINCT``."""
        child_ns = [0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_ns = dict.fromkeys(SPAN_NAMES, 0)
        for sid, name, start, end, _, _ in self.spans:
            calls[name] += 1
            self_ns[name] += end - start - child_ns[sid]
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_ns[name] / 1e6
        for name, values in self.distinct.items():
            out[f"{name}.distinct"] = len(values)
        return out

    def write(self, path) -> None:
        """Write the spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def merge(summaries) -> dict[str, float]:
    """Sum the summaries of several tracers (one per process), then turn
    each distinct count into a share of the span's calls."""
    total: dict[str, float] = {}
    for summary in summaries:
        for key, value in summary.items():
            total[key] = total.get(key, 0) + value
    for name in DISTINCT:
        distinct = total.pop(f"{name}.distinct", 0)
        calls = total.get(f"{name}.calls", 0)
        total[f"{name}.distinct_ratio"] = distinct / calls if calls else 0.0
    return total
