"""The benchmark tracer wraps package functions by name; each must exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_trace_spans_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SPANS
    for module, function in tracer.SPANS:
        target = getattr(importlib.import_module(f"ahrank.{module}"), function, None)
        assert callable(target), f"ahrank.{module}.{function}"
