"""The traced benchmark run (`perfbench/run.py --trace 1`) wraps program
functions by attribute path; every path it names must exist in the sources."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for name, module, path, _ in spans.TARGETS:
        target = spans._resolve(importlib.import_module(f"jkcalc.{module}"), path)
        assert callable(target), name
