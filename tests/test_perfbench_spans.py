"""The benchmark against the program: the traced run (`perfbench/run.py
--trace 1`) wraps program functions by attribute path, so every path it names
must exist in the sources, and the benchmark's self-test must pass on them."""

import importlib
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for name, module, path, _ in spans.TARGETS:
        target = spans._resolve(importlib.import_module(f"jkcalc.{module}"), path)
        assert callable(target), name


def test_benchmark_selftest_passes(tmp_path):
    """`perfbench/selftest.py` runs the benchmark end to end, so it fails when
    the program stops offering what `perfbench/run.py` reads (the config's
    q_order, seed and build_problem, the diagnostics' retries).  It runs on a
    copy, since it rewrites `perfbench/out/spans-*.csv`."""
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "selftest.py")],
                          cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
