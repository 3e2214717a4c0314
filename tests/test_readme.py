"""The README's library example runs, and prints what its comments state;
the attributes it names exist."""

import contextlib
import dataclasses
import io
import re
from pathlib import Path

from jkcalc import arrangement, invariants

README = Path(__file__).resolve().parent.parent / "README.md"

# the classes whose attributes the README names as `Class.attribute`
DOCUMENTED = {cls.__name__: cls for cls in (
    invariants.Diagnostics, invariants.PointDiagnostics, invariants.InvariantResult,
    invariants.HypothesisReport, arrangement.Flag, arrangement.IntersectionPoint)}


def library_example():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_with_the_stated_values():
    code = library_example()
    assert "# 176\n" in code and "# {-1: 88, 1: 88}," in code
    namespace = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), namespace)
    assert printed.getvalue().splitlines() == ["176", "1"]
    assert namespace["result"].dt == 176
    assert namespace["laurent"] == {-1: 88, 1: 88}


def test_every_attribute_the_readme_names_exists():
    named = set(re.findall(r"\b(" + "|".join(DOCUMENTED) + r")\.(\w+)",
                           README.read_text(encoding="utf-8")))
    assert named
    missing = sorted(f"{owner}.{name}" for owner, name in named
                     if not hasattr(DOCUMENTED[owner], name)
                     and name not in {f.name for f in dataclasses.fields(DOCUMENTED[owner])})
    assert missing == []
