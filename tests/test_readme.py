"""The README's library example runs, and prints what its comments state;
the attributes and code names it and the sources' docstrings name exist."""

import contextlib
import dataclasses
import importlib
import io
import pkgutil
import re
from pathlib import Path

import jkcalc
from jkcalc import arrangement, invariants

README = Path(__file__).resolve().parent.parent / "README.md"
SOURCES = Path(jkcalc.__file__).resolve().parent
MODULES = {m.name: importlib.import_module(f"jkcalc.{m.name}")
           for m in pkgutil.iter_modules(jkcalc.__path__)}

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


def code_names():
    """(file, name, owners, parts) for each backticked code name of
    README.md and the jkcalc sources, its attribute chain `parts` to be
    resolved in one of `owners`: a dotted name `module.attr` whose module is
    a jkcalc module, resolved in it, and a `_private` name, resolved in the
    source file's own module, or for the README in any jkcalc module."""
    for path in (README, *sorted(SOURCES.glob("*.py"))):
        for span in re.findall(r"`([^`\n]+)`", path.read_text(encoding="utf-8")):
            match = re.match(r"[A-Za-z_]\w*(?:\.\w+)*", span)
            if match is None:
                continue
            name = match.group()
            first, *rest = name.split(".")
            if first in MODULES and rest:
                yield path.name, name, [MODULES[first]], rest
            elif first.startswith("_") and not first.startswith("__"):
                own = MODULES.get(path.stem) if path.suffix == ".py" else None
                yield path.name, name, [own] if own else MODULES.values(), [first, *rest]


def resolves(owner, parts):
    """`parts` is an attribute chain of `owner`, or ends in a field of a
    dataclass on it."""
    for part in parts:
        if hasattr(owner, part):
            owner = getattr(owner, part)
        else:
            return dataclasses.is_dataclass(owner) and \
                part in {f.name for f in dataclasses.fields(owner)}
    return True


def test_every_code_name_in_the_docs_resolves():
    names = list(code_names())
    assert len(names) > 40
    stale = sorted({f"{path}: {name}" for path, name, owners, parts in names
                    if not any(resolves(owner, parts) for owner in owners)})
    assert stale == []
