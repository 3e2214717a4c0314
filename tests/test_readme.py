"""The README's library example runs, and prints what its comments state."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


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
