"""Pinned outputs: the emitted JSON (values and diagnostics) and the text
output of a few small problems must stay byte-identical.

The cases cover sine and theta with denominator scale D = 1, 2, 3 and 6, a
rank-2 problem, q-orders 0 to 3, a chi_y that is not a Laurent polynomial,
and the rank-3 framed A^3 quiver of length 3, whose residue steps raise
numerator factors to powers below the step's target.  To regenerate the
expected documents after a deliberate change of the output, run
`PYTHONPATH=src python tests/test_pinned_outputs.py`.

The digest of the benchmark decks (`tests/deck_digest.py`) is pinned in
`tests/data/deck_digest.txt`; regenerate it with
`python3 tests/deck_digest.py > tests/data/deck_digest.txt`.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from jkcalc import cli

DATA = Path(__file__).with_name("data") / "pinned_outputs.json"
TEXT = DATA.with_name("pinned_text.json")
DIGEST = DATA.with_name("deck_digest.txt")
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def framed_a3(charges):
    """The framed A^3 quiver of length 3 and framing 1 at loop `charges`."""
    lines = [f"degree {sum(charges)}", "node X gauged 3", "node F framed 1",
             *(f"arrow X X {c}" for c in charges), "arrow F X 0", "xi X 1"]
    return "mode quiver\nlabel a3-n3-r1\n" + "\n".join(lines) + "\n"


CASES = {
    "quintic-q3": ((CONFIGS / "quintic.cfg").read_text(), 3),
    "ci-p4-5-q0": ("mode projective-bundle\nlabel ci-p4-5\nn 4\ndegrees [5]\n", 0),
    "ci-p5-3-3-q1": ("mode projective-bundle\nlabel ci-p5-3-3\nn 5\ndegrees [3,3]\n", 1),
    "cy3-g24-q2": ((CONFIGS / "cy3-g24.cfg").read_text(), 2),
    "p21-q2": ("mode raw\nlabel p21\nrank 1\nxi [1]\nweight [2] 1 1\nweight [1] 0 1\n", 2),
    "wp12-q1": ("mode raw\nlabel wp12\nrank 1\nxi [1]\nweight [1] 0 1\nweight [2] 0 1\n", 1),
    "wp123-q1": ("mode raw\nlabel wp123\nrank 1\nxi [1]\nweight [1] 0 1\n"
                 "weight [2] 0 1\nweight [3] 1 1\n", 1),
    "wp23-degree2-q2": ("mode raw\nlabel wp23\nrank 1\ndegree 2\nxi [1]\n"
                        "weight [2] 1 1\nweight [3] 2 1\n", 2),
    "rational-chi-y-q1": ("mode raw\nrank 1\ndegree -1\nxi [2]\nweight [2] 3 3\n"
                          "weight [-2] 3 1\nweight [-3] 2 2\n", 1),
    "a3-n3-r1-111-q2": (framed_a3((1, 1, 1)), 2),
    "a3-n3-r1-122-q2": (framed_a3((1, 2, 2)), 2),
}


def emitted(text, q_order, emit="json"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            code = cli.run(["-", "--invariant", "all", "--q-order", str(q_order),
                            "--emit", emit])
        finally:
            sys.stdin = stdin
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("name", CASES)
def test_emitted_json_is_byte_identical(name):
    expected = json.loads(DATA.read_text())[name]
    assert emitted(*CASES[name]) == expected


@pytest.mark.parametrize("name", CASES)
def test_emitted_text_is_byte_identical(name):
    expected = json.loads(TEXT.read_text())[name]
    assert emitted(*CASES[name], emit="text") == expected


def test_deck_digest_is_pinned():
    # the script imports jkcalc from the checkout's src/ itself, so it runs
    # in a process of its own
    script = Path(__file__).with_name("deck_digest.py")
    run = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         check=True)
    assert run.stdout == DIGEST.read_text()


if __name__ == "__main__":
    DATA.write_text(json.dumps({name: emitted(*case) for name, case in CASES.items()},
                               indent=1, sort_keys=True) + "\n")
    TEXT.write_text(json.dumps({name: emitted(*case, emit="text") for name, case in CASES.items()},
                               indent=1, sort_keys=True) + "\n")
