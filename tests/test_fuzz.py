"""Seeded fuzz slice: random raw configurations through the command line.

Every run must end in a documented exit code (0, or 2, 3, 4 for validation,
config and internal errors) without an escaping exception, and every success
must satisfy the specialization identities and the independence of DT from
s and from the perturbation seed; a success with fractional stable points
must also pass the fractional reduction check.
"""

import contextlib
import io
import random

import pytest

from jkcalc import cli, invariants
from jkcalc.config import parse_config


def fuzz_config(rng):
    """Rank 1-2, 2-4 weight lines of multiplicity <= 3, random charges,
    degree and stability."""
    rank = rng.randint(1, 2)

    def cov():
        return "[" + ",".join(str(rng.randint(-3, 3)) for _ in range(rank)) + "]"

    lines = ["mode raw", f"rank {rank}", f"degree {rng.choice([-2, -1, 1, 2, 3])}",
             f"xi {cov()}"]
    for _ in range(rng.randint(2, 4)):
        lines.append(f"weight {cov()} {rng.randint(-1, 3)} {rng.randint(1, 3)}")
    return "\n".join(lines) + "\n"


_rng = random.Random(1)
CONFIGS = {f"fuzz-{i:02d}": fuzz_config(_rng) for i in range(50)}
# ran for minutes before rational values were reduced by one integer gcd
CONFIGS["slow-gcd"] = ("mode raw\nrank 1\ndegree -1\nxi [2]\nweight [2] 3 3\n"
                       "weight [-2] 3 1\nweight [-3] 2 2\n")
# the S_1 and w exponents of its rank-2 flags are correlated: the packed
# series products must follow a w range that drifts with S_1
CONFIGS["rank2-drift"] = ("mode raw\nrank 2\ndegree -1\nxi [-3,-3]\nweight [2,-1] 0 3\n"
                          "weight [3,3] 0 2\nweight [-1,2] 1 3\nweight [-1,-2] 2 3\n")


@pytest.mark.parametrize("text", CONFIGS.values(), ids=CONFIGS.keys())
def test_raw_config_exits_cleanly_and_satisfies_identities(text, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(["-", "--invariant", "all", "--q-order", "1", "--emit", "json"])
    assert code in (0, 2, 3, 4)
    if code == 0:
        result = cli.result_from_json(out.getvalue())
        cfg = parse_config(text)
        problem = cfg.build_problem()
        # chi_y of an "all" run is its Ell(q=0): compare with a sine run
        invariants.specialize(result, invariants.compute(problem, kind="sine", seed=cfg.seed))
        assert invariants.compute(problem, kind="additive", s=2).dt == result.dt
        assert invariants.compute(problem, kind="additive", seed=cfg.seed + 1).dt == result.dt
        if invariants.integrality_scale(problem, invariants.validate(problem).stable_points) > 1:
            assert invariants.fractional_reduction_check(problem, q_order=0)["ok"]
