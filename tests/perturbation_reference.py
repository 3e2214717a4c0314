"""Reference perturbation search: eps = 0 first, then for each seeded
direction r the halvings eps = 1/10, 1/20, ... each checked by
`verify_perturbation`, as `arrangement.sum_regular_perturbation` worked before
it computed eps in closed form.  Tests compare the two."""

import random
from fractions import Fraction

from jkcalc import linalg
from jkcalc.arrangement import PerturbationError, verify_perturbation
from jkcalc.linalg import fvec, is_zero_vec

DIRECTIONS = 5
HALVINGS = 60


def sum_regular_perturbation(xi, walls, seed=0):
    xi = fvec(xi)
    try:
        return verify_perturbation(xi, xi, walls, seed=seed)
    except PerturbationError:
        pass
    rng = random.Random(seed)
    for _ in range(DIRECTIONS):
        r = tuple(Fraction(rng.randint(-9, 9)) for _ in xi)
        if is_zero_vec(r):
            continue
        eps = Fraction(1, 10)
        for _ in range(HALVINGS):
            cand = linalg.vec_add(xi, linalg.vec_scale(r, eps))
            try:
                return verify_perturbation(xi, cand, walls, seed=seed)
            except PerturbationError:
                eps /= 2
    raise PerturbationError("no sum-regular perturbation found (degenerate input?)")
