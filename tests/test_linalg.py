"""Exact property checks of the linear algebra on seeded random integer matrices."""

import random
from fractions import Fraction
from math import gcd

from jkcalc import linalg

RNG_SEED = 20231107
TRIALS = 60


def _random_matrix(rng, nrows, ncols, rank):
    """An integer nrows x ncols matrix of rank at most `rank` (B * C)."""
    b = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(nrows)]
    c = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rank)]
    return [tuple(sum(b[i][k] * c[k][j] for k in range(rank)) for j in range(ncols))
            for i in range(nrows)]


def _mat_vec(mat, x):
    return tuple(sum(a * b for a, b in zip(row, x)) for row in mat)


def _mat_mul(a, b):
    return [tuple(sum(row[k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
            for row in a]


def _combination(vectors, coords, dim):
    return tuple(sum(c * v[j] for c, v in zip(coords, vectors)) for j in range(dim))


def _square_cases(rng):
    for _ in range(TRIALS):
        n = rng.randint(1, 4)
        yield n, _random_matrix(rng, n, n, rng.randint(1, n))


def test_solve_reproduces_rhs_or_reports_singular():
    rng = random.Random(RNG_SEED)
    for n, a in _square_cases(rng):
        b = tuple(rng.randint(-5, 5) for _ in range(n))
        x = linalg.solve(a, b)
        if linalg.rank(a) < n:
            assert x is None
        else:
            assert _mat_vec(a, x) == b


def test_inverse_is_two_sided_or_reports_singular():
    rng = random.Random(RNG_SEED + 1)
    ident = {n: [tuple(int(i == j) for j in range(n)) for i in range(n)] for n in range(5)}
    for n, a in _square_cases(rng):
        inv = linalg.inverse(a)
        if linalg.rank(a) < n:
            assert inv is None
        else:
            assert _mat_mul(a, inv) == ident[n]
            assert _mat_mul(inv, a) == ident[n]


def test_singular_matrix_gives_none():
    a = [(1, 2, 3), (2, 4, 6), (0, 1, 1)]
    assert linalg.solve(a, (1, 2, 3)) is None
    assert linalg.solve(a, (1, 2, 0)) is None
    assert linalg.inverse(a) is None
    assert linalg.det(a) == 0


def test_solve_coords_independent_non_square_families():
    rng = random.Random(RNG_SEED + 2)
    checked = 0
    for _ in range(TRIALS):
        dim = rng.randint(2, 4)
        k = rng.randint(1, dim)
        vectors = _random_matrix(rng, k, dim, dim)
        if linalg.rank(vectors) != k:
            continue
        coords = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k))
        target = _combination(vectors, coords, dim)
        assert linalg.solve_coords(vectors, target) == coords
        checked += 1
    assert checked > TRIALS // 2


def test_solve_coords_rejects_dependent_family_and_outside_target():
    rng = random.Random(RNG_SEED + 3)
    for _ in range(TRIALS):
        dim = rng.randint(2, 4)
        k = rng.randint(1, dim)
        vectors = _random_matrix(rng, k, dim, rng.randint(1, dim))
        target = tuple(rng.randint(-3, 3) for _ in range(dim))
        coords = linalg.solve_coords(vectors, target)
        independent = linalg.rank(vectors) == k
        inside = linalg.rank(vectors + [target]) == linalg.rank(vectors)
        if independent and inside:
            assert _combination(vectors, coords, dim) == target
        else:
            assert coords is None
    assert linalg.solve_coords([(1, 0, 0), (2, 0, 0)], (3, 0, 0)) is None
    assert linalg.solve_coords([(1, 0, 0), (0, 1, 0)], (0, 0, 1)) is None
    assert linalg.solve_coords([], (0, 0)) == ()
    assert linalg.solve_coords([], (0, 1)) is None


def test_in_span_agrees_with_rank():
    rng = random.Random(RNG_SEED + 4)
    for _ in range(TRIALS):
        dim = rng.randint(1, 4)
        rows = _random_matrix(rng, rng.randint(1, 4), dim, rng.randint(1, dim))
        if rng.random() < 0.5:
            v = _combination(rows, [rng.randint(-2, 2) for _ in rows], dim)
        else:
            v = tuple(rng.randint(-3, 3) for _ in range(dim))
        assert linalg.in_span(v, rows) == (linalg.rank(rows + [v]) == linalg.rank(rows))
    assert linalg.in_span((0, 0), [])
    assert not linalg.in_span((0, 1), [])


def test_hyperplane_normal_is_primitive_and_orthogonal():
    rng = random.Random(RNG_SEED + 5)
    for _ in range(TRIALS):
        dim = rng.randint(2, 4)
        rows = _random_matrix(rng, dim - 1, dim, rng.randint(1, dim - 1))
        normal = linalg.hyperplane_normal(rows, dim)
        if linalg.rank(rows) < dim - 1:
            assert normal is None
            continue
        assert all(type(x) is int for x in normal)
        g = 0
        for x in normal:
            g = gcd(g, x)
        assert g == 1
        assert next(x for x in normal if x != 0) > 0
        assert all(linalg.vec_dot(normal, row) == 0 for row in rows)
