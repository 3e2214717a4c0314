"""Exact property checks of the linear algebra on seeded random matrices, and
the fraction-free elimination against the Fraction reference."""

import random
from fractions import Fraction
from math import gcd

import linalg_reference
from jkcalc import builders, invariants, linalg

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
    """inverse returns integer rows over the least common denominator d > 0:
    a inv = inv a = d I, gcd(d, every entry) = 1, and inv / d is the
    Fraction reference's inverse."""
    rng = random.Random(RNG_SEED + 1)
    checked = 0
    for n, a in _square_cases(rng):
        out = linalg.inverse(a)
        if linalg.rank(a) < n:
            assert out is None
            continue
        inv, d = out
        scaled = [tuple(d * int(i == j) for j in range(n)) for i in range(n)]
        assert _mat_mul(a, inv) == scaled
        assert _mat_mul(inv, a) == scaled
        assert all(type(x) is int for row in inv for x in row)
        assert d > 0 and gcd(d, *(x for row in inv for x in row)) == 1
        assert [tuple(Fraction(x, d) for x in row) for row in inv] \
            == linalg_reference.inverse(a)
        checked += d > 1
    assert checked >= 10


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


# ---------------------------------------------------------------------------
# the fraction-free elimination against the Fraction reference

def _entry(rng, style):
    if style == "int":
        return rng.randint(-4, 4)
    if style == "small":
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 7)))
    if style == "large":
        return Fraction(rng.randint(-10**12, 10**12), rng.choice((10**9 + 7, 2**61 - 1, 3**30)))
    return _entry(rng, rng.choice(("int", "small", "large")))     # "mixed"


def _rational_matrix(rng, nrows, ncols, rank, style):
    """nrows x ncols of rank at most `rank`, with duplicate, zero and scaled
    rows and zero columns mixed in."""
    b = [[_entry(rng, style) for _ in range(rank)] for _ in range(nrows)]
    c = [[_entry(rng, style) for _ in range(ncols)] for _ in range(rank)]
    mat = [[sum((b[i][k] * c[k][j] for k in range(rank)), 0) for j in range(ncols)]
           for i in range(nrows)]
    if nrows > 1 and rng.random() < 0.3:
        mat[rng.randrange(nrows)] = [x * _entry(rng, "small") for x in mat[rng.randrange(nrows)]]
    if rng.random() < 0.2:
        mat[rng.randrange(nrows)] = [0] * ncols
    if rng.random() < 0.2:
        col = rng.randrange(ncols)
        for row in mat:
            row[col] = 0
    return [tuple(row) for row in mat]


def _elimination_cases(rng):
    for style in ("int", "small", "large", "mixed"):
        for _ in range(TRIALS):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)    # wide, tall, square
            yield _rational_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)), style)
            n = rng.randint(1, 4)
            a = _rational_matrix(rng, n, n, rng.randint(1, n), style)
            yield [row + (_entry(rng, style),) for row in a]                    # [A | b]
            yield [row + tuple(int(i == j) for j in range(n)) for i, row in enumerate(a)]  # [A | I]


def _divided_by_pivots(echelon):
    """The (rows, pivots) of `linalg._echelon` with each row divided by its
    pivot: the reduced row echelon form, as the reference returns it."""
    rows, pivots = echelon
    return [tuple(Fraction(x, row[p]) for x in row) for row, p in zip(rows, pivots)], pivots


def test_echelon_matches_fraction_reference():
    rng = random.Random(RNG_SEED + 6)
    count = 0
    for mat in _elimination_cases(rng):
        rows, pivots = linalg._echelon(mat)
        assert _divided_by_pivots((rows, pivots)) == linalg_reference.echelon(mat), mat
        # primitive integer rows with positive pivots
        assert all(type(x) is int for row in rows for x in row)
        assert all(row[p] > 0 and gcd(*row) == 1 for row, p in zip(rows, pivots))
        count += 1
    assert count == 4 * 3 * TRIALS


def test_det_matches_fraction_reference_with_row_swaps():
    assert linalg.det([[0, 1], [1, 0]]) == -1
    assert linalg.det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert linalg.det([[0, 2, 1], [0, 0, 3], [5, 0, 0]]) == 30
    assert linalg.det([[0, Fraction(1, 2)], [Fraction(2, 3), 0]]) == Fraction(-1, 3)
    assert linalg.det([[0, 1], [0, 2]]) == 0
    assert linalg.det([]) == 1
    rng = random.Random(RNG_SEED + 7)
    swaps = 0
    for style in ("int", "small", "large", "mixed"):
        for _ in range(TRIALS):
            n = rng.randint(1, 5)
            mat = [list(row) for row in _rational_matrix(rng, n, n, rng.randint(1, n), style)]
            for i in rng.sample(range(n), rng.randint(0, n)):
                mat[i][i] = 0           # zeros on the diagonal force row swaps
            swaps += mat[0][0] == 0 and any(row[0] != 0 for row in mat)
            got = linalg.det(mat)
            assert got == linalg_reference.det(mat), mat
            assert type(got) is Fraction
    assert swaps > TRIALS


def test_echelon_calls_of_a_pipeline_match_the_reference(monkeypatch):
    calls = []
    echelon = linalg._echelon

    def shadow(rows):
        out = echelon(rows)
        calls.append((list(rows), out))
        return out

    monkeypatch.setattr(linalg, "_echelon", shadow)
    result = invariants.compute(builders.framed_a3_problem(2, 1, (1, 1, 1)), kind="additive")
    assert result.dt == 12 and calls
    for rows, out in calls:
        assert _divided_by_pivots(out) == linalg_reference.echelon(rows)
