"""Exact linear algebra over Fraction vectors, plus integer Hermite normal form.

Vectors are tuples of Fraction (or int); matrices are lists of row tuples.
Everything here is dense and desk-scale: ranks up to ~6, a few hundred rows.
Integer entries stay `int` until a pivot division touches their row, so
integral input (primitive normals, identity blocks) is eliminated with int
arithmetic as far as it goes; every reduced row `_echelon` returns has been
divided by its pivot and so holds Fractions.

There is one Gauss-Jordan elimination, `_echelon`.  `rank`, `rref`, `solve`,
`inverse`, `solve_coords`, `in_span` and `kernel_line` each eliminate one
matrix with it (augmented by a right-hand side, an identity block or a target
column) and read their answer off the pivots and reduced rows.  `det` keeps
its own forward elimination because it needs the unscaled pivot product and
the sign of the row swaps, which `_echelon` discards.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def fvec(v) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in v)


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(a, c):
    c = Fraction(c)
    return tuple(c * x for x in a)


def vec_dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def is_zero_vec(a) -> bool:
    return all(x == 0 for x in a)


def primitive(v) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector with a canonical sign."""
    v = fvec(v)
    if is_zero_vec(v):
        return tuple(0 for _ in v)
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def _echelon(rows):
    """Gauss-Jordan elimination of a copy of `rows`; returns (reduced nonzero
    rows, pivot column list)."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def rank(rows) -> int:
    if not rows:
        return 0
    return len(_echelon(rows)[0])


def rref(rows):
    """Reduced row echelon basis of the span of `rows` (canonical for the subspace)."""
    return _echelon(rows)[0]


def _unique_solution(augmented, n):
    """The solution of an augmented system [M | b] in n unknowns, or None
    unless it has exactly one (pivots exactly in columns 0..n-1)."""
    ech, pivots = _echelon(augmented)
    if pivots != list(range(n)):
        return None
    return tuple(row[n] for row in ech)


def in_span(v, rows) -> bool:
    """True unless eliminating [rows^T | v] puts a pivot in the v column."""
    return len(rows) not in _echelon(list(zip(*rows, v)))[1]


def det(mat) -> Fraction:
    """Determinant by forward elimination.

    Kept apart from `_echelon`, which scales pivots to 1 and does not count
    row swaps: the determinant is the product of the unscaled pivots times
    the swap sign.
    """
    m = [list(fvec(r)) for r in mat]
    n = len(m)
    sign = 1
    d = Fraction(1)
    for c in range(n):
        piv = None
        for i in range(c, n):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        d *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return d * sign


def solve(mat, b):
    """Solve the square system mat * x = b exactly; None if singular."""
    return _unique_solution([tuple(r) + (b[i],) for i, r in enumerate(mat)], len(mat))


def inverse(mat):
    """Exact inverse of a square matrix; None if singular."""
    n = len(mat)
    ech, pivots = _echelon([tuple(r) + tuple(int(i == j) for j in range(n))
                            for i, r in enumerate(mat)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in ech]


def solve_coords(vectors, target):
    """Coordinates of `target` in the independent family `vectors` (rows).

    None when the vectors are dependent or `target` is outside their span.
    """
    return _unique_solution(list(zip(*vectors, target)), len(vectors))


def kernel_line(rows):
    """A vector spanning the kernel of the matrix `rows`, or None unless that
    kernel is one-dimensional.  The free coordinate is 1."""
    ncols = len(rows[0])
    ech, pivots = _echelon(rows)
    if len(pivots) != ncols - 1:
        return None
    free = next(c for c in range(ncols) if c not in pivots)
    out = [Fraction(0)] * ncols
    out[free] = Fraction(1)
    for row, p in zip(ech, pivots):
        out[p] = -row[free]
    return tuple(out)


def hyperplane_normal(rows, dim):
    """Primitive normal of the span of dim-1 independent rows; None if dependent.

    For dim == 1 the empty set spans {0} and every vector is "normal"; we
    return the 1-dimensional unit so callers can test sign consistency.
    """
    if dim == 1:
        return (1,) if not rows else None
    if len(rows) != dim - 1:
        raise ValueError("need exactly dim-1 rows")
    normal = kernel_line(rows)
    return None if normal is None else primitive(normal)


def hnf(rows):
    """Row-style Hermite normal form basis of the integer row span.

    Input rows must be integral. Returns a list of linearly independent
    integer rows, upper triangular w.r.t. pivot columns, pivots positive,
    entries above each pivot reduced into [0, pivot).
    """
    mat = [list(int(x) for x in r) for r in rows if not is_zero_vec(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    basis = []
    r = 0
    for c in range(ncols):
        # gather rows with nonzero entry in column c at or below r
        while True:
            live = [i for i in range(r, len(mat)) if mat[i][c] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(mat[i][c]))
            i0 = live[0]
            for i in live[1:]:
                q = mat[i][c] // mat[i0][c]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[i0])]
        live = [i for i in range(r, len(mat)) if mat[i][c] != 0]
        if not live:
            continue
        i0 = live[0]
        mat[r], mat[i0] = mat[i0], mat[r]
        if mat[r][c] < 0:
            mat[r] = [-a for a in mat[r]]
        # reduce entries above the pivot
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return [tuple(row) for row in mat[:r]]
