"""Exact linear algebra over rational vectors, plus integer Hermite normal form.

Vectors are tuples of int (or Fraction, where an entry is rational);
matrices are lists of row tuples.  Everything here is dense and desk-scale:
ranks up to ~6, a few hundred rows.  The arithmetic runs on integers: each
row is first cleared of denominators (`cleared`), eliminations are
fraction-free, and the reduced rows stay integer rows.  A Fraction is built
only for a rational result: each entry that `solve` or `solve_coords`
returns, and the value of `det`.  `inverse` returns integer rows over one
denominator instead, and `kernel_line` a primitive integer vector, as their
callers read only integers or signs.

There is one Gauss-Jordan elimination, `_echelon`.  `rank`, `rref`, `solve`,
`inverse`, `solve_coords`, `in_span` and `kernel_line` each eliminate one
matrix with it (augmented by a right-hand side, an identity block or a target
column) and read their answer off the pivots and reduced rows: a reduced row
divided by its pivot is the row of the reduced row echelon form.  `det` keeps
its own elimination (Bareiss) because it needs the pivot product and the sign
of the row swaps, which `_echelon` discards.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_dot(a, b):
    return sum(map(mul, a, b))


def is_zero_vec(a) -> bool:
    return all(x == 0 for x in a)


def cleared(v) -> tuple[list[int], int]:
    """(ints, d) with v = ints / d, d > 0 the least common denominator."""
    d = 1
    for x in v:
        if x.denominator != 1:
            d = lcm(d, x.denominator)
    return [x.numerator * (d // x.denominator) for x in v], d


def _primitive_row(row) -> list[int]:
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def primitive(v) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector with a canonical sign."""
    ints = _primitive_row(cleared(v)[0])
    if next((x for x in ints if x != 0), 0) < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def _echelon(rows):
    """Gauss-Jordan elimination of a copy of `rows`; returns (reduced nonzero
    rows, pivot column list).

    Fraction-free: rows are cleared of denominators, and a row update is
    row_i <- p*row_i - f*row_r (p the pivot, f the entry to clear, both
    divided by their gcd) followed by division by the row's content.  Each
    reduced row is a primitive integer row with a positive pivot: the one
    such multiple of the row of the reduced row echelon form, which is
    unique, so the rows are canonical for the row space.
    """
    mat = [_primitive_row(cleared(r)[0]) for r in rows]
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
        prow = mat[r]
        p = prow[c]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f != 0:
                g = gcd(p, f)
                a, b = p // g, f // g
                mat[i] = _primitive_row([a * x - b * y for x, y in zip(mat[i], prow)])
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) if row[c] > 0 else tuple(-x for x in row)
            for row, c in zip(mat, pivots)], pivots


def rank(rows) -> int:
    if not rows:
        return 0
    return len(_echelon(rows)[0])


def rref(rows):
    """The reduced rows of `_echelon`: an integer basis of the span of `rows`,
    canonical for the subspace."""
    return _echelon(rows)[0]


def _unique_solution(augmented, n):
    """The solution of an augmented system [M | b] in n unknowns, or None
    unless it has exactly one (pivots exactly in columns 0..n-1)."""
    ech, pivots = _echelon(augmented)
    if pivots != list(range(n)):
        return None
    return tuple(Fraction(row[n], row[i]) for i, row in enumerate(ech))


def in_span(v, rows) -> bool:
    """True unless eliminating [rows^T | v] puts a pivot in the v column."""
    return len(rows) not in _echelon(list(zip(*rows, v)))[1]


def det(mat) -> Fraction:
    """Determinant by Bareiss' fraction-free elimination (Math. Comp. 22, 1968).

    Each row is cleared of denominators first and the scales are divided out
    at the end.  Kept apart from `_echelon`, which does not count row swaps:
    each swap flips the sign.
    """
    m = []
    scale = 1
    for row in mat:
        ints, d = cleared(row)
        m.append(ints)
        scale *= d
    n = len(m)
    sign = 1
    prev = 1
    for c in range(n):
        if m[c][c] == 0:
            piv = next((i for i in range(c + 1, n) if m[i][c] != 0), None)
            if piv is None:
                return Fraction(0)
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        p = m[c][c]
        for i in range(c + 1, n):
            f = m[i][c]
            m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], m[c])]
        prev = p
    return Fraction(sign * prev, scale)


def solve(mat, b):
    """Solve the square system mat * x = b exactly; None if singular."""
    return _unique_solution([tuple(r) + (b[i],) for i, r in enumerate(mat)], len(mat))


def inverse(mat):
    """Exact inverse of a square matrix as (rows, d): a tuple of integer rows
    over the least common denominator d > 0 of its entries; None if singular.

    Row i of the inverse is a reduced row of [mat | I] divided by its pivot
    p_i, and the row is primitive, so d is the lcm of the p_i.
    """
    n = len(mat)
    ech, pivots = _echelon([tuple(r) + tuple(int(i == j) for j in range(n))
                            for i, r in enumerate(mat)])
    if pivots != list(range(n)):
        return None
    d = lcm(*(row[i] for i, row in enumerate(ech)))
    return tuple(tuple(x * (d // row[i]) for x in row[n:]) for i, row in enumerate(ech)), d


def solve_coords(vectors, target):
    """Coordinates of `target` in the independent family `vectors` (rows).

    None when the vectors are dependent or `target` is outside their span.
    """
    return _unique_solution(list(zip(*vectors, target)), len(vectors))


def kernel_line(rows):
    """A primitive integer vector spanning the kernel of the matrix `rows`,
    its free coordinate positive, or None unless that kernel is
    one-dimensional."""
    ncols = len(rows[0])
    ech, pivots = _echelon(rows)
    if len(pivots) != ncols - 1:
        return None
    free = next(c for c in range(ncols) if c not in pivots)
    scale = lcm(*(row[p] for row, p in zip(ech, pivots)))
    out = [scale] * ncols
    for row, p in zip(ech, pivots):
        out[p] = -row[free] * (scale // row[p])
    return tuple(_primitive_row(out))


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
