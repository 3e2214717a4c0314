"""Reference elimination in Fraction arithmetic: Gauss-Jordan and the
determinant as `linalg._echelon` and `linalg.det` computed them before they
ran fraction-free on integers.  Tests compare the two."""

from fractions import Fraction


def fvec(v) -> tuple[Fraction, ...]:
    """v as a tuple of Fraction."""
    return tuple(Fraction(x) for x in v)


def echelon(rows):
    """(reduced nonzero rows, pivot column list) of `rows`."""
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


def det(mat) -> Fraction:
    """Product of the unscaled pivots of a forward elimination times the
    sign of its row swaps."""
    m = [[Fraction(x) for x in r] for r in mat]
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


def inverse(mat):
    """The inverse of a square matrix as Fraction rows, read off the
    reduced [mat | I]; None if singular."""
    n = len(mat)
    ech, pivots = echelon([tuple(r) + tuple(int(i == j) for j in range(n))
                           for i, r in enumerate(mat)])
    if pivots != list(range(n)):
        return None
    return [tuple(Fraction(x) for x in row[n:]) for row in ech]
