"""Affine hyperplane arrangements from torus weights and circle charges.

Covers the combinatorial half of the localization recipe: isolated and stable
intersections, exact cone-membership tests, regularity of the stability
parameter, its symbolic lexicographic perturbation (a signed order of the
coordinates, which breaks every tie of the flag-stability test), the integer
lattice spanned by the weights, and enumeration of proper stable flags, each
as its basis kappa, kappa's inverse and its lattice normalization factor.

The work follows the distinct covectors, grouped by line (`_line`), and the
stable points, not the combinations of hyperplanes: one inverse per
`rank`-set of lines, kept per problem (`LineTable`), which gives the points
with their active sets, the stability covector's coordinates and the flags
of the points with `rank` distinct weights in closed form; elsewhere a
top-down search cuts a chain at its first unstable level, with each
hyperplane normal computed once per problem.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm, prod
from operator import mul

from . import linalg
from .linalg import is_zero_vec


class PerturbationError(Exception):
    """xi is not regular, or a signed order does not name every coordinate of
    xi exactly once."""


@dataclass(frozen=True)
class AffineForm:
    """rho(u) + const, with rho an integer covector of fixed rank."""

    rho: tuple[int, ...]
    const: int

    def is_hyperplane(self) -> bool:
        return not is_zero_vec(self.rho)


@dataclass(frozen=True)
class IntersectionPoint:
    """A point where at least `rank` independent arrangement hyperplanes meet."""

    point: tuple[Fraction, ...]
    active_indices: tuple[int, ...]          # all form indices vanishing here
    active_weights: tuple[tuple[int, ...], ...]  # deduplicated covectors

    def __str__(self):
        return "(" + ", ".join(str(x) for x in self.point) + ")"


@dataclass(frozen=True)
class Flag:
    """A proper stable flag, as its residue reads it: the basis kappa, which
    sets the coordinates z = kappa (u - P) and fixes the chain (kappa_1, ...,
    kappa_i span F_i), its inverse (rows, d) as `linalg.inverse` returns it,
    and the lattice factor |d(mu) / (kappa_1 ^ ... ^ kappa_k)|."""

    kappa: tuple[tuple[int, ...], ...]
    kappa_inverse: tuple[tuple[tuple[int, ...], ...], int]
    lattice_factor: Fraction


@dataclass(frozen=True)
class Perturbation:
    """The stability covector perturbed to xi + eps s_1 e_j1 + eps^2 s_2 e_j2 +
    ... for an infinitesimal eps > 0: `order` holds the pairs (j_t, s_t), s_t
    = +1 or -1, in increasing powers of eps."""

    order: tuple[tuple[int, int], ...]
    seed: int


def _line(rho):
    """(p, m) with rho = m p for a nonzero integer covector rho: p spans
    rho's line, primitive with its first nonzero entry positive, as
    `linalg.primitive` scales it, and m is a nonzero integer."""
    m = gcd(*rho)
    if next(filter(None, rho)) < 0:
        m = -m
    return tuple(x // m for x in rho), m


class LineTable:
    """One problem's geometry, each piece computed once and read by every
    point: the `linalg.inverse` (R, d) of each sorted `rank`-set of lines p
    (`_line`), None where they are dependent, which the validation fills,
    and the `linalg.hyperplane_normal` of each set of rows asked for.  A
    normal is primitive with a canonical sign, so it depends on the rows as
    a set, not on their order."""

    def __init__(self):
        self.inverses = {}
        self.normals = {}

    def inverse(self, basis):
        if basis not in self.inverses:
            self.inverses[basis] = linalg.inverse(basis)
        return self.inverses[basis]

    def normal(self, rows, dim):
        key = frozenset(rows)
        if key not in self.normals:
            self.normals[key] = linalg.hyperplane_normal(rows, dim)
        return self.normals[key]


def _line_inverses(lines, rank, table):
    """{each sorted `rank`-set of the lines p: its inverse in `table`}.  The
    one elimination per set: the points where the set's hyperplanes meet
    are R t / d, and xi's coordinates in the set are xi R / d."""
    return {basis: table.inverse(basis) for basis in itertools.combinations(sorted(lines), rank)}


def isolated_intersections(forms, rank: int, inverses=None) -> list[IntersectionPoint]:
    """All points where `rank` independent hyperplanes of the arrangement meet.

    The hyperplanes are grouped by line: the form m p.u + const, rho = m p
    (`_line`), vanishes on the hyperplane p.u = -const/m, one of the parallel
    hyperplanes of line p.  The inverse (R, d) of each independent
    `rank`-set of lines (`_line_inverses`, or `inverses` when the caller has
    it) gives the point of every choice of one hyperplane per line, R t / d
    for t the chosen values -const/m, by one integer mat-vec.  A point's
    active hyperplanes are the union of the choices that give it: each one
    extends, with other active lines, to an independent `rank`-set, whose
    choice at the point gives it.  So no form is tested at any point; the
    forms on each chosen hyperplane, and the zero-covector forms of constant
    0, which vanish everywhere, are the active ones.  The points come in
    increasing order.
    """
    everywhere = []
    lines = {}   # p -> {(num, den) of -const/m, den > 0: [(index, rho) of its forms]}
    for i, f in enumerate(forms):
        if f.is_hyperplane():
            p, m = _line(f.rho)
            g = gcd(f.const, m) if m > 0 else -gcd(f.const, m)
            lines.setdefault(p, {}).setdefault((-f.const // g, m // g), []).append((i, f.rho))
        elif f.const == 0:
            everywhere.append(i)
    if rank == 0:
        return [IntersectionPoint((), tuple(everywhere), ())]
    if inverses is None:
        inverses = _line_inverses(lines, rank, LineTable())
    points = {}  # (ints, den) -> the (line, value) choices that give it
    for basis, inv in inverses.items():
        if inv is None:
            continue
        rows, d = inv
        for values in itertools.product(*(lines[p] for p in basis)):
            den = lcm(*(v for _, v in values))
            t = [n * (den // v) for n, v in values]
            ints = [sum(map(mul, row, t)) for row in rows]
            den *= d
            g = gcd(den, *ints)
            points.setdefault((tuple(x // g for x in ints), den // g), set()).update(
                zip(basis, values))
    scale = lcm(*(d for _, d in points))
    out = []
    for ints, d in sorted(points, key=lambda p: [x * (scale // p[1]) for x in p[0]]):
        hits = sorted(hit for p, value in points[ints, d] for hit in lines[p][value])
        out.append(IntersectionPoint(
            tuple(Fraction(x, d) for x in ints),
            tuple(sorted(everywhere + [i for i, _ in hits])),
            tuple(dict.fromkeys(rho for _, rho in hits))))
    return out


def cone_membership(xi, gens, strict: bool = False):
    """Exact test: xi in the (strictly) non-negative span of gens.

    Returns (True, multipliers) with multipliers aligned to gens, or
    (False, None).  The non-strict test searches independent subsets
    (Caratheodory); the strict test requires gens to be independent.
    """
    if strict:
        coords = linalg.solve_coords(gens, xi)
        if coords is None:
            return False, None
        if all(c > 0 for c in coords):
            return True, list(coords)
        return False, None
    if is_zero_vec(xi):
        return True, [Fraction(0)] * len(gens)
    dim = len(xi)
    idx = list(range(len(gens)))
    for size in range(1, min(dim, len(gens)) + 1):
        for combo in itertools.combinations(idx, size):
            coords = linalg.solve_coords([gens[i] for i in combo], xi)
            if coords is not None and all(c >= 0 for c in coords):
                mult = [Fraction(0)] * len(gens)
                for i, c in zip(combo, coords):
                    mult[i] = c
                return True, mult
    return False, None


def _cone_signs(weights, xi, table):
    """(signed, inverses, signs): `signed` maps each distinct nonzero weight
    m p (`_line`) to (p, the sign of m), `inverses` is `_line_inverses` of
    the lines in `table`, and `signs` maps each `len(xi)`-set of lines to the signs
    (+1, 0, -1) of xi's coordinates in it, xi . column i of its inverse, or
    to None where the lines are dependent.  xi is strictly inside the cone
    of independent weights S exactly when, in a basis of lines holding S's,
    xi's coordinates are 0 off S's lines and of S's multipliers' signs on
    them."""
    signed = {}
    for w in map(tuple, weights):
        if w not in signed and not is_zero_vec(w):
            p, m = _line(w)
            signed[w] = p, 1 if m > 0 else -1
    inverses = _line_inverses({p for p, _ in signed.values()}, len(xi), table)
    signs = {basis: None if inv is None else
             tuple((c > 0) - (c < 0) for c in (linalg.vec_dot(xi, col) for col in zip(*inv[0])))
             for basis, inv in inverses.items()}
    return signed, inverses, signs


def _regular(signed, signs) -> bool:
    """Some basis of lines has xi's coordinates each of a weight's sign, and
    none has them each 0 or of a weight's sign with a 0 among them: every
    independent set of fewer weights extends to such a basis."""
    present = set(signed.values())
    in_cone = False
    for basis, s in signs.items():
        if s is not None and all(c == 0 or (p, c) in present for p, c in zip(basis, s)):
            if 0 in s:
                return False
            in_cone = True
    return in_cone


def regular_stability_check(weights, xi) -> bool:
    """xi lies in the weight cone but on no cone of rank-1-fewer weights: by
    Caratheodory, the smallest independent set of weights with xi strictly
    inside its cone has `rank` elements.  Decided per basis of lines
    (`_cone_signs`)."""
    signed, _, signs = _cone_signs(weights, xi, LineTable())
    return _regular(signed, signs)


def intersections(forms, rank, xi, table=None):
    """(isolated intersections, the stable ones) for a regular xi, which lies on
    no cone of fewer than `rank` weights: a point is stable when xi lies in the
    strict cone of `rank` independent active weights.

    One inverse per basis of lines (`_cone_signs`) gives the points and xi's
    coordinates, for the regularity test and every point alike: a point is
    stable when a basis of its active lines has each coordinate of the sign
    of an active weight on that line.  The inverses are kept in `table`, when
    given, for the flags (`enumerate_flags`).
    """
    signed, inverses, signs = _cone_signs([f.rho for f in forms], xi, table or LineTable())
    if not _regular(signed, signs):
        raise PerturbationError("stability covector is not regular for these weights")

    def stable(pt):
        at = {signed[w] for w in pt.active_weights}
        return any(signs[basis] is not None
                   and all((p, c) in at for p, c in zip(basis, signs[basis]))
                   for basis in itertools.combinations(sorted({p for p, _ in at}), rank))

    points = isolated_intersections(forms, rank, inverses)
    return points, [pt for pt in points if stable(pt)]


def verify_perturbation(xi, order, seed=-1) -> Perturbation:
    """The perturbation of xi by the signed order `order` of its coordinates.

    Raises PerturbationError unless `order` names every coordinate of xi
    exactly once, each with the sign +1 or -1.
    """
    order = tuple((j, s) for j, s in order)
    if sorted(j for j, _ in order) != list(range(len(xi))) or \
            any(s not in (1, -1) for _, s in order):
        raise PerturbationError(f"{order} is not a signed order of {len(xi)} coordinates")
    return Perturbation(order, seed)


def sum_regular_perturbation(xi, seed: int = 0) -> Perturbation:
    """The seeded lexicographic perturbation of xi: Simulation of Simplicity
    (Edelsbrunner and Muecke, ACM TOG 9(1), 1990).

    A nonzero normal n is nonzero on some e_j, so n.(xi + eps s_1 e_j1 + ...)
    is a nonzero polynomial in eps: xi_tilde lies on no wall, and for eps
    small enough in the chamber of xi.  The JK sum is the same for every such
    xi_tilde; the seed draws the order and the signs, so that another seed is
    an independent check.
    """
    rng = random.Random(seed)
    coords = rng.sample(range(len(xi)), len(xi))
    return verify_perturbation(xi, [(j, rng.choice((1, -1))) for j in coords], seed)


def lattice_basis(weights):
    """Hermite-normal-form basis of the integer span of the weight covectors."""
    if any(x.denominator != 1 for w in weights for x in w):
        raise ValueError("lattice basis requires integral weights")
    dim = len(weights[0]) if weights else 0
    basis = linalg.hnf(weights)
    if len(basis) != dim:
        raise ValueError("weights do not span the ambient space; arrangement degenerate")
    return basis


def kappa_determinant(kappa, basis) -> Fraction:
    """det of the kappa tuple expressed in the given lattice basis, which is
    det(kappa) / det(basis).  The basis is `lattice_basis`'s square upper
    triangular Hermite normal form, so det(basis) is its diagonal product."""
    return linalg.det(kappa) / prod(row[i] for i, row in enumerate(basis))


def _flag(kappa, kappa_inverse, basis) -> Flag:
    """The flag of the basis kappa, with its lattice factor in `basis`."""
    return Flag(kappa, kappa_inverse, Fraction(1) / abs(kappa_determinant(kappa, basis)))


def _weights_inverse(weights, table):
    """`linalg.inverse` of `rank` weights, read off the inverse (R, d) of
    their sorted lines in `table`: with weight i = m_i p_i (`_line`), column
    i is the column of p_i in R over d m_i, and the columns, each reduced by
    its gcd, are put over the lcm of their denominators.  None when two
    weights share a line or the lines are dependent."""
    lines = [_line(w) for w in weights]
    key = tuple(sorted({p for p, _ in lines}))
    inv = table.inverse(key) if len(key) == len(weights) else None
    if inv is None:
        return None
    rows, d = inv
    at = {p: i for i, p in enumerate(key)}
    cols, dens = [], []
    for p, m in lines:
        col = [row[at[p]] for row in rows]
        g = gcd(d * m, *col) if m > 0 else -gcd(d * m, *col)
        cols.append([x // g for x in col])
        dens.append(d * m // g)
    den = lcm(*dens)
    return tuple(zip(*([x * (den // e) for x in col] for col, e in zip(cols, dens)))), den


def _simplicial_flags(weights, xi, basis, order, table) -> list[Flag]:
    """`enumerate_flags` at a point with exactly `rank` distinct active
    weights, in closed form.

    A chain takes the weights one by one, in some order sigma, and kappa_i
    is the sum of the first i.  With a the coordinates of xi_tilde in the
    weights, xi_tilde = sum_i c_i kappa_i for c_i = a_sigma(i) -
    a_sigma(i+1) (a_sigma(k+1) = 0), so the one stable order, if any, sorts
    a decreasing, and it is kept when its last coordinate is positive.  The
    coordinates of xi and of e_j are xi.inv and row j of inv, the inverse of
    the weights; a coordinate of xi_tilde is compared as its vector of eps
    coefficients (xi.inv[:, i], s_1 inv[j_1][i], s_2 inv[j_2][i], ...),
    lexicographically, which no two coordinates share as inv is invertible.
    The inverse of kappa comes from the same inv: kappa = L W_sigma, with L
    the lower triangular matrix of ones, so column i of kappa^-1 is column
    sigma(i) minus column sigma(i+1) of inv (column sigma(k+1) = 0), over
    inv's denominator, as L is unimodular.  inv is read off `table`
    (`_weights_inverse`).
    """
    inv = _weights_inverse(weights, table)
    if inv is None:
        return []
    rows, d = inv
    cols = list(zip(*rows))
    keys = [(linalg.vec_dot(xi, col),) + tuple(s * col[j] for j, s in order) for col in cols]
    sigma = sorted(range(len(xi)), key=keys.__getitem__, reverse=True)
    if next(filter(None, keys[sigma[-1]]), 0) <= 0:
        return []
    kappa = tuple(itertools.accumulate((weights[i] for i in sigma), linalg.vec_add))
    padded = [cols[i] for i in sigma] + [(0,) * len(xi)]
    kinv = zip(*([x - y for x, y in zip(a, b)] for a, b in zip(padded, padded[1:])))
    return [_flag(kappa, (tuple(kinv), d), basis)]


def _stable_chains(weights, ws, rows, normals, found, table, levels=()):
    """Append to `found` the kappa of every stable chain of `enumerate_flags`
    inside F, the span of the weights `ws` (indices into `weights`), bottom
    up, with `levels` the kappa_i above F.

    `rows` is xi_tilde projected into F, one integer row per power of eps,
    each scaled by its own positive factor, which keeps the sign of every
    eps-polynomial n.xi_tilde.  `normals` are the chosen normals above F,
    so that n orthogonal to them and to dim F - 1 weights of F is, inside F,
    the normal of the subspace G they span; G ranges over each such subspace
    once.  As kappa_j lies in G for j < i = dim F, n.xi_tilde = c_i n.kappa_i
    for kappa_i the sum of `ws`: G is F_(i-1) of a stable chain only if c_i
    > 0 (n.kappa_i = 0 makes kappa dependent), and then xi_tilde - c_i kappa_i,
    in G, must be inside the cone of kappa_1, ..., kappa_(i-1).  Each
    normal is computed once per `table`.
    """
    dim = len(rows[0])
    i = dim - len(normals)
    kappa = reduce(linalg.vec_add, (weights[w] for w in ws))
    levels = (kappa,) + levels
    seen = []
    for sub in itertools.combinations(ws, i - 1):
        if any(g.issuperset(sub) for g in seen):
            continue
        n = table.normal([weights[w] for w in sub] + normals, dim)
        if n is None:
            continue
        inside = tuple(w for w in ws if linalg.vec_dot(n, weights[w]) == 0)
        seen.append(set(inside))
        a = linalg.vec_dot(n, kappa)
        nx = [linalg.vec_dot(n, row) for row in rows]
        if a * next(filter(None, nx), 0) <= 0:
            continue
        if i == 1:
            found.append(levels)
            continue
        sign = 1 if a > 0 else -1
        rest = [[abs(a) * x - sign * v * k for x, k in zip(row, kappa)]
                for row, v in zip(rows, nx)]
        _stable_chains(weights, inside, rest, normals + [n], found, table, levels)


def enumerate_flags(active_weights, xi, basis, order, *, table=None) -> list[Flag]:
    """All proper stable flags generated by the active weights at one point,
    for the perturbation of xi by the signed order `order` (see Perturbation).

    A flag F_1 < ... < F_k of subspaces spanned by active weights, with
    kappa_i the sum of the distinct active weights inside F_i, is kept when
    kappa is a basis and xi_tilde has strictly positive coordinates in it
    (Szenes and Vergne, Invent. Math. 158, 2004).  At a point with exactly k
    distinct weights the one candidate, and its kappa's inverse, are found
    in closed form (`_simplicial_flags`).  Elsewhere the chains are searched
    top down (`_stable_chains`): each F_(i-1) is a hyperplane of F_i spanned
    by weights, with xi_tilde's coordinate on kappa_i positive, so a wrong
    chain is cut at its first wrong level, and each kept kappa is inverted
    once.  The signs are exact: xi_tilde is kept as its eps-coefficients, xi
    and s_t e_jt, which no hyperplane normal annihilates together.  The
    flags come in the order of their kappa, which fixes the chain.  `table`,
    the problem's `LineTable` when the caller has it, lends the inverses of
    the lines and the normals found at other points.
    """
    weights = list(dict.fromkeys(tuple(w) for w in active_weights))
    dim = len(xi)
    if dim == 0:
        return [Flag(kappa=(), kappa_inverse=((), 1), lattice_factor=Fraction(1))]
    table = table or LineTable()
    if len(weights) == dim:
        return _simplicial_flags(weights, xi, basis, order, table)
    found = []
    rows = [linalg.cleared(xi)[0]] + [[s * (i == j) for i in range(dim)] for j, s in order]
    _stable_chains(weights, tuple(range(len(weights))), rows, [], found, table)
    return [_flag(kappa, linalg.inverse(kappa), basis) for kappa in sorted(found)]


def projectivity_check(weights) -> bool:
    """True when the non-negative span of the covectors contains no line.

    Equivalent to the absence of a non-trivial non-negative dependency; by
    Caratheodory it suffices to scan minimally dependent subsets of size at
    most dim+1 and inspect the sign pattern of their unique dependency.
    """
    weights = [w for w in weights if not is_zero_vec(w)]
    if not weights:
        return True
    dim = len(weights[0])
    for size in range(2, min(dim + 1, len(weights)) + 1):
        for combo in itertools.combinations(range(len(weights)), size):
            # columns are the vectors: the kernel is the dependency, unique
            # up to scale exactly when the subset has rank size - 1
            dep = linalg.kernel_line(list(zip(*(weights[i] for i in combo))))
            if dep is None:
                continue
            if all(c > 0 for c in dep) or all(c < 0 for c in dep):
                return False
    return True

