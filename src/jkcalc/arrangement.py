"""Affine hyperplane arrangements from torus weights and circle charges.

Covers the combinatorial half of the localization recipe: isolated and stable
intersections, exact cone-membership tests, regularity of the stability
parameter, its symbolic lexicographic perturbation (a signed order of the
coordinates, which breaks every tie of the flag-stability test), the integer
lattice spanned by the weights, and enumeration of proper stable flags with
their lattice normalization factors.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm, prod
from operator import mul

from . import linalg
from .linalg import is_zero_vec, primitive


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
    """A proper flag: generator covectors, canonical subspace chain, kappa basis."""

    generators: tuple[tuple[int, ...], ...]
    chain: tuple[tuple[tuple[int, ...], ...], ...]  # `linalg.rref` basis of each F_i
    kappa: tuple[tuple[int, ...], ...]
    lattice_factor: Fraction


@dataclass(frozen=True)
class Perturbation:
    """The stability covector perturbed to xi + eps s_1 e_j1 + eps^2 s_2 e_j2 +
    ... for an infinitesimal eps > 0: `order` holds the pairs (j_t, s_t), s_t
    = +1 or -1, in increasing powers of eps."""

    order: tuple[tuple[int, int], ...]
    seed: int


def _dedup_hyperplane_forms(forms):
    """Map distinct hyperplanes to a representative form index list: (rho,
    const) scaled to a primitive integer vector with rho's first nonzero entry
    positive is the same for every form of one hyperplane."""
    seen = {}
    for i, f in enumerate(forms):
        if f.is_hyperplane():
            seen.setdefault(primitive(f.rho + (f.const,)), i)
    return list(seen.values())


def isolated_intersections(forms, rank: int) -> list[IntersectionPoint]:
    """All points where `rank` independent hyperplanes of the arrangement meet.

    Zero-covector forms never define hyperplanes and are skipped for the
    enumeration; activity sets are recomputed against the full indexed list.
    """
    forms = list(forms)
    if rank == 0:
        return [_build_point((), forms)]
    reps = _dedup_hyperplane_forms(forms)
    points = {}
    for combo in itertools.combinations(reps, rank):
        mat = [forms[i].rho for i in combo]
        rhs = [-forms[i].const for i in combo]
        sol = linalg.solve(mat, rhs)
        if sol is not None:
            ints, d = linalg.cleared(sol)
            points.setdefault((tuple(ints), d), sol)
    return [_build_point(p, forms) for p in sorted(points.values())]


def _build_point(point, forms):
    """The intersection point at `point` with every form that vanishes there.

    The test runs in integers: with point = P/d, the form vanishes when
    rho.P + const*d == 0.
    """
    ints, d = linalg.cleared(point)
    active = []
    for i, f in enumerate(forms):
        if sum(map(mul, f.rho, ints)) + f.const * d == 0:
            active.append(i)
    active = tuple(active)
    weights = []
    seen = set()
    for i in active:
        rho = forms[i].rho
        if is_zero_vec(rho):
            continue
        if rho not in seen:
            seen.add(rho)
            weights.append(rho)
    return IntersectionPoint(tuple(point), active, tuple(weights))


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


def _in_basis_cone(xi, weights, size) -> bool:
    """xi is a strictly positive combination of `size` independent weights."""
    return any(cone_membership(xi, gens, strict=True)[0]
               for gens in itertools.combinations(weights, size))


def regular_stability_check(weights, xi) -> bool:
    """xi lies in the weight cone but on no cone of rank-1-fewer weights: by
    Caratheodory, the smallest independent set of weights with xi strictly
    inside its cone has `rank` elements."""
    weights = list(dict.fromkeys(tuple(w) for w in weights if not is_zero_vec(w)))
    dim = len(xi)
    if dim == 0:
        return True
    if is_zero_vec(xi):
        return False
    if any(_in_basis_cone(xi, weights, size) for size in range(1, dim)):
        return False
    return _in_basis_cone(xi, weights, dim)


def intersections(forms, rank, xi):
    """(isolated intersections, the stable ones) for a regular xi, which lies on
    no cone of fewer than `rank` weights: a point is stable when xi lies in the
    strict cone of `rank` independent active weights."""
    weights = [f.rho for f in forms if f.is_hyperplane()]
    if not regular_stability_check(weights, xi):
        raise PerturbationError("stability covector is not regular for these weights")
    points = isolated_intersections(forms, rank)
    return points, [pt for pt in points if _in_basis_cone(xi, pt.active_weights, rank)]


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


def enumerate_flags(active_weights, xi, basis, order) -> list[Flag]:
    """All proper stable flags generated by the active weights at one point,
    for the perturbation of xi by the signed order `order` (see Perturbation).

    Chains F_1 < ... < F_k grow as a prefix tree, level by level in
    lexicographic order of the generator tuples; each chain keeps the first
    tuple that reaches it.  A subspace F is grown once: one `rref(F + w)` per
    weight w not already known to lie in F either enlarges F or shows that w
    lies in it, which gives the children of F and kappa(F), the sum of the
    distinct active weights inside F.  F_k is the whole space, so kappa_k is
    the sum of all of them.  Subspaces are keyed by their integer `rref`
    rows, and the flags come in the order of their chains' reduced row
    echelon forms, each row divided by its pivot: the rows are compared
    scaled to a common pivot.  A flag is kept when kappa is a basis and
    xi_tilde has strictly positive coordinates in it (Szenes and Vergne,
    Invent. Math. 158, 2004).  They are c + sum_t eps^t s_t inv[j_t], with c
    the coordinates of xi and inv[j], row j of kappa's inverse, those of e_j.
    So where c_i = 0 the sign is that of the first nonzero s_t inv[j_t][i],
    which exists since inv is invertible; `linalg.inverse` scales inv by a
    positive denominator, which keeps every sign.
    """
    weights = list(dict.fromkeys(tuple(w) for w in active_weights))
    dim = len(xi)
    if dim == 0:
        return [Flag(generators=(), chain=(), kappa=(), lattice_factor=Fraction(1))]
    zero = (0,) * dim
    children = {}   # subspace -> [(weight index, larger subspace)]
    kappas = {}     # subspace -> sum of the weights inside it
    chains = {(): ()}   # chain prefix -> generator indices of its first tuple
    for _ in range(dim):
        longer = {}
        for chain, gens in chains.items():
            sub = chain[-1] if chain else ()
            if sub not in children:
                children[sub] = []
                kappas[sub] = reduce(linalg.vec_add, (weights[i] for i in gens), zero)
                for i, w in enumerate(weights):
                    if i not in gens:
                        bigger = tuple(linalg.rref(sub + (w,)))
                        if len(bigger) > len(sub):
                            children[sub].append((i, bigger))
                        else:
                            kappas[sub] = linalg.vec_add(kappas[sub], w)
            for i, bigger in children[sub]:
                longer.setdefault(chain + (bigger,), gens + (i,))
        chains = longer
    everything = reduce(linalg.vec_add, weights, zero)
    flags = []
    for chain, gens in chains.items():
        kappa = [kappas[sub] for sub in chain[:-1]] + [everything]
        coords = linalg.solve_coords(kappa, xi)
        if coords is None or any(c < 0 for c in coords):
            continue  # kappa is dependent (the flag is not proper), or unstable
        if 0 in coords:
            inv, _ = linalg.inverse(kappa)
            if any(next(s * inv[j][i] for j, s in order if inv[j][i]) < 0
                   for i, c in enumerate(coords) if c == 0):
                continue
        flags.append(Flag(
            generators=tuple(weights[i] for i in gens),
            chain=chain,
            kappa=tuple(kappa),
            lattice_factor=Fraction(1) / abs(kappa_determinant(kappa, basis)),
        ))
    if len(flags) > 1:
        pivot = {row: next(filter(None, row))
                 for flag in flags for sub in flag.chain for row in sub}
        scale = lcm(*pivot.values())
        flags.sort(key=lambda flag: [[[x * (scale // pivot[row]) for x in row] for row in sub]
                                     for sub in flag.chain])
    return flags


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

