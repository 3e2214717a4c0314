"""Affine hyperplane arrangements from torus weights and circle charges.

Covers the combinatorial half of the localization recipe: isolated and stable
intersections, exact cone-membership tests, regularity of the stability
parameter, sum-regular perturbations with re-verifiable certificates, the
integer lattice spanned by the weights, and enumeration of proper stable
flags with their lattice normalization factors.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

from . import linalg
from .linalg import fvec, is_zero_vec, primitive


# search budget of sum_regular_perturbation: random directions r, and halvings
# of eps per direction
PERTURBATION_DIRECTIONS = 5
PERTURBATION_HALVINGS = 60


class PerturbationError(Exception):
    """No sum-regular perturbation found within the retry budget."""


class FlagStabilityError(Exception):
    """A flag-stability multiplier vanished: the perturbation is on a face."""


@dataclass(frozen=True)
class AffineForm:
    """rho(u) + const, with rho a covector of fixed rank."""

    rho: tuple[Fraction, ...]
    const: Fraction

    @classmethod
    def make(cls, rho, const):
        return cls(fvec(rho), Fraction(const))

    def value_at(self, point) -> Fraction:
        return linalg.vec_dot(self.rho, point) + self.const

    def is_hyperplane(self) -> bool:
        return not is_zero_vec(self.rho)


@dataclass(frozen=True)
class IntersectionPoint:
    """A point where at least `rank` independent arrangement hyperplanes meet."""

    point: tuple[Fraction, ...]
    active_indices: tuple[int, ...]          # all form indices vanishing here
    active_weights: tuple[tuple[Fraction, ...], ...]  # deduplicated covectors

    def __str__(self):
        return "(" + ", ".join(str(x) for x in self.point) + ")"


@dataclass(frozen=True)
class Flag:
    """A proper flag: generator covectors, canonical subspace chain, kappa basis."""

    generators: tuple[tuple[Fraction, ...], ...]
    chain: tuple[tuple[tuple[Fraction, ...], ...], ...]  # rref basis of each F_i
    kappa: tuple[tuple[Fraction, ...], ...]
    lattice_factor: Fraction


@dataclass
class Perturbation:
    """A verified sum-regular perturbation of the stability covector."""

    xi_tilde: tuple[Fraction, ...]
    seed: int
    chamber_checks: list = field(default_factory=list)   # (normal, sign of xi.n)
    sum_checks: list = field(default_factory=list)       # normals with xi_tilde.n != 0


def _dedup_hyperplane_forms(forms):
    """Map distinct hyperplanes to a representative form index list."""
    seen = {}
    for i, f in enumerate(forms):
        if not f.is_hyperplane():
            continue
        p = primitive(f.rho)
        # normalize the constant consistently with the rho rescaling
        scale = None
        for a, b in zip(f.rho, p):
            if b != 0:
                scale = Fraction(a, b)
                break
        key = (p, f.const / scale)
        seen.setdefault(key, i)
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
        if sol is None:
            continue
        points.setdefault(sol, None)
    return [_build_point(p, forms) for p in sorted(points)]


def _build_point(point, forms):
    active = tuple(i for i, f in enumerate(forms) if f.value_at(point) == 0)
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
    xi = fvec(xi)
    gens = [fvec(g) for g in gens]
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
    weights = list(dict.fromkeys(fvec(w) for w in weights if not is_zero_vec(w)))
    xi = fvec(xi)
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


def stable_intersections(forms, rank, xi) -> list[IntersectionPoint]:
    """Isolated intersections whose active weight cone contains xi."""
    return intersections(forms, rank, xi)[1]


def wall_normals(vectors, dim, memo):
    """Primitive normals of all hyperplanes spanned by dim-1 independent vectors.

    `memo` maps each sorted (dim-1)-tuple of primitive vectors to its normal
    (None when dependent), so a spanning set is eliminated once per problem.
    """
    vectors = sorted({primitive(v) for v in vectors} - {(0,) * dim})
    normals = set()
    for combo in itertools.combinations(vectors, dim - 1):
        if combo not in memo:
            memo[combo] = linalg.hyperplane_normal(list(combo), dim)
        if memo[combo] is not None:
            normals.add(memo[combo])
    return normals


def subset_sums(weights):
    """All distinct nonzero subset sums of a set of covectors."""
    sums = {tuple(Fraction(0) for _ in weights[0])} if weights else set()
    for w in weights:
        w = fvec(w)
        sums |= {linalg.vec_add(s, w) for s in sums}
    return [s for s in sums if not is_zero_vec(s)]


@dataclass(frozen=True)
class PerturbationWalls:
    """The walls a perturbation of xi must not cross or touch, built once per
    problem: primitive normals of the chamber walls of all weights and of the
    subset-sum walls of every distinct active-weight set, each sorted."""

    chamber: tuple[tuple[int, ...], ...]
    sums: tuple[tuple[int, ...], ...]


def perturbation_walls(point_weight_sets, all_weights, dim) -> PerturbationWalls:
    """The walls of one problem: all its weights and its points' active weights."""
    if dim == 0:
        return PerturbationWalls(chamber=(), sums=())
    memo = {}
    chamber = wall_normals(all_weights, dim, memo)
    sum_normals = set()
    for wp in dict.fromkeys(frozenset(fvec(w) for w in wp) for wp in point_weight_sets):
        sum_normals |= wall_normals(subset_sums(list(wp)), dim, memo)
    return PerturbationWalls(chamber=tuple(sorted(chamber)), sums=tuple(sorted(sum_normals)))


def verify_perturbation(xi, xi_tilde, walls: PerturbationWalls, seed=-1) -> Perturbation:
    """Check same-chamber and sum-regularity for a candidate, returning the certificate.

    Raises PerturbationError when a check fails.
    """
    xi = fvec(xi)
    xi_tilde = fvec(xi_tilde)
    pert = Perturbation(xi_tilde=xi_tilde, seed=seed)
    for n in walls.chamber:
        s_xi = linalg.vec_dot(n, xi)
        if s_xi == 0:
            continue  # xi sits on this wall's span; regularity vetted it separately
        s_new = linalg.vec_dot(n, xi_tilde)
        if s_new == 0 or (s_new > 0) != (s_xi > 0):
            raise PerturbationError(f"chamber wall crossed: normal {n}")
        pert.chamber_checks.append((n, 1 if s_xi > 0 else -1))
    for n in walls.sums:
        if linalg.vec_dot(n, xi_tilde) == 0:
            raise PerturbationError(f"perturbation lies on a subset-sum wall: normal {n}")
        pert.sum_checks.append(n)
    return pert


def recheck_certificate(pert: Perturbation, xi) -> bool:
    """Re-verify every recorded sign condition of a certificate exactly."""
    xi = fvec(xi)
    for n, sign in pert.chamber_checks:
        s_xi = linalg.vec_dot(n, xi)
        s_new = linalg.vec_dot(n, pert.xi_tilde)
        if s_xi == 0 or s_new == 0:
            return False
        if (1 if s_xi > 0 else -1) != sign or (s_new > 0) != (s_xi > 0):
            return False
    for n in pert.sum_checks:
        if linalg.vec_dot(n, pert.xi_tilde) == 0:
            return False
    return True


def sum_regular_perturbation(xi, walls: PerturbationWalls, seed: int = 0) -> Perturbation:
    """Seeded xi_tilde = xi + eps*r passing the same-chamber and sum-regular checks.

    Tries eps = 0 first (covers rank 1, where xi itself is always sum-regular).
    """
    xi = fvec(xi)
    try:
        return verify_perturbation(xi, xi, walls, seed=seed)
    except PerturbationError:
        pass
    rng = random.Random(seed)
    for _ in range(PERTURBATION_DIRECTIONS):
        r = tuple(Fraction(rng.randint(-9, 9)) for _ in xi)
        if is_zero_vec(r):
            continue
        eps = Fraction(1, 10)
        for _ in range(PERTURBATION_HALVINGS):
            cand = linalg.vec_add(xi, linalg.vec_scale(r, eps))
            try:
                return verify_perturbation(xi, cand, walls, seed=seed)
            except PerturbationError:
                eps /= 2
    raise PerturbationError("no sum-regular perturbation found (degenerate input?)")


def lattice_basis(weights):
    """Hermite-normal-form basis of the integer span of the weight covectors."""
    rows = []
    for w in weights:
        w = fvec(w)
        if is_zero_vec(w):
            continue
        if any(x.denominator != 1 for x in w):
            raise ValueError("lattice basis requires integral weights")
        rows.append(tuple(int(x) for x in w))
    dim = len(weights[0]) if weights else 0
    basis = linalg.hnf(rows)
    if len(basis) != dim:
        raise ValueError("weights do not span the ambient space; arrangement degenerate")
    return basis


def kappa_determinant(kappa, basis) -> Fraction:
    """det of the kappa tuple expressed in the given lattice basis, which is
    det(kappa) / det(basis)."""
    return linalg.det(kappa) / linalg.det(basis)


def enumerate_flags(active_weights, xi_tilde, basis) -> list[Flag]:
    """All proper stable flags generated by the active weights at one point.

    Chains F_1 < ... < F_k grow as a prefix tree, level by level in
    lexicographic order of the generator tuples; each chain keeps the first
    tuple that reaches it.  A subspace F is grown once: one `rref(F + w)` per
    weight w not already known to lie in F either enlarges F or shows that w
    lies in it, which gives the children of F and kappa(F), the sum of the
    distinct active weights inside F.  F_k is the whole space, so kappa_k is
    the sum of all of them.  A flag is kept when kappa is a basis and
    xi_tilde has strictly positive coordinates in it.  A zero coordinate is
    surfaced as FlagStabilityError since it contradicts sum-regularity of
    the perturbation.
    """
    weights = [fvec(w) for w in dict.fromkeys(tuple(fvec(w)) for w in active_weights)]
    xi_tilde = fvec(xi_tilde)
    dim = len(xi_tilde)
    if dim == 0:
        return [Flag(generators=(), chain=(), kappa=(), lattice_factor=Fraction(1))]
    zero = tuple(Fraction(0) for _ in range(dim))
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
    for chain, gens in sorted(chains.items()):
        kappa = [kappas[sub] for sub in chain[:-1]] + [everything]
        coords = linalg.solve_coords(kappa, xi_tilde)
        if coords is None:
            continue  # kappa is dependent: the flag is not proper
        if any(c == 0 for c in coords):
            raise FlagStabilityError(
                "stability multiplier vanished on a flag; perturbation is not sum-regular"
            )
        if not all(c > 0 for c in coords):
            continue
        d = kappa_determinant(kappa, basis)
        if d == 0:
            continue
        flags.append(Flag(
            generators=tuple(weights[i] for i in gens),
            chain=chain,
            kappa=tuple(kappa),
            lattice_factor=Fraction(1) / abs(d),
        ))
    return flags


def projectivity_check(weights) -> bool:
    """True when the non-negative span of the covectors contains no line.

    Equivalent to the absence of a non-trivial non-negative dependency; by
    Caratheodory it suffices to scan minimally dependent subsets of size at
    most dim+1 and inspect the sign pattern of their unique dependency.
    """
    weights = [fvec(w) for w in weights if not is_zero_vec(w)]
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

