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


def regular_stability_check(weights, xi) -> bool:
    """xi lies in the weight cone but on no cone of rank-1-fewer weights."""
    weights = [fvec(w) for w in weights if not is_zero_vec(w)]
    xi = fvec(xi)
    dim = len(xi)
    if dim == 0:
        return True
    if is_zero_vec(xi):
        return False
    inside, _ = cone_membership(xi, weights)
    if not inside:
        return False
    for combo in itertools.combinations(range(len(weights)), dim - 1):
        sub = [weights[i] for i in combo]
        hit, _ = cone_membership(xi, sub)
        if hit:
            return False
    return True


def stable_intersections(forms, rank, xi) -> list[IntersectionPoint]:
    """Isolated intersections whose active weight cone contains xi."""
    weights = [f.rho for f in forms if f.is_hyperplane()]
    if not regular_stability_check(weights, xi):
        raise PerturbationError("stability covector is not regular for these weights")
    out = []
    for pt in isolated_intersections(forms, rank):
        ok, _ = cone_membership(xi, pt.active_weights)
        if ok:
            out.append(pt)
    return out


def wall_normals(vectors, dim):
    """Primitive normals of all hyperplanes spanned by dim-1 independent vectors."""
    vectors = [v for v in {primitive(v) for v in vectors} if not is_zero_vec(v)]
    normals = set()
    if dim == 1:
        normals.add((1,))
        return normals
    for combo in itertools.combinations(vectors, dim - 1):
        n = linalg.hyperplane_normal(list(combo), dim)
        if n is not None:
            normals.add(n)
    return normals


def subset_sums(weights):
    """All distinct nonzero subset sums of a set of covectors."""
    sums = {tuple(Fraction(0) for _ in weights[0])} if weights else set()
    for w in weights:
        w = fvec(w)
        sums |= {linalg.vec_add(s, w) for s in sums}
    return [s for s in sums if not is_zero_vec(s)]


def verify_perturbation(xi, xi_tilde, point_weight_sets, all_weights, seed=-1) -> Perturbation:
    """Check same-chamber and sum-regularity for a candidate, returning the certificate.

    Raises PerturbationError when a check fails.
    """
    xi = fvec(xi)
    xi_tilde = fvec(xi_tilde)
    dim = len(xi)
    pert = Perturbation(xi_tilde=xi_tilde, seed=seed)
    if dim == 0:
        return pert
    for n in sorted(wall_normals(all_weights, dim)):
        s_xi = linalg.vec_dot(n, xi)
        if s_xi == 0:
            continue  # xi sits on this wall's span; regularity vetted it separately
        s_new = linalg.vec_dot(n, xi_tilde)
        if s_new == 0 or (s_new > 0) != (s_xi > 0):
            raise PerturbationError(f"chamber wall crossed: normal {n}")
        pert.chamber_checks.append((n, 1 if s_xi > 0 else -1))
    sum_normals = set()
    for wp in point_weight_sets:
        sums = subset_sums([fvec(w) for w in wp])
        sum_normals |= wall_normals(sums, dim)
    for n in sorted(sum_normals):
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


def sum_regular_perturbation(xi, point_weight_sets, all_weights, seed: int = 0) -> Perturbation:
    """Seeded xi_tilde = xi + eps*r passing the same-chamber and sum-regular checks.

    Tries eps = 0 first (covers rank 1, where xi itself is always sum-regular).
    """
    xi = fvec(xi)
    try:
        return verify_perturbation(xi, xi, point_weight_sets, all_weights, seed=seed)
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
                return verify_perturbation(xi, cand, point_weight_sets, all_weights, seed=seed)
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
    """det of the kappa tuple expressed in the given lattice basis."""
    coords = []
    for k in kappa:
        c = linalg.solve_coords([fvec(b) for b in basis], fvec(k))
        if c is None:
            raise ValueError("kappa vector outside the lattice span")
        coords.append(c)
    return linalg.det(coords)


def enumerate_flags(active_weights, xi_tilde, basis) -> list[Flag]:
    """All proper stable flags generated by the active weights at one point.

    Ordered independent tuples are deduplicated by their canonical subspace
    chains; kappa_i sums the distinct active weights inside F_i.  A flag is
    kept when kappa is a basis and xi_tilde has strictly positive coordinates
    in it.  A zero coordinate is surfaced as FlagStabilityError since it
    contradicts sum-regularity of the perturbation.
    """
    weights = [fvec(w) for w in dict.fromkeys(tuple(fvec(w)) for w in active_weights)]
    xi_tilde = fvec(xi_tilde)
    dim = len(xi_tilde)
    if dim == 0:
        return [Flag(generators=(), chain=(), kappa=(), lattice_factor=Fraction(1))]
    chains = {}
    for tup in itertools.permutations(range(len(weights)), dim):
        gens = [weights[i] for i in tup]
        chain = []
        for i in range(1, dim + 1):
            sub = tuple(linalg.rref(gens[:i]))
            if len(sub) != i:
                break
            chain.append(sub)
        else:
            chains.setdefault(tuple(chain), tuple(gens))
    flags = []
    for chain, gens in sorted(chains.items()):
        kappa = []
        for sub in chain:
            total = tuple(Fraction(0) for _ in range(dim))
            for w in weights:
                if linalg.in_span(w, sub):
                    total = linalg.vec_add(total, w)
            kappa.append(total)
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
            generators=gens,
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

