"""Reference intersection enumeration: one `linalg.solve` per `rank`-set of
distinct hyperplanes, as `arrangement.isolated_intersections` worked before it
grouped the hyperplanes by line, and one strict cone test per `rank`-set of
active weights at every point, as `arrangement.intersections` worked before it
decided stability once per basis of lines.  Activity is tested in Fraction
arithmetic.  Tests compare the two."""

import itertools
from fractions import Fraction

from jkcalc import linalg
from jkcalc.arrangement import IntersectionPoint, PerturbationError
from jkcalc.linalg import is_zero_vec, primitive


def dedup_hyperplane_forms(forms):
    """A representative form index per distinct hyperplane: (rho, const)
    scaled to a primitive integer vector with a canonical sign is the same
    for every form of one hyperplane."""
    seen = {}
    for i, f in enumerate(forms):
        if f.is_hyperplane():
            seen.setdefault(primitive(f.rho + (f.const,)), i)
    return list(seen.values())


def build_point(point, forms):
    """The point with every form that vanishes there, and the distinct
    covectors of the hyperplanes among them in form order."""
    active = tuple(i for i, f in enumerate(forms)
                   if sum((r * x for r, x in zip(f.rho, point)), Fraction(f.const)) == 0)
    weights = []
    for i in active:
        rho = forms[i].rho
        if not is_zero_vec(rho) and rho not in weights:
            weights.append(rho)
    return IntersectionPoint(tuple(point), active, tuple(weights))


def isolated_intersections(forms, rank):
    forms = list(forms)
    if rank == 0:
        return [build_point((), forms)]
    points = set()
    for combo in itertools.combinations(dedup_hyperplane_forms(forms), rank):
        sol = linalg.solve([forms[i].rho for i in combo], [-forms[i].const for i in combo])
        if sol is not None:
            points.add(tuple(Fraction(x) for x in sol))
    return [build_point(p, forms) for p in sorted(points)]


def in_basis_cone(xi, weights, size):
    """xi is a strictly positive combination of `size` independent weights."""
    for gens in itertools.combinations(weights, size):
        coords = linalg.solve_coords(gens, xi)
        if coords is not None and all(c > 0 for c in coords):
            return True
    return False


def regular_stability_check(weights, xi):
    weights = list(dict.fromkeys(tuple(w) for w in weights if not is_zero_vec(w)))
    dim = len(xi)
    if dim == 0:
        return True
    if is_zero_vec(xi):
        return False
    if any(in_basis_cone(xi, weights, size) for size in range(1, dim)):
        return False
    return in_basis_cone(xi, weights, dim)


def intersections(forms, rank, xi):
    if not regular_stability_check([f.rho for f in forms if f.is_hyperplane()], xi):
        raise PerturbationError("stability covector is not regular for these weights")
    points = isolated_intersections(forms, rank)
    return points, [pt for pt in points if in_basis_cone(xi, pt.active_weights, rank)]
