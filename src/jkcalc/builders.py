"""Convenience builders for standard example families."""

from __future__ import annotations

from .invariants import GITProblem, WeightEntry, as_integers, make_problem
from .quiver import (Quiver, QuiverArrow, QuiverNode, QuiverStability, gl_roots,
                     to_git_problem)


def projective_bundle(n: int, degrees, label: str = "") -> GITProblem:
    """Total space of O(-d_1) + ... + O(-d_m) over P^n, scaling the fibres:
    `projective_space` with charges 0, and one weight -d_i u with charge 1
    per summand.  The base is proper, so the fixed locus is too.
    """
    if n < 1:
        raise ValueError(f"the base P^n needs n >= 1, got n = {n}")
    degrees = as_integers(degrees, "a bundle degree")
    if any(d < 1 for d in degrees):
        raise ValueError("bundle degrees must be >= 1")
    if len(degrees) >= n:
        raise ValueError("need fewer bundle summands than the dimension of the base")
    problem = projective_space(n, [0] * (n + 1),
                               label=label or f"ci-p{n}-" + "-".join(map(str, degrees)))
    problem.weight_entries += [WeightEntry((-d,), 1) for d in degrees]
    problem.properness_note = "fixed locus is the zero section over projective space"
    return problem


def grassmannian_det(k: int, n: int, power: int, degree: int = 1,
                     label: str = "") -> GITProblem:
    """Total space of the -power determinant line bundle over Gr(k, n):
    `grassmannian` with charges 0, and one det^power weight with charge 1.
    """
    [power] = as_integers((power,), "the determinant power")
    if not (1 <= k < n) or power < 1:
        raise ValueError("need 1 <= k < n and power >= 1")
    problem = grassmannian(k, n, [0] * n, degree, label=label or f"gr{k}{n}-det{power}")
    problem.weight_entries.append(WeightEntry((power,) * k, 1))
    problem.properness_note = "fixed locus is the zero section over the Grassmannian"
    return problem


def projective_space(n: int, r_charges, degree: int = 1, label: str = "") -> GITProblem:
    """Plain P^n with the zero potential and a chosen circle action.

    r_charges assigns a charge to each of the n+1 homogeneous coordinates.
    """
    r_charges = as_integers(r_charges, "a circle charge")
    if len(r_charges) != n + 1:
        raise ValueError("need one circle charge per homogeneous coordinate")
    weights = [((1,), r, 1) for r in r_charges]
    return make_problem(
        rank=1, weights=weights, roots=[], xi=(1,), weyl_order=1, degree=degree,
        label=label or f"p{n}",
        properness_hint="checked", properness_note="projective space is proper",
    )


def grassmannian(k: int, n: int, column_charges, degree: int, label: str = "") -> GITProblem:
    """Gr(k, n) with the zero potential; one circle charge per matrix column."""
    column_charges = as_integers(column_charges, "a circle charge")
    if len(column_charges) != n:
        raise ValueError("need one circle charge per column")
    weights = []
    for a in range(k):
        v = [0] * k
        v[a] = -1
        for r in column_charges:
            weights.append((tuple(v), r, 1))
    roots, weyl = gl_roots(k)
    return make_problem(
        rank=k, weights=weights, roots=roots, xi=tuple([-1] * k),
        weyl_order=weyl, degree=degree,
        label=label or f"gr{k}{n}",
        properness_hint="checked", properness_note="the Grassmannian is proper",
    )


def framed_a3_quiver(n: int, r: int, loop_charges=(1, 1, 1), label: str = "") -> Quiver:
    """Three-loop quiver with an r-dimensional framing node: length-n quotients
    of the rank-r trivial sheaf on affine 3-space."""
    if len(loop_charges) != 3:
        raise ValueError("need exactly three loop charges")
    nodes = [QuiverNode("X", n, gauged=True), QuiverNode("F", r, gauged=False)]
    arrows = [QuiverArrow("X", "X", c) for c in as_integers(loop_charges, "a loop charge")]
    arrows.append(QuiverArrow("F", "X", 0))
    return Quiver(nodes=nodes, arrows=arrows,
                  label=label or f"a3-quot-n{n}-r{r}")


def framed_a3_problem(n: int, r: int, loop_charges=(1, 1, 1), label: str = "") -> GITProblem:
    quiver = framed_a3_quiver(n, r, loop_charges, label)
    degree = sum(int(c) for c in loop_charges)
    return to_git_problem(quiver, QuiverStability({"X": 1}), degree)
