"""Reference quiver translation: `quiver.to_git_problem` as it was written
before one weight rule served every arrow, with one branch per kind of arrow
(gauged or framed head and tail) and its own flattening of multiplicities.
Tests compare the two."""

from jkcalc.invariants import GITProblem, ValidationError, WeightEntry
from jkcalc.quiver import Quiver, QuiverStability, cycle_condition_check, gl_roots


def to_git_problem(quiver: Quiver, stability: QuiverStability, degree: int) -> GITProblem:
    """Expand quiver data into a torus/weight problem.

    Framed nodes are not gauged; arrows touching them contribute weights with
    multiplicity equal to the framed dimension.  Loop weights with equal head
    and tail index give zero covectors kept as constant integrand factors.
    """
    gauged = quiver.gauged_nodes()
    framed = quiver.is_framed()
    offsets = {}
    k_raw = 0
    for n in gauged:
        offsets[n.name] = k_raw
        k_raw += n.dim
    dims = {n.name: n.dim for n in quiver.nodes}
    gauged_names = {n.name for n in gauged}
    for name in stability.values:
        if name not in gauged_names:
            raise ValidationError(f"stability assigned to non-gauged node {name!r}")
    if not framed:
        total = sum(dims[n.name] * stability.values.get(n.name, 0) for n in gauged)
        if total != 0:
            raise ValidationError(
                "unframed stability must satisfy sum(D_v * xi_v) = 0 to define "
                "a character of the projectivized gauge group"
            )

    def unit(idx):
        e = [0] * k_raw
        e[idx] = 1
        return e

    entries = []
    for a in quiver.arrows:
        th, tt = a.head in gauged_names, a.tail in gauged_names
        if th and tt:
            for j in range(dims[a.head]):
                for i in range(dims[a.tail]):
                    rho = [0] * k_raw
                    rho[offsets[a.head] + j] += 1
                    rho[offsets[a.tail] + i] -= 1
                    entries.append((rho, a.r_charge, 1))
        elif th and not tt:
            for j in range(dims[a.head]):
                entries.append((unit(offsets[a.head] + j), a.r_charge, dims[a.tail]))
        elif tt and not th:
            for i in range(dims[a.tail]):
                rho = [0] * k_raw
                rho[offsets[a.tail] + i] = -1
                entries.append((rho, a.r_charge, dims[a.head]))
        else:
            entries.append(([0] * k_raw, a.r_charge, dims[a.head] * dims[a.tail]))
    roots = []
    weyl = 1
    for n in gauged:
        node_roots, node_weyl = gl_roots(n.dim, offsets[n.name], k_raw)
        roots += node_roots
        weyl *= node_weyl
    xi = [0] * k_raw
    for n in gauged:
        for i in range(n.dim):
            xi[offsets[n.name] + i] = stability.values.get(n.name, 0)
    if not framed:
        # every covector annihilates the diagonal; check, then gauge-fix the
        # last coordinate of the last gauged node to zero
        for rho, _, _ in entries:
            assert sum(rho) == 0, "quiver weight does not annihilate the diagonal"
        for rho in roots:
            assert sum(rho) == 0, "quiver root does not annihilate the diagonal"
        assert sum(xi) == 0
        entries = [(rho[:-1], r, m) for rho, r, m in entries]
        roots = [rho[:-1] for rho in roots]
        xi = xi[:-1]
    cycle = cycle_condition_check(quiver)
    if cycle == "pass":
        hint, note = "checked", "every simple oriented cycle has a same-sign charge sum"
    elif cycle == "fail":
        hint, note = "asserted", "a simple oriented cycle has zero total charge; " \
                                 "the sufficient properness test fails"
    else:
        hint, note = "asserted", "simple-cycle charge sums have mixed signs; " \
                                 "properness is asserted by the caller"
    flat_entries = []
    for rho, r, mult in entries:
        for _ in range(mult):
            flat_entries.append(WeightEntry(tuple(rho), r))
    return GITProblem(
        rank=len(xi),
        weight_entries=flat_entries,
        roots=[tuple(r) for r in roots],
        xi=tuple(xi),
        weyl_order=weyl,
        degree=degree,
        label=quiver.label,
        properness_hint=hint,
        properness_note=note,
    )
