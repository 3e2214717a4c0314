"""Quiver data (with framed nodes) translated into torus/weight problems.

Gauged nodes contribute torus coordinates u_{v,1..D_v}; framed nodes carry
dimension only.  Arrows produce the weight covectors u_{h,j} - u_{t,i} with
the arrow's circle charge; per-node general-linear roots come in +/- pairs.
In the fully unframed case the overall diagonal circle acts trivially and is
gauge-fixed by eliminating the last coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial, prod

from .invariants import GITProblem, ValidationError, make_problem


@dataclass(frozen=True)
class QuiverNode:
    name: str
    dim: int
    gauged: bool = True


@dataclass(frozen=True)
class QuiverArrow:
    tail: str
    head: str
    r_charge: int


@dataclass
class Quiver:
    nodes: list[QuiverNode]
    arrows: list[QuiverArrow]
    label: str = ""

    def __post_init__(self):
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate node names")
        by_name = {n.name: n for n in self.nodes}
        for a in self.arrows:
            if a.tail not in by_name or a.head not in by_name:
                raise ValueError(f"arrow {a} references a missing node")
        for n in self.nodes:
            if n.dim < 1:
                raise ValueError(f"node {n.name} must have dimension >= 1")
        if not any(n.gauged for n in self.nodes):
            raise ValueError("a quiver problem needs at least one gauged node")
        if not self._connected():
            raise ValueError("the quiver must be connected")

    def _connected(self):
        if len(self.nodes) <= 1:
            return True
        adj = {n.name: set() for n in self.nodes}
        for a in self.arrows:
            adj[a.tail].add(a.head)
            adj[a.head].add(a.tail)
        seen = {self.nodes[0].name}
        stack = [self.nodes[0].name]
        while stack:
            for m in adj[stack.pop()]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return len(seen) == len(self.nodes)

    def gauged_nodes(self):
        return [n for n in self.nodes if n.gauged]

    def is_framed(self):
        return any(not n.gauged for n in self.nodes)


@dataclass
class QuiverStability:
    """Per-gauged-node integers; in the unframed case the dimensions-weighted
    sum must vanish for the covector to be Weyl-invariant on the quotient."""

    values: dict[str, int] = field(default_factory=dict)


def cycle_condition_check(quiver: Quiver) -> str:
    """Sufficient properness test on circle charges of oriented cycles.

    'pass' when every simple oriented cycle among gauged nodes has strictly
    positive (or every one strictly negative) charge sum -- any oriented cycle
    decomposes into simple ones with positive multiplicities, so the sums stay
    nonzero.  'fail' when a simple cycle sums to zero.  'inconclusive' on
    mixed signs, where cancellation in non-simple cycles cannot be excluded.
    """
    gauged = {n.name for n in quiver.gauged_nodes()}
    arrows = [a for a in quiver.arrows if a.tail in gauged and a.head in gauged]
    sums = []

    def dfs(start, node, charge, visited):
        for i, a in enumerate(arrows):
            if a.tail != node:
                continue
            if a.head == start:
                sums.append(charge + a.r_charge)
            elif a.head not in visited and a.head > start:
                # only cycles whose minimal node is `start`, each found once
                dfs(start, a.head, charge + a.r_charge, visited | {a.head})

    for start in sorted(gauged):
        dfs(start, start, 0, {start})
    if not sums:
        return "pass"
    if any(s == 0 for s in sums):
        return "fail"
    if all(s > 0 for s in sums) or all(s < 0 for s in sums):
        return "pass"
    return "inconclusive"


def gl_roots(dim: int, offset: int = 0, rank: int | None = None):
    """(roots, Weyl order dim!) of gl(dim) on coordinates offset.. of a rank
    `rank` torus (default dim): e_j - e_i for j != i, j the outer index."""
    roots = []
    for j in range(dim):
        for i in range(dim):
            if i != j:
                rho = [0] * (dim if rank is None else rank)
                rho[offset + j] = 1
                rho[offset + i] = -1
                roots.append(tuple(rho))
    return roots, factorial(dim)


def to_git_problem(quiver: Quiver, stability: QuiverStability, degree: int) -> GITProblem:
    """Expand quiver data into a torus/weight problem.

    Each arrow gives the weight e_h - e_t with its circle charge for every
    coordinate h of its head and t of its tail, head index outer.  A framed
    end has no coordinate (e = 0) and multiplies the weight's multiplicity
    by its dimension.  Loop weights with equal head and tail index give zero
    covectors kept as constant integrand factors.
    """
    gauged = quiver.gauged_nodes()
    framed = quiver.is_framed()
    coords = {}
    k_raw = 0
    for n in gauged:
        coords[n.name] = range(k_raw, k_raw + n.dim)
        k_raw += n.dim
    dims = {n.name: n.dim for n in quiver.nodes}
    for name in stability.values:
        if name not in coords:
            raise ValidationError(f"stability assigned to non-gauged node {name!r}")
    if not framed:
        total = sum(dims[n.name] * stability.values.get(n.name, 0) for n in gauged)
        if total != 0:
            raise ValidationError(
                "unframed stability must satisfy sum(D_v * xi_v) = 0 to define "
                "a character of the projectivized gauge group"
            )

    entries = []
    for a in quiver.arrows:
        heads, tails = (coords.get(end, [None]) for end in (a.head, a.tail))
        mult = prod(dims[end] for end in (a.head, a.tail) if end not in coords)
        for h in heads:
            for t in tails:
                rho = [0] * k_raw
                if h is not None:
                    rho[h] += 1
                if t is not None:
                    rho[t] -= 1
                entries.append((rho, a.r_charge, mult))
    roots = []
    weyl = 1
    for n in gauged:
        node_roots, node_weyl = gl_roots(n.dim, coords[n.name].start, k_raw)
        roots += node_roots
        weyl *= node_weyl
    xi = [0] * k_raw
    for n in gauged:
        for i in coords[n.name]:
            xi[i] = stability.values.get(n.name, 0)
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
    return make_problem(rank=len(xi), weights=entries, roots=roots, xi=xi, weyl_order=weyl,
                        degree=degree, label=quiver.label, properness_hint=hint,
                        properness_note=note)
