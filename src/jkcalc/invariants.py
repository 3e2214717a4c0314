"""Problem assembly and the main pipeline: hypothesis validation, integrand
construction, JK residue summation over stable intersections, and the
post-processing / cross-check identities between DT, chi_y and the elliptic
genus.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from . import arrangement, engine, linalg
from .arrangement import AffineForm, PerturbationError
from .engine import (FactorizedIntegrand, IntegrandFactor, ORIGIN_ROOT_DEN,
                     ORIGIN_ROOT_NUM, ORIGIN_WEIGHT_DEN, ORIGIN_WEIGHT_NUM)
from .polyarith import QSeries, RatFunc

DEFAULT_Q_ORDER = 6


class ValidationError(Exception):
    """The problem violates a hypothesis of the localization formula."""


class PipelineError(Exception):
    """An internal identity failed; the engine produced inconsistent values."""


@dataclass(frozen=True)
class WeightEntry:
    rho: tuple[int, ...]
    r_charge: int


@dataclass
class GITProblem:
    """Input datum: torus rank, weights with circle charges, roots, stability,
    Weyl group order and the degree of the potential."""

    rank: int
    weight_entries: list[WeightEntry]
    roots: list[tuple[int, ...]]
    xi: tuple[int, ...]
    weyl_order: int = 1
    degree: int = 1
    label: str = ""
    properness_hint: str | None = None  # 'checked' | 'asserted' | None=derive
    properness_note: str = ""

    def forms(self) -> list[AffineForm]:
        return [AffineForm(w.rho, w.r_charge) for w in self.weight_entries]

    def nonzero_weights(self):
        return [w.rho for w in self.weight_entries if not linalg.is_zero_vec(w.rho)]


@dataclass
class HypothesisReport:
    root_condition: str
    properness: str            # 'checked' | 'asserted' | 'refuted'
    properness_note: str
    all_points: list
    stable_points: list
    # the problem's line inverses and normals, which the flags read
    lines: arrangement.LineTable = field(repr=False, compare=False)
    # signed order -> (its `FlagTable`, point index -> (flag, `engine.localize`
    # result) pairs), which depend on the problem and the order alone (`_compute`)
    by_order: dict = field(default_factory=dict, repr=False, compare=False)

    def ok(self) -> bool:
        return self.root_condition == "ok" and self.properness in ("checked", "asserted")


def make_problem(rank, weights, roots, xi, weyl_order=1, degree=1, label="",
                 properness_hint=None, properness_note=""):
    """Convenience constructor: weights as (covector, R, multiplicity) triples.
    A covector entry, charge, multiplicity or xi entry that is not an
    integer, or a multiplicity below 1, raises ValidationError."""
    entries = []
    for rho, r, mult in weights:
        [mult] = as_integers((mult,), "a weight multiplicity")
        if mult < 1:
            raise ValidationError(f"a weight multiplicity must be >= 1, got {mult}")
        entries += [WeightEntry(as_integers(rho, "a weight covector entry"),
                                as_integers((r,), "a circle charge")[0])] * mult
    return GITProblem(
        rank=rank,
        weight_entries=entries,
        roots=[as_integers(a, "a root covector entry") for a in roots],
        xi=as_integers(xi, "a stability covector entry"),
        weyl_order=weyl_order,
        degree=degree,
        label=label,
        properness_hint=properness_hint,
        properness_note=properness_note,
    )


def validate(problem: GITProblem, strict_roots: bool = True) -> HypothesisReport:
    """Check the formula's hypotheses; raises ValidationError on hard failures.

    A root hyperplane shifted by d passing through a stable intersection is a
    hard error by default; with strict_roots=False it is recorded in the
    report instead (the residue sum stays computable, but the localization
    hypothesis behind it fails).  Properness of the circle-fixed locus is
    reported, not silently assumed: 'checked' when a sufficient criterion
    holds, 'asserted' when undecidable, 'refuted' when the exact abelian
    criterion fails.
    """
    k = problem.rank
    _check_integers((problem.degree,), "the potential degree d")
    if problem.degree == 0:
        raise ValidationError("the potential degree d must be nonzero")
    if not isinstance(problem.weyl_order, int) or problem.weyl_order < 1:
        raise ValidationError("the Weyl order must be a positive integer")
    if len(problem.xi) != k:
        raise ValidationError(f"stability covector {problem.xi} has wrong rank (expected {k})")
    for w in problem.weight_entries:
        if len(w.rho) != k:
            raise ValidationError(f"weight covector {w.rho} has wrong rank (expected {k})")
        _check_integers(w.rho, "a weight covector entry")
        _check_integers((w.r_charge,), "a circle charge")
        if linalg.is_zero_vec(w.rho) and w.r_charge == 0:
            raise ValidationError("zero weight with zero circle charge: denominator vanishes")
    root_set = {tuple(a) for a in problem.roots}
    for a in problem.roots:
        if len(a) != k:
            raise ValidationError(f"root covector {a} has wrong rank (expected {k})")
        _check_integers(a, "a root covector entry")
        if tuple(-x for x in a) not in root_set:
            raise ValidationError(f"roots are not closed under negation: {a}")
        if linalg.is_zero_vec(a):
            raise ValidationError("zero covector is not a root")
    lines = arrangement.LineTable()
    try:
        all_points, stable = arrangement.intersections(problem.forms(), k, problem.xi, lines)
    except PerturbationError as exc:
        # the weights span exactly when some `rank`-set of their lines is
        # independent; xi is regular for none that do not
        if all(inverse is None for inverse in lines.inverses.values()):
            raise ValidationError("weights do not span the dual Lie algebra") from exc
        raise ValidationError("the stability covector is not regular for these weights") \
            from exc
    root_condition = "ok"
    for pt in stable:
        ints, den = linalg.cleared(pt.point)
        a = next((a for a in problem.roots
                  if sum(map(mul, a, ints)) + problem.degree * den == 0), None)
        if a is not None:
            message = (
                f"root {tuple(a)} shifted by d={problem.degree} vanishes at the "
                f"stable intersection {pt}; the fixed-locus Euler classes are "
                "not invertible there"
            )
            if strict_roots:
                raise ValidationError(message)
            root_condition = "violated: " + message
            break
    if problem.properness_hint in ("checked", "asserted"):
        properness = problem.properness_hint
        note = problem.properness_note
    elif not problem.roots:
        # abelian case: exact criterion, pointed cones at every stable point
        bad = [pt for pt in stable if not arrangement.projectivity_check(pt.active_weights)]
        if bad:
            properness = "refuted"
            note = f"active weights at {bad[0]} span a line; fixed component is not proper"
        else:
            properness = "checked"
            note = "all stable intersections have strictly convex weight cones"
    else:
        properness = "asserted"
        note = problem.properness_note or \
            "nonabelian properness is not decidable from the raw data; asserted by caller"
    return HypothesisReport(
        root_condition=root_condition,
        properness=properness,
        properness_note=note,
        all_points=all_points,
        stable_points=stable,
        lines=lines,
    )


def as_integers(values, what) -> tuple[int, ...]:
    """`values` as a tuple of ints; ValidationError, naming `what`, for one
    that is not equal to its `int`, where `int` would truncate it."""
    values = tuple(values)
    for x in values:
        if x != int(x):
            raise ValidationError(f"{what} must be an integer, got {x}")
    return tuple(map(int, values))


def _check_integers(values, what):
    for x in values:
        if not isinstance(x, int):
            raise ValidationError(f"{what} must be an integer, got {x}")


def build_integrand(problem: GITProblem, kind: str, q_order: int | None = None,
                    s=1) -> FactorizedIntegrand:
    """Assemble the factor list of the requested integrand kind.

    Per root a: numerator factor a, denominator factor a + d.  Per weight
    entry (rho, R): numerator factor (d - R) - rho, denominator factor
    R + rho.  Identical factors merge into one with the summed exponent.  The
    factor list is the same for every kind; the additive kind's equivariant
    parameter s (default 1) is read by its residue alone
    (`engine.flag_residue_additive`), and the rank-many prefactor copies are
    carried on the integrand itself.  Every rho and constant is an integer.
    """
    if kind not in engine.KINDS:
        raise ValueError(f"unknown integrand kind {kind!r}")
    d = problem.degree
    s = Fraction(s)
    if s == 0:
        raise ValueError("the equivariant parameter s must be nonzero")
    exponents: dict = {}    # (rho, const, origin) -> summed exponent

    def add(rho, const, exponent, origin):
        exponents[rho, const, origin] = exponents.get((rho, const, origin), 0) + exponent

    for a in problem.roots:
        add(a, 0, 1, ORIGIN_ROOT_NUM)
        add(a, d, -1, ORIGIN_ROOT_DEN)
    for w in problem.weight_entries:
        add(tuple(-x for x in w.rho), d - w.r_charge, 1, ORIGIN_WEIGHT_NUM)
        add(w.rho, w.r_charge, -1, ORIGIN_WEIGHT_DEN)
    integrand = FactorizedIntegrand(
        kind=kind,
        rank=problem.rank,
        degree=d,
        s=s,
        factors=[IntegrandFactor(rho=rho, const=const, exponent=e, origin=origin)
                 for (rho, const, origin), e in exponents.items()],
        n_roots=len(problem.roots),
        dim_v=len(problem.weight_entries),
        q_order=q_order if kind == "theta" else None,
    )
    integrand.assert_structure()
    return integrand


class FlagTable:
    """One signed order's flags, by set of active weights, which alone fixes
    them (in whatever order a point lists the set): each set's are
    enumerated when first asked for, from the problem's `LineTable`, as
    `LineTable` makes its inverses and normals."""

    def __init__(self, xi, basis, order, lines):
        self.xi, self.basis, self.order, self.lines = xi, basis, order, lines
        self.flags = {}

    def __getitem__(self, active_weights):
        key = frozenset(active_weights)
        if key not in self.flags:
            self.flags[key] = arrangement.enumerate_flags(active_weights, self.xi, self.basis,
                                                          self.order, table=self.lines)
        return self.flags[key]


@dataclass
class PointDiagnostics:
    point: tuple
    active_weights: tuple
    table: FlagTable = field(repr=False, compare=False)
    contributions: dict = field(default_factory=dict)   # kind -> value

    @cached_property
    def flags(self) -> list:
        """The point's flags in the order of their kappa, read off the
        `FlagTable` of the run's signed order on first access."""
        return list(self.table[self.active_weights])


@dataclass
class Diagnostics:
    hypothesis: HypothesisReport | None = None
    perturbation: arrangement.Perturbation | None = None
    points: list = field(default_factory=list)
    weyl_order: int = 1
    seed: int = 0
    retries: int = 0    # always 0 since compute never retries; kept in the JSON format
    orbits: int = 0     # residues computed per kind, one per orbit (`orbit_keys`)


@dataclass
class InvariantResult:
    label: str
    degree: int
    dt: Fraction | None = None
    chi_y: RatFunc | None = None    # in w, where w^(2D) = y and D is denom_scale
    ell: QSeries | None = None      # in q, its coefficients RatFunc in w
    denom_scale: int = 1            # D
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    def dt_is_integer(self):
        return self.dt is not None and self.dt.denominator == 1


_RESULT_FIELD = {"additive": "dt", "sine": "chi_y", "theta": "ell"}


def compute(problem: GITProblem, kind: str = "all", q_order: int = DEFAULT_Q_ORDER,
            seed: int = 0, s=1,
            allow_root_incidence: bool = False) -> InvariantResult:
    """Run the full pipeline and return exact invariants plus diagnostics.

    The perturbation is the signed order `sum_regular_perturbation` draws at
    `seed`.  A non-unit leading coefficient (NonGenericResidueError) is
    raised, not retried, since it does not depend on the perturbation.
    `Diagnostics.retries` is therefore always 0.
    allow_root_incidence demotes the root invertibility hypothesis from a
    hard error to a recorded violation and computes the residue sum anyway.
    """
    if kind != "all" and kind not in engine.KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if q_order < 0:
        raise ValueError("q-order must be >= 0")
    report = validate(problem, strict_roots=not allow_root_incidence)
    if report.properness == "refuted":
        raise ValidationError(
            "properness of the fixed locus fails the exact abelian criterion: "
            + report.properness_note
        )
    return _compute(problem, report, kind, q_order, seed, s)


def _rerun(first: InvariantResult, problem: GITProblem, kind: str, q_order: int = DEFAULT_Q_ORDER,
           seed: int = 0, s=1) -> InvariantResult:
    """`compute` on the problem of the run `first` again, on its validation
    report: its geometry, and the flags and localizations of every signed
    order a run on it drew, depend on neither s, the kind nor q_order."""
    return _compute(problem, first.diagnostics.hypothesis, kind, q_order, seed, s)


def _compute(problem, report, kind, q_order, seed, s):
    """Take each requested kind's residue once per orbit of `orbit_keys`, at
    the orbit's first point, with the flags of the `FlagTable` that the
    report keeps for the seed's signed order (`HypothesisReport.by_order`).
    The one factor list is localized at those points, and at every point
    only when a multiplicative kind needs D, the lcm over all of them, each
    point once per order; the flags are enumerated there, and at any other
    point when its `PointDiagnostics.flags` is first read.  Asked for
    together, chi_y is read off Ell's q^0 coefficient, one multiplicative
    residue per orbit (see `engine`)."""
    kinds = ("additive", "theta") if kind == "all" else (kind,)
    pert = arrangement.sum_regular_perturbation(problem.xi, seed=seed)
    integrand = build_integrand(problem, kinds[0], q_order, s)
    points = report.stable_points
    if pert.order not in report.by_order:
        basis = arrangement.lattice_basis(problem.nonzero_weights()) if problem.rank > 0 else []
        report.by_order[pert.order] = FlagTable(problem.xi, basis, pert.order, report.lines), {}
    table, localized = report.by_order[pert.order]
    keys = orbit_keys(problem, points)
    first = {}      # orbit key -> the index of the orbit's first point in order
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    multiplicative = kinds != ("additive",)
    for i in range(len(points)) if multiplicative else first.values():
        if i not in localized:
            localized[i] = [(flag, engine.localize(integrand, points[i].point, flag))
                            for flag in table[points[i].active_weights]]
    D = engine.denominator_scale(local for flags in localized.values() for _, local in flags) \
        if multiplicative else 1
    result = InvariantResult(label=problem.label, degree=problem.degree, denom_scale=D)
    diag = result.diagnostics
    diag.hypothesis = report
    diag.perturbation = pert
    diag.weyl_order = problem.weyl_order
    diag.seed = seed
    diag.points = [PointDiagnostics(point=pt.point, active_weights=pt.active_weights, table=table)
                   for pt in points]
    diag.orbits = len(first)
    weyl = Fraction(1, problem.weyl_order)
    for kd in kinds:
        kind_integrand = replace(integrand, kind=kd, denom_scale=D,
                                 q_order=q_order if kd == "theta" else None)
        orbit_values = {key: engine.jk_residue(kind_integrand, localized[i])
                        for key, i in first.items()}
        total = engine.zero_value(kind_integrand)
        for pdiag, key in zip(diag.points, keys):
            value = pdiag.contributions[kd] = orbit_values[key]
            total = total + value
        setattr(result, _RESULT_FIELD[kd], total * weyl)
    if kind == "all":
        for pdiag in diag.points:
            pdiag.contributions["sine"] = pdiag.contributions["theta"].coeffs[0]
        result.chi_y = result.ell.coeffs[0]
    return result


def symmetric_blocks(problem: GITProblem) -> list[list[int]]:
    """The coordinates, partitioned into the blocks of the group generated by
    the transpositions (i j) that fix xi, the multiset of roots and the
    multiset of (weight, charge) pairs; that group is the product of the full
    permutation groups of the blocks (union-find over the transpositions)."""
    k = problem.rank
    roots = Counter(problem.roots)
    entries = Counter((w.rho, w.r_charge) for w in problem.weight_entries)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(k), 2):
        if problem.xi[i] != problem.xi[j] or find(i) == find(j):
            continue
        order = list(range(k))
        order[i], order[j] = j, i

        def swap(v):
            return tuple(v[c] for c in order)

        if Counter(map(swap, problem.roots)) == roots and Counter(
                (swap(w.rho), w.r_charge) for w in problem.weight_entries) == entries:
            parent[find(j)] = find(i)
    blocks: dict = {}
    for i in range(k):
        blocks.setdefault(find(i), []).append(i)
    return list(blocks.values())


def orbit_keys(problem: GITProblem, points) -> list:
    """One key per point of `points`, equal exactly when two points lie in
    one orbit of `symmetric_blocks`' group: each point's coordinates sorted
    within each block.  Such a permutation fixes the integrand and xi, and xi
    is regular, so it fixes the JK residue too (the residue form of the
    1/|W| of the localization formula); the lattice factor is unchanged
    since it is unimodular.  Below rank 2, or with fewer than two points,
    there is no search.
    """
    if problem.rank < 2 or len(points) < 2:
        return list(range(len(points)))
    blocks = symmetric_blocks(problem)
    return [tuple(tuple(sorted(pt.point[i] for i in block)) for block in blocks)
            for pt in points]


# ---------------------------------------------------------------------------
# post-processing helpers


def laurent_form(rf: RatFunc) -> dict | None:
    """Exact Laurent-polynomial form {exponent: coefficient}, or None."""
    return rf.laurent()


def limit_at_one(rf: RatFunc) -> Fraction:
    """Exact limit of a univariate rational function at w = 1."""
    value = rf.value_at_one()
    if value is None:
        raise PipelineError("pole at w=1: the chi_y -> DT limit does not exist")
    return value


def specialize(result: InvariantResult, sine: InvariantResult | None = None) -> dict:
    """Cross-check the specialization identities between computed kinds.

    Asserts that the w -> 1 limit of chi_y equals DT and, given `sine`, a
    separate `kind="sine"` run of the problem (`_rerun(result, problem,
    "sine", seed=...)` reuses the flags), that Ell(q=0) equals its chi_y: a
    `kind="all"` run reads its own chi_y off Ell(q=0).  A mismatch is a
    pipeline bug.
    """
    report = {}
    if result.ell is not None and sine is not None:
        # the two runs' w are y^(1/(2D)) for their own D
        if result.ell.coeffs[0].compose_power(sine.denom_scale) != \
                sine.chi_y.compose_power(result.denom_scale):
            raise PipelineError("Ell(q=0) does not reproduce chi_y")
        report["ell_q0_equals_chi_y"] = True
    if result.chi_y is not None and result.dt is not None:
        lim = limit_at_one(result.chi_y)
        if lim != result.dt:
            raise PipelineError(f"chi_y at w=1 gives {lim}, DT is {result.dt}")
        report["chi_y_limit_equals_dt"] = True
    if len(report) < 1:
        raise ValueError("specialize needs at least two computed kinds")
    return report


# ---------------------------------------------------------------------------
# fractional intersections: reduction to the integral case


def rescale_r_charges(problem: GITProblem, factor: int) -> GITProblem:
    """The reparametrized problem with R' = factor*R and d' = factor*d."""
    return GITProblem(
        rank=problem.rank,
        weight_entries=[WeightEntry(w.rho, factor * w.r_charge)
                        for w in problem.weight_entries],
        roots=list(problem.roots),
        xi=problem.xi,
        weyl_order=problem.weyl_order,
        degree=factor * problem.degree,
        label=(problem.label + f"-rescaled{factor}") if problem.label else "",
        properness_hint=problem.properness_hint or "asserted",
        properness_note=problem.properness_note or "inherited from the direct run",
    )


def integrality_scale(problem: GITProblem, stable_points) -> int:
    """Least k making every weight pairing with every stable point integral."""
    k = 1
    for pt in stable_points:
        for w in problem.nonzero_weights():
            k = lcm(k, (linalg.vec_dot(w, pt.point)).denominator)
    return k


def fractional_reduction_check(problem: GITProblem, q_order: int = 2, seed: int = 0) -> dict:
    """Compare the direct run on a fractional arrangement with the rescaled run.

    The rescaled problem (R' = kR, d' = kd) has integral intersections; its
    chi_y in y' equals the direct chi_y evaluated at y = y'^(1/k) ... i.e. the
    direct value at y^k matches the rescaled value at y.  Both sides are put
    over a common fractional power of y and compared exactly.
    """
    return _fractional_reduction(problem, compute(problem, kind="all", q_order=q_order, seed=seed),
                                 q_order, seed)


def _fractional_reduction(problem, direct, q_order, seed) -> dict:
    """`fractional_reduction_check` with the direct run given."""
    kfac = integrality_scale(problem, direct.diagnostics.hypothesis.stable_points)
    rescaled_problem = rescale_r_charges(problem, kfac)
    rescaled = compute(rescaled_problem, kind="all", q_order=q_order, seed=seed)
    report = {"scale": kfac, "dt_equal": direct.dt == rescaled.dt}
    # with Dd, Dr the runs' denom_scale: direct exponent a of w_d means
    # y^(a/(2Dd)); at y^k it is y'^(ak/(2Dd)).  Rescaled exponent b of w_r
    # means y'^(b/(2Dr)).  Common denominator 2*Dd*Dr.
    md = kfac * rescaled.denom_scale
    mr = direct.denom_scale
    report["chi_y_equal"] = \
        direct.chi_y.compose_power(md) == rescaled.chi_y.compose_power(mr)
    # a kind="all" run's chi_y is its Ell's q^0 coefficient
    report["ell_equal"] = report["chi_y_equal"] and all(
        a.compose_power(md) == b.compose_power(mr)
        for a, b in zip(direct.ell.coeffs[1:], rescaled.ell.coeffs[1:])
    )
    report["ok"] = report["dt_equal"] and report["chi_y_equal"] and report["ell_equal"]
    if not report["ok"]:
        raise PipelineError(f"fractional-reduction cross-check failed: {report}")
    return report
