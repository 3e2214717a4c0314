"""Problem assembly and the main pipeline: hypothesis validation, integrand
construction, JK residue summation over stable intersections, and the
post-processing / cross-check identities between DT, chi_y and the elliptic
genus.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import arrangement, engine, linalg
from .arrangement import AffineForm, FlagStabilityError, PerturbationError
from .engine import (FactorizedIntegrand, IntegrandFactor, NonGenericResidueError,
                     ORIGIN_ROOT_DEN, ORIGIN_ROOT_NUM, ORIGIN_WEIGHT_DEN,
                     ORIGIN_WEIGHT_NUM)
from .polyarith import MultiPoly, QSeries, RatFunc

DEFAULT_Q_ORDER = 6
# re-perturbations `compute` tries after a non-generic residue configuration
MAX_RETRIES = 3


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
        return [AffineForm.make(w.rho, w.r_charge) for w in self.weight_entries]

    def nonzero_weights(self):
        return [linalg.fvec(w.rho) for w in self.weight_entries
                if not linalg.is_zero_vec(w.rho)]


@dataclass
class HypothesisReport:
    xi_regular: bool
    root_condition: str
    properness: str            # 'checked' | 'asserted' | 'refuted'
    properness_note: str
    all_points: list
    stable_points: list

    def ok(self) -> bool:
        return self.xi_regular and self.root_condition == "ok" \
            and self.properness in ("checked", "asserted")


def make_problem(rank, weights, roots, xi, weyl_order=1, degree=1, label="",
                 properness_hint=None, properness_note=""):
    """Convenience constructor: weights as (covector, R, multiplicity) triples."""
    entries = []
    for item in weights:
        rho, r, mult = item
        for _ in range(mult):
            entries.append(WeightEntry(tuple(int(x) for x in rho), int(r)))
    return GITProblem(
        rank=rank,
        weight_entries=entries,
        roots=[tuple(int(x) for x in a) for a in roots],
        xi=tuple(int(x) for x in xi),
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
    if problem.degree == 0:
        raise ValidationError("the potential degree d must be nonzero")
    if problem.weyl_order < 1:
        raise ValidationError("the Weyl order must be a positive integer")
    for w in problem.weight_entries:
        if len(w.rho) != k:
            raise ValidationError(f"weight covector {w.rho} has wrong rank (expected {k})")
        if linalg.is_zero_vec(w.rho) and w.r_charge == 0:
            raise ValidationError("zero weight with zero circle charge: denominator vanishes")
    root_set = {tuple(a) for a in problem.roots}
    for a in problem.roots:
        if len(a) != k:
            raise ValidationError(f"root covector {a} has wrong rank (expected {k})")
        if tuple(-x for x in a) not in root_set:
            raise ValidationError(f"roots are not closed under negation: {a}")
        if linalg.is_zero_vec(a):
            raise ValidationError("zero covector is not a root")
    weights = problem.nonzero_weights()
    if k > 0 and linalg.rank(weights) != k:
        raise ValidationError("weights do not span the dual Lie algebra")
    try:
        all_points, stable = arrangement.intersections(problem.forms(), k, problem.xi)
    except PerturbationError as exc:
        raise ValidationError("the stability covector is not regular for these weights") \
            from exc
    d = Fraction(problem.degree)
    root_condition = "ok"
    for pt in stable:
        for a in problem.roots:
            if linalg.vec_dot(linalg.fvec(a), pt.point) + d == 0:
                message = (
                    f"root {tuple(a)} shifted by d={problem.degree} vanishes at the "
                    f"stable intersection {pt}; the fixed-locus Euler classes are "
                    "not invertible there"
                )
                if strict_roots:
                    raise ValidationError(message)
                root_condition = "violated: " + message
                break
        if root_condition != "ok":
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
        xi_regular=True,
        root_condition=root_condition,
        properness=properness,
        properness_note=note,
        all_points=all_points,
        stable_points=stable,
    )


def build_integrand(problem: GITProblem, kind: str, q_order: int | None = None,
                    s=1) -> FactorizedIntegrand:
    """Assemble the factor list of the requested integrand kind.

    Per root a: numerator factor a, denominator factor a + d.  Per weight
    entry (rho, R): numerator factor (d - R) - rho, denominator factor
    R + rho.  Identical factors merge into one with the summed exponent.  The
    additive kind fixes the equivariant parameter s (default 1) and scales
    every constant by it; the rank-many prefactor copies are carried on the
    integrand itself.
    """
    if kind not in engine.KINDS:
        raise ValueError(f"unknown integrand kind {kind!r}")
    d = Fraction(problem.degree)
    s = Fraction(s)
    if s == 0:
        raise ValueError("the equivariant parameter s must be nonzero")
    scale = s if kind == "additive" else Fraction(1)
    exponents: dict = {}    # (rho, const, origin) -> summed exponent

    def add(rho, const, exponent, origin):
        exponents[rho, const, origin] = exponents.get((rho, const, origin), 0) + exponent

    for a in problem.roots:
        rho = linalg.fvec(a)
        add(rho, Fraction(0), 1, ORIGIN_ROOT_NUM)
        add(rho, d * scale, -1, ORIGIN_ROOT_DEN)
    for w in problem.weight_entries:
        rho = linalg.fvec(w.rho)
        add(tuple(-x for x in rho), (d - w.r_charge) * scale, 1, ORIGIN_WEIGHT_NUM)
        add(rho, Fraction(w.r_charge) * scale, -1, ORIGIN_WEIGHT_DEN)
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


@dataclass
class ChiYResult:
    ratfunc: RatFunc              # function of w, where w^(2D) = y
    denom_scale: int              # D
    laurent: dict | None = None   # exponent-of-w -> Fraction, when division is exact


@dataclass
class EllResult:
    series: QSeries               # coefficients are RatFunc in w
    denom_scale: int
    q_order: int
    laurent: list | None = None   # per-coefficient laurent dicts when all exact


@dataclass
class PointDiagnostics:
    point: tuple
    active_indices: tuple
    active_weights: tuple
    flags: list
    contributions: dict = field(default_factory=dict)       # kind -> value
    flag_contributions: dict = field(default_factory=dict)  # kind -> [value per flag]


@dataclass
class Diagnostics:
    hypothesis: HypothesisReport | None = None
    perturbation: arrangement.Perturbation | None = None
    points: list = field(default_factory=list)
    weyl_order: int = 1
    denom_scale: int = 1
    seed: int = 0
    retries: int = 0
    elapsed: float = 0.0
    notes: list = field(default_factory=list)


@dataclass
class InvariantResult:
    label: str
    degree: int
    dt: Fraction | None = None
    chi_y: ChiYResult | None = None
    ell: EllResult | None = None
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    def dt_is_integer(self):
        return self.dt is not None and self.dt.denominator == 1


_KIND_SETS = {
    "additive": ("additive",),
    "sine": ("sine",),
    "theta": ("theta",),
    "all": ("additive", "sine", "theta"),
}


def compute(problem: GITProblem, kind: str = "all", q_order: int = DEFAULT_Q_ORDER,
            seed: int = 0, s=1, xi_tilde=None,
            allow_root_incidence: bool = False) -> InvariantResult:
    """Run the full pipeline and return exact invariants plus diagnostics.

    A non-generic residue configuration (non-unit leading coefficient or a
    flag-stability multiplier on a face) triggers a bounded re-perturbation
    loop with bumped seeds.  allow_root_incidence demotes the root
    invertibility hypothesis from a hard error to a recorded violation and
    computes the residue sum anyway.
    """
    if kind not in _KIND_SETS:
        raise ValueError(f"unknown kind {kind!r}")
    kinds = _KIND_SETS[kind]
    t0 = time.monotonic()
    report = validate(problem, strict_roots=not allow_root_incidence)
    if report.properness == "refuted":
        raise ValidationError(
            "properness of the fixed locus fails the exact abelian criterion: "
            + report.properness_note
        )
    stable = report.stable_points
    weights = problem.nonzero_weights()
    basis = arrangement.lattice_basis(weights) if problem.rank > 0 else []
    walls = arrangement.perturbation_walls([pt.active_weights for pt in stable], weights,
                                           problem.rank)
    last_error = None
    for attempt in range(MAX_RETRIES + 1):
        if xi_tilde is not None and attempt == 0:
            pert = arrangement.verify_perturbation(problem.xi, xi_tilde, walls, seed=seed)
        else:
            pert = arrangement.sum_regular_perturbation(problem.xi, walls,
                                                        seed=seed + 7919 * attempt)
        try:
            result = _compute_with_perturbation(
                problem, kinds, q_order, s, pert, stable, basis, report)
            result.diagnostics.seed = seed
            result.diagnostics.retries = attempt
            result.diagnostics.elapsed = time.monotonic() - t0
            if report.root_condition != "ok":
                result.diagnostics.notes.append(report.root_condition)
            return result
        except (NonGenericResidueError, FlagStabilityError) as exc:
            last_error = exc
            if xi_tilde is not None and attempt == 0:
                raise
    raise PipelineError(f"residues stayed non-generic after {MAX_RETRIES} re-perturbations: "
                        f"{last_error}")


def _compute_with_perturbation(problem, kinds, q_order, s, pert, stable, basis, report):
    k = problem.rank
    flags_by_point = []
    for pt in stable:
        if k > 0:
            flags = arrangement.enumerate_flags(pt.active_weights, pert.xi_tilde, basis)
        else:
            flags = [arrangement.Flag(generators=(), chain=(), kappa=(),
                                      lattice_factor=Fraction(1))]
        flags_by_point.append((pt, flags))
    integrands = {kd: build_integrand(problem, kd, q_order, s) for kd in kinds}
    D = 1
    if any(kd in kinds for kd in ("sine", "theta")):
        probe = integrands.get("sine") or integrands.get("theta")
        # equal factor lists: both kinds share the localizations denominator_scale makes
        probe.localized = {}
        D = engine.denominator_scale(probe, [(pt.point, fl) for pt, fl in flags_by_point])
        for kd in ("sine", "theta"):
            if kd in integrands:
                integrands[kd].denom_scale = D
                integrands[kd].localized = probe.localized
    result = InvariantResult(label=problem.label, degree=problem.degree)
    diag = result.diagnostics
    diag.hypothesis = report
    diag.perturbation = pert
    diag.weyl_order = problem.weyl_order
    diag.denom_scale = D
    diag.points = [
        PointDiagnostics(point=pt.point, active_indices=pt.active_indices,
                         active_weights=pt.active_weights, flags=flags)
        for pt, flags in flags_by_point
    ]
    weyl = Fraction(1, problem.weyl_order)
    for kd in kinds:
        integrand = integrands[kd]
        total = None
        for pdiag, (pt, flags) in zip(diag.points, flags_by_point):
            collect = []
            # the rational integrand with parameter s has the pole matching P
            # at s*P; the rescaling covariance of the residue makes the value
            # independent of s
            point = pt.point if kd != "additive" else \
                tuple(integrand.s * x for x in pt.point)
            value = engine.jk_residue(integrand, point, pt.active_weights,
                                      pert.xi_tilde, basis, D=D, flags=flags,
                                      collect=collect)
            pdiag.contributions[kd] = value
            pdiag.flag_contributions[kd] = [v for _, v in collect]
            total = value if total is None else total + value
        if total is None:
            total = Fraction(0) if kd == "additive" else \
                (RatFunc.const(0) if kd == "sine" else QSeries.const(q_order, 0))
        total = total * weyl
        if kd == "additive":
            result.dt = total
        elif kd == "sine":
            result.chi_y = ChiYResult(ratfunc=total, denom_scale=D,
                                      laurent=laurent_form(total))
        else:
            laur = [laurent_form(c) for c in total.coeffs]
            result.ell = EllResult(series=total, denom_scale=D, q_order=q_order,
                                   laurent=laur if all(x is not None for x in laur) else None)
    return result


# ---------------------------------------------------------------------------
# post-processing helpers


def laurent_form(rf: RatFunc) -> dict | None:
    """Exact Laurent-polynomial form {exponent: coefficient}, or None.

    A RatFunc is always fully reduced, with den primitive and positive, so it
    is a Laurent polynomial exactly when den is the single monomial w^e.
    """
    if rf.den.num_terms() != 1:
        return None
    ((dexp,),) = rf.den.terms
    return {k[0] - dexp: Fraction(c) for k, c in rf.num.terms.items()}


def limit_at_one(rf: RatFunc) -> Fraction:
    """Exact limit of a univariate rational function at w = 1."""
    if rf.is_zero():
        return Fraction(0)
    num = rf.num.subst_shift(0, 1)
    den = rf.den.subst_shift(0, 1)
    vd = den.valuation_in(0)
    vn = num.valuation_in(0)
    if vn < vd:
        raise PipelineError("pole at w=1: the chi_y -> DT limit does not exist")
    if vn > vd:
        return Fraction(0)
    lead_num = Fraction(num.coefficient_of(0, vn).constant_value())
    return lead_num / Fraction(den.coefficient_of(0, vd).constant_value())


def specialize(result: InvariantResult) -> dict:
    """Cross-check the specialization identities between computed kinds.

    Asserts that the q^0 coefficient of the elliptic genus equals chi_y and
    that the w -> 1 limit of chi_y equals DT; a mismatch is a pipeline bug.
    """
    report = {}
    if result.ell is not None and result.chi_y is not None:
        q0 = result.ell.series.coeffs[0]
        if not (q0 == result.chi_y.ratfunc):
            raise PipelineError("Ell(q=0) does not reproduce chi_y")
        report["ell_q0_equals_chi_y"] = True
    if result.chi_y is not None and result.dt is not None:
        lim = limit_at_one(result.chi_y.ratfunc)
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


def integrality_scale(problem: GITProblem) -> int:
    """Least k making every weight pairing with every stable point integral."""
    report = validate(problem)
    k = 1
    for pt in report.stable_points:
        for w in problem.nonzero_weights():
            k = lcm(k, (linalg.vec_dot(w, pt.point)).denominator)
    return k


def _scale_w_exponents(poly: MultiPoly, m: int) -> MultiPoly:
    return MultiPoly(1, {(k[0] * m,): c for k, c in poly.terms.items()})


def fractional_reduction_check(problem: GITProblem, q_order: int = 2, seed: int = 0) -> dict:
    """Compare the direct run on a fractional arrangement with the rescaled run.

    The rescaled problem (R' = kR, d' = kd) has integral intersections; its
    chi_y in y' equals the direct chi_y evaluated at y = y'^(1/k) ... i.e. the
    direct value at y^k matches the rescaled value at y.  Both sides are put
    over a common fractional power of y and compared exactly.
    """
    direct = compute(problem, kind="all", q_order=q_order, seed=seed)
    kfac = integrality_scale(problem)
    rescaled_problem = rescale_r_charges(problem, kfac)
    rescaled = compute(rescaled_problem, kind="all", q_order=q_order, seed=seed)
    report = {"scale": kfac, "dt_equal": direct.dt == rescaled.dt}
    Dd = direct.chi_y.denom_scale
    Dr = rescaled.chi_y.denom_scale
    # direct exponent a of w_d means y^(a/(2Dd)); at y^k it is y'^(ak/(2Dd)).
    # rescaled exponent b of w_r means y'^(b/(2Dr)).  Common denominator 2*Dd*Dr.
    md = kfac * Dr
    mr = Dd

    def _cmp_ratfunc(rf_d, rf_r):
        lhs = RatFunc(_scale_w_exponents(rf_d.num, md), _scale_w_exponents(rf_d.den, md))
        rhs = RatFunc(_scale_w_exponents(rf_r.num, mr), _scale_w_exponents(rf_r.den, mr))
        return lhs == rhs

    report["chi_y_equal"] = _cmp_ratfunc(direct.chi_y.ratfunc, rescaled.chi_y.ratfunc)
    report["ell_equal"] = all(
        _cmp_ratfunc(a, b)
        for a, b in zip(direct.ell.series.coeffs, rescaled.ell.series.coeffs)
    )
    report["ok"] = report["dt_equal"] and report["chi_y_equal"] and report["ell_equal"]
    if not report["ok"]:
        raise PipelineError(f"fractional-reduction cross-check failed: {report}")
    return report
