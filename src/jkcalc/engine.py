"""Flag residues and Jeffrey-Kirwan residues of factorized integrands.

Three integrand kinds share one iterated-residue core:

  additive -- rational factors (c + l.z), evaluated over Q; computes DT.
  sine     -- each factor becomes the Laurent binomial Y^(1/2) - Y^(-1/2)
              with Y = y^c * prod X_j^(l_j), written with integer exponents in
              w = y^(1/(2D)) and S_j = X_j^(1/(2D)); computes chi_y.
  theta    -- the sine binomial times the truncated triple product
              prod_{n<=N} (1-q^n)(1-q^n Y)(1-q^n Y^{-1}); computes the
              elliptic genus as a q-series.

Residues are taken innermost flag coordinate first, the remaining coordinates
acting as transcendentals.  Intermediate values are kept as one expanded
"hot" numerator times a dictionary of factored unit denominators, so no
denominator is ever expanded and no gcd is needed along the way.  The
multiplicative kinds take residues at S_j = 1; the per-step Jacobian
constants cancel exactly against the 2i / pi*hbar bookkeeping, enforced by a
counting assertion on the factor list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import arrangement, linalg
from .arrangement import Flag
from .polyarith import MultiPoly, NonUnitError, QSeries, RatFunc

KINDS = ("additive", "sine", "theta")

ORIGIN_ROOT_NUM = "root-num"
ORIGIN_ROOT_DEN = "root-den"
ORIGIN_WEIGHT_NUM = "weight-num"
ORIGIN_WEIGHT_DEN = "weight-den"
ORIGIN_PREFACTOR = "prefactor"


class NonGenericResidueError(ArithmeticError):
    """A residue step hit a non-invertible leading coefficient: an internal
    error, as every factor's leading coefficient is a q-unit for any xi_tilde."""


@dataclass(frozen=True)
class IntegrandFactor:
    rho: tuple[Fraction, ...]
    const: Fraction
    exponent: int
    origin: str


@dataclass
class FactorizedIntegrand:
    """Never-expanded multiplicative form of one of the three Z functions."""

    kind: str
    rank: int
    degree: Fraction
    s: Fraction
    factors: list[IntegrandFactor]
    n_roots: int
    dim_v: int
    q_order: int | None = None
    denom_scale: int | None = None  # common denominator D for w = y^(1/(2D))
    # (point, flag) -> `localize` result, when the caller shares localizations
    localized: dict | None = field(default=None, repr=False, compare=False)

    def assert_structure(self):
        counts = {ORIGIN_ROOT_NUM: 0, ORIGIN_ROOT_DEN: 0,
                  ORIGIN_WEIGHT_NUM: 0, ORIGIN_WEIGHT_DEN: 0}
        balance = 0
        for f in self.factors:
            counts[f.origin] += abs(f.exponent)
            balance += f.exponent
        assert counts[ORIGIN_ROOT_NUM] == self.n_roots
        assert counts[ORIGIN_ROOT_DEN] == self.n_roots
        assert counts[ORIGIN_WEIGHT_NUM] == self.dim_v
        assert counts[ORIGIN_WEIGHT_DEN] == self.dim_v
        # numerator minus denominator factor count vanishes, so together with
        # the `rank` prefactor copies the trigonometric constants cancel
        assert balance == 0, "integrand factor counts out of balance"
        assert self.kind in KINDS
        if self.kind == "theta":
            assert self.q_order is not None and self.q_order >= 0


@dataclass(frozen=True)
class LocalFactor:
    """An integrand factor rewritten in flag coordinates: value c + l . z."""

    const: Fraction
    lin: tuple[Fraction, ...]
    exponent: int
    origin: str


def localize(integrand: FactorizedIntegrand, point, flag: Flag) -> list[LocalFactor]:
    """Rewrite every affine factor as c + l.z with z_i = kappa_i(u - P).

    The change of basis sends rho to rho * K^{-1} where K has the kappa
    covectors as rows; duplicate (c, l) pairs merge their exponents.
    """
    k = integrand.rank
    point = linalg.fvec(point)
    if k > 0:
        kinv = linalg.inverse([linalg.fvec(ka) for ka in flag.kappa])
        if kinv is None:
            raise ValueError("kappa of a proper flag must be invertible")
    merged: dict = {}
    order: list = []
    for f in integrand.factors:
        c = linalg.vec_dot(f.rho, point) + f.const
        if k > 0:
            ell = tuple(
                sum((f.rho[i] * kinv[i][j] for i in range(k)), Fraction(0))
                for j in range(k)
            )
        else:
            ell = ()
        key = (c, ell)
        if key in merged:
            merged[key][0] += f.exponent
        else:
            merged[key] = [f.exponent, f.origin]
            order.append(key)
    out = []
    for key in order:
        exp, origin = merged[key]
        if exp != 0:
            out.append(LocalFactor(const=key[0], lin=key[1], exponent=exp, origin=origin))
    return out


def _localized(integrand: FactorizedIntegrand, point, flag: Flag) -> list[LocalFactor]:
    if integrand.localized is None:
        return localize(integrand, point, flag)
    key = (tuple(point), flag)
    local = integrand.localized.get(key)
    if local is None:
        local = integrand.localized[key] = localize(integrand, point, flag)
    return local


# ---------------------------------------------------------------------------
# shared iterated-residue core


def _merge_factor(factors: dict, poly: MultiPoly, exp: int) -> Fraction:
    """Fold a factored piece into the dictionary; constants return a multiplier."""
    if exp == 0:
        return Fraction(1)
    if poly.is_constant():
        return Fraction(poly.constant_value()) ** exp
    cont, prim = poly.content_normalize()
    key = prim.key()
    entry = factors.get(key)
    if entry is None:
        factors[key] = [prim, exp]
    else:
        entry[1] += exp
        if entry[1] == 0:
            del factors[key]
    return cont**exp


def _series_mul(a, b, target, nv, qv, qcap):
    outs = [dict() for _ in range(target + 1)]
    for i, pa in enumerate(a):
        ta = pa.terms
        if not ta:
            continue
        for j in range(target + 1 - i):
            tb = b[j].terms
            if not tb:
                continue
            dst = outs[i + j]
            for ka, ca in ta.items():
                for kb, cb in tb.items():
                    if qv is not None and ka[qv] + kb[qv] > qcap:
                        continue
                    k = tuple(x + y for x, y in zip(ka, kb))
                    s = dst.get(k)
                    if s is None:
                        dst[k] = ca * cb
                    else:
                        s = s + ca * cb
                        if s:
                            dst[k] = s
                        else:
                            del dst[k]
    return [MultiPoly(nv, d) for d in outs]


def _series_pow(a, n, target, nv, qv, qcap):
    out = [MultiPoly.const(nv, 1)] + [MultiPoly.zero(nv) for _ in range(target)]
    base = a
    while n:
        if n & 1:
            out = _series_mul(out, base, target, nv, qv, qcap)
        n >>= 1
        if n:
            base = _series_mul(base, base, target, nv, qv, qcap)
    return out


def _pad(series, target, nv):
    series = list(series[: target + 1])
    while len(series) < target + 1:
        series.append(MultiPoly.zero(nv))
    return series


def _scaled_inverse(unit, target, nv, qv, qcap):
    """W with (sum unit_t v^t)^(-1) = sum W_t v^t / p0^(t+1), W_t polynomial."""
    p0 = unit[0]
    p0_pows = [MultiPoly.const(nv, 1)]
    for _ in range(target):
        p0_pows.append(p0_pows[-1].mul(p0, qv, qcap))
    W = [MultiPoly.const(nv, 1)]
    for t in range(1, target + 1):
        acc = MultiPoly.zero(nv)
        for j in range(1, min(t, len(unit) - 1) + 1):
            term = unit[j].mul(W[t - j], qv, qcap)
            if j > 1:
                term = term.mul(p0_pows[j - 1], qv, qcap)
            acc = acc + term
        W.append(-acc)
    return W


def _is_q_unit(poly: MultiPoly, qv: int | None) -> bool:
    if qv is None:
        return not poly.is_zero()
    return any(k[qv] == 0 for k in poly.terms)


@dataclass
class _Term:
    coeff: Fraction
    hot: MultiPoly
    factors: dict


def _residue_step(term: _Term, var: int, center, qv, qcap) -> _Term | None:
    """One univariate residue in `var` at `center`; None means zero residue."""
    hot = term.hot
    nv = hot.nvars
    coeff = term.coeff
    carry: dict = {}
    active = []
    if center != 0:
        hot = hot.subst_shift(var, center)
    hv = hot.valuation_in(var)
    total_val = hv
    for _, (p, e) in term.factors.items():
        if p.degree_in(var) == 0:
            coeff *= _merge_factor(carry, p, e)
            continue
        ps = p.subst_shift(var, center) if center != 0 else p
        v = ps.valuation_in(var)
        unit = ps.coefficients_in(var)[v:]
        total_val += v * e
        active.append((unit, e))
    if total_val >= 0:
        return None
    target = -total_val - 1
    series = _pad(hot.coefficients_in(var)[hv:], target, nv)
    new_factors = carry
    for unit, e in active:
        p0 = unit[0]
        if e > 0:
            fser = _series_pow(_pad(unit, target, nv), e, target, nv, qv, qcap)
            series = _series_mul(series, fser, target, nv, qv, qcap)
            continue
        if not _is_q_unit(p0, qv):
            raise NonGenericResidueError(
                "denominator constant term is not a q-adic unit"
            )
        p = -e
        W = _scaled_inverse(unit, target, nv, qv, qcap)
        S = W
        for _ in range(p - 1):
            S = _series_mul(S, W, target, nv, qv, qcap)
        # rescale so every coefficient sits over the fixed power p0^(target+p)
        p0_pows = [MultiPoly.const(nv, 1)]
        for _ in range(target):
            p0_pows.append(p0_pows[-1].mul(p0, qv, qcap))
        scaled = [S[t].mul(p0_pows[target - t], qv, qcap) for t in range(target + 1)]
        series = _series_mul(series, scaled, target, nv, qv, qcap)
        coeff *= _merge_factor(new_factors, p0, e - target)
    s = series[target]
    if s.is_zero():
        return None
    cont, s = s.content_normalize()
    coeff *= cont
    return _Term(coeff=coeff, hot=s, factors=new_factors)


# ---------------------------------------------------------------------------
# additive kind


def flag_residue_additive(local_factors, flag: Flag, integrand: FactorizedIntegrand) -> Fraction:
    """Iterated residue of the rational integrand along one flag, times the
    lattice normalization |d(mu) / (kappa_1 ^ ... ^ kappa_k)|."""
    k = integrand.rank
    nv = max(k, 1)
    ds = integrand.degree * integrand.s
    coeff = (Fraction(1) / ds) ** k
    hot = MultiPoly.const(nv, 1)
    factors: dict = {}
    for lf in local_factors:
        if all(x == 0 for x in lf.lin):
            if lf.const == 0:
                if lf.exponent > 0:
                    return Fraction(0)
                raise ZeroDivisionError("integrand denominator factor is identically zero")
            coeff *= lf.const**lf.exponent
            continue
        poly = MultiPoly.affine(nv, lf.lin, lf.const)
        coeff *= _merge_factor(factors, poly, lf.exponent)
    term = _Term(coeff=coeff, hot=hot, factors=factors)
    for i in range(k):
        term = _residue_step(term, i, 0, None, None)
        if term is None:
            return Fraction(0)
    value = term.coeff * Fraction(term.hot.constant_value())
    for poly, exp in term.factors.values():
        value *= Fraction(poly.constant_value()) ** exp
    return value * flag.lattice_factor


# ---------------------------------------------------------------------------
# multiplicative kinds


def _monomial_pair(nv, widx, w_exp, s_exps):
    """Split w^w_exp * prod S_j^(s_exps[j]) into numerator/denominator monomials."""
    pos = [0] * nv
    neg = [0] * nv
    if w_exp >= 0:
        pos[widx] = w_exp
    else:
        neg[widx] = -w_exp
    for j, a in enumerate(s_exps):
        if a >= 0:
            pos[j] = a
        else:
            neg[j] = -a
    return MultiPoly.monomial(nv, pos), MultiPoly.monomial(nv, neg)


def multiplicativize(local_factor: LocalFactor, kind: str, D: int, N: int | None,
                     rank: int) -> list[tuple[MultiPoly, int]]:
    """Map one localized affine factor to its multiplicative factored pieces.

    Returns (polynomial, signed exponent) pairs whose product is the image of
    the factor: the binomial Y^(1/2) - Y^(-1/2) for the sine kind, and for
    the theta kind additionally the truncated products (1-q^n)(1-q^n Y)
    (1-q^n Y^{-1}) for n = 1..N.  Variables are S_0..S_{rank-1}, then w, then
    (theta only) q; all exponents are integers after the 1/(2D) rescaling.
    """
    if kind not in ("sine", "theta"):
        raise ValueError("multiplicativize applies to the sine and theta kinds")
    widx = rank
    qidx = rank + 1
    nv = rank + 1 + (1 if kind == "theta" else 0)
    b = Fraction(D) * local_factor.const
    a = [Fraction(D) * x for x in local_factor.lin]
    if b.denominator != 1 or any(x.denominator != 1 for x in a):
        raise ValueError("denominator scale D does not clear the factor data")
    b = int(b)
    a = [int(x) for x in a]
    m1, m2 = _monomial_pair(nv, widx, b, a)
    e = local_factor.exponent
    pieces: list[tuple[MultiPoly, int]] = []
    binom = m1.mul(m1) - m2.mul(m2)
    pieces.append((binom, e))
    pieces.append((m1.mul(m2), -e))
    if kind == "theta":
        m1sq = m1.mul(m1)
        m2sq = m2.mul(m2)
        for n in range(1, (N or 0) + 1):
            qn = MultiPoly.variable(nv, qidx, n)
            pieces.append((MultiPoly.const(nv, 1) - qn, e))
            pieces.append((m2sq - qn.mul(m1sq), e))
            pieces.append((m1sq - qn.mul(m2sq), e))
            pieces.append((m1.mul(m2), -2 * e))
    return pieces


def _prefactor_pieces(integrand: FactorizedIntegrand, D: int):
    """Pieces of the rank-many prefactor copies for the multiplicative kinds."""
    k = integrand.rank
    lf = LocalFactor(const=integrand.degree, lin=(Fraction(0),) * k,
                     exponent=-k, origin=ORIGIN_PREFACTOR)
    pieces = multiplicativize(lf, integrand.kind, D, integrand.q_order, k)
    if integrand.kind == "theta":
        nv = k + 2
        qidx = k + 1
        for n in range(1, (integrand.q_order or 0) + 1):
            qn = MultiPoly.variable(nv, qidx, n)
            pieces.append((MultiPoly.const(nv, 1) - qn, 3 * k))
    return pieces


def _project_w(poly: MultiPoly, widx: int) -> MultiPoly:
    out = {}
    for kexp, c in poly.terms.items():
        out[(kexp[widx],)] = c
    return MultiPoly(1, out)


def _poly_to_qseries(poly: MultiPoly, widx: int, qidx: int, order: int) -> QSeries:
    coeffs = [RatFunc.const(0)] * (order + 1)
    buckets: dict[int, dict] = {}
    for kexp, c in poly.terms.items():
        buckets.setdefault(kexp[qidx], {})[(kexp[widx],)] = c
    for qe, terms in buckets.items():
        if qe <= order:
            coeffs[qe] = RatFunc(MultiPoly(1, terms))
    return QSeries(order, coeffs)


def flag_residue_multiplicative(local_factors, flag: Flag, integrand: FactorizedIntegrand,
                                D: int):
    """Iterated multiplicative residue along one flag.

    Residues in the flag coordinates are taken at X_j = 1 via S_j = X_j^(1/(2D));
    the measure contributes 2D/S_j per step and the leftover transcendental
    constants cancel exactly by the factor-count balance (asserted at build).
    Returns a RatFunc in w (sine) or a QSeries with RatFunc coefficients (theta).
    """
    kind = integrand.kind
    k = integrand.rank
    widx = k
    theta = kind == "theta"
    nv = k + 1 + (1 if theta else 0)
    qv = k + 1 if theta else None
    qcap = integrand.q_order if theta else None
    coeff = Fraction(1)
    factors: dict = {}
    balance = 0
    for lf in local_factors:
        if lf.const == 0 and all(x == 0 for x in lf.lin):
            if lf.exponent > 0:
                return _zero_value(integrand)
            raise ZeroDivisionError("integrand denominator factor is identically zero")
        balance += lf.exponent
        for poly, e in multiplicativize(lf, kind, D, integrand.q_order, k):
            coeff *= _merge_factor(factors, poly, e)
    assert balance == 0, "sine factor count must balance the prefactor copies"
    for poly, e in _prefactor_pieces(integrand, D):
        coeff *= _merge_factor(factors, poly, e)
    term = _Term(coeff=coeff, hot=MultiPoly.const(nv, 1), factors=factors)
    for i in range(k):
        coeff_adj = _merge_factor(term.factors, MultiPoly.variable(nv, i), -1)
        term.coeff *= coeff_adj * 2 * D
        term = _residue_step(term, i, 1, qv, qcap)
        if term is None:
            return _zero_value(integrand)
    return _assemble_multiplicative(term, integrand, widx, qv) * flag.lattice_factor


def _zero_value(integrand: FactorizedIntegrand):
    if integrand.kind == "sine":
        return RatFunc.const(0)
    return QSeries.const(integrand.q_order, 0)


def _assemble_multiplicative(term: _Term, integrand: FactorizedIntegrand, widx, qv):
    if integrand.kind == "sine":
        num = _project_w(term.hot, widx) * term.coeff
        den = MultiPoly.const(1, 1)
        for poly, exp in term.factors.values():
            p = _project_w(poly, widx)
            if exp > 0:
                num = num.mul(p.pow(exp))
            else:
                den = den.mul(p.pow(-exp))
        return RatFunc(num, den)
    order = integrand.q_order
    value = _poly_to_qseries(term.hot, widx, qv, order) * term.coeff
    for poly, exp in term.factors.values():
        qs = _poly_to_qseries(poly, widx, qv, order)
        if exp > 0:
            value = value * qs**exp
        else:
            try:
                value = value * qs.inverse() ** (-exp)
            except NonUnitError as exc:
                raise NonGenericResidueError(str(exc)) from exc
    return value


# ---------------------------------------------------------------------------
# JK residue: sum over proper stable flags


def denominator_scale(integrand: FactorizedIntegrand, points_with_flags) -> int:
    """Least common denominator D of every localized constant and covector entry."""
    D = 1
    for point, flags in points_with_flags:
        for flag in flags:
            for lf in _localized(integrand, point, flag):
                D = lcm(D, lf.const.denominator)
                for x in lf.lin:
                    D = lcm(D, x.denominator)
    return D


def flag_residue(local_factors, flag, integrand, D=None):
    if integrand.kind == "additive":
        return flag_residue_additive(local_factors, flag, integrand)
    return flag_residue_multiplicative(local_factors, flag, integrand, D)


def jk_residue(integrand: FactorizedIntegrand, point, active_weights, xi_tilde,
               basis, D: int | None = None, flags=None, collect=None):
    """Jeffrey-Kirwan residue at one point: the sum of flag residues over all
    proper stable flags of the active weights (empty set contributes zero).

    `collect`, when given, receives (flag, contribution) pairs in enumeration
    order for diagnostics.
    """
    k = integrand.rank
    if flags is None:
        flags = arrangement.enumerate_flags(active_weights, xi_tilde, basis) if k > 0 \
            else [Flag(generators=(), chain=(), kappa=(), lattice_factor=Fraction(1))]
    if integrand.kind != "additive" and D is None:
        D = integrand.denom_scale or denominator_scale(integrand, [(point, flags)])
    total = Fraction(0) if integrand.kind == "additive" else _zero_value(integrand)
    for flag in flags:
        value = flag_residue(_localized(integrand, point, flag), flag, integrand, D)
        if collect is not None:
            collect.append((flag, value))
        total = total + value
    return total
