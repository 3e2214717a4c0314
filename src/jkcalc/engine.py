"""Flag residues and Jeffrey-Kirwan residues of factorized integrands.

Three integrand kinds share one iterated-residue core:

  additive -- rational factors (c + l.z), evaluated over Q; computes DT.
  sine     -- each factor becomes the Laurent binomial Y^(1/2) - Y^(-1/2)
              with Y = y^c * prod X_j^(l_j), written with integer exponents in
              w = y^(1/(2D)) and S_j = X_j^(1/(2D)): for Y^(1/2) = m1/m2 with
              m1, m2 coprime monomials, the binomial m1^2 - m2^2 over the
              monomial m1 m2; computes chi_y.
  theta    -- the sine factors times one q-series numerator G: by Jacobi's
              triple product theta(Y) = (Y^(1/2) - Y^(-1/2)) (q;q) Phi(Y),
              with Phi(Y) = prod_n (1 - q^n Y)(1 - q^n / Y) a q-unit that has
              no pole at S = 1, so with the k prefactor copies
              G = (q;q)^(2k) Phi(y^d)^(-k) prod Phi(Y)^e modulo q^(N+1)
              (`_theta_numerator`); computes the elliptic genus as a q-series.

Every factor of G is 1 + O(q), so the theta residue's q^0 coefficient is the
sine residue: asked for together (`kind="all"`), the two take one
multiplicative residue per flag, the theta one (`invariants._compute`).

`localize` writes each factor in flag coordinates as c + l.z, on integers
over one denominator (`LocalFactor`), which every kind reads as it is.
Residues are taken innermost flag coordinate first, the remaining coordinates
acting as transcendentals.  Intermediate values are kept as one expanded
"hot" numerator times a dictionary of factored powers, so no denominator is
ever expanded and no gcd is needed along the way.  One power rule reads a
factor U^e, U = u_0 + u_1 v + ...: a unit constant in v, as every unit is at
target 0, is carried whole as u_0^e and multiplies nothing; otherwise, for
e < 0 and e >= target a step carries u_0^(e-target) factored, numerators
too, and multiplies only the series V = U^e / u_0^(e-target); a power
0 < e < target is expanded in full.

The additive kind keeps every factor as its affine row (c, l), which stays
affine through every step: a carried factor is the same row with l_i set to
0.  Its steps take residues at z_i = 0 and read each unit's series off the
binomial theorem, V_t = binom(e, t) l_i^t u_0^(target-t) (`_row_step`), so
no factor becomes a polynomial.  The multiplicative kinds take residues at
S_j = 1 on polynomial factors (`_residue_step`), reading V off J. C. P.
Miller's recurrence (`_unit_power`) and a full power off `_series_pow`; no
step shifts a polynomial in full.  Every factor's m1 m2 and every step's
measure dX_j / X_j = 2D dS_j / S_j make one monomial times (2D)^k, and the
other constants cancel exactly against the 2i / pi*hbar bookkeeping,
enforced by a counting assertion on the factor list.  The two kinds share
the factors, poles, targets and carried denominators, all free of q; the
theta kind's G enters the first step as its Taylor series at S_0 = 1 in
place of the hot numerator 1, so later steps shift a hot numerator with
negative exponents.  The finished value is expanded in q (sine is order 0),
and each q^t coefficient is reduced once, as one rational function of w.

Before any of this, `_screened_zero` decides a flag whose residue vanishes
by its pole count alone: it walks the residue steps on the local (c, l)
patterns, where a factor has valuation 1 at step i exactly when c = 0,
l_i != 0 and l_j = 0 for every j > i, and returns zero as soon as the
exponents of those factors sum to >= 0.  A factor that keeps a later l_j != 0
is carried to the next step with exponent e - target, a numerator factor
only while that is positive: the residue steps' own power rule.  The rule is
the same at S_i = 1, so one screen serves all three kinds.

Every series product runs in Kronecker form (`kronecker.Kronecker`): the
coefficients are grouped by every exponent but one packed variable, w for
the multiplicative kinds (the residue steps, G and the q-expansion) and the
last flag coordinate for the additive kind, and each group becomes one
integer.  `_expand` and `_row_series` pack their inputs once, multiply them
packed and unpack only their result.  The slot width is one sign bit above
a bound on the L1 norm of each unpacked coefficient: `_norm_bound` and
`_row_series` run the same products and recurrences on the coefficient
norms, a row's norm being |c| + sum |l_j|, and no coefficient of a product
exceeds the product of the norms, so the balanced digits read back are the
exact coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import mul

from . import linalg
from .arrangement import Flag
from .kronecker import Kronecker
from .polyarith import MultiPoly, QSeries, RatFunc, binom

KINDS = ("additive", "sine", "theta")

ORIGIN_ROOT_NUM = "root-num"
ORIGIN_ROOT_DEN = "root-den"
ORIGIN_WEIGHT_NUM = "weight-num"
ORIGIN_WEIGHT_DEN = "weight-den"


class NonGenericResidueError(ArithmeticError):
    """A residue step hit a non-invertible leading coefficient: an internal
    error, as every factor's leading coefficient is a q-unit for any perturbation."""


@dataclass(frozen=True)
class IntegrandFactor:
    rho: tuple[int, ...]
    const: int
    exponent: int
    origin: str


@dataclass
class FactorizedIntegrand:
    """Never-expanded multiplicative form of one of the three Z functions."""

    kind: str
    rank: int
    degree: int
    s: Fraction
    factors: list[IntegrandFactor]
    n_roots: int
    dim_v: int
    q_order: int | None = None
    denom_scale: int | None = None  # common denominator D for w = y^(1/(2D))

    @cached_property
    def cleared_factors(self):
        """The factors on integers: (R, rhos, rows), with every rho and constant
        an integer over the common denominator R (1 unless a factor has
        rational data), `rhos` the distinct rho numerators, and one (rho
        index, const numerator, exponent) row per factor, in factor order."""
        R = lcm(*(x.denominator for f in self.factors for x in (*f.rho, f.const)))
        index: dict = {}
        rows = []
        for f in self.factors:
            rho = tuple(x.numerator * (R // x.denominator) for x in f.rho)
            rows.append((index.setdefault(rho, len(index)),
                         f.const.numerator * (R // f.const.denominator), f.exponent))
        return R, list(index), rows

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
    """An integrand factor rewritten in flag coordinates: the value
    (const + lin . z) / den, with den > 0 and gcd(const, *lin, den) = 1, so
    den is the least common denominator of the factor's c and l."""

    const: int
    lin: tuple[int, ...]
    den: int
    exponent: int


def localize(integrand: FactorizedIntegrand, point, flag: Flag) -> list[LocalFactor]:
    """Rewrite every affine factor as c + l.z with z_i = kappa_i(u - P).

    The change of basis sends rho to rho * K^{-1} where K has the kappa
    covectors as rows; duplicate (c, l) pairs merge their exponents.  Every
    product runs on integers (`FactorizedIntegrand.cleared_factors`, K^{-1}
    the flag's `kappa_inverse` and P cleared over one denominator): rho.P
    and l are computed once for each distinct rho.  K^{-1} is invertible, so
    distinct rhos have distinct l, and (rho index, numerator of c) keys the
    merge.  Each factor is put over the common denominator R lcm(den K^{-1},
    den P) and reduced by one gcd.
    """
    R, rhos, rows = integrand.cleared_factors
    point_ints, point_den = linalg.cleared(point)
    kinv, kinv_den = flag.kappa_inverse
    columns = list(zip(*kinv))
    scale = lcm(kinv_den, point_den)
    den = R * scale
    at_point = [sum(map(mul, rho, point_ints)) * (scale // point_den) for rho in rhos]
    lins = [tuple(sum(map(mul, rho, col)) * (scale // kinv_den) for col in columns)
            for rho in rhos]
    merged: dict = {}
    for g, const, exponent in rows:
        key = (g, at_point[g] + const * scale)
        merged[key] = merged.get(key, 0) + exponent
    out = []
    for (g, c), exponent in merged.items():
        if exponent != 0:
            lin = lins[g]
            q = gcd(den, c, *lin)
            if q > 1:
                lin = tuple(x // q for x in lin)
            out.append(LocalFactor(const=c // q, lin=lin, den=den // q, exponent=exponent))
    return out


# ---------------------------------------------------------------------------
# shared iterated-residue core


def _merge_factor(factors: dict, poly: MultiPoly, exp: int, scale=(1, 1)) -> tuple[int, int]:
    """Fold the factored piece poly^exp into the dictionary, poly an integer
    polynomial; returns `scale`, an integer (numerator, denominator) pair,
    times the constant multiplier."""
    if exp == 0:
        return scale
    if poly.is_constant():
        cont = poly.constant_value()
    else:
        cont, prim = poly.content_normalize()
        key = prim.key()
        entry = factors.get(key)
        if entry is None:
            factors[key] = [prim, exp]
        else:
            entry[1] += exp
            if entry[1] == 0:
                del factors[key]
    num, dnm = scale
    return (num * cont ** exp, dnm) if exp > 0 else (num, dnm * cont ** -exp)


def _series_mul(a, b, target, kr, first=0):
    """Coefficients first..target of the product of two series."""
    out = [{} for _ in range(first, target + 1)]
    for i, pa in enumerate(a):
        if pa:
            for j in range(max(first - i, 0), target + 1 - i):
                if b[j]:
                    kr.mul_into(out[i + j - first], pa, b[j])
    return out


def _series_pow(a, n, target, kr):
    """a^n for n >= 1."""
    out = None
    while n:
        if n & 1:
            out = a if out is None else _series_mul(out, a, target, kr)
        n >>= 1
        if n:
            a = _series_mul(a, a, target, kr)
    return out


def _unit_power(unit, e, target, kr):
    """V with U^e = u_0^(e-target) sum V_t v^t mod v^(target+1), for any
    integer e and U = sum unit_t v^t, u_0 != 0: V_t = W_t u_0^(target-t) by
    J. C. P. Miller's recurrence for powers of a power series (Knuth, TAOCP
    vol. 2, 4.7), U^e = sum u_0^(e-t) W_t v^t with W_0 = 1 and
    t W_t = sum_(j=1..t) ((e+1) j - t) u_j u_0^(j-1) W_(t-j).  W_t has
    integer coefficients, so the division by t is exact, also packed."""
    u0 = unit[0]
    if not u0:
        raise NonGenericResidueError("unit constant term is zero")
    u0_pows = [kr.one(), u0]
    for _ in range(target - 1):
        u0_pows.append(kr.mul_into({}, u0_pows[-1], u0))
    steps = [None] + [unit[j] if j == 1 or not unit[j] else
                      kr.mul_into({}, unit[j], u0_pows[j - 1]) for j in range(1, target + 1)]
    # W_0 = 1 is never multiplied: the j = t term of each sum is e t steps[t],
    # and V_0 = u_0^target
    W = [None]
    for t in range(1, target + 1):
        acc = {key: (low, e * t * v) for key, (low, v) in steps[t].items()}
        for j in range(1, t):
            c = (e + 1) * j - t
            if c and steps[j] and W[t - j]:
                kr.mul_into(acc, {key: (low, c * v) for key, (low, v) in steps[j].items()},
                            W[t - j])
        W.append({key: (low, v // t) for key, (low, v) in acc.items()})
    V = [u0_pows[target]] + [kr.mul_into({}, W[t], u0_pows[target - t]) if W[t] else {}
                             for t in range(1, target)]
    return V + W[len(V):]


def _norm_bound(series, factors, target):
    """Bounds on the L1 norms of the coefficients 0..target that `_expand`
    returns: its products and recurrences, run on the coefficient norms."""
    def mul(a, b):
        out = [0] * (target + 1)
        for i, x in enumerate(a):
            if x:
                for j in range(target + 1 - i):
                    out[i + j] += x * b[j]
        return out

    def norms(polys):
        out = [sum(map(abs, p.terms.values())) for p in polys[:target + 1]]
        return out + [0] * (target + 1 - len(out))

    out = norms(series)
    for unit, e, carried in factors:
        u = f = norms(unit)
        if carried:
            w = [1]
            for t in range(1, target + 1):
                x = sum(abs((e + 1) * j - t) * u[j] * u[0] ** (j - 1) * w[t - j]
                        for j in range(1, t + 1))
                w.append(-(-x // t))
            f = [x * u[0] ** (target - t) for t, x in enumerate(w)]
        else:
            for _ in range(e - 1):
                f = mul(f, u)
        out = mul(out, f)
    return out


def _expand(series, factors, target, pv, first=0):
    """Coefficients first..target in v of series * prod P over the nonempty
    (unit, e, carried) factors: P = unit^e, or unit^e / unit_0^(e-target)
    (`_unit_power`) when the caller carries unit_0^(e-target).  Every list is
    a series sum_t poly_t v^t of integer polynomials, packed in variable pv.

    The factors are multiplied first and `series` last, for the coefficients
    first..target only: a hot numerator carries every q-group of the theta
    kind, each factor one group."""
    nv = series[0].nvars
    kr = Kronecker(nv, pv, max(_norm_bound(series, factors, target)[first:]),
                   series[:target + 1] + [p for unit, _, _ in factors for p in unit[:target + 1]])

    def packed(polys):
        return [kr.pack(p) for p in polys[:target + 1]] + [{}] * (target + 1 - len(polys))

    out = None
    for unit, e, carried in factors:
        fser = (_unit_power if carried else _series_pow)(packed(unit), e, target, kr)
        out = fser if out is None else _series_mul(out, fser, target, kr)
    return [kr.unpack(c) for c in _series_mul(packed(series), out, target, kr, first)]


@dataclass
class _Term:
    coeff: Fraction
    hot: MultiPoly
    factors: dict   # key: [polynomial, exponent]; for the additive kind, row: exponent


def _residue_step(term: _Term, var: int, pv, taylor=None) -> _Term | None:
    """One univariate residue in S_var at 1, variable pv packed in the series
    products; None means zero residue.  `taylor(n)`, when given, returns the
    hot numerator's first n Taylor coefficients at 1 in place of term.hot's.

    Only the Taylor coefficients at 1 that the step reads are computed
    (`MultiPoly.shift_coefficients`).  A factor's valuation v there
    is found window by window, [0, 2), [2, 4), [4, 8), ... up to its degree,
    until a window has a nonzero coefficient.  With B = -sum v e over the
    factors, the residue is the coefficient of degree target = B - 1 - hv,
    for hv the hot numerator's valuation, so the step reads the hot
    numerator's coefficients j < B, whatever hv is, and a factor's
    j < v + target + 1 (none above its degree are nonzero).  A hot numerator
    with none nonzero below B gives zero before any series work.  A factor
    whose unit U is a constant (its valuation is its degree, or the target is
    0) is exactly u_0, so U^e = u_0^e is carried whole and multiplies
    nothing; with every factor so, the residue is hot[hv + target].  A
    factor free of `var` is carried under its key as it is.  The step's
    constant is kept as an integer numerator and denominator, and becomes
    one Fraction at the end.
    """
    scale = (1, 1)
    carry: dict = {}
    active = []
    bound = 0
    for key, (p, e) in term.factors.items():
        deg = p.degree_in(var)
        if deg == 0:
            carry[key] = [p, e]
            continue
        head, hi = [], 2
        while not any(head):
            head += p.shift_coefficients(var, len(head), min(hi, deg + 1))
            hi *= 2
        v = next(j for j, c in enumerate(head) if c)
        bound -= v * e
        active.append((p, e, v, deg, head))
    if bound <= 0:
        return None
    hot = term.hot.shift_coefficients(var, 0, bound) if taylor is None else taylor(bound)
    hv = next((j for j, c in enumerate(hot) if c), None)
    if hv is None:
        return None
    target = bound - 1 - hv
    units = []
    for p, e, v, deg, head in active:
        end = min(v + target, deg) + 1
        unit = head[v:end]
        if end == v + 1:
            scale = _merge_factor(carry, unit[0], e, scale)
            continue
        if end > len(head):
            unit += p.shift_coefficients(var, len(head), end)
        carried = e < 0 or e >= target
        if carried:
            scale = _merge_factor(carry, unit[0], e - target, scale)
        units.append((unit, e, carried))
    s = _expand(hot[hv:], units, target, pv, target)[0] if units else hot[hv + target]
    if s.is_zero():
        return None
    cont, s = s.content_normalize()
    coeff = Fraction(term.coeff.numerator * scale[0] * cont, term.coeff.denominator * scale[1])
    return _Term(coeff=coeff, hot=s, factors=carry)


def _screened_zero(local_factors, rank: int) -> bool:
    """True when the flag's residue is zero by the pole count alone.

    Walks the residue steps on the (c, l) patterns, taking the hot
    numerator's valuation as 0.  Only factors with c = 0 can vanish, so only
    they are followed, by their tails l_i, l_(i+1), ... at step i.  Such a
    factor has valuation 1 at step i exactly when l_i != 0 and every later
    l_j is 0, else 0, for its sine and theta images at S_i = 1 as well; the
    sum of the exponents of the valuation-1 factors bounds the integrand's
    order in z_i from below, and the residue vanishes once it is >= 0.  By
    the residue steps' power rule, factors with l_i = 0 are carried unchanged,
    those of valuation 1 become constants (dropped), and the others as u_0
    with l_i set to 0 and exponent e - target, a numerator only while that is
    > 0: the coefficient of z_i^j in (a z_i + L)^e is a multiple of L^(e-j),
    and likewise for the sine and theta images at S_i = 1.  Every exponent
    stays at or below the true one.  An identically zero factor is left to
    the full computation.
    """
    live = []
    for lf in local_factors:
        if lf.const == 0:
            if not any(lf.lin):
                return False
            live.append((lf.lin, lf.exponent))
    for i in range(rank):
        bound = sum(e for tail, e in live if tail[0] and not any(tail[1:]))
        if bound >= 0:
            return True
        carried = []
        for tail, e in live:
            if not tail[0]:
                carried.append((tail[1:], e))
            elif any(tail[1:]) and (e < 0 or e + bound + 1 > 0):
                carried.append((tail[1:], e + bound + 1))
        live = carried
    return False


# ---------------------------------------------------------------------------
# additive kind


def _merge_row(rows: dict, row: tuple, exp: int, scale) -> tuple[int, int]:
    """Fold (c + l.z)^exp, row = (c, *l) a nonzero integer row, into `rows`
    under its primitive row with first nonzero entry positive, or nowhere
    when l = 0; returns `scale`, an integer (numerator, denominator) pair,
    times the power of the signed content."""
    if exp == 0:
        return scale
    g = gcd(*row)
    if next(filter(None, row)) < 0:
        g = -g
    if any(row[1:]):
        row = tuple(x // g for x in row)
        e = rows.get(row, 0) + exp
        if e:
            rows[row] = e
        else:
            del rows[row]
    num, den = scale
    return (num * g ** exp, den) if exp > 0 else (num, den * g ** -exp)


def _row_series(hot, units, target, pv) -> MultiPoly:
    """Coefficient target in v of hot * prod sum_t V_t v^t over the
    (u, l, e, m) units of `_row_step`, V_t = binom(e, t) l^t u^(m-t) for
    t = 0..m, with u a row and hot a list of integer polynomials, packed in
    variable pv.

    Each unit packs u once and raises it by products; its entry t = m is the
    integer binom(e, m) l^m, which scales the running product instead of
    multiplying it.  The units are multiplied first and hot last, for
    coefficient target only.  The slot width bounds the product of the
    coefficient norms, |u| = |c| + sum |l_j| (module docstring)."""
    coeffs = [[binom(e, t) * l ** t for t in range(m + 1)] for _, l, e, m in units]
    norms = [1] + [0] * target
    for (u, _, _, m), c in zip(units, coeffs):
        size = sum(map(abs, u))
        f = [abs(x) * size ** (m - t) for t, x in enumerate(c)]
        norms = [sum(norms[j] * f[t - j] for j in range(max(t - m, 0), t + 1))
                 for t in range(target + 1)]
    bound = sum(sum(map(abs, p.terms.values())) * norms[target - j] for j, p in enumerate(hot))
    nv = hot[0].nvars
    keys = [(0,) * nv] + [tuple(int(j == i) for j in range(nv)) for i in range(nv)]
    kr = Kronecker(nv, pv, bound, hot)
    out = None
    for (u, _, _, m), c in zip(units, coeffs):
        base = kr.pack_terms((key, x) for key, x in zip(keys, u) if x)
        pows = [base]
        for _ in range(m - 1):
            pows.append(kr.mul_into({}, pows[-1], base))
        V = [{key: (low, x * v) for key, (low, v) in pows[m - 1 - t].items()}
             for t, x in enumerate(c[:m])]
        if out is None:
            out = V + [{key: (0, c[m]) for key in kr.one()}] + [{}] * (target - m)
            continue
        new = []
        for n in range(target + 1):
            acc = {key: (low, c[m] * v) for key, (low, v) in out[n - m].items()} if n >= m else {}
            for t in range(min(n + 1, m)):
                if out[n - t]:
                    kr.mul_into(acc, V[t], out[n - t])
            new.append(acc)
        out = new
    acc = {}
    for j, p in enumerate(hot):
        if p and out[target - j]:
            kr.mul_into(acc, kr.pack(p), out[target - j])
    return kr.unpack(acc)


def _row_step(term: _Term, i: int, pv: int) -> _Term | None:
    """One additive residue in z_i at 0, z_pv packed in the series products;
    term.factors maps primitive rows (`_merge_row`), with l_j = 0 for j < i,
    to exponents; None means zero residue.

    A row with l_i = 0 is carried untouched; one with c = 0 and l_j = 0 for
    every j > i is z_i, a simple zero of unit 1.  Any other row is
    U = u + l_i z_i, u the row with l_i zeroed.  With B = -sum e over the
    simple zeros, the residue is the coefficient of degree
    target = B - 1 - hv of the hot numerator, of valuation hv, times
    prod U^e.  By the binomial theorem, for e < 0 and e >= target the step
    carries u^(e-target) and multiplies only V_t = binom(e, t) l_i^t
    u^(target-t); a power 0 < e < target, whose carried u would be a
    denominator that is not a pole, is multiplied in full (`_row_series`).
    At target 0 every U^e is carried as u^e and nothing is multiplied.
    """
    scale = (1, 1)
    carry: dict = {}
    active = []
    bound = 0
    for row, e in term.factors.items():
        if not row[i + 1]:
            carry[row] = e
        elif row[0] or any(row[i + 2:]):
            active.append((row, e))
        else:
            bound -= e
    if bound <= 0:
        return None
    hot = term.hot.shift_coefficients(i, 0, bound, 0)
    hv = next((j for j, c in enumerate(hot) if c), None)
    if hv is None:
        return None
    target = bound - 1 - hv
    units = []
    for row, e in active:
        u = row[:i + 1] + (0,) + row[i + 2:]
        m = e if 0 < e < target else target
        scale = _merge_row(carry, u, e - m, scale)
        if m:
            units.append((u, row[i + 1], e, m))
    s = _row_series(hot[hv:], units, target, pv) if units else hot[hv + target]
    if s.is_zero():
        return None
    cont, s = s.content_normalize()
    coeff = Fraction(term.coeff.numerator * scale[0] * cont, term.coeff.denominator * scale[1])
    return _Term(coeff=coeff, hot=s, factors=carry)


def flag_residue_additive(local_factors, flag: Flag, integrand: FactorizedIntegrand) -> Fraction:
    """Iterated residue of the rational integrand along one flag, times the
    lattice normalization |d(mu) / (kappa_1 ^ ... ^ kappa_k)|.

    The equivariant parameter s enters here only.  The rational integrand at
    s has every constant scaled by s, and its pole matching P sits at s P,
    where each factor c + l.z of `local_factors` (taken at P) reads s c + l.z;
    the prefactor is (1/(d s))^k.  With s = a/b and the factor (c' + l'.z)/m
    (`LocalFactor`), s c + l.z is the integer row (a c', b l') over m b, and
    the steps run on the rows (`_row_step`).
    """
    k = integrand.rank
    if _screened_zero(local_factors, k):
        return Fraction(0)
    s = integrand.s
    a, b = s.numerator, s.denominator
    num, den = b ** k, (integrand.degree * a) ** k
    rows: dict = {}
    for lf in local_factors:
        if not lf.const and not any(lf.lin):
            if lf.exponent > 0:
                return Fraction(0)
            raise ZeroDivisionError("integrand denominator factor is identically zero")
        power = (lf.den * b) ** abs(lf.exponent)
        num, den = (num, den * power) if lf.exponent > 0 else (num * power, den)
        num, den = _merge_row(rows, (a * lf.const, *(b * x for x in lf.lin)), lf.exponent,
                              (num, den))
    term = _Term(coeff=Fraction(num, den), hot=MultiPoly.const(k, 1), factors=rows)
    for i in range(k):
        term = _row_step(term, i, k - 1)
        if term is None:
            return Fraction(0)
    # after the last step the hot numerator is 1 and every row a constant,
    # all folded into the coefficient
    return term.coeff * flag.lattice_factor


# ---------------------------------------------------------------------------
# multiplicative kinds


def _half_exponents(local_factor: LocalFactor, D: int) -> list[int]:
    """The exponents of Y^(1/2) in S_0..S_(rank-1), w for the factor's
    Y = y^c * prod X_j^(l_j): integers after the 1/(2D) rescaling."""
    scale, rest = divmod(D, local_factor.den)
    if rest:
        raise ValueError("denominator scale D does not clear the factor data")
    return [x * scale for x in (*local_factor.lin, local_factor.const)]


def _theta_numerator(ys, k: int, N: int, terms: int) -> list[MultiPoly]:
    """The theta kind's q-series numerator

        G = (q;q)^(2k) prod_f Phi(Y_f)^(e_f) mod q^(N+1),
        Phi(Y) = prod_(n>=1) (1 - q^n Y)(1 - q^n / Y),

    over the (exponents of Y_f, e_f) pairs `ys` of the flag's factors and the
    prefactor copies: its Taylor coefficients 0..terms-1 in v = S_0 - 1, or
    G itself (terms = 1) at rank k = 0.  By Jacobi's triple product
    theta(Y) = (Y^(1/2) - Y^(-1/2)) (q;q) Phi(Y), and the exponents e_f sum
    to -k, so the theta integrand is the sine integrand times G, a q-unit
    with no pole at S = 1.

    Newton's identity on log G gives j G_j = sum_(i=1..j) A_i G_(j-i) for
    the q^j coefficients, with A_i = -sum_(m | i) (i/m) P_m and
    P_m = sum_f e_f (Y_f^m + Y_f^(-m)) + 2k.  At S_0 = 1 + v, Y^m is the
    series binom(a m, t) v^t, a its exponent of S_0, times its other
    monomial.  Every coefficient is an integer, so the division by j is
    exact, also on the packed values: the products run packed in w
    (variable k), at a slot width from the same recursion on the
    coefficient norms.  Variables are S_0..S_(k-1), w and q, those of
    `flag_residue_multiplicative`; exponents may be negative.
    """
    nv = k + 2
    A = [[{} for _ in range(terms)] for _ in range(N + 1)]
    for m in range(1, N + 1):
        pm = [(0, (0,) * nv, 2 * k)]
        for y, e in ys:
            for sign in (m, -m):
                mono = tuple(x * sign for x in y)
                if k:
                    a, mono = mono[0], (0,) + mono[1:]
                    # c = e binom(a, t): binom(a, t + 1) = binom(a, t) (a - t) / (t + 1)
                    c = e
                    for t in range(terms):
                        pm.append((t, mono, c))
                        c = c * (a - t) // (t + 1)
                else:
                    pm.append((0, mono, e))
        for i in range(m, N + 1, m):
            for t, mono, c in pm:
                d = A[i][t]
                d[mono] = d.get(mono, 0) - i // m * c
    A = [[MultiPoly(nv, {mono: c for mono, c in d.items() if c}) for d in Ai] for Ai in A]
    norms = [[sum(map(abs, p.terms.values())) for p in Ai] for Ai in A]
    g, bound = [[1] + [0] * (terms - 1)], 1
    for j in range(1, N + 1):
        h = [sum(norms[i][s] * g[j - i][t - s] for i in range(1, j + 1) for s in range(t + 1))
             for t in range(terms)]
        bound = max(bound, *h)
        g.append([-(-x // j) for x in h])
    kr = Kronecker(nv, k, bound, [p for Ai in A for p in Ai])
    A = [[kr.pack(p) for p in Ai] for Ai in A]
    G = [[kr.one()] + [{}] * (terms - 1)]
    for j in range(1, N + 1):
        acc = [{} for _ in range(terms)]
        for i in range(1, j + 1):
            for s, x in enumerate(A[i]):
                if x:
                    for t, y in enumerate(G[j - i][:terms - s]):
                        if y:
                            kr.mul_into(acc[s + t], x, y)
        G.append([{key: (low, v // j) for key, (low, v) in c.items()} for c in acc])
    out = [{} for _ in range(terms)]
    for j, Gj in enumerate(G):
        for t, c in enumerate(Gj):
            for key, x in kr.unpack(c).terms.items():
                out[t][key[:-1] + (j,)] = x
    return [MultiPoly(nv, d) for d in out]


def flag_residue_multiplicative(local_factors, flag: Flag, integrand: FactorizedIntegrand):
    """Iterated multiplicative residue along one flag.

    Residues in the flag coordinates are taken at X_j = 1 via S_j =
    X_j^(1/(2D)), D the integrand's `denom_scale`; the measure dX_j / X_j
    is 2D dS_j / S_j, and the leftover transcendental constants cancel
    exactly by the factor-count balance (asserted at build).  With
    Y^(1/2) = m1/m2 for coprime monomials m1, m2 in S_0..S_(k-1), w, each
    factor's sine image Y^(1/2) - Y^(-1/2) is the binomial m1^2 - m2^2 over
    m1 m2.  Every m1 m2 and each step's 1/S_j make one monomial, merged as
    its numerator and denominator parts, and (2D)^k is applied once.
    Both kinds take the sine factors and poles; the theta kind's q-series
    numerator enters the first step as its Taylor series (`_theta_numerator`).
    Returns a RatFunc in w (sine) or a QSeries with RatFunc coefficients (theta).
    """
    k = integrand.rank
    D = integrand.denom_scale
    if D is None:
        raise ValueError("integrand.denom_scale is unset: set it to the "
                         "denominator_scale of the flags' localizations")
    assert sum(lf.exponent for lf in local_factors) == 0, \
        "sine factor count must balance the prefactor copies"
    if _screened_zero(local_factors, k):
        return zero_value(integrand)
    theta = integrand.kind == "theta"
    nv = k + 1 + theta
    scale = (2 * D) ** k, 1
    factors: dict = {}
    monomial = [-1] * k + [0] * (nv - k)
    ys = []
    # the rank-many prefactor copies 1 / sine(y^d)^k as one more factor
    for lf in [*local_factors, LocalFactor(const=integrand.degree, lin=(0,) * k, den=1,
                                           exponent=-k)]:
        if not lf.const and not any(lf.lin):
            if lf.exponent > 0:
                return zero_value(integrand)
            raise ZeroDivisionError("integrand denominator factor is identically zero")
        half = _half_exponents(lf, D) + [0] * theta
        binomial = MultiPoly(nv, {tuple(2 * max(x, 0) for x in half): 1,
                                  tuple(2 * max(-x, 0) for x in half): -1})
        scale = _merge_factor(factors, binomial, lf.exponent, scale)
        monomial = [m - lf.exponent * abs(x) for m, x in zip(monomial, half)]
        ys.append(([2 * x for x in half], lf.exponent))
    scale = _merge_factor(factors, MultiPoly.monomial(nv, [max(x, 0) for x in monomial]), 1,
                          scale)
    scale = _merge_factor(factors, MultiPoly.monomial(nv, [max(-x, 0) for x in monomial]), -1,
                          scale)
    term = _Term(coeff=Fraction(*scale), hot=MultiPoly.const(nv, 1), factors=factors)
    taylor = None
    if theta:
        if k:
            def taylor(n):
                return _theta_numerator(ys, k, integrand.q_order, n)
        else:
            [term.hot] = _theta_numerator(ys, 0, integrand.q_order, 1)
    for i in range(k):
        term = _residue_step(term, i, k, taylor if i == 0 else None)
        if term is None:
            return zero_value(integrand)
    term.coeff *= flag.lattice_factor
    return _assemble_multiplicative(term, integrand, k, k + 1 if theta else None)


def zero_value(integrand: FactorizedIntegrand):
    if integrand.kind == "additive":
        return Fraction(0)
    if integrand.kind == "sine":
        return RatFunc.const(0)
    return QSeries.const(integrand.q_order, 0)


def _assemble_multiplicative(term: _Term, integrand: FactorizedIntegrand, widx, qv):
    """The finished term as a series in q to order N (order 0, no q, for sine).

    Only the hot numerator carries q.  Each of its q^t coefficients, times
    the numerator factors, is one polynomial over the product of the
    denominator factors, and becomes one RatFunc in w, reduced once.
    """
    order = integrand.q_order if qv is not None else 0

    def in_w(poly):
        return RatFunc([(k[widx], c) for k, c in poly.terms.items()])

    hot = term.hot.shift_coefficients(qv, 0, order + 1, 0) if qv is not None else [term.hot]
    numerators = [([poly], e, False) for poly, e in term.factors.values() if e > 0]
    series = _expand(hot, numerators, order, widx) if numerators else hot
    den = prod([in_w(poly) ** -e for poly, e in term.factors.values() if e < 0],
               start=RatFunc.const(1))
    coeffs = [in_w(c) * term.coeff / den for c in series]
    return coeffs[0] if qv is None else QSeries(order, coeffs)


# ---------------------------------------------------------------------------
# JK residue: sum over proper stable flags


def denominator_scale(localizations) -> int:
    """Least common denominator D of every constant and covector entry of the
    `localize` results in `localizations`: the lcm of their `den`s."""
    return lcm(*(lf.den for local_factors in localizations for lf in local_factors))


def flag_residue(local_factors, flag, integrand):
    if integrand.kind == "additive":
        return flag_residue_additive(local_factors, flag, integrand)
    return flag_residue_multiplicative(local_factors, flag, integrand)


def jk_residue(integrand: FactorizedIntegrand, local_flags):
    """Jeffrey-Kirwan residue at one point: the sum of flag residues over
    `local_flags`, one (flag, `localize` result) pair for each proper
    stable flag of its active weights (`arrangement.enumerate_flags`); an
    empty list contributes zero.  The multiplicative kinds use
    `integrand.denom_scale` as D.
    """
    total = zero_value(integrand)
    for flag, local_factors in local_flags:
        total = total + flag_residue(local_factors, flag, integrand)
    return total
