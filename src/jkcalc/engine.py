"""Flag residues and Jeffrey-Kirwan residues of factorized integrands.

Three integrand kinds share one iterated-residue core:

  additive -- rational factors (c + l.z), evaluated over Q; computes DT.
  sine     -- each factor becomes the Laurent binomial Y^(1/2) - Y^(-1/2)
              with Y = y^c * prod X_j^(l_j), written with integer exponents in
              w = y^(1/(2D)) and S_j = X_j^(1/(2D)): for the half-exponent
              row h of Y^(1/2), the binomial P_h = S^(2 max(h, 0)) -
              S^(2 max(-h, 0)) over the monomial S^|h|; computes chi_y.
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
"hot" numerator times a dictionary of factored powers of integer rows, so no
denominator is ever expanded and no gcd is needed along the way.  A row
keeps its shape through every step, and every kind stores it constant-last:
the additive kind's affine row (*l, c), residues at z_i = 0, and the
multiplicative kinds' half-exponent row h = (*lin, const[, q]), residues at
S_i = 1.  One step takes both (`_step`): at step i a row with row[i] = 0 is
carried as it is, a row whose only nonzero entry left is row[i] is a simple
zero, and any other row is a unit U = u + w, w = O(v) an integer series in
the step variable v.  Only these units differ by kind, each read off its
row (`_affine_unit`, `_binomial_unit`).  One power rule reads U^e off the
binomial theorem (`_row_series`): a step of target T carries u^(e-T)
factored, numerators too, and multiplies only
V = sum_(n <= T) binom(e, n) w^n u^(T-n); a power 0 < e < T, whose carried
u would be a denominator that is not a pole, is multiplied in full.  At
target 0 every unit is carried whole and nothing is multiplied.

Every factor's S^|h| and every step's measure dX_j / X_j = 2D dS_j / S_j
make one Laurent monomial, the first hot numerator, times (2D)^k, and the
other constants cancel exactly against the 2i / pi*hbar bookkeeping,
enforced by a counting assertion on the factor list.  The two
multiplicative kinds share the rows, poles, targets and carried
denominators, all free of q; the theta kind's G, started from that
monomial, enters the first step as its Taylor series at S_0 = 1.  The rows
left after the last step are w^(2c) - 1, and each q^t coefficient of the
finished value (sine is order 0) is reduced once, as one rational function
of w.

Before any of this, `_pole_bounds` decides a flag whose residue vanishes
by its degrees alone, for all three kinds: by the total degree of the
factors that vanish at the point (the degree screen), then by a walk of the
residue steps on their l patterns, which bounds each step's pole order P_j
from above.  Otherwise it returns the bounds, and the additive kind caps
its products by them (`_capped`): step j reads no z_j-degree >= P_j, and
every additive product has non-negative exponents, so from step i on each
packed product drops the groups of z_j-degree >= P_j for some j > i.  The
multiplicative kinds take no caps: their hot numerator is a Laurent
polynomial in S_j, not a polynomial in v = S_j - 1.

Every series product runs in Kronecker form (`kronecker.Kronecker`): the
coefficients are grouped by every exponent but one packed variable, w for
the multiplicative kinds (the residue steps and G) and the last flag
coordinate for the additive kind, and each group becomes one integer.
`_row_series` and `_theta_numerator` pack their inputs once, multiply them
packed and unpack only their result.  The slot width is one sign bit above
a bound on the L1 norm of each unpacked coefficient: both run the same
products and recurrences on the coefficient norms, a unit's u having the
norm sum |coefficient|, and no coefficient of a product exceeds the product
of the norms, so the balanced digits read back are the exact coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from math import gcd, lcm, prod
from operator import add, lt, mul

from . import linalg
from .arrangement import Flag
from .kronecker import Kronecker
from .polyarith import MultiPoly, QSeries, RatFunc, binom

KINDS = ("additive", "sine", "theta")

ORIGIN_ROOT_NUM = "root-num"
ORIGIN_ROOT_DEN = "root-den"
ORIGIN_WEIGHT_NUM = "weight-num"
ORIGIN_WEIGHT_DEN = "weight-den"


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


@dataclass
class _Term:
    coeff: Fraction
    hot: MultiPoly
    factors: dict   # row: exponent; an affine row (*l, c) or a half-exponent row h


def _add_scaled(kr: Kronecker, acc: dict, x: int, packed: dict) -> dict:
    """acc + x * packed: a scaled copy of `packed` while acc is empty, else
    one product by the packed constant x."""
    if not acc:
        return {key: (low, x * v) for key, (low, v) in packed.items()}
    return kr.mul_into(acc, {key: (0, x) for key in kr.one()}, packed)


def _capped(packed: dict, caps) -> dict:
    """`packed` without the groups whose other exponents reach their caps:
    the monomials of z_j-degree >= caps[j] for some j, which no later
    residue step reads (`_pole_bounds`).  No caps keep every group."""
    if not caps:
        return packed
    return {key: x for key, x in packed.items() if all(map(lt, key[0], caps))}


def _row_series(hot, units, target, pv, caps=()) -> MultiPoly:
    """Coefficient target in v of hot * prod V over the (u, w, e, m) units of
    a residue step, with hot a list of integer polynomials, packed in
    variable pv, less the monomials that reach `caps` (`_capped`).  The
    caps are the additive kind's, whose factors have non-negative exponents,
    so a product of capped factors, capped, has the coefficients of the full
    product on what it keeps.

    A unit is U = u + w, with u free of v and w = sum w_t v^t (t >= 1) an
    integer series given as {t: w_t}; u is an integer or a list of
    (exponents, coefficient) terms.  By the binomial theorem the step carries
    u^(e-m) and multiplies V_t = sum_(n <= min(t, m)) binom(e, n) [w^n]_t
    u^(m-n), with m = e > 0 (the full power) or m = target, w^n being O(v^n).
    Each unit packs u once and raises it by products.  An integer V_t (u an
    integer, or only n = m reaching v^t) scales the running product instead
    of multiplying it, first within each coefficient.  The units are
    multiplied first and hot last, for coefficient target only.  The slot
    width bounds the product of the coefficient norms, |u| = sum |u's
    coefficients| (module docstring), and the stride is taken over hot and
    every unit's terms."""
    tables, norms = [], [1] + [0] * target
    for u, w, e, m in units:
        # table[t]: the (n, binom(e, n) [w^n]_t) pairs that make V_t, and
        # f[t] the bound on the norm of V_t
        table = [[] for _ in range(target + 1)]
        f = [0] * (target + 1)
        size = abs(u) if isinstance(u, int) else sum(abs(x) for _, x in u)
        power = {0: 1}
        for n in range(m + 1):
            b, unit_norm = binom(e, n), size ** (m - n)
            for t, x in power.items():
                table[t].append((n, b * x))
                f[t] += abs(b * x) * unit_norm
            if n < m:
                nxt: dict = {}
                for t, x in power.items():
                    for s, y in w.items():
                        if t + s <= target:
                            nxt[t + s] = nxt.get(t + s, 0) + x * y
                power = nxt
        norms = [sum(map(mul, norms, f[t::-1])) for t in range(target + 1)]
        tables.append(table)
    bound = sum(sum(map(abs, p.terms.values())) * norms[target - j] for j, p in enumerate(hot))
    kr = Kronecker(hot[0].nvars, pv, bound, [p.terms.items() for p in hot] +
                   [u for u, _, _, _ in units if not isinstance(u, int)])
    out = None
    for (u, _, _, m), table in zip(units, tables):
        # V as its integer and its packed coefficients, (t, V_t) pairs
        if isinstance(u, int):
            ints, packs = [(t, sum(x * u ** (m - n) for n, x in pairs))
                           for t, pairs in enumerate(table) if pairs], []
        else:
            pows = [kr.one(), _capped(kr.pack_terms(u), caps)]
            for _ in range(m - 1):
                pows.append(_capped(kr.mul_into({}, pows[-1], pows[1]), caps))
            ints, packs = [], []
            for t, pairs in enumerate(table):
                if len(pairs) == 1 and pairs[0][0] == m:
                    ints.append((t, pairs[0][1]))
                elif pairs:
                    acc: dict = {}
                    for n, x in pairs:
                        acc = _add_scaled(kr, acc, x, pows[m - n])
                    packs.append((t, acc))
        if out is None:
            out = [{}] * (target + 1)
            for t, x in packs:
                out[t] = x
            for t, x in ints:
                out[t] = {key: (0, x) for key in kr.one()}
            continue
        new = []
        for n in range(target + 1):
            acc = {}
            for t, x in ints:
                if t <= n and out[n - t]:
                    acc = _add_scaled(kr, acc, x, out[n - t])
            for t, x in packs:
                if t <= n and out[n - t]:
                    kr.mul_into(acc, x, out[n - t])
            new.append(_capped(acc, caps))
        out = new
    acc = {}
    for j, p in enumerate(hot):
        if p and out[target - j]:
            kr.mul_into(acc, kr.pack(p), out[target - j])
    return kr.unpack(_capped(acc, caps))


def _pole_bounds(local_factors, rank: int):
    """None when the flag's residue is zero by its degrees alone, else upper
    bounds P_0, ..., P_(rank-1) on the pole orders of its residue steps.

    The factors with c = 0 are the only ones that vanish at the point, each
    l times a unit, l linear in z, for its sine and theta images at S = 1
    too; every other factor is a unit.  So every term of the integrand has
    total degree >= d, the sum of their exponents, and the residue, which
    reads total degree -rank, is zero when d > -rank (the degree screen;
    1 / (z_0 ... z_(rank-1)) has d = -rank and residue 1).

    Then the walk follows those factors through the residue steps by their
    tails l_i, l_(i+1), ... at step i, taking the hot numerator's valuation
    as 0.  Such a factor has valuation 1 at step i exactly when l_i != 0 and
    every later l_j is 0, else 0; P_i is minus the sum of the exponents of
    the valuation-1 factors, and the residue is zero once P_i <= 0.  By the
    residue steps' power rule, factors with l_i = 0 are carried unchanged,
    those of valuation 1 become constants (dropped), and the others as u_0
    with l_i set to 0 and exponent e - (P_i - 1), a numerator only while
    that is > 0: the coefficient of z_i^j in (a z_i + L)^e is a multiple of
    L^(e-j), and likewise for the sine and theta images at S_i = 1.  Every
    exponent stays at or below the true one, whatever the hot numerator's
    valuations, so P_j bounds step j's pole order, and step j reads no
    z_j-degree >= P_j.  The first identically zero factor decides the flag:
    as a numerator it makes the residue zero, as a denominator it raises
    ZeroDivisionError.
    """
    live = []
    for lf in local_factors:
        if lf.const == 0:
            if not any(lf.lin):
                if lf.exponent > 0:
                    return None
                raise ZeroDivisionError("integrand denominator factor is identically zero")
            live.append((lf.lin, lf.exponent))
    if sum(e for _, e in live) > -rank:
        return None
    bounds = []
    for i in range(rank):
        bound = -sum(e for tail, e in live if tail[0] and not any(tail[1:]))
        if bound <= 0:
            return None
        bounds.append(bound)
        carried = []
        for tail, e in live:
            if not tail[0]:
                carried.append((tail[1:], e))
            elif any(tail[1:]) and (e < 0 or e - bound + 1 > 0):
                carried.append((tail[1:], e - bound + 1))
        live = carried
    return bounds


def _fold(rows: dict, carried, exp: int, scale) -> tuple[int, int]:
    """Fold (g R)^exp into `rows`, for `carried` = (R, g) with R a canonical
    row (`_affine`, `_binomial`), or None when the factor is the integer g;
    returns `scale`, an integer (numerator, denominator) pair, times g^exp."""
    R, g = carried
    if R is not None and exp:
        e = rows.get(R, 0) + exp
        if e:
            rows[R] = e
        else:
            del rows[R]
    num, den = scale
    return (num * g ** exp, den) if exp >= 0 else (num, den * g ** -exp)


def _step(term: _Term, i: int, pv: int, unit, coeffs, caps=(), zero_units=True) -> _Term | None:
    """One residue in v at 0, v = z_i for the additive kind and S_i - 1 for
    the multiplicative ones, variable pv packed in the series products;
    term.factors maps rows, 0 before entry i, to exponents, and None means
    zero residue.  `unit(row, i, target)` returns a row's (u, w, (R, g), a)
    (`_affine_unit`, `_binomial_unit`), and `coeffs(n)` the hot numerator's
    first n coefficients in v.  The new hot numerator keeps only what is
    below `caps` (`_row_series`).

    A row with row[i] = 0 is carried untouched; one whose only nonzero entry
    left is row[i] is a simple zero v U, and any other row a unit U = u + w.
    With B = -sum e over the simple zeros, the residue is the coefficient of
    degree target = B - 1 - hv of the hot numerator, of valuation hv, times
    prod U^e.  By the binomial theorem (`_row_series`) U^e carries
    (g R)^(e-m), g R = u, and multiplies the rest up to v^target, for m = e
    when 0 < e < target (a carried u would be a denominator that is not a
    pole), else m = target, and m = 0 when w = 0; the simple zeros' units
    come first, unless `zero_units` is false: the additive kind's simple
    zero is v itself, of unit 1, so it is neither read nor folded.  A^m
    shifts the result, A = S^a the monomial of a binomial unit.  At target
    0 every unit is carried whole and nothing is multiplied.
    """
    scale = (1, 1)
    carry: dict = {}
    zeros, active = [], []
    for row, e in term.factors.items():
        if not row[i]:
            carry[row] = e
        else:
            (active if any(row[i + 1:]) else zeros).append((row, e))
    bound = -sum(e for _, e in zeros)
    if bound <= 0:
        return None
    hot = coeffs(bound)
    hv = next((j for j, c in enumerate(hot) if c), None)
    if hv is None:
        return None
    target = bound - 1 - hv
    units = []
    shift = [0] * term.hot.nvars
    for row, e in (zeros if zero_units else []) + active:
        u, w, carried, a = unit(row, i, target)
        m = (e if 0 < e < target else target) if w else 0
        scale = _fold(carry, carried, e - m, scale)
        if m:
            units.append((u, w, e, m))
            if a:
                shift = [s + m * x for s, x in zip(shift, a)]
    s = _row_series(hot[hv:], units, target, pv, caps) if units else hot[hv + target]
    if s.is_zero():
        return None
    if any(shift):
        s = MultiPoly(s.nvars, {tuple(map(add, key, shift)): c for key, c in s.terms.items()})
    cont, s = s.content_normalize()
    coeff = Fraction(term.coeff.numerator * scale[0] * cont, term.coeff.denominator * scale[1])
    return _Term(coeff=coeff, hot=s, factors=carry)


# ---------------------------------------------------------------------------
# additive kind


def _affine(row: tuple) -> tuple:
    """(R, g) with row = g R, for a nonzero affine row (*l, c): R primitive
    with its first nonzero entry positive (`linalg.line`), or None when
    l = 0 and g = c."""
    return linalg.line(row) if any(row[:-1]) else (None, row[-1])


@cache
def _keys(k: int) -> list[tuple[int, ...]]:
    """The exponents of z_0, ..., z_(k-1) and 1: the terms of an affine row."""
    return [tuple(int(j == n) for j in range(k)) for n in range(k + 1)]


def _affine_unit(row: tuple, i: int, target: int):
    """The (u, w, (R, g), a) of an affine row (*l, c) at z_i = 0 that is not
    a simple zero (`_step`): U = u + l_i z_i, u the row with l_i zeroed as
    its terms; no monomial A."""
    u = row[:i] + (0,) + row[i + 1:]
    return [(key, x) for key, x in zip(_keys(len(u) - 1), u) if x], {1: row[i]}, _affine(u), None


def flag_residue_additive(local_factors, flag: Flag, integrand: FactorizedIntegrand) -> Fraction:
    """Iterated residue of the rational integrand along one flag, times the
    lattice normalization |d(mu) / (kappa_1 ^ ... ^ kappa_k)|.

    The equivariant parameter s enters here only.  The rational integrand at
    s has every constant scaled by s, and its pole matching P sits at s P,
    where each factor c + l.z of `local_factors` (taken at P) reads s c + l.z;
    the prefactor is (1/(d s))^k.  With s = a/b and the factor (c' + l'.z)/m
    (`LocalFactor`), s c + l.z is the integer row (b l', a c') over m b, and
    the steps run on the rows (`_step`, `_affine_unit`), capped by the pole
    bounds of `_pole_bounds` in every z_j but the packed last one.
    """
    k = integrand.rank
    bounds = _pole_bounds(local_factors, k)
    if bounds is None:
        return Fraction(0)
    s = integrand.s
    a, b = s.numerator, s.denominator
    num, den = b ** k, (integrand.degree * a) ** k
    rows: dict = {}
    for lf in local_factors:
        power = (lf.den * b) ** abs(lf.exponent)
        num, den = (num, den * power) if lf.exponent > 0 else (num * power, den)
        num, den = _fold(rows, _affine((*(b * x for x in lf.lin), a * lf.const)), lf.exponent,
                         (num, den))
    term = _Term(coeff=Fraction(num, den), hot=MultiPoly.const(k, 1), factors=rows)
    for i in range(k):
        # caps on z_(i+1), ..., z_(k-2), none when that range is empty
        term = _step(term, i, k - 1, _affine_unit, partial(term.hot.shift_coefficients, i, a=0),
                     bounds[:-1] if i < k - 2 else (), zero_units=False)
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


def _binomial(h: tuple) -> tuple:
    """(R, g) with P_h = g P_R, for P_h = S^(2 max(h, 0)) - S^(2 max(-h, 0))
    and a nonzero half-exponent row h: R is h or -h, whichever has its first
    nonzero entry positive, as P_(-h) = -P_h."""
    return (h, 1) if next(filter(None, h)) > 0 else (tuple(-x for x in h), -1)


def _binomial_unit(h: tuple, i: int, target: int):
    """The (u, w, (R, g), a) of the binomial P_h at S_i = 1 + v (`_step`),
    h_i > 0 as its first nonzero entry.  The simple zero is P_h = v U, with
    U = ((1+v)^(2 h_i) - 1)/v an integer series, u = U_0 = 2 h_i.  Any other
    row is P_h = A (u' + w), for u the row with h_i zeroed, A = S^(2 max(u,
    0)), u' = 1 - S^(-2u) and w = (1+v)^(2 h_i) - 1, and A u' = P_u is the
    carried factor."""
    a = 2 * h[i]
    if not any(h[i + 1:]):
        return a, {t: binom(a, t + 1) for t in range(1, min(a, target + 1))}, (None, a), None
    u = h[:i] + (0,) + h[i + 1:]
    return ([((0,) * len(h), 1), (tuple(-2 * x for x in u), -1)],
            {t: binom(a, t) for t in range(1, min(a, target) + 1)},
            _binomial(u), [2 * max(x, 0) for x in u])


def _theta_numerator(ys, k: int, N: int, start: list[MultiPoly]) -> list[MultiPoly]:
    """The theta kind's q-series numerator

        G = G_0 (q;q)^(2k) prod_f Phi(Y_f)^(e_f) mod q^(N+1),
        Phi(Y) = prod_(n>=1) (1 - q^n Y)(1 - q^n / Y),

    over the (exponents of Y_f, e_f) pairs `ys` of the flag's factors and the
    prefactor copies, G_0 free of q: its Taylor coefficients
    0..len(start)-1 in v = S_0 - 1, `start` being those of G_0, or G itself
    (start = [G_0]) at rank k = 0.  By Jacobi's triple product
    theta(Y) = (Y^(1/2) - Y^(-1/2)) (q;q) Phi(Y), and the exponents e_f sum
    to -k, so the theta integrand is the sine integrand times G / G_0, a
    q-unit with no pole at S = 1.

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
    nv, terms = k + 2, len(start)
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
    g = [[sum(map(abs, p.terms.values())) for p in start]]
    bound = max(g[0])
    for j in range(1, N + 1):
        h = [sum(norms[i][s] * g[j - i][t - s] for i in range(1, j + 1) for s in range(t + 1))
             for t in range(terms)]
        bound = max(bound, *h)
        g.append([-(-x // j) for x in h])
    kr = Kronecker(nv, k, bound, [p.terms.items() for Ai in (start, *A) for p in Ai])
    A = [[kr.pack(p) for p in Ai] for Ai in A]
    G = [[kr.pack(p) for p in start]]
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
    exactly by the factor-count balance (asserted at build).  For the
    half-exponent row h of a factor's Y^(1/2) in S_0..S_(k-1), w, its sine
    image Y^(1/2) - Y^(-1/2) is the binomial P_h over the monomial S^|h|
    (`_binomial`).  Every S^|h| and each step's 1/S_j make one Laurent
    monomial, the hot numerator, and (2D)^k is applied once.  Both kinds
    take the sine factors and poles; the theta kind's q-series numerator
    enters the first step as its Taylor series, started from the monomial
    (`_theta_numerator`), with its Y's read off the merged rows, as
    Phi(Y) = Phi(1/Y).  Returns a RatFunc in w (sine) or a QSeries with
    RatFunc coefficients (theta).
    """
    k = integrand.rank
    D = integrand.denom_scale
    if D is None:
        raise ValueError("integrand.denom_scale is unset: set it to the "
                         "denominator_scale of the flags' localizations")
    assert sum(lf.exponent for lf in local_factors) == 0, \
        "sine factor count must balance the prefactor copies"
    # the rank-many prefactor copies 1 / sine(y^d)^k as one more factor
    factors = [*local_factors, LocalFactor(const=integrand.degree, lin=(0,) * k, den=1,
                                           exponent=-k)]
    if _pole_bounds(factors, k) is None:
        return zero_value(integrand)
    theta = integrand.kind == "theta"
    nv = k + 1 + theta
    scale = (2 * D) ** k, 1
    rows: dict = {}
    monomial = [-1] * k + [0] * (nv - k)
    for lf in factors:
        h = (*_half_exponents(lf, D), *(0,) * theta)
        scale = _fold(rows, _binomial(h), lf.exponent, scale)
        monomial = [m - lf.exponent * abs(x) for m, x in zip(monomial, h)]
    hot = MultiPoly.monomial(nv, monomial)
    term = _Term(coeff=Fraction(*scale), hot=hot, factors=rows)
    if theta:
        ys = [([2 * x for x in h], e) for h, e in rows.items()]
        if k:
            def taylor(n):
                return _theta_numerator(ys, k, integrand.q_order, hot.shift_coefficients(0, n))
        else:
            [term.hot] = _theta_numerator(ys, 0, integrand.q_order, [hot])
    for i in range(k):
        coeffs = taylor if theta and not i else partial(term.hot.shift_coefficients, i)
        term = _step(term, i, k, _binomial_unit, coeffs)
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

    Only the hot numerator carries q, and every row left is (0, ..., 0, c),
    the binomial w^(2c) - 1.  Each q^t coefficient of the hot numerator,
    times the numerator rows, over the product of the denominator rows,
    becomes one RatFunc in w, reduced once.
    """
    order = integrand.q_order if qv is not None else 0

    def in_w(poly):
        return RatFunc([(k[widx], c) for k, c in poly.terms.items()])

    hot = term.hot.shift_coefficients(qv, order + 1, 0) if qv is not None else [term.hot]
    rows = [(RatFunc([(2 * h[widx], 1), (0, -1)]), e) for h, e in term.factors.items()]
    num = prod([p ** e for p, e in rows if e > 0], start=RatFunc.const(term.coeff))
    den = prod([p ** -e for p, e in rows if e < 0], start=RatFunc.const(1))
    coeffs = [in_w(c) * num / den for c in hot]
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
