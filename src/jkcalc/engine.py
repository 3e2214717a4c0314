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
keeps its shape through every step: the additive kind's affine row (c, l),
residues at z_i = 0 (`_row_step`), and the multiplicative kinds' row h,
residues at S_i = 1 (`_residue_step`).  At step i a row with l_i = 0
(h_i = 0) is carried as it is, a row whose only nonzero entry left is l_i
(with c = 0) or h_i is a simple zero, and any other row is a unit U = u + w,
w = O(v) an integer series in the step variable v.  One power rule reads
U^e off the binomial theorem (`_row_series`): a step of target T carries
u^(e-T) factored, numerators too, and multiplies only
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
from functools import cached_property
from math import gcd, lcm, prod
from operator import add, mul

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
    factors: dict   # row: exponent; an affine row (c, *l) or a half-exponent row h


def _add_scaled(kr: Kronecker, acc: dict, x: int, packed: dict) -> dict:
    """acc + x * packed: a scaled copy of `packed` while acc is empty, else
    one product by the packed constant x."""
    if not acc:
        return {key: (low, x * v) for key, (low, v) in packed.items()}
    return kr.mul_into(acc, {key: (0, x) for key in kr.one()}, packed)


def _row_series(hot, units, target, pv) -> MultiPoly:
    """Coefficient target in v of hot * prod V over the (u, w, e, m) units of
    a residue step, with hot a list of integer polynomials, packed in
    variable pv.

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
            pows = [kr.one(), kr.pack_terms(u)]
            for _ in range(m - 1):
                pows.append(kr.mul_into({}, pows[-1], pows[1]))
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
            new.append(acc)
        out = new
    acc = {}
    for j, p in enumerate(hot):
        if p and out[target - j]:
            kr.mul_into(acc, kr.pack(p), out[target - j])
    return kr.unpack(acc)


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
    stays at or below the true one.  The first identically zero factor
    decides the flag: as a numerator it makes the residue zero, as a
    denominator it raises ZeroDivisionError.
    """
    live = []
    for lf in local_factors:
        if lf.const == 0:
            if not any(lf.lin):
                if lf.exponent > 0:
                    return True
                raise ZeroDivisionError("integrand denominator factor is identically zero")
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
    # the exponents of 1, z_0, ..., z_(k-1): the terms of a row
    k = term.hot.nvars
    keys = [tuple(int(j == n) for j in range(k)) for n in range(-1, k)]
    units = []
    for row, e in active:
        u = row[:i + 1] + (0,) + row[i + 2:]
        m = e if 0 < e < target else target
        scale = _merge_row(carry, u, e - m, scale)
        if m:
            units.append(([(key, x) for key, x in zip(keys, u) if x], {1: row[i + 1]}, e, m))
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


def _merge_binomial(rows: dict, h: tuple, exp: int, scale) -> tuple[int, int]:
    """Fold P_h^exp, P_h = S^(2 max(h, 0)) - S^(2 max(-h, 0)) for a nonzero
    half-exponent row h, into `rows` under h or -h, whichever has its first
    nonzero entry positive; P_(-h) = -P_h, so `scale`, an integer
    (numerator, denominator) pair, is returned times the sign."""
    if exp:
        if next(filter(None, h)) < 0:
            h, scale = tuple(-x for x in h), (-scale[0] if exp % 2 else scale[0], scale[1])
        rows[h] = rows.get(h, 0) + exp
        if not rows[h]:
            del rows[h]
    return scale


def _residue_step(term: _Term, i: int, pv: int, taylor=None) -> _Term | None:
    """One multiplicative residue in S_i at 1, v = S_i - 1, variable pv
    packed in the series products; term.factors maps half-exponent rows
    (`_merge_binomial`), with h_j = 0 for j < i, to exponents; None means
    zero residue.  `taylor(n)`, when given, returns the hot numerator's first
    n Taylor coefficients at 1 in place of term.hot's.

    A row with h_i = 0 is carried untouched.  A row whose only nonzero entry
    is h_i (> 0, as the first nonzero entry) is the simple zero P_h = v U,
    U = ((1+v)^(2 h_i) - 1)/v an integer series with U_0 = 2 h_i.  Any other
    row is P_h = A (u' + w), for u the row with h_i zeroed,
    A = S^(2 max(u, 0)), u' = 1 - S^(-2u) and w = (1+v)^(2 h_i) - 1.  With
    B = -sum e over the simple zeros, the residue is the coefficient of
    degree target = B - 1 - hv of the hot numerator, of valuation hv, times
    the units' powers, read off the binomial theorem as in `_row_step`: m = e
    when 0 < e < target, else m = target.  A simple zero carries U_0^(e-m) in
    the constant; any other row carries A^e u'^(e-m) = A^m P_u^(e-m), the row
    u with exponent e - m, and A^m shifts the step's result.  Only the hot
    numerator's Taylor coefficients that the step reads are computed.
    """
    scale = (1, 1)
    carry: dict = {}
    active = []
    zeros = []
    for h, e in term.factors.items():
        if not h[i]:
            carry[h] = e
        elif any(h[i + 1:]):
            active.append((h, e))
        else:
            zeros.append((2 * h[i], e))
    bound = -sum(e for _, e in zeros)
    if bound <= 0:
        return None
    hot = term.hot.shift_coefficients(i, 0, bound) if taylor is None else taylor(bound)
    hv = next((j for j, c in enumerate(hot) if c), None)
    if hv is None:
        return None
    target = bound - 1 - hv
    nv = term.hot.nvars
    units = []
    for a, e in zeros:
        m = e if 0 < e < target else target
        num, den = scale
        scale = (num * a ** (e - m), den) if e > m else (num, den * a ** (m - e))
        if m:
            units.append((a, {t: binom(a, t + 1) for t in range(1, min(a, target + 1))}, e, m))
    shift = [0] * nv
    for h, e in active:
        u = h[:i] + (0,) + h[i + 1:]
        m = e if 0 < e < target else target
        scale = _merge_binomial(carry, u, e - m, scale)
        if m:
            units.append(([((0,) * nv, 1), (tuple(-2 * x for x in u), -1)],
                          {t: binom(2 * h[i], t) for t in range(1, min(2 * h[i], target) + 1)},
                          e, m))
            shift = [s + 2 * m * max(x, 0) for s, x in zip(shift, u)]
    s = _row_series(hot[hv:], units, target, pv) if units else hot[hv + target]
    if s.is_zero():
        return None
    if any(shift):
        s = MultiPoly(nv, {tuple(map(add, key, shift)): c for key, c in s.terms.items()})
    cont, s = s.content_normalize()
    coeff = Fraction(term.coeff.numerator * scale[0] * cont, term.coeff.denominator * scale[1])
    return _Term(coeff=coeff, hot=s, factors=carry)


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
    (`_merge_binomial`).  Every S^|h| and each step's 1/S_j make one Laurent
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
    if _screened_zero(factors, k):
        return zero_value(integrand)
    theta = integrand.kind == "theta"
    nv = k + 1 + theta
    scale = (2 * D) ** k, 1
    rows: dict = {}
    monomial = [-1] * k + [0] * (nv - k)
    for lf in factors:
        h = (*_half_exponents(lf, D), *(0,) * theta)
        scale = _merge_binomial(rows, h, lf.exponent, scale)
        monomial = [m - lf.exponent * abs(x) for m, x in zip(monomial, h)]
    hot = MultiPoly.monomial(nv, monomial)
    term = _Term(coeff=Fraction(*scale), hot=hot, factors=rows)
    taylor = None
    if theta:
        ys = [([2 * x for x in h], e) for h, e in rows.items()]
        if k:
            def taylor(n):
                return _theta_numerator(ys, k, integrand.q_order, hot.shift_coefficients(0, 0, n))
        else:
            [term.hot] = _theta_numerator(ys, 0, integrand.q_order, [hot])
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

    Only the hot numerator carries q, and every row left is (0, ..., 0, c),
    the binomial w^(2c) - 1.  Each q^t coefficient of the hot numerator,
    times the numerator rows, over the product of the denominator rows,
    becomes one RatFunc in w, reduced once.
    """
    order = integrand.q_order if qv is not None else 0

    def in_w(poly):
        return RatFunc([(k[widx], c) for k, c in poly.terms.items()])

    hot = term.hot.shift_coefficients(qv, 0, order + 1, 0) if qv is not None else [term.hot]
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
