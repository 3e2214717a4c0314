"""Reference series arithmetic of the residue core: one dict update per term
product, with no packing.  Series are lists of `MultiPoly` coefficients.
Tests compare `engine._row_series` with products of these, and with
`unit_power`, the binomial sum of a power whose u^(e-target) is carried.

`subst_shift` is the full shift x_var -> x_var + a that the residue steps
applied to every polynomial before they computed only the Taylor
coefficients they read (`MultiPoly.shift_coefficients`); `laurent_shift`
extends it to negative exponents.  `theta_numerator` is the theta kind's
q-series numerator in product form, against Newton's identity in
`engine._theta_numerator`."""

from fractions import Fraction
from math import comb, factorial, prod

from jkcalc.polyarith import MultiPoly


def series_mul(a, b, target, nv):
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


def series_pow(a, n, target, nv):
    out = [MultiPoly.const(nv, 1)] + [MultiPoly.zero(nv) for _ in range(target)]
    base = a
    while n:
        if n & 1:
            out = series_mul(out, base, target, nv)
        n >>= 1
        if n:
            base = series_mul(base, base, target, nv)
    return out


def unit_power(unit, e, target, nv):
    """V with U^e = u_0^(e-target) V mod v^(target+1), U = sum unit_t v^t,
    for any integer e: with R = U - u_0, whose powers R^k, k > target,
    vanish mod v^(target+1), the binomial sum over k <= target of
    binom(e, k) u_0^(target-k) R^k."""
    zero = MultiPoly.zero(nv)
    unit = unit[:target + 1] + [zero] * (target + 1 - len(unit))
    rest = [zero] + unit[1:]
    u0_pows = [MultiPoly.const(nv, 1)]
    for _ in range(target):
        u0_pows.append(u0_pows[-1].mul(unit[0]))
    out = [zero] * (target + 1)
    rest_pow = [MultiPoly.const(nv, 1)] + [zero] * target
    for k in range(target + 1):
        binom = prod(range(e - k + 1, e + 1)) // factorial(k)
        out = [x + y.mul(u0_pows[target - k]) * binom for x, y in zip(out, rest_pow)]
        rest_pow = series_mul(rest_pow, rest, target, nv)
    return out


def subst_shift(poly, var, a):
    """poly with x_var -> x_var + a substituted, every term in full."""
    a = Fraction(a)
    out = {}
    for k, c in poly.terms.items():
        e = k[var]
        for j in range(e + 1):
            kk = k[:var] + (j,) + k[var + 1:]
            s = out.get(kk, 0) + c * comb(e, j) * a ** (e - j)
            if s:
                out[kk] = s if s.denominator != 1 else s.numerator
            else:
                out.pop(kk, None)
    return MultiPoly(poly.nvars, out)


def coefficients_in(poly, var, n):
    """The first n coefficient polynomials of poly in x_var, var slot zeroed."""
    out = [{} for _ in range(n)]
    for k, c in poly.terms.items():
        if k[var] < n:
            out[k[var]][k[:var] + (0,) + k[var + 1:]] = c
    return [MultiPoly(poly.nvars, t) for t in out]


def laurent_shift(poly, var, n):
    """The first n Taylor coefficients at x_var = 1 of a Laurent polynomial
    in x_var, var slot zeroed: poly x_var^M, with no negative exponent left,
    shifted in full, times (1 + x_var)^(-M) as the M-th power of the
    geometric series sum (-x_var)^j truncated at degree n."""
    nv = poly.nvars
    M = max([0] + [-k[var] for k in poly.terms])
    x_M = MultiPoly.monomial(nv, [M if i == var else 0 for i in range(nv)])
    shifted = subst_shift(poly.mul(x_M), var, 1)
    geometric = MultiPoly(nv, {tuple(j if i == var else 0 for i in range(nv)): (-1) ** j
                               for j in range(n)})
    for _ in range(M):
        shifted = MultiPoly(nv, {k: c for k, c in shifted.mul(geometric).terms.items()
                                 if k[var] < n})
    return coefficients_in(shifted, var, n)


def theta_numerator(ys, k, N, terms, mono):
    """G_0 (q;q)^(2k) prod_f Phi(Y_f)^(e_f) mod q^(N+1), Phi(Y) = prod_(n>=1)
    (1 - q^n Y)(1 - q^n / Y), over the (exponents of Y_f, e_f) pairs in
    variables (S_0, ..., S_(k-1), w, q), G_0 the monomial of exponents
    `mono`, multiplied out factor by factor, with (1 - x)^(-1) as the
    geometric series; its first `terms` Taylor coefficients at S_0 = 1
    (`laurent_shift`), or [G] at k = 0."""
    nv = k + 2
    pieces = [((0,) * nv, 2 * k)]
    pieces += [(tuple(s * x for x in y), e) for y, e in ys for s in (1, -1)]
    out = MultiPoly.monomial(nv, mono)
    for y, e in pieces:
        for n in range(1, N + 1):
            x = MultiPoly.monomial(nv, y[:-1] + (n,))
            base = 1 - x if e > 0 else \
                MultiPoly(nv, {tuple(j * a for a in y[:-1]) + (j * n,): 1
                               for j in range(N // n + 1)})
            for _ in range(abs(e)):
                out = MultiPoly(nv, {key: c for key, c in out.mul(base).terms.items()
                                     if key[-1] <= N})
    return laurent_shift(out, 0, terms) if k else [out]
