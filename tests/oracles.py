"""Independent brute-force oracles used to freeze expected values.

Everything here works by direct truncated series expansion with Fraction
arithmetic, never through the residue pipeline under test.
"""

from fractions import Fraction
from math import comb, factorial, prod


def series_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(order + 1 - i):
                if b[j]:
                    out[i + j] += x * b[j]
    return out


def series_inv(a, order):
    out = [Fraction(1) / a[0]]
    for t in range(1, order + 1):
        s = sum((a[j] * out[t - j] for j in range(1, t + 1)), Fraction(0))
        out.append(-s / a[0])
    return out


def series_pow(a, n, order):
    r = [Fraction(1)] + [Fraction(0)] * order
    if n < 0:
        a = series_inv(a, order)
        n = -n
    for _ in range(n):
        r = series_mul(r, a, order)
    return r


def chern_euler(n, degrees):
    """Euler number of a smooth complete intersection of the given degrees in
    projective n-space: chi = (prod d_i) [h^(n-m)] (1+h)^(n+1) / prod(1+d_i h)."""
    m = len(degrees)
    order = n - m
    num = [Fraction(comb(n + 1, i)) for i in range(order + 1)]
    s = num
    for d in degrees:
        den = [Fraction(1), Fraction(d)] + [Fraction(0)] * max(0, order - 1)
        s = series_mul(s, series_inv(den[: order + 1], order), order)
    chi = s[order]
    for d in degrees:
        chi *= d
    return chi


def macmahon(order):
    """MacMahon's plane-partition series prod_k (1-q^k)^(-k), truncated."""
    m = [Fraction(1)] + [Fraction(0)] * order
    for k in range(1, order + 1):
        base = [Fraction(1)] + [Fraction(0)] * order
        base[k] = Fraction(-1)
        m = series_mul(m, series_pow(base, -k, order), order)
    return m


def macmahon_power(r, exponent, order):
    """Coefficients of M((-1)^r q)^exponent."""
    m = macmahon(order)
    if r % 2 == 1:
        m = [c if i % 2 == 0 else -c for i, c in enumerate(m)]
    return series_pow(m, exponent, order)


def quiver_a3_exponent(r, charges):
    r1, r2, r3 = charges
    num = r * (r1 + r2) * (r1 + r3) * (r2 + r3)
    assert num % (r1 * r2 * r3) == 0
    return -num // (r1 * r2 * r3)


def chi_y_virtual_laurent(betti, dim, d):
    """Fixed-point oracle for the zero-potential case.

    For a proper space with Hodge numbers concentrated on the diagonal
    (Betti numbers betti[p] in degree 2p), the twisted genus is
    (-y^(d/2))^(-dim) * sum_p betti[p] y^(dp); returned as a map from
    rational y-exponents to integer coefficients.
    """
    sign = (-1) ** dim
    out = {}
    for p, b in enumerate(betti):
        if b:
            out[Fraction(d * p) - Fraction(d * dim, 2)] = sign * b
    return out


def chi_y_laurent_as_y_exponents(laurent, denom_scale):
    """Convert a w-exponent laurent dict (w = y^(1/(2D))) to y-exponent keys."""
    return {Fraction(e, 2 * denom_scale): c for e, c in laurent.items()}


def weighted_projective_chi_y(weights):
    """Naive (untwisted-sector) Hirzebruch-Riemann-Roch chi_y of the weighted
    projective stack P(a_0, ..., a_n), in the pipeline's normalisation.

    (-1)^n y^(-n/2) / (prod a_i) * [u^n] prod_i a_i u (1 - y e^(-a_i u)) /
    (1 - e^(-a_i u)), divided by (1 - y) for the trivial summand of the Euler
    sequence; returned as a map from rational y-exponents to coefficients.
    Kawasaki's orbifold Riemann-Roch would add the twisted sectors; this
    integral leaves them out.
    """
    n = len(weights) - 1
    terms = {(0, 0): Fraction(1)}   # (power of u, power of y) -> coefficient
    for a in weights:
        # a u / (1 - e^(-a u)), and the same times e^(-a u)
        todd = series_inv([Fraction((-a) ** m, factorial(m + 1)) for m in range(n + 1)], n)
        shifted = series_mul(todd, [Fraction((-a) ** m, factorial(m)) for m in range(n + 1)], n)
        factor = {(m, 0): todd[m] for m in range(n + 1)}
        factor.update({(m, 1): -shifted[m] for m in range(n + 1)})
        product = {}
        for (m1, p1), c1 in terms.items():
            for (m2, p2), c2 in factor.items():
                if m1 + m2 <= n:
                    key = (m1 + m2, p1 + p2)
                    product[key] = product.get(key, Fraction(0)) + c1 * c2
        terms = product
    top = [terms.get((n, p), Fraction(0)) for p in range(n + 2)]
    quotient = [sum(top[: p + 1]) for p in range(n + 1)]   # top = (1 - y) * quotient
    assert quotient[-1] + top[-1] == 0
    scale = Fraction((-1) ** n, prod(weights))
    return {Fraction(p) - Fraction(n, 2): scale * c for p, c in enumerate(quotient) if c}


def theta_series(half, order):
    """theta(Y) = (Y^(1/2) - Y^(-1/2)) prod_(n>=1) (1-q^n)(1-q^n Y)(1-q^n/Y)
    to order q^order, at a number Y^(1/2) = half."""
    out = [half - 1 / half] + [Fraction(0)] * order
    y = half * half
    for n in range(1, order + 1):
        for c in (1, y, 1 / y):
            factor = [Fraction(1)] + [Fraction(0)] * order
            factor[n] = -c
            out = series_mul(out, factor, order)
    return out


def cy3_elliptic_genus(chi, order, w):
    """q-coefficients of the elliptic genus of a Calabi-Yau threefold with
    Euler number chi, at the number w = y^(1/2): (-chi/2) theta(y^2) /
    theta(y), the weak Jacobi form phi_(0,3/2) (Kawai, Yamada and Yang,
    Nucl. Phys. B 414 (1994)).  Its q^t coefficient is a Laurent polynomial
    in w with exponents in [-4t-1, 4t+1]."""
    w = Fraction(w)
    ratio = series_mul(theta_series(w * w, order), series_inv(theta_series(w, order), order),
                       order)
    return [-Fraction(chi, 2) * c for c in ratio]


def laurent_mul(a, b):
    """The product of two Laurent polynomials, {exponent: coefficient}."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {e: c for e, c in out.items() if c}


def laurent_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _fraction_mul(f, g):
    """The product of two rational functions (num, den), left unreduced."""
    return laurent_mul(f[0], g[0]), laurent_mul(f[1], g[1])


def _fraction_add(f, g):
    """The sum of two rational functions (num, den), left unreduced."""
    if f[1] == g[1]:
        return laurent_add(f[0], g[0]), f[1]
    return laurent_add(laurent_mul(f[0], g[1]), laurent_mul(g[0], f[1])), \
        laurent_mul(f[1], g[1])


def quiver_a3_chi_y(n, r, charges):
    """chi_y of length-n quotients for the rank-r framed three-loop quiver,
    as (num, den): two Laurent polynomials in s = y^(1/2), {exponent:
    coefficient}, unreduced.

    The Q^n coefficient of Nekrasov's K-theoretic partition function of C^3
    (Nekrasov and Okounkov, arXiv:1404.2323; at rank r, Fasola, Monavari and
    Ricolfi, arXiv:2003.13565) on the torus t_i = y^(c_i), kappa = t_1 t_2
    t_3 = y^d:

        sum_n chi_y(n) Q^n = Exp(-G [kappa^r]/[kappa]
                                 sum_(m>=1) [kappa^(rm)]/[kappa^r] x^m),

    [t] = t^(1/2) - t^(-1/2), G = [t_1 t_2][t_1 t_3][t_2 t_3] / ([t_1][t_2]
    [t_3]) and x = (-1)^r Q.  The plethystic exponential Exp(F) = exp(sum_k
    psi_k F / k) takes psi_k: y -> y^k, x -> x^k.  At y = 1 it is the
    MacMahon power of `macmahon_power`.
    """
    c1, c2, c3 = charges
    d = c1 + c2 + c3

    def bracket(e, k=1):
        # [y^e] at y -> y^k, in s
        return {k * e: Fraction(1), -k * e: Fraction(-1)}

    def f(m, k):
        # psi_k of the x^m coefficient of the plethystic logarithm
        num, den = {0: Fraction(-1)}, {0: Fraction(1)}
        for e in (c1 + c2, c1 + c3, c2 + c3, r * d, r * m * d):
            num = laurent_mul(num, bracket(e, k))
        for e in (c1, c2, c3, d, r * d):
            den = laurent_mul(den, bracket(e, k))
        return num, den

    sign = (-1) ** r
    # log Z = sum_N a_N Q^N, and N Z_N = sum_(j=1..N) j a_j Z_(N-j)
    a = [None] + [({}, {0: Fraction(1)})] * n
    for k in range(1, n + 1):
        for m in range(1, n // k + 1):
            num, den = f(m, k)
            term = {e: c * Fraction(sign ** (k * m), k) for e, c in num.items()}, den
            a[k * m] = _fraction_add(a[k * m], term)
    z = [({0: Fraction(1)}, {0: Fraction(1)})]
    for big_n in range(1, n + 1):
        total = ({}, {0: Fraction(1)})
        for j in range(1, big_n + 1):
            num, den = _fraction_mul(a[j], z[big_n - j])
            total = _fraction_add(total, ({e: c * j / big_n for e, c in num.items()}, den))
        z.append(total)
    return z[n]
