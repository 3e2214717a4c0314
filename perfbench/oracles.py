"""Expected DT values computed without the residue pipeline.

* Complete intersections in a Grassmannian (projective space is Gr(1, n+1)):
  the Euler number of the smooth zero locus from Chern classes,
  chi = integral of c(T Gr) * prod_i d_i H / (1 + d_i H), evaluated by
  Atiyah-Bott localization at the coordinate fixed points of Gr(k, n).
  DT = (-1)^dim * chi.
* Framed A^3 quivers: the q^n coefficient of the MacMahon power
  M((-1)^r q)^(-r (c1+c2)(c1+c3)(c2+c3) / (c1 c2 c3)).
* Rank-one weighted projective spaces with zero potential: the orbifold Euler
  number over the lattice the weights span, DT = (-1)^(m-1) sum_i g / c_i.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

# distinct equivariant parameters for the fixed-point formula; any distinct
# values give the same integral
_TORUS = (0, 1, 3, 7, 12, 20, 30, 44)


def _grade_top(weights, hyperplane, degrees, top):
    """[eps^top] of prod_w (1 + eps w) * prod_d (d h eps) / (1 + d h eps)."""
    series = [Fraction(1)] + [Fraction(0)] * top
    for w in weights:
        series = [series[i] + (w * series[i - 1] if i else 0) for i in range(top + 1)]
    for d in degrees:
        dh = d * hyperplane
        # multiply by dh*eps * sum_j (-dh*eps)^j
        factor = [Fraction(0)] + [dh * (-dh) ** j for j in range(top)]
        series = [sum((series[i] * factor[t - i] for i in range(t + 1)), Fraction(0))
                  for t in range(top + 1)]
    return series[top]


def ci_euler_number(k: int, n: int, degrees) -> Fraction:
    """Euler number of a smooth complete intersection of hypersurfaces of the
    given degrees (in the Plucker class) in Gr(k, n)."""
    t = _TORUS[:n]
    top = k * (n - k)
    total = Fraction(0)
    for sub in itertools.combinations(range(n), k):
        rest = [j for j in range(n) if j not in sub]
        tangent = [Fraction(t[j] - t[i]) for i in sub for j in rest]
        euler = Fraction(1)
        for w in tangent:
            euler *= w
        hyperplane = Fraction(-sum(t[i] for i in sub))
        total += _grade_top(tangent, hyperplane, degrees, top) / euler
    return total


def ci_dt(k: int, n: int, degrees) -> Fraction:
    """DT of the total space of O(-d_1)+...+O(-d_m) over Gr(k, n) with the
    fibre-scaling potential: the signed Euler number of the zero locus."""
    dim = k * (n - k) - len(degrees)
    return (-1) ** dim * ci_euler_number(k, n, degrees)


def _binomial(a: int, j: int) -> Fraction:
    out = Fraction(1)
    for i in range(j):
        out = out * (a - i) / (i + 1)
    return out


def quiver_a3_dt(n: int, r: int, charges) -> Fraction:
    """DT of length-n quotients for the rank-r framed three-loop quiver."""
    c1, c2, c3 = charges
    num = r * (c1 + c2) * (c1 + c3) * (c2 + c3)
    den = c1 * c2 * c3
    if num % den:
        raise ValueError(f"MacMahon exponent is not integral for charges {charges}")
    exponent = -num // den
    sign = -1 if r % 2 else 1
    # M(sign*q)^e = prod_k (1 - sign^k q^k)^(-k e), expanded to order n
    series = [Fraction(1)] + [Fraction(0)] * n
    for k in range(1, n + 1):
        a = -k * exponent
        y = -(sign ** k)           # (1 + y q^k)^a
        factor = [Fraction(0)] * (n + 1)
        for j in range(n // k + 1):
            factor[j * k] = _binomial(a, j) * Fraction(y) ** j
        series = [sum((series[i] * factor[s - i] for i in range(s + 1)), Fraction(0))
                  for s in range(n + 1)]
    return series[n]


def weighted_projective_dt(covectors) -> Fraction:
    """DT of C^m // C* with positive weights c_i and zero potential."""
    g = 0
    for c in covectors:
        g = gcd(g, c)
    m = len(covectors)
    return (-1) ** (m - 1) * sum((Fraction(g, c) for c in covectors), Fraction(0))
