"""Reference localization in Fraction arithmetic, as `engine.localize`
computed it before it ran on integers.  Tests compare the two."""

from fractions import Fraction

import linalg_reference
from linalg_reference import fvec


def localize(integrand, point, flag):
    """Every factor as c + l.z with c = rho.P + const and l = rho * K^{-1},
    K the kappa rows, as (c, l, exponent) triples of Fractions; equal (c, l)
    merge their exponents, zero ones drop."""
    k = integrand.rank
    point = fvec(point)
    if k > 0:
        kinv = linalg_reference.inverse(flag.kappa)
        if kinv is None:
            raise ValueError("kappa of a proper flag must be invertible")
    merged: dict = {}
    for f in integrand.factors:
        c = sum((r * x for r, x in zip(f.rho, point)), Fraction(f.const))
        ell = tuple(sum((f.rho[i] * kinv[i][j] for i in range(k)), Fraction(0))
                    for j in range(k))
        merged[c, ell] = merged.get((c, ell), 0) + f.exponent
    return [(c, ell, exp) for (c, ell), exp in merged.items() if exp != 0]


def as_fractions(local_factor):
    """A `LocalFactor`'s (c, l, exponent) in Fraction arithmetic."""
    den = local_factor.den
    return (Fraction(local_factor.const, den),
            tuple(Fraction(x, den) for x in local_factor.lin), local_factor.exponent)
