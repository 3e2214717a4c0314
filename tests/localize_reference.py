"""Reference localization in Fraction arithmetic, as `engine.localize`
computed it before it ran on integers.  Tests compare the two."""

from fractions import Fraction

from jkcalc import linalg
from jkcalc.engine import LocalFactor
from linalg_reference import fvec


def localize(integrand, point, flag):
    """Every factor as c + l.z with c = rho.P + const and l = rho * K^{-1},
    K the kappa rows; equal (c, l) merge their exponents, zero ones drop."""
    k = integrand.rank
    point = fvec(point)
    if k > 0:
        kinv = linalg.inverse(flag.kappa)
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
