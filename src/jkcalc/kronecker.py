"""Kronecker substitution for integer polynomials (Harvey, J. Symb. Comput.
2009): fast exact products of sparse multivariate polynomials with one
variable packed into Python integers.

The terms of a polynomial are grouped by the exponents of every variable but
the packed one, and each group's coefficients, from the group's own least
exponent of the packed variable, become the digits of one Python integer at
a fixed number of bits per slot.  Multiplying two groups is one integer
product, because evaluation at 2^bits is a ring map.  Reading the digits
back in balanced base 2^bits (digits in [-2^(bits-1), 2^(bits-1))) is exact
when each coefficient read is smaller in absolute value than 2^(bits-1); the
caller provides a bound on the L1 norm of every polynomial it reads back,
which bounds each of its coefficients, and bits is the bound's bit length
plus one sign bit.  Values that are never read back need no bound.
"""

from __future__ import annotations

from math import gcd
from operator import add

from .polyarith import MultiPoly, _digits


class Kronecker:
    """The Kronecker layout of integer polynomials in `nvars` variables with
    `var` packed (see the module docstring).  A group is keyed by (the other
    exponents, low mod stride), with slots `stride` apart: the gcd of the
    exponent gaps inside the groups of `polys`, each its (exponents,
    coefficient) terms, so no slot is spent on a gap that no term can fill.
    Unpacking is exact for coefficients of absolute value at most `bound`.
    """

    __slots__ = ("nvars", "var", "bits", "stride")

    def __init__(self, nvars: int, var: int, bound: int, polys):
        self.nvars, self.var, self.bits = nvars, var, bound.bit_length() + 1
        s = 0
        for terms in polys:
            if s == 1:
                break
            first: dict = {}
            for k, _ in terms:
                e = k[var]
                s = gcd(s, e - first.setdefault(k[:var] + k[var + 1:], e))
        self.stride = s or 1

    def one(self) -> dict:
        return {((0,) * (self.nvars - 1), 0): (0, 1)}

    def pack(self, poly: MultiPoly) -> dict:
        return self.pack_terms(poly.terms.items())

    def pack_terms(self, terms) -> dict:
        """The packed polynomial with the (exponents, coefficient) pairs `terms`."""
        var, bits, s = self.var, self.bits, self.stride
        groups: dict = {}
        for k, c in terms:
            e = k[var]
            groups.setdefault((k[:var] + k[var + 1:], e % s), []).append((e, c))
        out = {}
        for key, terms in groups.items():
            low = min(e for e, _ in terms)
            out[key] = (low, sum(c << bits * ((e - low) // s) for e, c in terms))
        return out

    def mul_into(self, dst: dict, a: dict, b: dict) -> dict:
        """dst += a * b."""
        bits, s = self.bits, self.stride
        for (oa, ra), (la, va) in a.items():
            for (ob, rb), (lb, vb) in b.items():
                key = tuple(map(add, oa, ob)), (ra + rb) % s
                low, v = la + lb, va * vb
                old = dst.get(key)
                if old is not None:
                    if old[0] < low:
                        low, v = old[0], old[1] + (v << bits * ((low - old[0]) // s))
                    else:
                        v += old[1] << bits * ((old[0] - low) // s)
                    if not v:
                        del dst[key]
                        continue
                dst[key] = (low, v)
        return dst

    def unpack(self, packed: dict) -> MultiPoly:
        var, bits, s = self.var, self.bits, self.stride
        terms = {}
        for (others, _), (low, v) in packed.items():
            head, tail = others[:var], others[var:]
            for i, c in enumerate(_digits(v, abs(v).bit_length() // bits + 1, bits)):
                if c:
                    terms[head + (low + s * i,) + tail] = c
        return MultiPoly(self.nvars, terms)
