"""Exact arithmetic kernel: sparse multivariate integer polynomials, rational
functions in one variable and truncated q-power series.

A MultiPoly maps exponent tuples to int coefficients; zero coefficients are
never stored, and exponents may be negative (a Laurent polynomial).  A
rational constant stays outside it: `content_normalize` splits off an
integer content, and the residue core keeps the product of such constants
as one Fraction.  The residue core multiplies polynomials packed into
Python integers (`kronecker.Kronecker`).

RatFunc is a rational function of w in one canonical form c * w^v * num(w) /
den(w): c is a Fraction, v an int, and num and den are ascending lists of
integer coefficients, coprime, primitive, with nonzero constant terms and
positive leading coefficients (zero is c = 0, v = 0, num = [], den = [1]).
The form is unique, so equality compares the four parts, and a value is a
Laurent polynomial exactly when den == [1].  Only this module knows the
layout: callers build a RatFunc from (exponent, coefficient) pairs and read
it through its methods.  Lists are multiplied as one product of packed
Python integers (Kronecker substitution, Harvey, J. Symb. Comput. 2009), and
num and den are made coprime by one integer gcd (`poly_gcd`), run on the
lists divided by the stride of their exponents.

QSeries is a truncation-order-N power series in q whose coefficients are
rational functions.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import repeat
from math import comb, gcd, lcm
from operator import mul


def binom(n: int, k: int) -> int:
    """The binomial coefficient n (n-1) ... (n-k+1) / k! for any integer n
    and k >= 0: the coefficient of v^k in (1 + v)^n."""
    return comb(n, k) if n >= 0 else (-1) ** k * comb(k - n - 1, k)


class NonUnitError(ArithmeticError):
    """A series or denominator constant term that must be invertible is not."""


class MultiPoly:
    """Sparse polynomial in nvars variables with int coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = terms if terms is not None else {}

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars, value):
        if value == 0:
            return cls(nvars, {})
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def monomial(cls, nvars, exps):
        return cls(nvars, {tuple(exps): 1})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __neg__(self):
        return MultiPoly(self.nvars, {k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(self.nvars, other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return MultiPoly(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return MultiPoly(self.nvars, {k: c * other for k, c in self.terms.items()}
                             if other else {})
        return self.mul(other) if isinstance(other, MultiPoly) else NotImplemented

    __rmul__ = __mul__

    def mul(self, other):
        if not self.terms or not other.terms:
            return MultiPoly.zero(self.nvars)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                s = out.get(k)
                if s is None:
                    out[k] = ca * cb
                else:
                    s = s + ca * cb
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        return MultiPoly(self.nvars, out)

    def __pow__(self, n):
        return self.pow(n)

    def pow(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result.mul(base)
            n >>= 1
            if n:
                base = base.mul(base)
        return result

    def shift_coefficients(self, var, hi, a=1):
        """Coefficients 0..hi-1 in x_var of self(x_var + a), var slot zeroed,
        for a = 1 (the Taylor coefficients at x_var = 1, of a Laurent
        polynomial in x_var) or a = 0 (self split by degree in x_var).

        Only the coefficients asked for are computed.  For a = 1 the terms
        are grouped by their other exponents, and the j-th coefficient of a
        group sum c * x_var^e is sum c * binom(e, j), one sum per group and
        j; a group with a negative e has nonzero coefficients past its
        degree, so it is read up to hi.
        """
        outs = [{} for _ in range(hi)]
        if a == 0:
            for k, c in self.terms.items():
                if 0 <= k[var] < hi:
                    outs[k[var]][k[:var] + (0,) + k[var + 1:]] = c
            return [MultiPoly(self.nvars, d) for d in outs]
        if a != 1:
            raise ValueError("shift_coefficients shifts by 0 or 1")
        groups: dict = {}
        for k, c in self.terms.items():
            kk = k[:var] + (0,) + k[var + 1:]
            g = groups.get(kk)
            if g is None:
                groups[kk] = ([k[var]], [c])
            else:
                g[0].append(k[var])
                g[1].append(c)
        for k, (es, cs) in groups.items():
            choose, top = (comb, min(max(es) + 1, hi)) if min(es) >= 0 else (binom, hi)
            for j in range(top):
                s = sum(map(mul, cs, map(choose, es, repeat(j))))
                if s:
                    outs[j][k] = s
        return [MultiPoly(self.nvars, d) for d in outs]

    def content_normalize(self):
        """Return (content, primitive): the integer content, signed so that the
        primitive part's leading coefficient is positive."""
        if not self.terms:
            return 1, self
        g = gcd(*self.terms.values())
        if self.terms[max(self.terms)] < 0:
            g = -g
        return g, MultiPoly(self.nvars, {k: c // g for k, c in self.terms.items()})

    def exact_div(self, divisor):
        """Exact polynomial quotient self/divisor, or None unless it exists
        with integer coefficients."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        rem = dict(self.terms)
        dkey = max(divisor.terms)
        dc = divisor.terms[dkey]
        dterms = list(divisor.terms.items())
        quot = {}
        # keys are processed in descending lex order; new remainder keys are
        # always strictly smaller, so a lazy max-heap avoids repeated max(rem)
        heap = [tuple(-x for x in k) for k in rem]
        heapq.heapify(heap)
        while rem:
            rkey = None
            while heap:
                cand = tuple(-x for x in heapq.heappop(heap))
                if cand in rem:
                    rkey = cand
                    break
            if rkey is None:
                break
            qkey = tuple(a - b for a, b in zip(rkey, dkey))
            if any(e < 0 for e in qkey):
                return None
            qc, r = divmod(rem[rkey], dc)
            if r:
                return None
            quot[qkey] = qc
            for k, c in dterms:
                kk = tuple(a + b for a, b in zip(qkey, k))
                if kk in rem:
                    s = rem[kk] - qc * c
                    if s:
                        rem[kk] = s
                    else:
                        del rem[kk]
                else:
                    s = -qc * c
                    if s:
                        rem[kk] = s
                        heapq.heappush(heap, tuple(-x for x in kk))
        if rem:
            return None
        return MultiPoly(self.nvars, quot)

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.terms})"


def _digits(v: int, n: int, bits: int) -> list[int]:
    """The n balanced base-2^bits digits of v, lowest first, split in halves:
    the low h digits are the residue of v mod 2^(bits h) of least absolute
    value, as long as every digit is below 2^(bits-1) in absolute value."""
    if n == 1:
        return [v]
    h = n // 2
    size = bits * h
    low = v & ((1 << size) - 1)
    if low >> (size - 1):
        low -= 1 << size
    return _digits(low, h, bits) + _digits((v - low) >> size, n - h, bits)


def _pack(a: list[int], bits: int) -> int:
    """a at w = 2^bits, computed in halves: the inverse of `_digits`."""
    if len(a) == 1:
        return a[0]
    h = len(a) // 2
    return _pack(a[:h], bits) + (_pack(a[h:], bits) << bits * h)


def _mul(a: list[int], b: list[int]) -> list[int]:
    """Product of ascending integer coefficient lists by one integer product:
    its coefficients are at most min(len) * max|a| * max|b| in absolute
    value, so one sign bit above that bound reads them back exactly."""
    if len(a) == 1 or len(b) == 1:
        s, p = (a[0], b) if len(a) == 1 else (b[0], a)
        return [s * x for x in p]
    bits = (min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))).bit_length() + 1
    return _digits(_pack(a, bits) * _pack(b, bits), len(a) + len(b) - 1, bits)


def _spread(a: list[int], s: int) -> list[int]:
    """a(w^s)."""
    out = [0] * ((len(a) - 1) * s + 1)
    out[::s] = a
    return out


def _primitive(a: list[int]) -> tuple[int, int, list[int]]:
    """(g, v, p) with a = g * w^v * p, p primitive with a nonzero constant term
    and a positive leading coefficient; (0, 0, []) when a is zero."""
    nonzero = [i for i, x in enumerate(a) if x]
    if not nonzero:
        return 0, 0, []
    p = a[nonzero[0]:nonzero[-1] + 1]
    g = gcd(*p) if p[-1] > 0 else -gcd(*p)
    return g, nonzero[0], (p if g == 1 else [x // g for x in p])


def _from_pairs(pairs) -> tuple[int, int, list[int]]:
    """(l, v, a) with sum c w^e over the (e, c) pairs = w^v * a(w) / l, for
    int or Fraction coefficients c."""
    pairs = list(pairs)
    l = lcm(*(c.denominator for _, c in pairs))
    v = min((e for e, _ in pairs), default=0)
    out = [0] * (max((e for e, _ in pairs), default=v) - v + 1)
    for e, c in pairs:
        out[e - v] += c.numerator * (l // c.denominator)
    return l, v, out


def _divides(d: list[int], f: list[int]) -> list[int] | None:
    """The quotient f/d in Z[w] when d divides f, else None, for ascending
    integer coefficient lists."""
    r = f[:]
    n = len(d) - 1
    q = [0] * (len(f) - n)
    while len(r) > n:
        c, m = divmod(r.pop(), d[-1])
        if m:
            return None
        shift = len(r) - n
        q[shift] = c
        for i in range(n):
            r[shift + i] -= c * d[i]
    return None if any(r) else q


def poly_gcd(f: list[int], g: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(h, f/h, g/h) for h the gcd of two primitive integer polynomials in w,
    given as ascending coefficient lists; h is primitive, its leading
    coefficient positive.

    Heuristic gcd GCDHEU (Char, Geddes & Gonnet, J. Symb. Comput. 1989): for
    a power of two xi >= 2 min(|f|, |g|) + 2, the integer gcd of f(xi) and
    g(xi), read in balanced base xi, has a primitive part that is the gcd as
    soon as it divides f and g, and the divisions give the cofactors; else xi
    doubles, and since the gcd of the cofactors at xi divides their resultant
    some xi succeeds.  Where all exponents of nonzero terms are multiples of
    s, gcd(F(w^s), G(w^s)) = gcd(F, G)(w^s): GCDHEU runs on F and G.
    """
    s = gcd(*(i for p in (f, g) for i, c in enumerate(p) if c)) or 1
    f, g = f[::s], g[::s]
    bits = (2 * min(max(map(abs, f)), max(map(abs, g))) + 2).bit_length()
    while True:
        gamma = gcd(_pack(f, bits), _pack(g, bits))
        h = _digits(gamma, gamma.bit_length() // bits + 1, bits)
        cont = gcd(*h) if h[-1] > 0 else -gcd(*h)
        h = [c // cont for c in h]
        cf = _divides(h, f)
        cg = None if cf is None else _divides(h, g)
        if cg is not None:
            return _spread(h, s), _spread(cf, s), _spread(cg, s)
        bits += 1


class RatFunc:
    """The rational function c * w^v * num(w) / den(w) in canonical form (see
    the module docstring), built from (exponent, coefficient) pairs."""

    __slots__ = ("c", "v", "num", "den")

    def __init__(self, num, den=((0, 1),)):
        """sum c w^e over the (e, c) pairs of num, divided by that of den."""
        ln, vn, n = _from_pairs(num)
        ld, vd, d = _from_pairs(den)
        self._normalize(Fraction(ld, ln), vn - vd, n, d)

    @classmethod
    def _make(cls, c: Fraction, v: int, num: list[int], den: list[int]) -> RatFunc:
        """Wrap parts that are already in canonical form."""
        out = object.__new__(cls)
        out.c, out.v, out.num, out.den = c, v, num, den
        return out

    @classmethod
    def const(cls, value):
        value = Fraction(value)
        return cls._make(value, 0, [1] if value else [], [1])

    def _normalize(self, c: Fraction, v: int, num: list[int], den: list[int]) -> RatFunc:
        """Set self to c * w^v * num / den, for integer lists, in canonical form."""
        gd, vd, den = _primitive(den)
        if not gd:
            raise ZeroDivisionError("division by the zero function")
        gn, vn, num = _primitive(num)
        self.c, self.v, self.num, self.den = \
            (c * gn / gd, v + vn - vd, num, den) if gn else (Fraction(0), 0, [], [1])
        if len(num) > 1 and len(den) > 1:
            self._reduce()
        return self

    def _reduce(self):
        """The one reduction rule: num and den divided by their gcd."""
        _, self.num, self.den = poly_gcd(self.num, self.den)

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(other)
        return other if isinstance(other, RatFunc) else None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = (self, other) if self.v <= other.v else (other, self)
        if not b.num or not a.num:
            return a if a.num else b
        if a.den == b.den:
            den, na, nb = a.den, a.num, b.num
        else:
            den, na, nb = _mul(a.den, b.den), _mul(a.num, b.den), _mul(b.num, a.den)
        ka, kb = a.c.numerator * b.c.denominator, b.c.numerator * a.c.denominator
        shift = b.v - a.v
        out = [ka * x for x in na] + [0] * (len(nb) + shift - len(na))
        for i, x in enumerate(nb, shift):
            out[i] += kb * x
        return object.__new__(RatFunc)._normalize(
            Fraction(1, a.c.denominator * b.c.denominator), a.v, out, den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._make(-self.c, self.v, self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFunc._make(self.c * other, self.v, self.num, self.den) if other \
                else RatFunc.const(0)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.num or not other.num:
            return RatFunc.const(0)
        # products of primitive lists are primitive (Gauss), and only the num
        # of one side and the den of the other can share a factor
        out = RatFunc._make(self.c * other.c, self.v + other.v,
                            _mul(self.num, other.num), _mul(self.den, other.den))
        if len(self.num) > 1 and len(other.den) > 1 or len(other.num) > 1 and len(self.den) > 1:
            out._reduce()
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self^n for n >= 1; powers of coprime primitive lists stay so."""
        if n < 1:
            raise ValueError("RatFunc powers start at 1")
        if not self.num:
            return self
        num, den = self.num, self.den
        for bit in bin(n)[3:]:
            num, den = _mul(num, num), _mul(den, den)
            if bit == "1":
                num, den = _mul(num, self.num), _mul(den, self.den)
        return RatFunc._make(self.c ** n, self.v * n, num, den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("division by the zero function")
        return RatFunc._make(1 / self.c, -self.v, self.den, self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self.c, self.v, self.num, self.den) == (other.c, other.v, other.num, other.den)

    def laurent(self) -> dict | None:
        """{exponent: coefficient} when the value is a Laurent polynomial, else None."""
        return {self.v + i: self.c * x for i, x in enumerate(self.num) if x} \
            if self.den == [1] else None

    def pairs(self) -> tuple[list, list]:
        """(num, den) as ascending (exponent, coefficient) pairs of coprime
        polynomials with no common power of w, den primitive with positive
        leading coefficient."""
        a, b = max(self.v, 0), max(-self.v, 0)
        return ([(a + i, self.c * x) for i, x in enumerate(self.num) if x],
                [(b + i, x) for i, x in enumerate(self.den) if x])

    def compose_power(self, m: int) -> RatFunc:
        """w -> self(w^m) for m >= 1, still reduced: gcd(F(w^m), G(w^m)) = gcd(F, G)(w^m)."""
        return RatFunc._make(self.c, self.v * m, _spread(self.num, m), _spread(self.den, m))

    def value_at_one(self) -> Fraction | None:
        """The value at w = 1, or None at a pole: num and den are coprime, so
        w = 1 is a pole exactly when den(1) = 0."""
        d = sum(self.den)
        return self.c * sum(self.num) / d if d else None

    def to_string(self, names=None):
        name = names[0] if names else "x0"

        def poly(pairs):
            parts = [str(c) if e == 0 else
                     ("" if c == 1 else "-" if c == -1 else f"{c}*")
                     + (name if e == 1 else f"{name}^{e}") for e, c in reversed(pairs)]
            return " + ".join(parts).replace("+ -", "- ") if parts else "0"

        num, den = self.pairs()
        return poly(num) if den == [(0, 1)] else f"({poly(num)}) / ({poly(den)})"

    def __repr__(self):
        return f"RatFunc({self.to_string()})"


class QSeries:
    """Power series in q truncated at order N, with RatFunc coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError("coefficient list must have length order+1")
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def const(cls, order, value):
        c0 = value if isinstance(value, RatFunc) else RatFunc.const(value)
        return cls(order, [c0] + [RatFunc.const(0)] * order)

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, QSeries):
            if other.order != self.order:
                raise ValueError("q-series truncation orders differ")
            return other
        if isinstance(other, (int, Fraction, RatFunc)):
            return QSeries.const(self.order, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QSeries(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QSeries(self.order, [a * other for a in self.coeffs])
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = self.order
        zero = RatFunc.const(0)
        out = [zero] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return QSeries(n, out)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse through order N; requires a unit constant term."""
        c0 = self.coeffs[0]
        if c0.is_zero():
            raise NonUnitError("q-series constant term is not a unit")
        inv0 = c0.inverse()
        out = [inv0]
        for t in range(1, self.order + 1):
            acc = RatFunc.const(0)
            for j in range(1, t + 1):
                if not self.coeffs[j].is_zero():
                    acc = acc + self.coeffs[j] * out[t - j]
            out.append(-inv0 * acc)
        return QSeries(self.order, out)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def to_string(self, names=None):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            body = c.to_string(names)
            parts.append(body if i == 0 else f"({body})*q^{i}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"QSeries[{self.order}]({self.to_string()})"

