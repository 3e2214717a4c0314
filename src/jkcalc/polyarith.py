"""Exact arithmetic kernel: sparse multivariate polynomials over Q, rational
functions in one variable and truncated q-power series.

A MultiPoly maps exponent tuples to Fraction coefficients, stored as plain
int when integral; zero coefficients are never stored.  RatFunc is a rational
function of the single variable w, and every RatFunc is kept fully reduced by
one rule (`RatFunc._reduce`): the common power of w and the integer content
are stripped, and num and den are divided by their integer gcd (`poly_gcd`),
so den is a primitive integer polynomial with positive leading coefficient.
That form is canonical, so equality compares num and den term by term, and a
value is a Laurent polynomial exactly when den is a single monomial.
QSeries is a truncation-order-N power series in q whose coefficients are
rational functions.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import comb, gcd

ZERO = Fraction(0)
ONE = Fraction(1)


def _ncoeff(c):
    """Store integral coefficients as plain int (much faster arithmetic)."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


class NonUnitError(ArithmeticError):
    """A series or denominator constant term that must be invertible is not."""


def _content(terms) -> Fraction:
    """Positive Fraction c so that terms/c has coprime integer coefficients."""
    num_g = 0
    den_l = 1
    for c in terms.values():
        num_g = gcd(num_g, abs(c.numerator))
        den_l = den_l * c.denominator // gcd(den_l, c.denominator)
    if num_g == 0:
        return ONE
    return Fraction(num_g, den_l)


class MultiPoly:
    """Sparse polynomial in nvars variables with Fraction coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = terms if terms is not None else {}

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars, value):
        value = _ncoeff(Fraction(value))
        if value == 0:
            return cls(nvars, {})
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars, idx, power=1):
        e = [0] * nvars
        e[idx] = power
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def monomial(cls, nvars, exps, coeff=1):
        coeff = _ncoeff(Fraction(coeff))
        if coeff == 0:
            return cls(nvars, {})
        return cls(nvars, {tuple(exps): coeff})

    @classmethod
    def affine(cls, nvars, lin, const):
        """const + sum(lin[i] * x_i)."""
        terms = {}
        c = _ncoeff(Fraction(const))
        if c != 0:
            terms[(0,) * nvars] = c
        for i, a in enumerate(lin):
            a = _ncoeff(Fraction(a))
            if a != 0:
                e = [0] * nvars
                e[i] = 1
                terms[tuple(e)] = a
        return cls(nvars, terms)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(all(e == 0 for e in k) for k in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return ZERO
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def num_terms(self):
        return len(self.terms)

    def key(self):
        return (self.nvars, tuple(sorted(self.terms.items())))

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def __neg__(self):
        return MultiPoly(self.nvars, {k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
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
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _ncoeff(Fraction(other))
            if other == 0:
                return MultiPoly.zero(self.nvars)
            return MultiPoly(self.nvars, {k: c * other for k, c in self.terms.items()})
        return self.mul(other)

    __rmul__ = __mul__

    def mul(self, other, qvar: int | None = None, qcap: int | None = None):
        """Product, optionally truncating exponents of variable qvar above qcap."""
        if not self.terms or not other.terms:
            return MultiPoly.zero(self.nvars)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                if qvar is not None and k[qvar] > qcap:
                    continue
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

    def pow(self, n: int, qvar=None, qcap=None):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result.mul(base, qvar, qcap)
            n >>= 1
            if n:
                base = base.mul(base, qvar, qcap)
        return result

    def degree_in(self, var):
        if not self.terms:
            return 0
        return max(k[var] for k in self.terms)

    def valuation_in(self, var):
        if not self.terms:
            return 0
        return min(k[var] for k in self.terms)

    def coefficients_in(self, var):
        """Dense list of coefficient polynomials by degree in `var` (var slot zeroed)."""
        deg = self.degree_in(var)
        out = [dict() for _ in range(deg + 1)]
        for k, c in self.terms.items():
            kk = list(k)
            d = kk[var]
            kk[var] = 0
            out[d][tuple(kk)] = c
        return [MultiPoly(self.nvars, t) for t in out]

    def coefficient_of(self, var, power):
        out = {}
        for k, c in self.terms.items():
            if k[var] == power:
                kk = list(k)
                kk[var] = 0
                out[tuple(kk)] = c
        return MultiPoly(self.nvars, out)

    def subst_shift(self, var, a):
        """Substitute x_var -> x_var + a."""
        a = _ncoeff(Fraction(a))
        if a == 0:
            return self
        rows = {}   # exponent e -> [comb(e, j) * a^(e-j) for j = 0..e]
        out = {}
        for k, c in self.terms.items():
            e = k[var]
            row = rows.get(e)
            if row is None:
                row = rows[e] = [comb(e, j) if a == 1 else comb(e, j) * a ** (e - j)
                                 for j in range(e + 1)]
            head, tail = k[:var], k[var + 1:]
            for j, b in enumerate(row):
                kk = head + (j,) + tail
                s = out.get(kk, 0) + c * b
                if s:
                    out[kk] = s
                else:
                    out.pop(kk, None)
        return MultiPoly(self.nvars, out)

    def content_normalize(self):
        """Return (content, primitive) with the canonical leading coeff positive."""
        if not self.terms:
            return ONE, self
        cont = _content(self.terms)
        lead = self.terms[max(self.terms)]
        if lead < 0:
            cont = -cont
        prim = {k: _ncoeff(c / cont) for k, c in self.terms.items()}
        return cont, MultiPoly(self.nvars, prim)

    def exact_div(self, divisor):
        """Exact polynomial quotient self/divisor, or None if not divisible."""
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
            qc = _ncoeff(Fraction(rem[rkey]) / dc)
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

    def to_string(self, names=None):
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        parts = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            mono = "*".join(
                f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(k) if e
            )
            if mono:
                coeff = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{coeff}{mono}")
            else:
                parts.append(str(c))
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    def __repr__(self):
        return f"MultiPoly({self.to_string()})"


def _dense_primitive(p: MultiPoly) -> tuple[int, list[int]]:
    """(valuation v, ascending coprime integer coefficients of p / w^v)."""
    _, prim = p.content_normalize()
    v = prim.valuation_in(0)
    out = [0] * (prim.degree_in(0) - v + 1)
    for (e,), c in prim.terms.items():
        out[e - v] = c
    return v, out


def _divides(d: list[int], f: list[int]) -> bool:
    """Whether d divides f in Z[w], for ascending integer coefficient lists."""
    r = f[:]
    n = len(d) - 1
    while len(r) > n:
        q, m = divmod(r.pop(), d[-1])
        if m:
            return False
        shift = len(r) - n
        for i in range(n):
            r[shift + i] -= q * d[i]
    return not any(r)


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Gcd of two polynomials in one variable, primitive over Z with positive
    leading coefficient; 0 only when both are 0.

    Heuristic gcd GCDHEU (Char, Geddes & Gonnet, J. Symb. Comput. 1989) on the
    content-free integer coefficients f and g: for xi >= 2 min(|f|, |g|) + 2,
    the integer gcd of f(xi) and g(xi), written in balanced base xi, has a
    primitive part that is the gcd as soon as it divides f and g.  Otherwise
    xi is doubled; the gcd of the cofactors at xi divides their resultant, so
    some xi succeeds and the loop needs no bound.
    """
    if a.nvars != 1 or b.nvars != 1:
        raise ValueError("poly_gcd takes polynomials in one variable")
    if a.is_zero() or b.is_zero():
        return (b if a.is_zero() else a).content_normalize()[1]
    va, f = _dense_primitive(a)
    vb, g = _dense_primitive(b)
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 2
    while True:
        fx = gx = 0
        for c in reversed(f):
            fx = fx * xi + c
        for c in reversed(g):
            gx = gx * xi + c
        gamma = gcd(fx, gx)
        h = []
        while gamma:
            c = gamma % xi
            if 2 * c > xi:
                c -= xi
            h.append(c)
            gamma = (gamma - c) // xi
        cont = gcd(*h) if h[-1] > 0 else -gcd(*h)
        h = [c // cont for c in h]
        if _divides(h, f) and _divides(h, g):
            break
        xi *= 2
    v = min(va, vb)
    return MultiPoly(1, {(i + v,): c for i, c in enumerate(h) if c})


class RatFunc:
    """Rational function num/den of w, always fully reduced (see `_reduce`)."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.const(1, 1)
        if num.nvars != 1 or den.nvars != 1:
            raise ValueError("RatFunc is a function of one variable")
        if den.is_zero():
            raise ZeroDivisionError("division by the zero function")
        self.num = num
        self.den = den
        self._reduce()

    @classmethod
    def _reduced(cls, num: MultiPoly, den: MultiPoly) -> RatFunc:
        """Wrap a num/den pair that is already in reduced form."""
        out = object.__new__(cls)
        out.num = num
        out.den = den
        return out

    @classmethod
    def const(cls, value):
        return cls(MultiPoly.const(1, value))

    def _reduce(self):
        """The one reduction rule: num and den coprime, no common power of w,
        den primitive over Z with positive leading coefficient."""
        num, den = self.num, self.den
        if num.is_zero():
            self.den = MultiPoly.const(1, 1)
            return
        shift = min(min(num.terms), min(den.terms))[0]
        if shift:
            num = MultiPoly(1, {(e - shift,): c for (e,), c in num.terms.items()})
            den = MultiPoly(1, {(e - shift,): c for (e,), c in den.terms.items()})
        cn, num = num.content_normalize()
        cd, den = den.content_normalize()
        # with the common power of w gone, a monomial den is coprime to num
        if den.num_terms() > 1:
            g = poly_gcd(num, den)
            if not g.is_constant():
                num, den = num.exact_div(g), den.exact_div(g)
        self.num = num * (cn / cd)
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(other)
        if isinstance(other, MultiPoly):
            return RatFunc(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num.mul(other.den) + other.num.mul(self.den), self.den.mul(other.den))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._reduced(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num.mul(other.num), self.den.mul(other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other * self.inverse()

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("division by the zero function")
        cont, den = self.num.content_normalize()
        return RatFunc._reduced(self.den * (ONE / cont), den)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        r = RatFunc.const(1)
        b = self
        while n:
            if n & 1:
                r = r * b
            n >>= 1
            if n:
                b = b * b
        return r

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        raise TypeError("RatFunc is not hashable")

    def as_fraction(self) -> Fraction:
        return Fraction(self.num.constant_value()) / Fraction(self.den.constant_value())

    def to_string(self, names=None):
        if self.den.is_constant() and self.den.constant_value() == 1:
            return self.num.to_string(names)
        return f"({self.num.to_string(names)}) / ({self.den.to_string(names)})"

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

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        r = QSeries.const(self.order, 1)
        b = self
        while n:
            if n & 1:
                r = r * b
            n >>= 1
            if n:
                b = b * b
        return r

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        raise TypeError("QSeries is not hashable")

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

