"""Exact arithmetic kernel: sparse multivariate polynomials over Q, rational
functions and truncated q-power series.

A MultiPoly maps exponent tuples to Fraction coefficients, stored as plain
int when integral; zero coefficients are never stored.  RatFunc keeps an
unreduced num/den pair (equality is by cross multiplication); reduction always
strips integer content and common monomials, and runs a polynomial gcd only
when the operands are small.
QSeries is a truncation-order-N power series in q whose coefficients are
rational functions.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import comb, gcd

ZERO = Fraction(0)
ONE = Fraction(1)

# full gcd reduction is attempted only below this num*den term-count product
GCD_REDUCE_THRESHOLD = 1600


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
        out = {}
        for k, c in self.terms.items():
            e = k[var]
            if e == 0:
                s = out.get(k, 0) + c
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
                continue
            for j in range(e + 1):
                kk = list(k)
                kk[var] = j
                kk = tuple(kk)
                v = c * comb(e, j) * a ** (e - j)
                s = out.get(kk, 0) + v
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

    def exact_div(self, divisor, max_steps=None):
        """Exact polynomial quotient self/divisor, or None if not divisible.

        max_steps bounds the number of quotient terms tried before giving up
        (treated as not divisible), keeping failed trial divisions cheap.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        rem = dict(self.terms)
        dkey = max(divisor.terms)
        dc = divisor.terms[dkey]
        dterms = list(divisor.terms.items())
        quot = {}
        steps = 0
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
            steps += 1
            if max_steps is not None and steps > max_steps:
                return None
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

    def used_vars(self):
        used = set()
        for k in self.terms:
            for i, e in enumerate(k):
                if e:
                    used.add(i)
        return used

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


def _poly_gcd_univariate(a: MultiPoly, b: MultiPoly, var: int) -> MultiPoly:
    """Monic Euclid in a single variable; coefficients must be Fractions only."""

    def dense(p):
        out = [ZERO] * (p.degree_in(var) + 1)
        for k, c in p.terms.items():
            out[k[var]] = Fraction(c)
        return out

    def trim(xs):
        while xs and xs[-1] == 0:
            xs.pop()
        return xs

    fa, fb = trim(dense(a)), trim(dense(b))
    while fb:
        # remainder of fa by fb
        fa = fa[:]
        while len(fa) >= len(fb) and fa:
            f = fa[-1] / fb[-1]
            off = len(fa) - len(fb)
            for i, c in enumerate(fb):
                fa[off + i] -= f * c
            trim(fa)
        fa, fb = fb, fa
    terms = {}
    for i, c in enumerate(fa):
        if c:
            e = [0] * a.nvars
            e[var] = i
            terms[tuple(e)] = c
    g = MultiPoly(a.nvars, terms)
    _, g = g.content_normalize()
    return g


def _pseudo_rem(f, g, var):
    """Pseudo remainder of f by g viewed as univariate in `var`."""
    dg = g.degree_in(var)
    lg = g.coefficient_of(var, dg)
    r = f
    while not r.is_zero() and r.degree_in(var) >= dg:
        dr = r.degree_in(var)
        lr = r.coefficient_of(var, dr)
        xshift = MultiPoly.variable(f.nvars, var, dr - dg)
        r = r.mul(lg) - g.mul(lr).mul(xshift)
    return r


def poly_gcd(a: MultiPoly, b: MultiPoly, budget: int = 40000) -> MultiPoly:
    """Gcd over Q up to a constant; falls back to 1 when the budget is exhausted."""
    if a.is_zero():
        return b.content_normalize()[1]
    if b.is_zero():
        return a.content_normalize()[1]
    used = a.used_vars() | b.used_vars()
    if not used:
        return MultiPoly.const(a.nvars, 1)
    if len(used) == 1:
        return _poly_gcd_univariate(a, b, next(iter(used)))
    var = max(used)

    def split_content(p):
        coeffs = p.coefficients_in(var)
        cont = MultiPoly.zero(p.nvars)
        for c in coeffs:
            if not c.is_zero():
                cont = poly_gcd(cont, c, budget)
                if cont.is_constant():
                    break
        if cont.is_zero() or cont.is_constant():
            return MultiPoly.const(p.nvars, 1), p
        prim = p.exact_div(cont)
        if prim is None:
            return MultiPoly.const(p.nvars, 1), p
        return cont, prim

    ca, pa = split_content(a)
    cb, pb = split_content(b)
    cont_gcd = poly_gcd(ca, cb, budget)
    f, g = pa, pb
    if f.degree_in(var) < g.degree_in(var):
        f, g = g, f
    ops = 0
    while not g.is_zero():
        ops += f.num_terms() * max(1, g.num_terms())
        if ops > budget:
            return MultiPoly.const(a.nvars, 1)
        r = _pseudo_rem(f, g, var)
        if not r.is_zero():
            _, r = r.content_normalize()
            # strip content in the main variable to stop coefficient growth
            coeffs = [c for c in r.coefficients_in(var) if not c.is_zero()]
            cont = MultiPoly.zero(r.nvars)
            for c in coeffs:
                cont = poly_gcd(cont, c, budget)
                if cont.is_constant():
                    break
            if not cont.is_constant() and not cont.is_zero():
                rr = r.exact_div(cont)
                if rr is not None:
                    r = rr
        f, g = g, r
    if g.is_zero() and f.degree_in(var) == 0:
        pass
    _, f = f.content_normalize()
    return cont_gcd.mul(f) if not cont_gcd.is_constant() else f


class RatFunc:
    """Rational function num/den; equality is exact cross multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None, reduce: bool = True):
        if den is None:
            den = MultiPoly.const(num.nvars, 1)
        if den.is_zero():
            raise ZeroDivisionError("division by the zero function")
        if num.is_zero():
            den = MultiPoly.const(num.nvars, 1)
        self.num = num
        self.den = den
        if reduce:
            self._reduce()

    @classmethod
    def const(cls, nvars, value):
        return cls(MultiPoly.const(nvars, value))

    def _reduce(self):
        num, den = self.num, self.den
        if num.is_zero():
            self.den = MultiPoly.const(num.nvars, 1)
            return
        # common monomial factor
        nv = num.nvars
        mins = [None] * nv
        for poly in (num, den):
            for k in poly.terms:
                for i, e in enumerate(k):
                    if mins[i] is None or e < mins[i]:
                        mins[i] = e
        if any(m for m in mins):
            shift = tuple(mins)
            num = MultiPoly(nv, {tuple(e - s for e, s in zip(k, shift)): c for k, c in num.terms.items()})
            den = MultiPoly(nv, {tuple(e - s for e, s in zip(k, shift)): c for k, c in den.terms.items()})
        cn, num_p = num.content_normalize()
        cd, den_p = den.content_normalize()
        scale = cn / cd
        if num_p.num_terms() * den_p.num_terms() <= GCD_REDUCE_THRESHOLD and not den_p.is_constant():
            g = poly_gcd(num_p, den_p)
            if not g.is_constant():
                qn = num_p.exact_div(g)
                qd = den_p.exact_div(g)
                if qn is not None and qd is not None:
                    num_p, den_p = qn, qd
                    cd2, den_p = den_p.content_normalize()
                    cn2, num_p = num_p.content_normalize()
                    scale *= cn2 / cd2
        self.num = num_p * scale
        self.den = den_p

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    @property
    def nvars(self):
        return self.num.nvars

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(self.nvars, other)
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
        return RatFunc(-self.num, self.den, reduce=False)

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
        return RatFunc(self.den, self.num, reduce=False)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        r = RatFunc.const(self.nvars, 1)
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
        return self.num.mul(other.den) == other.num.mul(self.den)

    def __hash__(self):
        raise TypeError("RatFunc is not hashable (equality is cross-multiplicative)")

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
    def const(cls, order, value, nvars=1):
        c0 = value if isinstance(value, RatFunc) else RatFunc.const(nvars, value)
        zero = RatFunc.const(c0.nvars, 0)
        return cls(order, [c0] + [zero] * order)

    @property
    def nvars(self):
        return self.coeffs[0].nvars

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
            return QSeries.const(self.order, other, self.nvars)
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
        zero = RatFunc.const(self.nvars, 0)
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
            acc = RatFunc.const(self.nvars, 0)
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
        r = QSeries.const(self.order, 1, self.nvars)
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

