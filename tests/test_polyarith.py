"""Exact arithmetic substrate: polynomials, rational functions, q-series."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from jkcalc import polyarith
from jkcalc.polyarith import MultiPoly, NonUnitError, QSeries, RatFunc, poly_gcd


W = MultiPoly.monomial(1, (1,))
ONE = MultiPoly.const(1, 1)


def rand_poly(rng, degree, bound):
    return MultiPoly(1, {(e,): c for e in range(degree + 1)
                         if (c := rng.randint(-bound, bound))})


def rf(num, den=ONE):
    """The RatFunc num/den of two polynomials in w."""
    return RatFunc([(k[0], c) for k, c in num.terms.items()],
                   [(k[0], c) for k, c in den.terms.items()])


def dense(p):
    """Ascending integer coefficients of a polynomial in w with integral coefficients."""
    return [p.terms.get((e,), 0) for e in range(max((k[0] for k in p.terms), default=0) + 1)]


def primitive(p):
    return dense(p.content_normalize()[1])


def spread(a, s):
    out = [0] * ((len(a) - 1) * s + 1)
    out[::s] = a
    return out


def euclid_gcd(a, b):
    """Reference gcd over Q by Euclid's algorithm, made primitive over Z."""
    a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
    while any(b):
        r = a[:]
        while len(r) >= len(b) and any(r):
            q = r[-1] / b[-1]
            shift = len(r) - len(b)
            for i, x in enumerate(b):
                r[shift + i] -= q * x
            r.pop()
        while r and not r[-1]:
            r.pop()
        a, b = b, r
    scale = lcm(*(c.denominator for c in a))
    return primitive(MultiPoly(1, {(e,): int(c * scale) for e, c in enumerate(a) if c}))


class TestRatFuncArith:
    def test_inverse_pair(self):
        a = rf(W + 1, W - 2)
        b = rf(W - 2, W + 1)
        assert a * b == RatFunc.const(1)
        assert a.inverse() == b

    def test_factorization_equality(self):
        lhs = rf(W * W - 1, W - 1)
        rhs = rf(W + 1)
        assert lhs == rhs
        assert lhs.pairs() == ([(0, 1), (1, 1)], [(0, 1)])

    def test_symmetric_halves(self):
        two = MultiPoly.const(1, 2)
        s = rf(W * W + W, two) + rf(W * W - W, two)
        assert s == rf(W * W)

    def test_division_by_zero_function(self):
        with pytest.raises(ZeroDivisionError):
            rf(W) / RatFunc.const(0)
        with pytest.raises(ZeroDivisionError):
            RatFunc([(1, 1)], [])

    def test_equality_is_equivalence_and_arithmetic_consistent(self):
        rng = random.Random(7)

        def rand_frac_poly():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                k = (rng.randint(0, 4),)
                terms[k] = terms.get(k, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            return MultiPoly(1, {k: v for k, v in terms.items() if v})

        for _ in range(40):
            num, den = rand_frac_poly(), rand_frac_poly()
            if den.is_zero():
                continue
            a = rf(num, den)
            scale = rand_frac_poly()
            if scale.is_zero():
                continue
            b = rf(num.mul(scale), den.mul(scale))  # same function, other rep
            assert a == a
            assert a == b and b == a
            assert a.pairs() == b.pairs()
            c = rand_frac_poly()
            cc = rf(c if not c.is_zero() else ONE)
            assert a + cc == b + cc
            assert a * cc == b * cc

    def test_field_axioms_sample(self):
        a = rf(W + 1, W * W - 3)
        b = rf(W - 1, W)
        c = rf(W * W * W + 1)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a
        assert (a / b) * b == a

    def test_arithmetic_matches_polynomial_reference(self):
        # sums and products of num/den pairs, built with MultiPoly, against
        # the RatFunc operations; negative powers of w on both sides
        rng = random.Random(17)
        for _ in range(30):
            n1, d1, n2, d2 = (rand_poly(rng, rng.randint(0, 6), 2**rng.choice((3, 70)))
                              for _ in range(4))
            if d1.is_zero() or d2.is_zero():
                continue
            s1, s2 = W ** rng.randint(0, 3), W ** rng.randint(0, 3)
            a, b = rf(n1 * s2, d1 * s1), rf(n2 * s1, d2 * s2)
            assert a + b == rf(n1 * s2 * d2 * s2 + n2 * s1 * d1 * s1, d1 * s1 * d2 * s2)
            assert a * b == rf(n1 * n2 * s1 * s2, d1 * d2 * s1 * s2)
            assert a * Fraction(-3, 4) == rf(n1 * s2 * -3, d1 * s1 * 4)
            if b:
                assert (a * b) / b == a

    def test_w_power_and_value_at_one(self):
        a = rf((W - 1) * (W + 3), (W - 1) * (W * W + 1) * W ** 2) * Fraction(2, 5)
        assert a.compose_power(3) == rf(W ** 3 + 3, (W ** 6 + 1) * W ** 6) * Fraction(2, 5)
        assert a.value_at_one() == Fraction(4, 5)
        assert rf(W + 1, W * W - 1).value_at_one() is None
        assert RatFunc.const(0).value_at_one() == 0

    def test_scalar_product_takes_no_gcd(self, monkeypatch):
        a, b = rf(W + 1, W * W - 3), rf((W + 1) * 2, (W * W - 3) * 3)
        a2, b2 = rf((W + 1) ** 2, (W * W - 3) ** 2), rf((W + 1) ** 2 * 2, (W * W - 3) ** 2)
        series = QSeries(2, [a, a2, RatFunc.const(0)])
        calls = []
        real_gcd, real_add = polyarith.poly_gcd, RatFunc.__add__
        monkeypatch.setattr(polyarith, "poly_gcd", lambda *args: calls.append(1) or real_gcd(*args))
        # a series times a scalar scales each coefficient: no sums of products
        monkeypatch.setattr(RatFunc, "__add__", lambda *args: calls.append(1) or real_add(*args))
        assert a * Fraction(2, 3) == b
        assert (series * 2).coeffs == [a * 2, b2, RatFunc.const(0)]
        assert 0 * a == RatFunc.const(0)
        assert not calls

    def test_text_of_a_non_laurent_value(self):
        assert (rf(W + 2, W ** 3 + 2) * Fraction(-1, 2)).to_string(names=["w"]) == \
            "(-1/2*w - 1) / (w^3 + 2)"
        assert rf(ONE, W ** 2).to_string(names=["w"]) == "(1) / (w^2)"
        assert rf(W ** 2 - W).to_string() == "x0^2 - x0"


class TestListProduct:
    def test_matches_the_convolution(self):
        rng = random.Random(19)
        for _ in range(40):
            a, b = ([rng.choice((0, rng.randint(-2**rng.randint(1, 90), 2**90)))
                     for _ in range(rng.randint(1, 40))] for _ in range(2))
            a[-1] = b[-1] = 1 if rng.random() < 0.5 else -3
            want = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    want[i + j] += x * y
            assert polyarith._mul(a, b) == want


class TestLaurentPolyRows:
    def test_rows_divided_out_match_ratfunc_arithmetic(self):
        """laurent_poly(v, a, rows, c) is c w^v a(w) prod (w^s - 1)^e in
        RatFunc arithmetic, for seeded Laurent lists a, a = 0 among them,
        strides s = 1..6 and rows of either sign.  Some a are multiples of
        some of the rows: of the nonzero a with denominator rows, the rows
        leave no denominator in 137, a smaller one in 135, and all of theirs
        in 39."""
        rng = random.Random(34)
        whole = partial = kept = 0
        for n in range(400):
            rows = [(rng.randint(1, 6), rng.choice((-3, -2, -1, -1, 1, 2)))
                    for _ in range(rng.randint(1, 3))]
            a = [rng.randint(-5, 5) for _ in range(rng.randint(1, 8))] if n % 20 else \
                [0] * (n % 3)
            if any(a):
                for s, _ in rng.sample(rows, rng.randint(0, len(rows))):
                    for _ in range(rng.randint(1, 3)):
                        a = polyarith._mul(a, [-1] + [0] * (s - 1) + [1])
            v, c = rng.randint(-4, 4), Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))
            want = RatFunc([(v + i, x) for i, x in enumerate(a)]) * c
            for s, e in rows:
                row = RatFunc([(s, 1), (0, -1)])
                want = want * row ** e if e > 0 else want / row ** -e
            assert RatFunc.laurent_poly(v, a, rows, c) == want, (v, a, rows, c)
            degree = -sum(s * e for s, e in rows if e < 0)
            if any(a) and degree:
                whole += want.den == [1]
                partial += 1 < len(want.den) <= degree
                kept += len(want.den) == degree + 1
        assert (whole, partial, kept) == (137, 135, 39)


class TestContentNormalize:
    @staticmethod
    def seeded_cases():
        """Integer trivariate polynomials: content 1 or > 1, either leading sign."""
        rng = random.Random(11)
        for content in (1, 1, 6, 35, 2**40):
            for sign in (1, -1):
                terms = {(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2)):
                         rng.randint(-9, 9) or 1 for _ in range(rng.randint(1, 8))}
                terms[max(terms)] = sign * rng.randint(1, 9)
                yield MultiPoly(3, {k: content * c for k, c in terms.items()})

    def test_integer_content_and_primitive_part(self):
        for p in self.seeded_cases():
            cont, prim = p.content_normalize()
            assert type(cont) is int
            assert all(type(c) is int for c in prim.terms.values())
            assert prim.terms[max(prim.terms)] > 0
            assert gcd(*prim.terms.values()) == 1
            assert prim * cont == p
        assert MultiPoly.zero(2).content_normalize() == (1, MultiPoly.zero(2))


class TestPolyGcd:
    def test_univariate(self):
        assert poly_gcd(dense((W + 1) * (W - 1)), dense((W + 1) * (W + 2))) == \
            ([1, 1], [-1, 1], [2, 1])
        # the first evaluation point suggests a spurious common factor W - 2
        assert poly_gcd(dense(W - 2), dense(W + 2))[0] == [1]
        assert poly_gcd(dense((W * W + 1) * (W - 2)), dense((W * W + 1) * (W + 2)))[0] == \
            [1, 0, 1]

    def test_high_degree_common_factor_and_fraction_content(self):
        rng = random.Random(11)
        common = rand_poly(rng, 75, 9)
        common = common.content_normalize()[1]
        f = rand_poly(rng, 80, 9)
        a = common * f * 3
        b = common * (f + 1) * W ** 3  # f and f + 1 are coprime
        assert all(max(k[0] for k in p.terms) >= 150 for p in (a, b))
        assert poly_gcd(primitive(a), primitive(b)) == \
            (dense(common), primitive(f), primitive((f + 1) * W ** 3))
        assert poly_gcd(primitive(a * W ** 2), primitive(b))[0] == dense(common * W ** 2)
        reduced = rf(a, b) * Fraction(1, 7)
        assert reduced == rf(f, (f + 1) * W ** 3) * Fraction(3, 7)
        assert reduced.pairs()[1][-1][0] == 83

    def test_stride_compressed_inputs(self):
        # inputs in w^s: the gcd and cofactors are those of the compressed
        # inputs composed with w^s, and the gcd is Euclid's
        rng = random.Random(23)
        for s in (2, 3, 24):
            for _ in range(4):
                common, f, g = (rand_poly(rng, rng.randint(1, 5), 9) + 1 for _ in range(3))
                F, G = primitive(common * f), primitive(common * g)
                h, cf, cg = poly_gcd(F, G)
                assert h == euclid_gcd(F, G)
                assert poly_gcd(spread(F, s), spread(G, s)) == \
                    (spread(h, s), spread(cf, s), spread(cg, s))
                assert spread(h, s) == euclid_gcd(spread(F, s), spread(G, s))


class TestQSeries:
    def q(self, order, *coeffs):
        cs = [RatFunc.const(c) if not isinstance(c, RatFunc) else c for c in coeffs]
        return QSeries(order, cs)

    def test_geometric_inverse(self):
        a = self.q(3, 1, -1, 0, 0)
        assert a.inverse() == self.q(3, 1, 1, 1, 1)

    def test_identity_inverse(self):
        assert self.q(2, 1, 0, 0).inverse() == self.q(2, 1, 0, 0)

    def test_function_coefficient_inverse(self):
        x = RatFunc([(1, 1)])
        one = RatFunc.const(1)
        zero = RatFunc.const(0)
        a = QSeries(2, [one, -x, zero])
        assert a.inverse() == QSeries(2, [one, x, x * x])

    def test_non_unit_constant_term(self):
        with pytest.raises(NonUnitError):
            self.q(2, 0, 1, 0).inverse()

    def test_product_inverse_round_trip_random(self):
        rng = random.Random(3)
        one = QSeries.const(4, 1)
        for _ in range(25):
            coeffs = [Fraction(rng.randint(1, 5))] + \
                     [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)]
            a = QSeries(4, [RatFunc.const(c) for c in coeffs])
            assert a * a.inverse() == one

