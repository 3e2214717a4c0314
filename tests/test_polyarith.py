"""Exact arithmetic substrate: polynomials, rational functions, q-series."""

import random
from fractions import Fraction

import pytest

from jkcalc.polyarith import MultiPoly, NonUnitError, QSeries, RatFunc, poly_gcd


W = MultiPoly.variable(1, 0)
ONE = MultiPoly.const(1, 1)


def rand_poly(rng, degree, bound):
    return MultiPoly(1, {(e,): c for e in range(degree + 1)
                         if (c := rng.randint(-bound, bound))})


class TestRatFuncArith:
    def test_inverse_pair(self):
        a = RatFunc(W + 1, W - 2)
        b = RatFunc(W - 2, W + 1)
        assert a * b == RatFunc.const(1)
        assert a.inverse() == b

    def test_factorization_equality(self):
        lhs = RatFunc(W * W - 1, W - 1)
        rhs = RatFunc(W + 1)
        assert lhs == rhs
        assert lhs.num == W + 1 and lhs.den == ONE

    def test_symmetric_halves(self):
        two = MultiPoly.const(1, 2)
        s = RatFunc(W * W + W, two) + RatFunc(W * W - W, two)
        assert s == RatFunc(W * W)

    def test_division_by_zero_function(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(W) / RatFunc.const(0)

    def test_rejects_other_variable_counts(self):
        with pytest.raises(ValueError):
            RatFunc(MultiPoly.variable(2, 0))
        with pytest.raises(ValueError):
            RatFunc(W, MultiPoly.const(2, 1))
        with pytest.raises(ValueError):
            RatFunc(W) + MultiPoly.variable(2, 1)

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
            a = RatFunc(num, den)
            scale = rand_frac_poly()
            if scale.is_zero():
                continue
            b = RatFunc(num.mul(scale), den.mul(scale))  # same function, other rep
            assert a == a
            assert a == b and b == a
            assert (a.num, a.den) == (b.num, b.den)
            c = rand_frac_poly()
            cc = RatFunc(c if not c.is_zero() else ONE)
            assert a + cc == b + cc
            assert a * cc == b * cc

    def test_field_axioms_sample(self):
        a = RatFunc(W + 1, W * W - 3)
        b = RatFunc(W - 1, W)
        c = RatFunc(W * W * W + 1)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a
        assert (a / b) * b == a


class TestMultiPoly:
    def test_integral_coefficients_stay_int(self):
        p = MultiPoly.variable(1, 0) ** 2 - 1
        shifted = p.subst_shift(0, 1)
        assert p == MultiPoly(1, {(2,): 1, (0,): -1})
        assert shifted == MultiPoly(1, {(2,): 1, (1,): 2})
        for poly in (p, shifted):
            assert all(type(c) is int for c in poly.terms.values())

    def test_subst_shift_matches_naive_expansion(self):
        # x_1 -> x_1 + a in a random trivariate polynomial, against the sum of
        # its terms with the power of x_1 multiplied out as (x_1 + a)^e
        rng = random.Random(5)
        terms = {(rng.randint(0, 3), rng.randint(0, 6), rng.randint(0, 2)):
                 rng.choice((rng.randint(1, 9), Fraction(-rng.randint(1, 9), 4)))
                 for _ in range(25)}
        p = MultiPoly(3, terms)
        for a in (1, -1, Fraction(-2, 3)):
            naive = MultiPoly.zero(3)
            for (e0, e1, e2), c in p.terms.items():
                rest = MultiPoly.monomial(3, (e0, 0, e2), c)
                naive = naive + rest * (MultiPoly.variable(3, 1) + a) ** e1
            assert p.subst_shift(1, a) == naive
        assert p.subst_shift(1, 0) == p


class TestPolyGcd:
    def test_univariate(self):
        g = poly_gcd((W + 1) * (W - 1), (W + 1) * (W + 2))
        assert g == W + 1
        # the first evaluation point suggests a spurious common factor W - 2
        assert poly_gcd(W - 2, W + 2) == ONE
        assert poly_gcd((W * W + 1) * (W - 2), (W * W + 1) * (W + 2)) == W * W + 1

    def test_high_degree_common_factor_and_fraction_content(self):
        rng = random.Random(11)
        common = rand_poly(rng, 75, 9)
        common = common.content_normalize()[1]
        f = rand_poly(rng, 80, 9)
        a = common * f * Fraction(3, 7)
        b = common * (f + 1) * W ** 3  # f and f + 1 are coprime
        assert a.degree_in(0) >= 150 and b.degree_in(0) >= 150
        assert poly_gcd(a, b) == common
        assert poly_gcd(a * W ** 2, b) == common * W ** 2
        reduced = RatFunc(a, b)
        assert reduced == RatFunc(f * Fraction(3, 7), (f + 1) * W ** 3)
        assert reduced.den.degree_in(0) == 83


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
        x = RatFunc(MultiPoly.variable(1, 0))
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

