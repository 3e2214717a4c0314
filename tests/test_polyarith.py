"""Exact arithmetic substrate: polynomials, rational functions, q-series."""

import random
from fractions import Fraction

import pytest

from jkcalc.polyarith import MultiPoly, NonUnitError, QSeries, RatFunc, poly_gcd


def P2(expr):
    """Tiny builder for 2-variable polys: expr maps (ex, ey) -> coeff."""
    return MultiPoly(2, {k: Fraction(v) for k, v in expr.items() if v})


X = MultiPoly.variable(2, 0)
Y = MultiPoly.variable(2, 1)
ONE2 = MultiPoly.const(2, 1)


class TestRatFuncArith:
    def test_inverse_pair(self):
        a = RatFunc(X, Y)
        b = RatFunc(Y, X)
        assert a * b == RatFunc.const(2, 1)

    def test_factorization_equality(self):
        lhs = RatFunc(X * X - 1, X - 1)
        rhs = RatFunc(X + 1)
        assert lhs == rhs

    def test_symmetric_halves(self):
        two = MultiPoly.const(2, 2)
        s = RatFunc(X + Y, two) + RatFunc(X - Y, two)
        assert s == RatFunc(X)

    def test_division_by_zero_function(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(X) / RatFunc.const(2, 0)

    def test_equality_is_equivalence_and_arithmetic_consistent(self):
        rng = random.Random(7)

        def rand_poly():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                k = (rng.randint(0, 2), rng.randint(0, 2))
                terms[k] = terms.get(k, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            return MultiPoly(2, {k: v for k, v in terms.items() if v})

        for _ in range(40):
            num, den = rand_poly(), rand_poly()
            if den.is_zero():
                continue
            a = RatFunc(num, den)
            scale = rand_poly()
            if scale.is_zero():
                continue
            b = RatFunc(num.mul(scale), den.mul(scale))  # same function, other rep
            assert a == a
            assert a == b and b == a
            c = rand_poly()
            cc = RatFunc(c if not c.is_zero() else ONE2)
            assert a + cc == b + cc
            assert a * cc == b * cc

    def test_field_axioms_sample(self):
        a = RatFunc(X + 1, Y)
        b = RatFunc(Y - 1, X)
        c = RatFunc(X * Y + 1)
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


class TestPolyGcd:
    def test_univariate(self):
        g = poly_gcd((X + 1) * (X - 1), (X + 1) * (X + 2))
        assert g == X + 1

    def test_multivariate(self):
        common = X + Y
        g = poly_gcd(common * (X - 1), common * (Y + 2))
        assert g == common


class TestQSeries:
    def q(self, order, *coeffs):
        cs = [RatFunc.const(1, c) if not isinstance(c, RatFunc) else c for c in coeffs]
        return QSeries(order, cs)

    def test_geometric_inverse(self):
        a = self.q(3, 1, -1, 0, 0)
        assert a.inverse() == self.q(3, 1, 1, 1, 1)

    def test_identity_inverse(self):
        assert self.q(2, 1, 0, 0).inverse() == self.q(2, 1, 0, 0)

    def test_function_coefficient_inverse(self):
        x = RatFunc(MultiPoly.variable(1, 0))
        one = RatFunc.const(1, 1)
        zero = RatFunc.const(1, 0)
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
            a = QSeries(4, [RatFunc.const(1, c) for c in coeffs])
            assert a * a.inverse() == one

