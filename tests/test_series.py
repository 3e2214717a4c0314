"""Packed series arithmetic of the residue core against the dict reference
in `series_reference.py`.

Series are lists of polynomials in (S, w, q); w is the packed variable, as
in the multiplicative residue steps, and the groups are keyed by the S and q
exponents.  The layout of each product is built as `engine._expand` builds
it, from `_norm_bound`.
"""

import random
from fractions import Fraction

import pytest

import series_reference as ref
from jkcalc import engine
from jkcalc.engine import NonGenericResidueError
from jkcalc.kronecker import Kronecker
from jkcalc.polyarith import MultiPoly

NV, PV = 3, 1
ONE = [MultiPoly.const(NV, 1)]


def random_poly(rng, *, big=False, drift=0, offset=3, q_max=0, stride=2, terms=6):
    """Terms S^s w^(offset + drift*s + stride*j) q^t; drift couples the w
    range of a group to its S exponent, as on rank-2 flags."""
    out = {}
    for _ in range(rng.randint(1, terms)):
        s = rng.randint(0, 4)
        key = (s, offset + drift * s + stride * rng.randint(0, 5), rng.randint(0, q_max))
        c = rng.randint(-2**70, 2**70) if big else rng.randint(-9, 9)
        if c:
            out[key] = c
    return MultiPoly(NV, out)


CASES = {
    "small": {},
    "above-2^64": {"big": True},
    "s-drift": {"drift": 5, "offset": 7},
    "odd-stride": {"stride": 3, "offset": 1},
    "q-groups": {"q_max": 2},
}


def random_series(rng, length, shape, empty=0.25):
    return [MultiPoly.zero(NV) if t and rng.random() < empty else random_poly(rng, **shape)
            for t in range(length)]


def layout(series, factors, target):
    bound = max(engine._norm_bound(series, factors, target))
    polys = series + [p for unit, _, _ in factors for p in unit]
    return Kronecker(NV, PV, bound, polys)


def packed(kr, series, target):
    return [kr.pack(p) for p in series[:target + 1]] + [{}] * (target + 1 - len(series))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", CASES)
def test_series_mul_matches_reference(name, seed):
    rng = random.Random(f"{name}-{seed}")
    shape = CASES[name]
    for target in range(4):
        a = random_series(rng, rng.randint(1, target + 2), shape)
        b = random_series(rng, rng.randint(1, target + 2), shape)
        kr = layout(a, [(b, 1, False)], target)
        got = engine._series_mul(packed(kr, a, target), packed(kr, b, target), target, kr)
        want = ref.series_mul(ref_pad(a, target), ref_pad(b, target), target, NV)
        assert [kr.unpack(c) for c in got] == want


def ref_pad(series, target):
    return series[:target + 1] + [MultiPoly.zero(NV)] * (target + 1 - len(series))


def test_cancelling_products_leave_no_terms():
    rng = random.Random(5)
    p, q = random_poly(rng, drift=2), random_poly(rng, big=True)
    a, b = [p, p], [q, -q]    # the v^1 coefficient is p q - p q
    kr = layout(a, [(b, 1, False)], 1)
    got = engine._series_mul(packed(kr, a, 1), packed(kr, b, 1), 1, kr)
    assert got[1] == {}
    assert kr.unpack(got[0]) == p.mul(q)
    # (w^3 - 1)(w^3 + 1): the middle slots cancel inside one group
    w3 = MultiPoly.monomial(NV, (0, 3, 0))
    c = [w3 - 1]
    kr = layout(c, [([w3 + 1], 1, False)], 0)
    [got] = engine._series_mul(packed(kr, c, 0), packed(kr, [w3 + 1], 0), 0, kr)
    assert kr.unpack(got) == w3.mul(w3) - 1


def test_positive_products_need_the_sign_bit():
    # the product 5 * 7 w^2 is its own L1 bound; read without the sign bit it
    # would come back negative
    a, b = [MultiPoly(NV, {(0, 1, 0): 5})], [MultiPoly(NV, {(0, 1, 0): 7})]
    kr = layout(a, [(b, 1, False)], 0)
    [got] = engine._series_mul(packed(kr, a, 0), packed(kr, b, 0), 0, kr)
    assert kr.unpack(got) == MultiPoly(NV, {(0, 2, 0): 35})


@pytest.mark.parametrize("n", (1, 2, 3, 5))
@pytest.mark.parametrize("name", CASES)
def test_series_pow_matches_reference(name, n):
    rng = random.Random(f"pow-{name}-{n}")
    shape = CASES[name]
    for target in range(4):
        a = ref_pad(random_series(rng, target + 1, shape), target)
        kr = layout(ONE, [(a, n, False)], target)
        got = engine._series_pow(packed(kr, a, target), n, target, kr)
        want = ref.series_pow(a, n, target, NV)
        assert [kr.unpack(c) for c in got] == want


def unit_series(rng, target, shape):
    """A series whose constant term is nonzero."""
    series = ref_pad(random_series(rng, target + 1, shape), target)
    series[0] = series[0] + MultiPoly(NV, {(rng.randint(0, 3), 4, 0): rng.choice((-3, 2))})
    return series


def carried(e, target):
    """The residue step's rule: which powers `_expand` reads through
    `_unit_power`, the caller carrying u_0^(e-target)."""
    return e < 0 or e >= target


@pytest.mark.parametrize("p", (1, 2, 4))
@pytest.mark.parametrize("name", CASES)
def test_inverse_power_matches_reference(name, p):
    rng = random.Random(f"inv-{name}-{p}")
    shape = CASES[name]
    for target in range(5):
        unit = unit_series(rng, target, shape)
        kr = layout(ONE, [(unit, -p, True)], target)
        got = engine._unit_power(packed(kr, unit, target), -p, target, kr)
        assert [kr.unpack(c) for c in got] == ref.unit_power(unit, -p, target, NV)


def test_inverse_power_rejects_a_non_unit():
    unit = [MultiPoly.zero(NV), MultiPoly.const(NV, 1)]
    for e in (-1, 2):
        kr = layout(ONE, [(unit, e, True)], 1)
        with pytest.raises(NonGenericResidueError):
            engine._unit_power(packed(kr, unit, 1), e, 1, kr)


def monomial_unit(rng, target):
    """A unit of single-term coefficients: its `_norm_bound` is attained."""
    return [MultiPoly(NV, {(rng.randint(0, 2), rng.randint(0, 4), rng.randint(0, 1)):
                           rng.choice((-1, 1)) * rng.randint(1, 2**40)})
            for _ in range(target + 1)]


UNIT_SHAPES = {
    "affine": lambda rng, target: monomial_unit(rng, 1)[:target + 1],
    "dense": lambda rng, target: unit_series(rng, target, {"big": rng.random() < 0.5, "terms": 3}),
    "dense-monomial": monomial_unit,
}


@pytest.mark.parametrize("target", range(6))
@pytest.mark.parametrize("shape", UNIT_SHAPES)
def test_unit_power_matches_reference(shape, target):
    rng = random.Random(f"unit-{shape}-{target}")
    for e in (*range(-4, 0), *range(1, target + 4)):
        unit = UNIT_SHAPES[shape](rng, target)
        kr = layout(ONE, [(unit, e, True)], target)
        V = [kr.unpack(c) for c in engine._unit_power(packed(kr, unit, target), e, target, kr)]
        assert V == ref.unit_power(unit, e, target, NV), (e, unit)
        # V u_0^(e-target) = U^e mod v^(target+1), with every power nonnegative:
        # V U^a u_0^max(e-target, 0) = U^(e+a) u_0^max(target-e, 0), a = max(-e, 0)
        U, u0 = ref_pad(unit, target), ref_pad(unit[:1], target)
        a = max(-e, 0)
        lhs = ref.series_mul(V, ref.series_pow(U, a, target, NV), target, NV)
        lhs = ref.series_mul(lhs, ref.series_pow(u0, max(e - target, 0), target, NV), target, NV)
        rhs = ref.series_mul(ref.series_pow(U, e + a, target, NV),
                             ref.series_pow(u0, max(target - e, 0), target, NV), target, NV)
        assert lhs == rhs, (e, unit)
        # `_expand` reads the power in full below the target, else as V
        want = V if carried(e, target) else ref.series_pow(U, e, target, NV)
        assert engine._expand(ONE, [(unit, e, carried(e, target))], target, PV) == want


@pytest.mark.parametrize("shape", UNIT_SHAPES)
def test_unit_power_multiplies_nothing_by_one(shape, monkeypatch):
    # W_0 = 1 enters each W_t sum as its j = t term and V_0 as u_0^target
    mul_into = Kronecker.mul_into
    products = []

    def checked(self, dst, a, b):
        assert self.one() not in (a, b)
        products.append(1)
        return mul_into(self, dst, a, b)

    monkeypatch.setattr(Kronecker, "mul_into", checked)
    rng = random.Random(f"one-{shape}")
    for target in range(6):
        for e in (-2, -1, 1, target + 1):
            unit = UNIT_SHAPES[shape](rng, target)
            kr = layout(ONE, [(unit, e, True)], target)
            engine._unit_power(packed(kr, unit, target), e, target, kr)
    assert products


@pytest.mark.parametrize("name", CASES)
def test_expand_matches_the_reference_chain(name):
    rng = random.Random(f"expand-{name}")
    shape = CASES[name]
    for target in range(4):
        series = random_series(rng, target + 1, shape)
        factors = [(unit_series(rng, target, shape), e) for e in (2, -1, -2)]
        factors = [(unit, e, carried(e, target)) for unit, e in factors]
        want = ref_pad(series, target)
        for unit, e, carry in factors:
            fser = ref.unit_power(unit, e, target, NV) if carry else \
                ref.series_pow(unit, e, target, NV)
            want = ref.series_mul(want, fser, target, NV)
        assert engine._expand(series, factors, target, PV) == want
        assert engine._expand(series, factors, target, PV, target) == want[target:]


def test_norm_bound_covers_every_rescaled_coefficient():
    # (-1 + 1000 v) * 1000^2 / (1000 + v) to order v: the v coefficient
    # 1000^2 + 1 is read back only if the bound scales V_0 by p0 before the
    # product with the series
    c = [MultiPoly.const(NV, x) for x in (-1, 1000, 1000, 1)]
    [got] = engine._expand(c[:2], [(c[2:], -1, True)], 1, PV, 1)
    assert got == MultiPoly.const(NV, 1000 ** 2 + 1)


def test_groups_whose_slots_do_not_line_up_stay_apart():
    # stride 2 from 1 + w^2; S w^0 and S w^1 land in one S group with slots
    # of opposite parity, which no shift by whole slots can align
    a = [MultiPoly(NV, {(0, 0, 0): 1, (1, 1, 0): 1})]
    b = [MultiPoly(NV, {(0, 0, 0): 1, (0, 2, 0): 1, (1, 0, 0): 1})]
    kr = layout(a, [(b, 1, False)], 0)
    assert kr.stride == 2
    [got] = engine._series_mul(packed(kr, a, 0), packed(kr, b, 0), 0, kr)
    assert kr.unpack(got) == a[0].mul(b[0])


# ---------------------------------------------------------------------------
# Taylor coefficients of a residue step, against the full shift


def test_subst_shift_matches_naive_expansion():
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
            rest = MultiPoly(3, {(e0, 0, e2): c})
            naive = naive + rest * (MultiPoly.monomial(3, (0, 1, 0)) + MultiPoly.const(3, a)) ** e1
        assert ref.subst_shift(p, 1, a) == naive
    assert ref.subst_shift(p, 1, 0) == p


def test_integral_coefficients_stay_int():
    p = MultiPoly.monomial(1, (1,)) ** 2 - 1
    shifted = ref.subst_shift(p, 0, 1)
    assert shifted == MultiPoly(1, {(2,): 1, (1,): 2})
    window = p.shift_coefficients(0, 0, 3)
    assert window == [MultiPoly.zero(1), MultiPoly.const(1, 2), MultiPoly.const(1, 1)]
    for poly in (p, shifted, *window):
        assert all(type(c) is int for c in poly.terms.values())


def shift_cases():
    """Seeded trivariate polynomials, with integer coefficients (some above
    2^64) or small ones, some of them fractions, with every variable as the shifted one and every window [lo, hi) from
    empty (hi = lo - 1, hi = lo) to past the degree, with its expected
    coefficients: a slice of the reference's full shift (a = 1) or split
    (a = 0)."""
    rng = random.Random(23)
    for n in range(30):
        def coefficient():
            if n % 3 == 0:
                return rng.randint(-2**70, 2**70)
            return rng.choice((rng.randint(-9, 9) or 1, Fraction(rng.randint(1, 9), 4)))

        poly = MultiPoly(3, {(rng.randint(0, 6), rng.randint(0, 4), rng.randint(0, 2)):
                             coefficient() for _ in range(rng.randint(1, 12))})
        for var in range(3):
            deg = poly.degree_in(var)
            for a in (0, 1):
                full = ref.coefficients_in(ref.subst_shift(poly, var, a), var, deg + 4)
                for lo in range(deg + 3):
                    for hi in range(lo - 1, deg + 4):
                        yield poly, var, lo, hi, a, full[lo:max(lo, hi)]


def test_shift_coefficients_match_the_full_shift():
    cases = caught = 0
    for poly, var, lo, hi, a, want in shift_cases():
        assert poly.shift_coefficients(var, lo, hi, a) == want, (poly, var, lo, hi, a)
        cases += 1
        # mutation check: the same window read one coefficient too high
        caught += hi > lo and poly.shift_coefficients(var, lo + 1, hi + 1, a) != want
    assert cases > 3000 and caught > cases // 2


def test_shift_coefficients_shift_by_zero_or_one_only():
    with pytest.raises(ValueError):
        MultiPoly.monomial(1, (1,)).shift_coefficients(0, 0, 2, -1)


def laurent_cases():
    """Seeded trivariate Laurent polynomials, exponents in [-4, 6] in every
    variable, with every variable as the shifted one and windows [lo, hi)
    up to past the degree."""
    rng = random.Random(29)
    for n in range(40):
        big = n % 4 == 0
        poly = MultiPoly(3, {tuple(rng.randint(-4, 6) for _ in range(3)):
                             rng.randint(-2**70, 2**70) if big else rng.randint(-9, 9) or 1
                             for _ in range(rng.randint(1, 10))})
        for var in range(3):
            deg = poly.degree_in(var)
            full = ref.laurent_shift(poly, var, max(deg, 0) + 5)
            for lo in range(len(full)):
                for hi in range(lo, len(full) + 1):
                    yield poly, var, lo, hi, full[lo:hi], deg


def test_shift_coefficients_of_laurent_polynomials_match_the_full_substitution():
    cases = past_degree = 0
    for poly, var, lo, hi, want, deg in laurent_cases():
        assert poly.shift_coefficients(var, lo, hi) == want, (poly, var, lo, hi)
        cases += 1
        # the windows read nonzero coefficients above the degree, which a
        # shift capped at the degree would drop
        past_degree += any(want[max(deg + 1 - lo, 0):])
    assert cases > 2000 and past_degree > cases // 4


def theta_cases():
    """Seeded (Y, E) sets at ranks 0-3: exponents of Y in (S, w) in
    [-3, 3], E in {-2, -1, 1, 2}, one to four factors."""
    rng = random.Random(31)
    for k in range(4):
        for _ in range(6 if k else 3):
            ys = [(tuple(rng.randint(-3, 3) for _ in range(k + 1)) + (0,),
                   rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(1, 4))]
            N = rng.randint(0, 4 if k < 2 else 2)
            yield ys, k, N, rng.randint(1, 4) if k else 1


def test_theta_numerator_matches_the_product_form():
    cases = 0
    for ys, k, N, terms in theta_cases():
        got = engine._theta_numerator(ys, k, N, terms)
        assert got == ref.theta_numerator(ys, k, N, terms), (ys, k, N, terms)
        cases += N > 1
    assert cases >= 8
