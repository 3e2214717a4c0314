"""Packed series arithmetic of the residue core against the dict reference
in `series_reference.py`.

Series are lists of polynomials in (S, w, q); w is the packed variable, as
in the multiplicative residue steps, and the groups are keyed by the S and q
exponents.  `engine._row_series` is checked on the three unit shapes of the
residue steps: an affine row, a binomial with Laurent u' = 1 - S^(-2u), and
the integer series of a simple zero.
"""

import random
from fractions import Fraction
from math import comb

import pytest

import series_reference as ref
from jkcalc import engine
from jkcalc.kronecker import Kronecker
from jkcalc.polyarith import MultiPoly

NV, PV = 3, 1


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


def norm(poly):
    return sum(map(abs, poly.terms.values()))


def layout(bound, *polys):
    return Kronecker(NV, PV, bound, [p.terms.items() for p in polys])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", CASES)
def test_mul_into_matches_reference(name, seed):
    rng = random.Random(f"{name}-{seed}")
    for _ in range(4):
        a, b, c = (random_poly(rng, **CASES[name]) for _ in range(3))
        kr = layout(norm(a) * norm(b) + norm(c), a, b, c)
        got = kr.mul_into(kr.pack(c), kr.pack(a), kr.pack(b))
        assert kr.unpack(got) == c + a.mul(b)


def test_cancelling_products_leave_no_terms():
    rng = random.Random(5)
    p, q = random_poly(rng, drift=2), random_poly(rng, big=True)
    kr = layout(norm(p) * norm(q), p, q)
    P, Q = kr.pack(p), kr.pack(q)
    assert kr.unpack(kr.mul_into({}, P, Q)) == p.mul(q)
    # p q - p q
    assert kr.mul_into(kr.mul_into({}, P, Q), P, kr.pack(-q)) == {}
    # (w^3 - 1)(w^3 + 1): the middle slots cancel inside one group
    w3 = MultiPoly.monomial(NV, (0, 3, 0))
    kr = layout(4, w3 - 1, w3 + 1)
    got = kr.mul_into({}, kr.pack(w3 - 1), kr.pack(w3 + 1))
    assert kr.unpack(got) == w3.mul(w3) - 1


def test_positive_products_need_the_sign_bit():
    # the product 5 * 7 w^2 is its own L1 bound; read without the sign bit it
    # would come back negative
    a, b = MultiPoly(NV, {(0, 1, 0): 5}), MultiPoly(NV, {(0, 1, 0): 7})
    kr = layout(35, a, b)
    got = kr.mul_into({}, kr.pack(a), kr.pack(b))
    assert kr.unpack(got) == MultiPoly(NV, {(0, 2, 0): 35})


def test_groups_whose_slots_do_not_line_up_stay_apart():
    # stride 2 from 1 + w^2; S w^0 and S w^1 land in one S group with slots
    # of opposite parity, which no shift by whole slots can align
    a = MultiPoly(NV, {(0, 0, 0): 1, (1, 1, 0): 1})
    b = MultiPoly(NV, {(0, 0, 0): 1, (0, 2, 0): 1, (1, 0, 0): 1})
    kr = layout(norm(a) * norm(b), a, b)
    assert kr.stride == 2
    got = kr.mul_into({}, kr.pack(a), kr.pack(b))
    assert kr.unpack(got) == a.mul(b)


def test_add_into_merges_scaled_slots():
    # c + 3 a slot by slot, a group of a whose low lies below c's included;
    # c - c leaves no group
    rng = random.Random(9)
    for name in CASES:
        a, c = random_poly(rng, **CASES[name]), random_poly(rng, **CASES[name])
        kr = layout(3 * norm(a) + norm(c), a, c)
        assert kr.unpack(kr.add_into(kr.pack(c), kr.pack(a).items(), 3)) == c + a * 3
        assert kr.add_into(kr.pack(c), kr.pack(c).items(), -1) == {}


def affine_unit(rng, target):
    """U = u + l v for a row u of up to three terms, one coefficient above
    2^64 at times."""
    u = {(rng.randint(0, 2), rng.randint(0, 4), rng.randint(0, 1)):
         rng.choice((-1, 1)) * rng.randint(1, 2**70 if rng.random() < 0.3 else 9)
         for _ in range(rng.randint(1, 3))}
    return list(u.items()), {1: rng.choice((-3, -1, 1, 2))}


def binomial_unit(rng, target):
    """P_h / A = u' + w: u' = 1 - S^(-2u) with u a nonzero row of S and w
    exponents, w = (1+v)^(2 h_i) - 1."""
    u = (0, 0, 0)
    while not any(u):
        u = (rng.randint(-2, 2), rng.randint(-3, 3), 0)
    h = rng.randint(1, 3)
    return [((0, 0, 0), 1), (tuple(-2 * x for x in u), -1)], \
        {t: comb(2 * h, t) for t in range(1, 2 * h + 1)}


def simple_zero_unit(rng, target):
    """U = ((1+v)^(2h) - 1)/v, an integer series: u = 2h, w its tail."""
    h = rng.randint(1, 3)
    return 2 * h, {t: comb(2 * h, t + 1) for t in range(1, 2 * h)}


UNIT_SHAPES = {"affine": affine_unit, "binomial": binomial_unit, "simple-zero": simple_zero_unit}


def reference_unit(u, w, target):
    """U = u + w as a series of `MultiPoly` coefficients."""
    u = MultiPoly.const(NV, u) if isinstance(u, int) else MultiPoly(NV, dict(u))
    return [u] + [MultiPoly.const(NV, w.get(t, 0)) for t in range(1, target + 1)]


def reference_series(hot, units, target):
    """Coefficient target of hot * prod V, V = U^e in full when m = e, else
    the binomial sum of `ref.unit_power`."""
    want = hot[:target + 1] + [MultiPoly.zero(NV)] * (target + 1 - len(hot))
    for u, w, e, m in units:
        U = reference_unit(u, w, target)
        V = ref.series_pow(U, e, target, NV) if m == e else ref.unit_power(U, e, target, NV)
        want = ref.series_mul(want, V, target, NV)
    return want[target]


def row_series(hot, units, target, packed=False):
    """`engine._row_series` read back as a polynomial; with `packed`, hot
    enters as the theta numerator hands it over: a layout of its own whose
    stride the units keep, the norms, and a product phase that packs hot
    into the step's layout."""
    if packed:
        polys = hot
        us = [MultiPoly(NV, dict(u)) for u, _, _, _ in units if not isinstance(u, int)]
        hot = (layout(max(map(norm, polys)), *polys, *us), list(map(norm, polys)),
               lambda kr: [kr.pack(p) for p in polys])
    kr, got = engine._row_series(hot, units, target, PV)
    return kr.unpack(got)


def power_rule(e, target):
    """m of the residue steps: e for 0 < e < target, else target."""
    return e if 0 < e < target else target


@pytest.mark.parametrize("target", range(1, 5))
@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("shape", UNIT_SHAPES)
def test_row_series_matches_the_reference_chain(shape, name, target):
    rng = random.Random(f"rows-{shape}-{name}-{target}")
    for e in (-2, -1, 1, 2, target + 1):
        hot = random_series(rng, target + 1, CASES[name])
        units = [(*UNIT_SHAPES[shape](rng, target), e, power_rule(e, target))]
        # a second unit of another shape, so products of units are read
        other = rng.choice([s for s in UNIT_SHAPES if s != shape])
        f = rng.choice((-1, 2))
        units.append((*UNIT_SHAPES[other](rng, target), f, power_rule(f, target)))
        want = reference_series(hot, units, target)
        assert row_series(hot, units, target) == want, (e, units)
        assert row_series(hot, units, target, packed=True) == want, (e, units)


@pytest.mark.parametrize("u", [1000, [((0, 0, 0), 1000)]], ids=["integer", "packed"])
def test_row_series_bound_covers_every_rescaled_coefficient(u):
    # (-1 + 1000 v) * 1000^2 / (1000 + v) to order v: the v coefficient
    # 1000^2 + 1 is read back only if the bound scales V_0 = 1000 by |u|
    # before the product with hot
    hot = [MultiPoly.const(NV, -1), MultiPoly.const(NV, 1000)]
    for packed in (False, True):
        got = row_series(hot, [(u, {1: 1}, -1, 1)], 1, packed)
        assert got == MultiPoly.const(NV, 1000 ** 2 + 1)


@pytest.mark.parametrize("c", (1, 2, 5))
def test_a_lone_binomial_unit_sets_the_stride(c, monkeypatch):
    # 1 - w^(-2c) over the hot numerator 1: with the stride taken over hot
    # alone, each packed power of u' would span 2c slots for its two terms
    strides = []

    class Recorded(Kronecker):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            strides.append(self.stride)

    monkeypatch.setattr(engine, "Kronecker", Recorded)
    units = [([((0, 0, 0), 1), ((0, -2 * c, 0), -1)], {1: 2, 2: 1}, -1, 2)]
    hot = [MultiPoly.const(NV, 1)] * 3
    assert row_series(hot, units, 2) == reference_series(hot, units, 2)
    assert strides == [2 * c]


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
    window = p.shift_coefficients(0, 3)
    assert window == [MultiPoly.zero(1), MultiPoly.const(1, 2), MultiPoly.const(1, 1)]
    for poly in (p, shifted, *window):
        assert all(type(c) is int for c in poly.terms.values())


def shift_cases():
    """Seeded trivariate polynomials, with integer coefficients (some above
    2^64) or small ones, some of them fractions, with every variable as the
    shifted one and every window [0, hi) from empty (hi = -1, hi = 0) to
    past the degree, with its expected coefficients: a prefix of the
    reference's full shift (a = 1) or split (a = 0)."""
    rng = random.Random(23)
    for n in range(30):
        def coefficient():
            if n % 3 == 0:
                return rng.randint(-2**70, 2**70)
            return rng.choice((rng.randint(-9, 9) or 1, Fraction(rng.randint(1, 9), 4)))

        poly = MultiPoly(3, {(rng.randint(0, 6), rng.randint(0, 4), rng.randint(0, 2)):
                             coefficient() for _ in range(rng.randint(1, 12))})
        for var in range(3):
            deg = max(k[var] for k in poly.terms)
            for a in (0, 1):
                full = ref.coefficients_in(ref.subst_shift(poly, var, a), var, deg + 4)
                for hi in range(-1, deg + 4):
                    yield poly, var, hi, a, full[:max(0, hi)]


def test_shift_coefficients_match_the_full_shift():
    cases = caught = 0
    for poly, var, hi, a, want in shift_cases():
        assert poly.shift_coefficients(var, hi, a) == want, (poly, var, hi, a)
        cases += 1
        # mutation check: a window one coefficient longer, read from its
        # second coefficient, is the same window read one too high
        caught += hi > 0 and poly.shift_coefficients(var, hi + 1, a)[1:] != want
    assert cases > 1000 and caught > cases // 2


def test_shift_coefficients_shift_by_zero_or_one_only():
    with pytest.raises(ValueError):
        MultiPoly.monomial(1, (1,)).shift_coefficients(0, 2, -1)


def laurent_cases():
    """Seeded trivariate Laurent polynomials, exponents in [-4, 6] in every
    variable, with every variable as the shifted one and windows [0, hi)
    up to past the degree."""
    rng = random.Random(29)
    for n in range(40):
        big = n % 4 == 0
        poly = MultiPoly(3, {tuple(rng.randint(-4, 6) for _ in range(3)):
                             rng.randint(-2**70, 2**70) if big else rng.randint(-9, 9) or 1
                             for _ in range(rng.randint(1, 10))})
        for var in range(3):
            deg = max(k[var] for k in poly.terms)
            full = ref.laurent_shift(poly, var, max(deg, 0) + 5)
            for hi in range(len(full) + 1):
                yield poly, var, hi, full[:hi], deg


def test_shift_coefficients_of_laurent_polynomials_match_the_full_substitution():
    cases = past_degree = 0
    for poly, var, hi, want, deg in laurent_cases():
        assert poly.shift_coefficients(var, hi) == want, (poly, var, hi)
        cases += 1
        # the windows read nonzero coefficients above the degree, which a
        # shift capped at the degree would drop
        past_degree += any(want[max(deg + 1, 0):])
    assert cases > 1000 and past_degree > cases // 4


def theta_cases():
    """Seeded (Y, E) sets at ranks 0-3: exponents of Y in (S, w) in
    [-3, 3], E in {-2, -1, 1, 2}, one to four factors, and a Laurent
    monomial G_0 in (S, w) with exponents in [-4, 4]."""
    rng, monomials = random.Random(31), random.Random(37)
    for k in range(4):
        for _ in range(6 if k else 3):
            ys = [(tuple(rng.randint(-3, 3) for _ in range(k + 1)) + (0,),
                   rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(1, 4))]
            N = rng.randint(0, 4 if k < 2 else 2)
            mono = tuple(monomials.randint(-4, 4) for _ in range(k + 1)) + (0,)
            yield ys, k, N, rng.randint(1, 4) if k else 1, mono


def test_theta_numerator_matches_the_product_form():
    cases = 0
    for ys, k, N, terms, mono in theta_cases():
        g0 = MultiPoly.monomial(k + 2, mono)
        start = g0.shift_coefficients(0, terms) if k else [g0]
        kr, norms, product = engine._theta_numerator(ys, k, N, start)
        got = [kr.unpack(p) for p in product(kr)]
        assert got == ref.theta_numerator(ys, k, N, terms, mono), (ys, k, N, terms, mono)
        assert all(map(int.__le__, map(norm, got), norms)), (ys, k, N, terms, mono)
        # coefficient 0 has G_0 at S_0 = 1 as its q^0 part, so a residue
        # step reads the theta numerator from valuation hv = 0
        assert {key: c for key, c in got[0].terms.items() if not key[-1]} == start[0].terms
        # the product phase runs in any layout of the norm phase's stride:
        # a wider one, as a residue step's, gives the same values
        wide = Kronecker(k + 2, k, 2 ** 40 * max(norms), [], kr.stride)
        assert [wide.unpack(p) for p in product(wide)] == got
        cases += N > 1
    assert cases >= 8
