"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  All comparisons are exact; independent oracles live in
oracles.py and never touch the residue pipeline.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import oracles
from jkcalc import arrangement as arr
from jkcalc import builders, invariants
from jkcalc.engine import IntegrandFactor, jk_residue, localize
from jkcalc.invariants import GITProblem, ValidationError, compute, specialize

F = Fraction


@contextmanager
def criterion(number, description):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"\nACCEPTANCE {number}: PASS - {description} "
          f"[{time.monotonic() - t0:.1f}s]")


def test_criterion_1_cy3_in_g24():
    with criterion(1, "CY3 in G(2,4): DT = 176 from one flag worth 352, < 10 s"):
        t0 = time.monotonic()
        prob = builders.grassmannian_det(2, 4, 4, degree=1)
        res = compute(prob, kind="additive")
        elapsed = time.monotonic() - t0
        assert res.dt == 176
        points = res.diagnostics.points
        assert len(points) == 1
        assert points[0].point == (0, 0)
        assert len(points[0].flags) == 1
        assert points[0].contributions["additive"] == 352
        assert elapsed < 10.0


def test_criterion_2_complete_intersections():
    with criterion(2, "complete intersections in P^n vs Chern oracle, < 60 s"):
        t0 = time.monotonic()
        checked = 0
        for n in range(1, 7):
            degree_lists = [()]
            for m in (1, 2):
                if m < n:
                    degree_lists += list(
                        itertools.combinations_with_replacement(range(1, 7), m))
            for degs in degree_lists:
                prob = builders.projective_bundle(n, degs)
                dt = compute(prob, kind="additive").dt
                expected = (-1) ** (n - len(degs)) * oracles.chern_euler(n, degs)
                assert dt == expected, (n, degs, dt, expected)
                checked += 1
        # the two named values
        assert compute(builders.projective_bundle(4, (5,)), kind="additive").dt == 200
        assert compute(builders.projective_bundle(2, (3,)), kind="additive").dt == 0
        elapsed = time.monotonic() - t0
        assert checked >= 100
        assert elapsed < 60.0
        print(f"  ({checked} cases in {elapsed:.1f}s)", end="")


def _quiver_dt(n, r, charges):
    prob = builders.framed_a3_problem(n, r, charges)
    try:
        return compute(prob, kind="additive").dt, False
    except ValidationError as exc:
        if "root" not in str(exc):
            raise
        # the root-invertibility hypothesis fails on part of this matrix while
        # the acceptance values are still required; see the decisions ledger
        return compute(prob, kind="additive", allow_root_incidence=True).dt, True


def test_criterion_3_framed_a3_quiver():
    with criterion(3, "framed A^3 quiver DT series vs MacMahon oracle, n <= 3"):
        overridden = []
        for r in (1, 2):
            for charges in ((1, 1, 1), (1, 1, 2)):
                exponent = oracles.quiver_a3_exponent(r, charges)
                series = oracles.macmahon_power(r, exponent, 3)
                assert all(c.denominator == 1 for c in series)
                for n in (1, 2, 3):
                    t0 = time.monotonic()
                    dt, forced = _quiver_dt(n, r, charges)
                    elapsed = time.monotonic() - t0
                    assert dt == series[n], (n, r, charges, dt, series[n])
                    if n == 3:
                        assert elapsed < 1800.0
                    if forced:
                        overridden.append((n, r, charges))
        if overridden:
            print(f"  (root-incidence override on {overridden})", end="")


SPECIALIZATION_PROBLEMS = [
    ("p1", lambda: builders.projective_space(1, (1, 0)), 3),
    ("p2-d2", lambda: builders.projective_space(2, (1, 0, 0), degree=2), 2),
    ("quintic", lambda: builders.projective_bundle(4, (5,)), 3),
    ("cubic-curve", lambda: builders.projective_bundle(2, (3,)), 3),
    ("cy3-g24", lambda: builders.grassmannian_det(2, 4, 4, degree=1), 2),
    ("a3-n1-r1", lambda: builders.framed_a3_problem(1, 1), 2),
    ("a3-n2-r1", lambda: builders.framed_a3_problem(2, 1), 1),
    ("p21-fractional", lambda: invariants.make_problem(
        rank=1, weights=[((2,), 1, 1), ((1,), 0, 1)], roots=[], xi=(1,),
        degree=1, label="p21"), 2),
]


def test_criterion_4_specialization_identities():
    with criterion(4, "Ell(q=0) = chi_y and chi_y(w->1) = DT on every test problem"):
        for label, make, order in SPECIALIZATION_PROBLEMS:
            res = compute(make(), kind="all", q_order=order)
            report = specialize(res)
            assert report["ell_q0_equals_chi_y"], label
            assert report["chi_y_limit_equals_dt"], label
            # theta truncation identity: order-zero series reproduces the sine kind
            res0 = compute(make(), kind="all", q_order=0)
            assert res0.ell.coeffs[0] == res0.chi_y, label


ZERO_POTENTIAL_CASES = [
    # (label, dim, betti, degree, two problem builders)
    ("p1", 1, [1, 1], 1,
     [lambda: builders.projective_space(1, (1, 0)),
      lambda: builders.projective_space(1, (3, 1))]),
    ("p2", 2, [1, 1, 1], 2,
     [lambda: builders.projective_space(2, (1, 0, 0), degree=2),
      lambda: builders.projective_space(2, (2, 1, 0), degree=2)]),
    ("g24", 4, [1, 1, 2, 1, 1], 5,
     [lambda: builders.grassmannian(2, 4, (1, 0, 0, 0), degree=5),
      lambda: builders.grassmannian(2, 4, (3, 1, 0, 0), degree=5)]),
]


def test_criterion_5_zero_potential_rigidity():
    with criterion(5, "zero-potential P^1/P^2/G(2,4): fixed-point oracle, "
                      "R-charge independence"):
        for label, dim, betti, degree, makers in ZERO_POTENTIAL_CASES:
            euler = sum(betti)
            expected_chi = oracles.chi_y_virtual_laurent(betti, dim, degree)
            results = []
            for make in makers:
                res = compute(make(), kind="all", q_order=0)
                assert res.dt == (-1) ** dim * euler, label
                got = oracles.chi_y_laurent_as_y_exponents(
                    res.chi_y.laurent(), res.denom_scale)
                assert got == expected_chi, (label, got, expected_chi)
                results.append(res)
            first, second = results
            assert first.dt == second.dt, label
            assert first.chi_y == second.chi_y, label


def _random_rescaling_trial(rng):
    k = rng.choice((1, 2))
    if k == 1:
        weights, basis, xi_t = [(1,)], [(1,)], (F(1),)
    else:
        weights = [(1, 0), (0, 1), (1, 1)]
        basis = [(1, 0), (0, 1)]
        xi_t = (F(13, 7), F(17, 11))
    factors = []
    for w in weights:
        factors.append(IntegrandFactor(rho=tuple(F(x) for x in w), const=F(0),
                                       exponent=-rng.randint(1, 2),
                                       origin="weight-den"))
    for _ in range(rng.randint(1, 3)):
        rho = tuple(F(rng.randint(-2, 2)) for _ in range(k))
        factors.append(IntegrandFactor(rho=rho, const=F(rng.randint(1, 4)),
                                       exponent=rng.choice((1, 1, -1)),
                                       origin="weight-num"))
    lam = F(rng.choice([1, 2, 3, -1, -2, 5]), rng.choice([1, 2, 3]))

    def integrand(scale):
        from jkcalc.engine import FactorizedIntegrand
        scaled = [IntegrandFactor(rho=tuple(scale * x for x in f.rho),
                                  const=f.const, exponent=f.exponent,
                                  origin=f.origin) for f in factors]
        return FactorizedIntegrand(kind="additive", rank=k, degree=F(1), s=F(1),
                                   factors=scaled, n_roots=0, dim_v=0)

    flags = arr.enumerate_flags(weights, xi_t, basis, tuple((j, 1) for j in range(k)))
    base, scaled = (jk_residue(ig, [(flag, localize(ig, (0,) * k, flag)) for flag in flags])
                    for ig in (integrand(1), integrand(lam)))
    assert scaled == lam ** (-k) * base, (k, lam)


def test_criterion_6_property_suites():
    with criterion(6, "rescaling covariance, seed/s independence, permutation "
                      "invariance, P^1 bijection count"):
        # (a) rescaling covariance on 50 random additive integrands
        rng = random.Random(123)
        for _ in range(50):
            _random_rescaling_trial(rng)
        # (b) perturbation-seed independence on every example
        for label, make, order in SPECIALIZATION_PROBLEMS:
            a = compute(make(), kind="all", q_order=min(order, 1), seed=1)
            b = compute(make(), kind="all", q_order=min(order, 1), seed=20250810)
            assert a.dt == b.dt, label
            assert a.chi_y == b.chi_y, label
            assert a.ell == b.ell, label
        # (c) s-independence of the rational engine
        for label, make, _ in SPECIALIZATION_PROBLEMS:
            assert compute(make(), kind="additive", s=1).dt == \
                compute(make(), kind="additive", s=2).dt, label
        # (d) weight/root permutation invariance
        shuffler = random.Random(7)
        for make in (lambda: builders.grassmannian_det(2, 4, 4, degree=1),
                     lambda: builders.framed_a3_problem(1, 1)):
            base = make()
            ref = compute(base, kind="all", q_order=1)
            entries = list(base.weight_entries)
            roots = list(base.roots)
            shuffler.shuffle(entries)
            shuffler.shuffle(roots)
            shuffled = GITProblem(rank=base.rank, weight_entries=entries,
                                  roots=roots, xi=base.xi,
                                  weyl_order=base.weyl_order, degree=base.degree,
                                  properness_hint=base.properness_hint)
            res = compute(shuffled, kind="all", q_order=1)
            assert res.dt == ref.dt
            assert res.chi_y == ref.chi_y
            assert res.ell == ref.ell
        # (e) the P^1 arrangement has exactly the two stable intersections
        forms = [arr.AffineForm((1,), 1), arr.AffineForm((1,), 0)]
        stable = arr.intersections(forms, 1, (1,))[1]
        assert sorted(p.point for p in stable) == [(-1,), (0,)]


def test_criterion_7_fractional_intersection_equivalence():
    with criterion(7, "fractional stable point: direct run equals the "
                      "charge-rescaled run"):
        prob = invariants.make_problem(
            rank=1, weights=[((2,), 1, 1), ((1,), 0, 1)], roots=[], xi=(1,),
            degree=1, label="p21")
        report = invariants.validate(prob)
        assert any(any(x.denominator > 1 for x in p.point)
                   for p in report.stable_points)
        result = invariants.fractional_reduction_check(prob, q_order=2)
        assert result["ok"]
        assert result["scale"] == 2
        assert result["dt_equal"] and result["chi_y_equal"] and result["ell_equal"]
