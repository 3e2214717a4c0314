"""Pipeline-level behavior: validation, integrand assembly, invariants,
specialization identities and the reduction of fractional intersections."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from jkcalc import arrangement, builders, invariants
from jkcalc.invariants import (GITProblem, ValidationError, WeightEntry,
                               build_integrand, compute, make_problem, specialize,
                               validate)
from jkcalc.polyarith import poly_gcd

F = Fraction


def cy3():
    return builders.grassmannian_det(2, 4, 4, degree=1)


class TestValidate:
    def test_cy3_hypotheses_hold(self):
        report = validate(cy3())
        assert report.ok()
        assert report.root_condition == "ok"
        assert report.properness == "checked"
        assert [p.point for p in report.stable_points] == [(0, 0)]
        assert len(report.all_points) == 3

    def test_root_incidence_is_a_hard_error(self):
        # place a stable intersection at (1, 1-d) so the root u2-u1 shifted by
        # d vanishes there
        d = 3
        prob = make_problem(
            rank=2,
            weights=[((-1, 0), 1, 4), ((0, -1), 1 - d, 4), ((4, 4), 1, 1)],
            roots=[(1, -1), (-1, 1)], xi=(-1, -1), weyl_order=2, degree=d)
        with pytest.raises(ValidationError, match="root"):
            validate(prob)
        report = validate(prob, strict_roots=False)
        assert report.root_condition.startswith("violated")

    def test_rank_zero_problem_is_valid(self):
        prob = GITProblem(rank=0, weight_entries=[], roots=[], xi=(), degree=1)
        report = validate(prob)
        assert len(report.stable_points) == 1
        assert report.stable_points[0].point == ()

    def test_irregular_stability_rejected(self):
        prob = make_problem(rank=1, weights=[((1,), 0, 2)], roots=[], xi=(-1,),
                            degree=1)
        with pytest.raises(ValidationError, match="regular"):
            validate(prob)

    def test_zero_weight_with_zero_charge_rejected(self):
        prob = make_problem(rank=1, weights=[((1,), 0, 1), ((0,), 0, 1)], roots=[],
                            xi=(1,), degree=1)
        with pytest.raises(ValidationError, match="zero weight"):
            validate(prob)

    def test_unpaired_roots_rejected(self):
        prob = make_problem(rank=2, weights=[((1, 0), 0, 1), ((0, 1), 0, 1)],
                            roots=[(1, -1)], xi=(1, 1), degree=1)
        with pytest.raises(ValidationError, match="negation"):
            validate(prob)

    def test_abelian_nonproper_point_is_refuted(self):
        # weights {1, -1} both active at the stable origin span a line, so the
        # fixed component there is the non-proper quotient of C^2 by (t, 1/t)
        prob = make_problem(rank=1, weights=[((1,), 0, 1), ((-1,), 0, 1)], roots=[],
                            xi=(1,), degree=1)
        report = validate(prob)
        assert report.properness == "refuted"
        with pytest.raises(ValidationError, match="properness"):
            compute(prob, kind="additive")


class TestBuildIntegrand:
    def test_cy3_displayed_factors(self):
        ig = build_integrand(cy3(), "additive")
        ig.assert_structure()
        num = Counter()
        den = Counter()
        for f in ig.factors:
            (num if f.exponent > 0 else den)[(tuple(f.rho), f.const)] += abs(f.exponent)
        # roots
        assert num[((1, -1), 0)] == 1 and num[((-1, 1), 0)] == 1
        assert den[((1, -1), 1)] == 1 and den[((-1, 1), 1)] == 1
        # (1+u_a)^4 over (-u_a)^4
        assert num[((1, 0), 1)] == 4 and num[((0, 1), 1)] == 4
        assert den[((-1, 0), 0)] == 4 and den[((0, -1), 0)] == 4
        # (-4u1-4u2) over (1+4u1+4u2)
        assert num[((-4, -4), 0)] == 1
        assert den[((4, 4), 1)] == 1
        assert ig.rank == 2 and ig.degree == 1

    def test_projective_ci_displayed_factors(self):
        n, d1 = 4, 5
        ig = build_integrand(builders.projective_bundle(n, (d1,)), "additive")
        num = Counter()
        den = Counter()
        for f in ig.factors:
            (num if f.exponent > 0 else den)[(tuple(f.rho), f.const)] += abs(f.exponent)
        # ((1-u)/u)^(n+1) * (d1 u) / (1 - d1 u)
        assert num[((-1,), 1)] == n + 1
        assert den[((1,), 0)] == n + 1
        assert num[((5,), 0)] == 1
        assert den[((-5,), 1)] == 1

    def test_empty_weights_constant_integrand(self):
        prob = GITProblem(rank=0, weight_entries=[], roots=[], xi=(), degree=2)
        ig = build_integrand(prob, "additive")
        assert ig.factors == []
        assert compute(prob, kind="additive").dt == 1  # (1/d)^0

    def test_additive_s_parameter(self):
        ig = build_integrand(cy3(), "additive", s=2)
        consts = {f.const for f in ig.factors if f.origin == "root-den"}
        assert consts == {2}


class TestCompute:
    def test_cy3_dt(self):
        res = compute(cy3(), kind="additive")
        assert res.dt == 176
        assert res.dt_is_integer()

    def test_quintic_dt(self):
        assert compute(builders.projective_bundle(4, (5,)), kind="additive").dt == 200

    def test_framed_a3_n1(self):
        assert compute(builders.framed_a3_problem(1, 1), kind="additive").dt == 8

    def test_diagnostics_record_contributions(self):
        res = compute(cy3(), kind="additive",
                      xi_tilde=(F(-11, 10), F(-9, 10)))
        assert len(res.diagnostics.points) == 1
        pdiag = res.diagnostics.points[0]
        assert pdiag.contributions["additive"] == 352
        assert len(pdiag.flags) == 1


class TestNonabelianRanks:
    def test_grassmannian_euler_numbers(self):
        # zero potential: DT = (-1)^dim binom(n, k) through the full
        # root/Weyl machinery at ranks 2 and 3
        res = compute(builders.grassmannian(2, 5, (1, 0, 0, 0, 0), degree=3),
                      kind="additive")
        assert res.dt == 10
        res = compute(builders.grassmannian(3, 6, (1, 0, 0, 0, 0, 0), degree=3),
                      kind="additive")
        assert res.dt == -20
        assert len(res.diagnostics.points) == 8
        assert res.diagnostics.weyl_order == 6


class TestSpecialize:
    def test_p1_values(self):
        res = compute(builders.projective_space(1, (1, 0)), kind="all", q_order=2)
        assert res.dt == -2  # (-1)^dim * chi(P^1)
        assert res.chi_y.laurent == {1: F(-1), -1: F(-1)}
        assert specialize(res) == {"ell_q0_equals_chi_y": True,
                                   "chi_y_limit_equals_dt": True}

    def test_ell_order_zero_equals_chi_y(self):
        res = compute(builders.projective_bundle(3, (2,)), kind="all", q_order=0)
        assert res.ell.series.coeffs[0] == res.chi_y.ratfunc

    def test_cy3_limit(self):
        res = compute(cy3(), kind="sine")
        assert invariants.limit_at_one(res.chi_y.ratfunc) == 176

    def test_cy3_chi_y_from_hodge_numbers(self):
        # the quartic Pluecker section has h^{1,1} = 1 and chi = -176, hence
        # h^{2,1} = 89 and chi(Omega^1) = 88; the half-canonical twist turns
        # 88y - 88y^2 into 88(y^(1/2) + y^(-1/2))
        res = compute(cy3(), kind="sine")
        assert res.chi_y.laurent == {1: F(88), -1: F(88)}
        assert res.chi_y.denom_scale == 1

    def test_needs_two_kinds(self):
        res = compute(cy3(), kind="additive")
        with pytest.raises(ValueError):
            specialize(res)


class TestIndependenceProperties:
    def test_perturbation_seed_independence(self):
        a = compute(cy3(), kind="all", q_order=1, seed=0)
        b = compute(cy3(), kind="all", q_order=1, seed=12345)
        assert a.dt == b.dt
        assert a.chi_y.ratfunc == b.chi_y.ratfunc
        assert a.ell.series == b.ell.series

    def test_weight_and_root_order_invariance(self):
        base = cy3()
        rng = random.Random(9)
        ref = compute(base, kind="all", q_order=1)
        for _ in range(3):
            entries = list(base.weight_entries)
            roots = list(base.roots)
            rng.shuffle(entries)
            rng.shuffle(roots)
            shuffled = GITProblem(
                rank=base.rank, weight_entries=entries, roots=roots, xi=base.xi,
                weyl_order=base.weyl_order, degree=base.degree,
                properness_hint=base.properness_hint)
            res = compute(shuffled, kind="all", q_order=1)
            assert res.dt == ref.dt
            assert res.chi_y.ratfunc == ref.chi_y.ratfunc
            assert res.ell.series == ref.ell.series

    def test_s_independence(self):
        for prob in (cy3(), builders.projective_bundle(3, (2,)),
                     builders.framed_a3_problem(1, 1)):
            assert compute(prob, kind="additive", s=1).dt == \
                compute(prob, kind="additive", s=2).dt

    def test_r_charge_independence_zero_potential(self):
        # DT and chi_y are rigid under the circle-action choice; the
        # equivariant elliptic genus is not for non-Calabi-Yau spaces and is
        # deliberately left out of this property
        a = compute(builders.projective_space(2, (1, 0, 0)), kind="all", q_order=1)
        b = compute(builders.projective_space(2, (2, 1, 0)), kind="all", q_order=1)
        assert a.dt == b.dt == 3
        assert a.chi_y.ratfunc == b.chi_y.ratfunc


class TestPerturbationPaths:
    def test_explicit_bad_perturbation_rejected(self):
        from jkcalc.arrangement import PerturbationError
        with pytest.raises(PerturbationError):
            compute(cy3(), kind="additive", xi_tilde=(-1, -1))  # not sum-regular

    def test_explicit_good_perturbation_used(self):
        res = compute(cy3(), kind="additive", xi_tilde=(F(-11, 10), F(-9, 10)))
        assert res.dt == 176
        assert res.diagnostics.perturbation.xi_tilde == (F(-11, 10), F(-9, 10))

    def test_non_generic_residue_triggers_reperturbation(self, monkeypatch):
        from jkcalc import engine
        from jkcalc.engine import NonGenericResidueError
        real = engine.jk_residue
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise NonGenericResidueError("forced non-generic configuration")
            return real(*args, **kwargs)

        monkeypatch.setattr(invariants.engine, "jk_residue", flaky)
        res = compute(cy3(), kind="additive")
        assert res.dt == 176
        assert res.diagnostics.retries == 1

    def test_geometry_is_built_once_per_problem(self, monkeypatch):
        # every elimination of the pipeline goes through linalg._echelon; the
        # per-tuple flag enumeration, per-candidate wall normals and the
        # all-sizes stable-point test took 120 of them on this problem
        from jkcalc import linalg
        real = linalg._echelon
        calls = Counter()

        def counting(rows):
            calls["echelon"] += 1
            return real(rows)

        monkeypatch.setattr(linalg, "_echelon", counting)
        problem = builders.framed_a3_problem(2, 1, (1, 1, 1))
        res = compute(problem, kind="additive")
        assert res.dt == 12
        assert calls["echelon"] <= 120 // 2
        pert = res.diagnostics.perturbation
        again = compute(problem, kind="additive", xi_tilde=pert.xi_tilde).diagnostics
        assert again.perturbation.xi_tilde == pert.xi_tilde
        assert again.perturbation.chamber_checks == pert.chamber_checks
        assert again.perturbation.sum_checks == pert.sum_checks
        assert arrangement.recheck_certificate(again.perturbation, problem.xi)


class TestFractionalReduction:
    def fractional_problem(self):
        return make_problem(rank=1, weights=[((2,), 1, 1), ((1,), 0, 1)], roots=[],
                            xi=(1,), degree=1, label="p21")

    def test_has_fractional_stable_point(self):
        report = validate(self.fractional_problem())
        assert (F(-1, 2),) in [p.point for p in report.stable_points]
        assert invariants.integrality_scale(self.fractional_problem()) == 2

    def test_direct_equals_rescaled(self):
        report = invariants.fractional_reduction_check(self.fractional_problem(),
                                                       q_order=2)
        assert report["ok"]
        assert report["scale"] == 2


def test_half_canonical_twist_gives_y_inversion_symmetry():
    # the square-root twist makes chi_y and every Ell coefficient invariant
    # under y -> 1/y on virtual-dimension-zero problems
    for make in (lambda: builders.projective_space(1, (1, 0)),
                 lambda: builders.projective_bundle(4, (5,)),
                 lambda: builders.grassmannian_det(2, 4, 4, degree=1),
                 lambda: builders.framed_a3_problem(1, 1)):
        res = compute(make(), kind="all", q_order=1)
        laur = res.chi_y.laurent
        assert laur is not None
        assert all(laur.get(-e) == c for e, c in laur.items())
        for coeff in res.ell.series.coeffs:
            cl = invariants.laurent_form(coeff)
            assert cl is not None
            assert all(cl.get(-e) == c for e, c in cl.items())


def test_ell_matches_virtual_fixed_point_oracle_on_p1():
    # independent check of the q-series engine: equivariant K-theoretic
    # localization over the two fixed points of P^1 with charges (1, 0), d=1;
    # tangent characters are y and 1/y, and every class is a function of y
    order = 3
    y = F(9, 4)
    sqy = F(3, 2)

    def mul(a, b):
        out = [F(0)] * (order + 1)
        for i, x in enumerate(a):
            if x:
                for j in range(order + 1 - i):
                    if b[j]:
                        out[i + j] += x * b[j]
        return out

    def inv(a):
        out = [1 / a[0]]
        for t in range(1, order + 1):
            out.append(-sum(a[j] * out[t - j] for j in range(1, t + 1)) / a[0])
        return out

    def sym_pair(c):
        fac = [F(1)] + [F(0)] * order
        for n in range(1, order + 1):
            a = [F(1)] + [F(0)] * order
            a[n] = -c
            b = [F(1)] + [F(0)] * order
            b[n] = -1 / c
            fac = mul(fac, inv(a))
            fac = mul(fac, inv(b))
        return fac

    expected = [F(0)] * (order + 1)
    for tau in (y, 1 / y):
        head = (1 / tau) * sqy * (1 - tau / y) / (1 - 1 / tau)
        contrib = mul(sym_pair(tau), inv(sym_pair(y / tau)))
        contrib = mul(contrib, [head] + [F(0)] * order)
        expected = [a + b for a, b in zip(expected, contrib)]

    res = compute(builders.projective_space(1, (1, 0)), kind="theta", q_order=order)
    got = []
    for c in res.ell.series.coeffs:
        laur = invariants.laurent_form(c)
        got.append(sum(coeff * sqy**e for e, coeff in laur.items()))
    assert got == expected


def test_dt_rationality_reported_not_enforced():
    # the fractional weighted line gives a non-integral DT; it is reported
    prob = make_problem(rank=1, weights=[((2,), 1, 1), ((1,), 0, 1)], roots=[],
                        xi=(1,), degree=1)
    res = compute(prob, kind="additive")
    assert res.dt is not None
    assert isinstance(res.dt, F)
    assert res.dt_is_integer() == (res.dt.denominator == 1)


def test_rational_chi_y_is_fully_reduced():
    # rank one with non-unimodular flags: chi_y is a rational function of w
    # that is not a Laurent polynomial, and it is kept in lowest terms
    prob = make_problem(rank=1, weights=[((-2,), 1, 2), ((-1,), -1, 2), ((-3,), -1, 3)],
                        roots=[], xi=(-2,), degree=-1)
    result = compute(prob, kind="all", q_order=1)
    assert result.dt == 4
    chi = result.chi_y
    assert chi.laurent is None
    assert (chi.ratfunc.num.num_terms(), chi.ratfunc.den.num_terms()) == (93, 57)
    assert poly_gcd(chi.ratfunc.num, chi.ratfunc.den).is_constant()
    specialize(result)
