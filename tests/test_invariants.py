"""Pipeline-level behavior: validation, integrand assembly, invariants,
specialization identities and the reduction of fractional intersections."""

import math
import random
from collections import Counter
from fractions import Fraction

import oracles
import pytest

from jkcalc import arrangement, builders, engine, invariants, linalg
from jkcalc.invariants import (GITProblem, ValidationError, WeightEntry,
                               build_integrand, compute, make_problem, specialize,
                               validate)
from jkcalc.kronecker import Kronecker
from jkcalc.polyarith import RatFunc, poly_gcd

F = Fraction


def cy3():
    return builders.grassmannian_det(2, 4, 4, degree=1)


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name for the test; the returned list grows by one per call."""
    real = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


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

    @pytest.mark.parametrize("xi", [(1,), (1, 1, 1)])
    def test_stability_of_the_wrong_length_rejected(self, xi):
        prob = make_problem(rank=2, weights=[((1, 0), 0, 1), ((0, 1), 0, 1)], roots=[],
                            xi=xi, degree=1)
        with pytest.raises(ValidationError, match="stability covector .* wrong rank"):
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

    @pytest.mark.parametrize("mutate, message", [
        (lambda p: setattr(p, "degree", F(1, 2)), "the potential degree d must be an integer"),
        (lambda p: setattr(p, "weyl_order", F(3, 2)), "the Weyl order must be a positive integer"),
        (lambda p: p.weight_entries.append(WeightEntry((2, 2), F(1, 2))),
         "a circle charge must be an integer"),
        (lambda p: p.weight_entries.append(WeightEntry((F(3, 2), 2), 1)),
         "a weight covector entry must be an integer"),
        (lambda p: setattr(p, "roots", [(F(1, 2), F(-1, 2)), (F(-1, 2), F(1, 2))]),
         "a root covector entry must be an integer"),
    ], ids=["degree", "weyl-order", "charge", "weight-covector", "root-covector"])
    def test_non_integer_data_is_named(self, mutate, message):
        # a Fraction degree, charge or weight entry once reached math.gcd and
        # raised a bare TypeError; a Fraction root or Weyl order gave a value
        prob = cy3()
        mutate(prob)
        with pytest.raises(ValidationError, match=f"^{message}"):
            compute(prob, kind="all", q_order=1)

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

    def test_one_factor_list_for_every_kind_and_s(self):
        # s is read by the additive residue alone, so the factor list is the
        # same for every kind and every s
        base = build_integrand(cy3(), "additive").factors
        assert build_integrand(cy3(), "additive", s=2).factors == base
        assert build_integrand(cy3(), "theta", q_order=1).factors == base


class TestCompute:
    def test_cy3_dt(self):
        res = compute(cy3(), kind="additive")
        assert res.dt == 176
        assert res.dt_is_integer()

    def test_quintic_dt(self):
        assert compute(builders.projective_bundle(4, (5,)), kind="additive").dt == 200

    def test_framed_a3_n1(self):
        assert compute(builders.framed_a3_problem(1, 1), kind="additive").dt == 8

    def test_negative_q_order_rejected(self):
        with pytest.raises(ValueError, match="q-order must be >= 0"):
            compute(cy3(), kind="theta", q_order=-1)

    def test_each_flag_is_localized_once_for_every_kind(self, monkeypatch):
        localizations = count_calls(monkeypatch, engine, "localize")
        builds = count_calls(monkeypatch, invariants, "build_integrand")
        res = compute(builders.framed_a3_problem(2, 1), kind="all", q_order=1)
        assert len(res.diagnostics.points) == 3
        assert len(localizations) == sum(len(p.flags) for p in res.diagnostics.points)
        assert len(builds) == 1
        specialize(res)

    def test_diagnostics_record_contributions(self):
        res = compute(cy3(), kind="additive")
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
        assert res.chi_y.laurent() == {1: F(-1), -1: F(-1)}
        assert specialize(res) == {"ell_q0_equals_chi_y": True,
                                   "chi_y_limit_equals_dt": True}

    def test_ell_order_zero_equals_chi_y(self):
        res = compute(builders.projective_bundle(3, (2,)), kind="all", q_order=0)
        assert res.ell.coeffs[0] == res.chi_y

    def test_cy3_limit(self):
        res = compute(cy3(), kind="sine")
        assert invariants.limit_at_one(res.chi_y) == 176

    def test_cy3_chi_y_from_hodge_numbers(self):
        # the quartic Pluecker section has h^{1,1} = 1 and chi = -176, hence
        # h^{2,1} = 89 and chi(Omega^1) = 88; the half-canonical twist turns
        # 88y - 88y^2 into 88(y^(1/2) + y^(-1/2))
        res = compute(cy3(), kind="sine")
        assert res.chi_y.laurent() == {1: F(88), -1: F(88)}
        assert res.denom_scale == 1

    def test_limit_at_one(self):
        w = RatFunc([(1, 1)])
        with pytest.raises(invariants.PipelineError):
            invariants.limit_at_one((w + 1) / (w * w - 1))
        assert invariants.limit_at_one((w - 1) * (w + 2) / (w * w * w + 1)) == 0
        # (w - 1) cancels: the value of (w + 3) / (2 w^2 (w + 1)) at w = 1
        assert invariants.limit_at_one((w - 1) * (w + 3) / ((w * w - 1) * w * w * 2)) == 1

    def test_needs_two_kinds(self):
        res = compute(cy3(), kind="additive")
        with pytest.raises(ValueError):
            specialize(res)


class TestIndependenceProperties:
    def test_perturbation_seed_independence(self):
        a = compute(cy3(), kind="all", q_order=1, seed=0)
        b = compute(cy3(), kind="all", q_order=1, seed=12345)
        assert a.dt == b.dt
        assert a.chi_y == b.chi_y
        assert a.ell == b.ell

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
            assert res.chi_y == ref.chi_y
            assert res.ell == ref.ell

    def test_s_independence(self):
        for prob in (cy3(), builders.projective_bundle(3, (2,)),
                     builders.framed_a3_problem(1, 1)):
            assert compute(prob, kind="additive", s=1).dt == \
                compute(prob, kind="additive", s=2).dt

    @pytest.mark.parametrize("charges", [(1, 1, 1), (1, 2, 2)])
    def test_each_point_contribution_is_s_independent(self, charges):
        problem = builders.framed_a3_problem(3, 1, charges)
        runs = [compute(problem, kind="additive", s=s).diagnostics.points
                for s in (1, F(3, 2))]
        assert len(runs[0]) > 1
        assert [p.contributions for p in runs[0]] == [p.contributions for p in runs[1]]

    def test_r_charge_independence_zero_potential(self):
        # DT and chi_y are rigid under the circle-action choice; the
        # equivariant elliptic genus is not for non-Calabi-Yau spaces and is
        # deliberately left out of this property
        a = compute(builders.projective_space(2, (1, 0, 0)), kind="all", q_order=1)
        b = compute(builders.projective_space(2, (2, 1, 0)), kind="all", q_order=1)
        assert a.dt == b.dt == 3
        assert a.chi_y == b.chi_y


class TestPerturbationPaths:
    def test_explicit_bad_perturbation_rejected(self):
        from jkcalc.arrangement import PerturbationError
        # e_1 missing, e_0 twice, e_2 out of range, a sign that is not +-1
        for order in ([(0, 1)], [(0, 1), (0, -1)], [(0, 1), (2, 1)], [(0, 1), (1, 2)],
                      [(0, 1), (1, 0)]):
            with pytest.raises(PerturbationError):
                arrangement.verify_perturbation(cy3().xi, order)

    def test_explicit_good_perturbation_used(self, monkeypatch):
        # both signed orders of e_0 first pick one flag at the origin, each
        # its own, and both give DT = 176
        flags = []
        for order in (((0, -1), (1, 1)), ((0, 1), (1, -1))):
            monkeypatch.setattr(
                arrangement, "sum_regular_perturbation",
                lambda xi, seed, order=order: arrangement.verify_perturbation(xi, order, seed))
            res = compute(cy3(), kind="additive")
            assert res.dt == 176
            assert res.diagnostics.perturbation.order == order
            flags += res.diagnostics.points[0].flags
        assert len(flags) == 2 and flags[0] != flags[1]

    def test_non_generic_configuration_exits_four(self, tmp_path, monkeypatch, capsys):
        # the error does not depend on the perturbation, so it ends the run as
        # an internal error instead of triggering a re-perturbation
        from jkcalc import cli, engine
        from jkcalc.engine import NonGenericResidueError
        cfg = tmp_path / "p.cfg"
        cfg.write_text("mode grassmannian-det\nk 2\nn 4\npower 4\n")
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            raise NonGenericResidueError("forced non-generic configuration")

        monkeypatch.setattr(engine, "jk_residue", failing)
        assert cli.run([str(cfg), "--invariant", "dt"]) == 4
        err = capsys.readouterr().err
        assert "internal error: forced non-generic configuration" in err
        assert "Traceback" not in err
        assert len(calls) == 1

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
        again = compute(problem, kind="additive").diagnostics
        assert again.perturbation == res.diagnostics.perturbation

    def test_one_verification_per_problem(self, monkeypatch):
        calls = count_calls(monkeypatch, arrangement, "verify_perturbation")
        res = compute(builders.framed_a3_problem(3, 1), kind="additive", seed=0)
        assert res.dt == -48
        assert len(calls) == 1


class TestFractionalReduction:
    def fractional_problem(self):
        return make_problem(rank=1, weights=[((2,), 1, 1), ((1,), 0, 1)], roots=[],
                            xi=(1,), degree=1, label="p21")

    def test_has_fractional_stable_point(self):
        report = validate(self.fractional_problem())
        assert (F(-1, 2),) in [p.point for p in report.stable_points]
        assert invariants.integrality_scale(self.fractional_problem(),
                                            report.stable_points) == 2

    def test_direct_equals_rescaled(self):
        report = invariants.fractional_reduction_check(self.fractional_problem(),
                                                       q_order=2)
        assert report["ok"]
        assert report["scale"] == 2

    def test_each_problem_is_validated_once(self, monkeypatch):
        # the direct and the rescaled problem; the scale reuses the direct
        # run's stable points instead of validating it a second time
        calls = count_calls(monkeypatch, invariants, "validate")
        assert invariants.fractional_reduction_check(self.fractional_problem(),
                                                     q_order=1)["ok"]
        assert len(calls) == 2


def test_half_canonical_twist_gives_y_inversion_symmetry():
    # the square-root twist makes chi_y and every Ell coefficient invariant
    # under y -> 1/y on virtual-dimension-zero problems
    for make in (lambda: builders.projective_space(1, (1, 0)),
                 lambda: builders.projective_bundle(4, (5,)),
                 lambda: builders.grassmannian_det(2, 4, 4, degree=1),
                 lambda: builders.framed_a3_problem(1, 1)):
        res = compute(make(), kind="all", q_order=1)
        laur = res.chi_y.laurent()
        assert laur is not None
        assert all(laur.get(-e) == c for e, c in laur.items())
        for coeff in res.ell.coeffs:
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
    for c in res.ell.coeffs:
        laur = invariants.laurent_form(c)
        got.append(sum(coeff * sqy**e for e, coeff in laur.items()))
    assert got == expected


CY3_COMPLETE_INTERSECTIONS = [(4, (5,)), (5, (3, 3)), (5, (2, 4)), (6, (2, 2, 3))]
CY3_IDS = [f"p{n}-" + "-".join(map(str, d)) for n, d in CY3_COMPLETE_INTERSECTIONS]


@pytest.mark.parametrize("n, degrees", CY3_COMPLETE_INTERSECTIONS, ids=CY3_IDS)
def test_ell_of_cy3_complete_intersections_is_the_weak_jacobi_form(n, degrees):
    # Ell = (-chi/2) theta(y^2)/theta(y) with chi from the Chern classes,
    # independent of the residues (`Ell(q=0) = chi_y` shares their code).
    # Both sides of each q^t coefficient are Laurent polynomials in w with
    # exponents in [-M, M]; they agree at 2M + 1 points, so they are equal.
    order = 4
    res = compute(builders.projective_bundle(n, degrees), kind="theta", q_order=order)
    assert res.denom_scale == 1
    chi = oracles.chern_euler(n, degrees)
    laurents = [invariants.laurent_form(c) for c in res.ell.coeffs]
    assert None not in laurents
    M = max([4 * order + 1] + [abs(e) for laur in laurents for e in laur])
    for w in range(2, 2 * M + 3):
        expected = oracles.cy3_elliptic_genus(chi, order, w)
        got = [sum(c * F(w) ** e for e, c in laur.items()) for laur in laurents]
        assert got == expected, (n, degrees, w)


def packed_pairs(monkeypatch, problem, **kwargs):
    """The packed group-pair products of one `compute`: a count that bounds
    the residue core's work without a clock."""
    pairs = []
    mul_into = Kronecker.mul_into

    def counting(self, dst, a, b):
        pairs.append(len(a) * len(b))
        return mul_into(self, dst, a, b)

    monkeypatch.setattr(Kronecker, "mul_into", counting)
    compute(problem, **kwargs)
    return sum(pairs)


def test_packed_products_of_the_quintic_elliptic_genus(monkeypatch):
    assert packed_pairs(monkeypatch, builders.projective_bundle(4, (5,)),
                        kind="theta", q_order=3) <= 114


def test_packed_products_of_a_length_3_quiver_chi_y(monkeypatch):
    # 396 with one residue per stable point, not per orbit
    assert packed_pairs(monkeypatch, builders.framed_a3_problem(3, 1, (1, 2, 3)),
                        kind="sine", allow_root_incidence=True) <= 66


def test_packed_products_of_a_length_3_quiver_dt(monkeypatch):
    # 1,572 with one residue per stable point, not per orbit
    assert packed_pairs(monkeypatch, builders.framed_a3_problem(3, 1, (1, 1, 1)),
                        kind="additive") <= 384


def test_eliminations_of_the_geometry_of_a_length_3_quiver(monkeypatch):
    # `linalg._echelon` calls of a whole additive run: a count that bounds
    # the geometry's work without a clock, as `localize` makes none (773
    # while each flag kept its chain's `rref` rows and `localize` inverted
    # kappa; 3,588 for `validate` and `enumerate_flags` alone before the
    # geometry was grouped by line and the flags searched top down)
    calls = []
    echelon = linalg._echelon

    def counting(rows):
        calls.append(rows)
        return echelon(rows)

    monkeypatch.setattr(linalg, "_echelon", counting)
    compute(builders.framed_a3_problem(3, 1, (1, 2, 3)), kind="additive",
            allow_root_incidence=True)
    assert len(calls) <= 508


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
    assert chi.laurent() is None
    num, den = chi.pairs()
    assert (len(num), len(den)) == (93, 57)
    assert poly_gcd(chi.num, chi.den)[0] == [1]
    specialize(result)


WEIGHTED_PROJECTIVE_STACKS = [
    (1, 1), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4), (1, 1, 2), (1, 2, 3), (1, 1, 4),
    (2, 2, 3), (2, 3, 4), (1, 3, 4), (1, 1, 1, 3), (1, 1, 2, 2), (1, 2, 3, 4),
    (2, 4), (4, 4), (2, 2, 4),
]


@pytest.mark.parametrize("weights", WEIGHTED_PROJECTIVE_STACKS)
def test_weighted_projective_stack_gives_the_naive_hrr_integral(weights):
    # flag residues take the branch S_j = 1 only, so chi_y is the untwisted
    # sector; weights with a common factor g are taken on the lattice they
    # span, i.e. as P(a_i / g)
    g = math.gcd(*weights)
    expected = oracles.weighted_projective_chi_y([a // g for a in weights])
    prob = make_problem(1, [((a,), 0, 1) for a in weights], [], (1,))
    res = compute(prob, kind="all", q_order=0)
    assert oracles.chi_y_laurent_as_y_exponents(
        res.chi_y.laurent(), res.denom_scale) == expected
    assert res.dt == sum(expected.values())


@pytest.mark.parametrize("problem, q_order", [
    (builders.projective_bundle(4, (5,)), 3),
    (make_problem(1, [((2,), 1, 1), ((3,), 2, 1)], [], (1,), degree=2), 2),
])
def test_theta_assembly_reduces_once_per_q_coefficient(problem, q_order, monkeypatch):
    reductions = count_calls(monkeypatch, RatFunc, "_reduce")
    per_call = []
    assemble = engine._assemble_multiplicative

    def counting(*args):
        before = len(reductions)
        out = assemble(*args)
        per_call.append(len(reductions) - before)
        return out

    monkeypatch.setattr(engine, "_assemble_multiplicative", counting)
    compute(problem, kind="theta", q_order=q_order)
    assert per_call and max(per_call) <= q_order + 1
