"""Residue engine: localization, multiplicative images, flag and JK residues."""

import random
from fractions import Fraction

import pytest

from jkcalc import arrangement as arr
from jkcalc import builders, invariants
from jkcalc.arrangement import Flag
from jkcalc.engine import (FactorizedIntegrand, IntegrandFactor, LocalFactor,
                           flag_residue_additive, flag_residue_multiplicative,
                           jk_residue, localize, multiplicativize)
from jkcalc.polyarith import MultiPoly, RatFunc

F = Fraction


def bare_integrand(rank, factors, kind="additive", degree=1, s=1, q_order=None):
    """Ad-hoc integrand for engine-level tests; structural counts unchecked."""
    return FactorizedIntegrand(kind=kind, rank=rank, degree=F(degree), s=F(s),
                               factors=factors, n_roots=0, dim_v=0, q_order=q_order)


def simple_flag(kappa, basis):
    k = len(kappa)
    chain = tuple(tuple(arr.linalg.rref([arr.linalg.fvec(x) for x in kappa[:i + 1]]))
                  for i in range(k))
    d = arr.kappa_determinant([arr.linalg.fvec(x) for x in kappa], basis)
    return Flag(generators=tuple(arr.linalg.fvec(x) for x in kappa), chain=chain,
                kappa=tuple(arr.linalg.fvec(x) for x in kappa),
                lattice_factor=F(1) / abs(d))


class TestLocalize:
    def test_shifted_line(self):
        ig = bare_integrand(1, [IntegrandFactor(rho=(F(1),), const=F(1), exponent=1,
                                                origin="weight-num")])
        flag = simple_flag([(1,)], [(1,)])
        [lf] = localize(ig, (-1,), flag)
        assert (lf.const, lf.lin) == (0, (1,))

    def test_cy3_flag_coordinates(self):
        # factor 4u1+4u2+1 against kappa = (-u1, -u1-u2) becomes 1 - 4 z2
        ig = bare_integrand(2, [IntegrandFactor(rho=(F(4), F(4)), const=F(1),
                                                exponent=-1, origin="weight-den")])
        flag = simple_flag([(-1, 0), (-1, -1)], [(1, 0), (0, 1)])
        [lf] = localize(ig, (0, 0), flag)
        assert lf.const == 1
        assert lf.lin == (0, -4)

    def test_constant_factor(self):
        ig = bare_integrand(2, [IntegrandFactor(rho=(F(0), F(0)), const=F(3),
                                                exponent=1, origin="weight-num")])
        flag = simple_flag([(1, 0), (0, 1)], [(1, 0), (0, 1)])
        [lf] = localize(ig, (5, 7), flag)
        assert lf.const == 3 and lf.lin == (0, 0)

    def test_duplicate_factors_merge(self):
        fac = IntegrandFactor(rho=(F(1),), const=F(0), exponent=-1, origin="weight-den")
        ig = bare_integrand(1, [fac, fac, fac])
        flag = simple_flag([(1,)], [(1,)])
        [lf] = localize(ig, (0,), flag)
        assert lf.exponent == -3


class TestFlagResidueAdditive:
    def test_simple_pole(self):
        ig = bare_integrand(1, [IntegrandFactor(rho=(F(1),), const=F(0), exponent=-1,
                                                origin="weight-den")])
        flag = simple_flag([(1,)], [(1,)])
        local = localize(ig, (0,), flag)
        assert flag_residue_additive(local, flag, ig) == 1

    def test_cy3_stable_flag_gives_352(self):
        prob = builders.grassmannian_det(2, 4, 4, degree=1)
        ig = invariants.build_integrand(prob, "additive")
        basis = arr.lattice_basis(prob.nonzero_weights())
        flag = simple_flag([(-1, 0), (-1, -1)], basis)
        local = localize(ig, (0, 0), flag)
        assert flag_residue_additive(local, flag, ig) == 352

    def test_quintic_single_flag_gives_200(self):
        prob = builders.projective_bundle(4, (5,))
        ig = invariants.build_integrand(prob, "additive")
        basis = arr.lattice_basis(prob.nonzero_weights())
        flag = simple_flag([(1,)], basis)
        local = localize(ig, (0,), flag)
        assert flag_residue_additive(local, flag, ig) == 200


def _pieces_as_fraction_pair(pieces, nv):
    num = MultiPoly.const(nv, 1)
    den = MultiPoly.const(nv, 1)
    for poly, e in pieces:
        if e > 0:
            num = num.mul(poly.pow(e))
        else:
            den = den.mul(poly.pow(-e))
    return num, den


class TestMultiplicativize:
    def test_sine_pure_coordinate(self):
        lf = LocalFactor(const=F(0), lin=(F(1),), exponent=1, origin="weight-den")
        pieces = multiplicativize(lf, "sine", 1, None, rank=1)
        num, den = _pieces_as_fraction_pair(pieces, 2)
        # S - S^{-1} = (S^2 - 1)/S
        s = MultiPoly.variable(2, 0)
        assert num.mul(s) == (s.mul(s) - 1).mul(den)

    def test_sine_constant_d(self):
        lf = LocalFactor(const=F(2), lin=(F(0),), exponent=1, origin="prefactor")
        pieces = multiplicativize(lf, "sine", 1, None, rank=1)
        num, den = _pieces_as_fraction_pair(pieces, 2)
        w = MultiPoly.variable(2, 1)
        # y^{d/2} - y^{-d/2} with d=2, D=1: w^2 - w^{-2}
        assert num.mul(w.pow(2)) == (w.pow(4) - 1).mul(den)

    def test_theta_truncated_product(self):
        lf = LocalFactor(const=F(0), lin=(F(1),), exponent=1, origin="weight-den")
        pieces = multiplicativize(lf, "theta", 1, 1, rank=1)
        num, den = _pieces_as_fraction_pair(pieces, 3)
        s = MultiPoly.variable(3, 0)
        q = MultiPoly.variable(3, 2)
        one = MultiPoly.const(3, 1)
        # (S - 1/S)(1-q)(1 - q S^2)(1 - q S^{-2})
        expect_num = (s.mul(s) - 1).mul(one - q).mul(one - q.mul(s.pow(2))) \
            .mul(s.pow(2) - q)
        expect_den = s.pow(3)
        assert num.mul(expect_den) == expect_num.mul(den)

    def test_denominator_scale_must_clear_data(self):
        lf = LocalFactor(const=F(1, 2), lin=(F(1),), exponent=1, origin="weight-den")
        with pytest.raises(ValueError):
            multiplicativize(lf, "sine", 1, None, rank=1)
        multiplicativize(lf, "sine", 2, None, rank=1)


class TestFlagResidueMultiplicative:
    def p1_problem(self):
        return builders.projective_space(1, (1, 0), degree=1)

    def test_p1_sine_sum_over_points(self):
        prob = self.p1_problem()
        res = invariants.compute(prob, kind="sine")
        # -(y^(1/2) + y^(-1/2)) in w = y^(1/2)
        assert res.chi_y.laurent == {1: F(-1), -1: F(-1)}

    def test_theta_order_zero_reproduces_sine(self):
        for prob in (self.p1_problem(), builders.projective_bundle(3, (2,))):
            full = invariants.compute(prob, kind="all", q_order=0)
            assert full.ell.series.coeffs[0] == full.chi_y.ratfunc

    def test_unbalanced_factor_list_rejected(self):
        ig = bare_integrand(1, [IntegrandFactor(rho=(F(1),), const=F(0), exponent=-1,
                                                origin="weight-den")], kind="sine")
        flag = simple_flag([(1,)], [(1,)])
        local = localize(ig, (0,), flag)
        with pytest.raises(AssertionError):
            flag_residue_multiplicative(local, flag, ig, 1)

    def test_nonvanishing_constant_factor_is_unit(self):
        # a factor with c != 0 contributes an invertible sine binomial: the
        # residue value of 1-factor/over/same-factor is the unit 1
        num = IntegrandFactor(rho=(F(1),), const=F(3), exponent=1, origin="weight-num")
        den = IntegrandFactor(rho=(F(1),), const=F(3), exponent=-1, origin="weight-den")
        pole_n = IntegrandFactor(rho=(F(1),), const=F(1), exponent=1, origin="weight-num")
        pole_d = IntegrandFactor(rho=(F(1),), const=F(0), exponent=-1, origin="weight-den")
        ig = bare_integrand(1, [num, den, pole_n, pole_d], kind="sine")
        flag = simple_flag([(1,)], [(1,)])
        local = localize(ig, (0,), flag)
        value = flag_residue_multiplicative(local, flag, ig, 1)
        # residue at S=1 of (wS - 1/(wS)) / (S - 1/S) times the prefactor
        # 1/(w - 1/w): the binomial at S=1 cancels the prefactor exactly
        assert value == RatFunc.const(1)


class TestJKResidue:
    def test_cy3_origin_jk_is_352(self):
        prob = builders.grassmannian_det(2, 4, 4, degree=1)
        ig = invariants.build_integrand(prob, "additive")
        basis = arr.lattice_basis(prob.nonzero_weights())
        xi_t = (F(-11, 10), F(-9, 10))
        value = jk_residue(ig, (0, 0), [(-1, 0), (0, -1)], xi_t, basis)
        assert value == 352

    def test_rescaling_lemma_example(self):
        # F = 1/(u1 u2) over the axis arrangement: JK(F(3u)) = (1/9) JK(F(u))
        basis = [(1, 0), (0, 1)]
        xi_t = (F(1), F(2))
        weights = [(1, 0), (0, 1)]

        def make(scale):
            return bare_integrand(2, [
                IntegrandFactor(rho=(F(scale), F(0)), const=F(0), exponent=-1,
                                origin="weight-den"),
                IntegrandFactor(rho=(F(0), F(scale)), const=F(0), exponent=-1,
                                origin="weight-den")])

        base = jk_residue(make(1), (0, 0), weights, xi_t, basis)
        scaled = jk_residue(make(3), (0, 0), weights, xi_t, basis)
        assert base == 1
        assert scaled == F(1, 9) * base

    def test_flag_order_irrelevant(self):
        prob = builders.framed_a3_problem(2, 1)
        ig = invariants.build_integrand(prob, "additive")
        basis = arr.lattice_basis(prob.nonzero_weights())
        report = invariants.validate(prob)
        walls = arr.perturbation_walls([p.active_weights for p in report.stable_points],
                                       prob.nonzero_weights(), prob.rank)
        pert = arr.sum_regular_perturbation(prob.xi, walls, seed=0)
        pt = report.stable_points[0]
        flags = arr.enumerate_flags(pt.active_weights, pert.xi_tilde, basis)
        fwd = jk_residue(ig, pt.point, pt.active_weights, pert.xi_tilde, basis,
                         flags=flags)
        rev = jk_residue(ig, pt.point, pt.active_weights, pert.xi_tilde, basis,
                         flags=list(reversed(flags)))
        assert fwd == rev

    def test_rescaling_covariance_random(self):
        rng = random.Random(17)
        basis2 = [(1, 0), (0, 1)]
        weights2 = [(1, 0), (0, 1), (1, 1)]
        xi_t2 = (F(13, 7), F(17, 11))
        for trial in range(50):
            k = rng.choice((1, 2))
            if k == 1:
                weights, basis, xi_t = [(1,)], [(1,)], (F(1),)
            else:
                weights, basis, xi_t = weights2, basis2, xi_t2
            factors = []
            for w in weights:
                factors.append(IntegrandFactor(
                    rho=tuple(F(x) for x in w), const=F(0),
                    exponent=-rng.randint(1, 2), origin="weight-den"))
            for _ in range(rng.randint(1, 3)):
                rho = tuple(F(rng.randint(-2, 2)) for _ in range(k))
                const = F(rng.randint(1, 4))
                factors.append(IntegrandFactor(
                    rho=rho, const=const, exponent=rng.choice((1, 1, -1)),
                    origin="weight-num"))
            lam = F(rng.choice([1, 2, 3, -1, -2, 5]), rng.choice([1, 2, 3]))

            def scaled_factors(lam):
                return [IntegrandFactor(rho=tuple(lam * x for x in f.rho),
                                        const=f.const, exponent=f.exponent,
                                        origin=f.origin) for f in factors]

            base = jk_residue(bare_integrand(k, factors), (0,) * k, weights,
                              xi_t, basis)
            scaled = jk_residue(bare_integrand(k, scaled_factors(lam)), (0,) * k,
                                weights, xi_t, basis)
            assert scaled == lam ** (-k) * base, (trial, k, lam)


def test_denominator_scale_collects_fractions():
    prob = invariants.make_problem(rank=1, weights=[((2,), 1, 1), ((1,), 0, 1)],
                                   roots=[], xi=(1,), degree=1)
    ig = invariants.build_integrand(prob, "sine")
    basis = arr.lattice_basis(prob.nonzero_weights())
    from jkcalc.engine import denominator_scale
    flags = arr.enumerate_flags([(2,)], (F(1),), basis)
    D = denominator_scale(ig, [((F(-1, 2),), flags)])
    assert D == 2
