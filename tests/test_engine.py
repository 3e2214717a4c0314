"""Residue engine: localization, multiplicative images, flag and JK residues."""

import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from math import gcd

import pytest

import linalg_reference
import localize_reference
from decks import deck, deck_problems
import test_fuzz
from jkcalc import arrangement as arr
from jkcalc import builders, engine, invariants, linalg, polyarith
from jkcalc.config import ConfigError, parse_config
from jkcalc.arrangement import Flag
from jkcalc.engine import (FactorizedIntegrand, IntegrandFactor, LocalFactor,
                           flag_residue_additive, flag_residue_multiplicative,
                           _theta_numerator, jk_residue, localize)
from jkcalc.kronecker import Kronecker
from jkcalc.polyarith import MultiPoly, RatFunc

F = Fraction

# sha256 of the values of `test_the_packed_handoff_gives_the_values_of_the_unpacked_one`
HANDOFF_DIGEST = "94a08f71db6f90588242e742a7bde618930f38117d62b05df3eae0ad3a6e37eb"


def bare_integrand(rank, factors, kind="additive", degree=1, s=1, q_order=None):
    """Ad-hoc integrand for engine-level tests, with D = 1; structural counts
    unchecked."""
    return FactorizedIntegrand(kind=kind, rank=rank, degree=degree, s=F(s),
                               factors=factors, n_roots=0, dim_v=0, q_order=q_order,
                               denom_scale=1)


def local_flags(integrand, point, flags):
    """The (flag, localization) pairs `jk_residue` sums over."""
    return [(flag, localize(integrand, point, flag)) for flag in flags]


def simple_flag(kappa, basis):
    kappa = tuple(map(tuple, kappa))
    return Flag(kappa=kappa, kappa_inverse=linalg.inverse(kappa),
                lattice_factor=F(1) / abs(arr.kappa_determinant(kappa, basis)))


class TestLocalize:
    def test_shifted_line(self):
        ig = bare_integrand(1, [IntegrandFactor(rho=(F(1),), const=F(1), exponent=1,
                                                origin="weight-num")])
        flag = simple_flag([(1,)], [(1,)])
        [lf] = localize(ig, (-1,), flag)
        assert (lf.const, lf.lin, lf.den) == (0, (1,), 1)

    def test_cy3_flag_coordinates(self):
        # factor 4u1+4u2+1 against kappa = (-u1, -u1-u2) becomes 1 - 4 z2
        ig = bare_integrand(2, [IntegrandFactor(rho=(F(4), F(4)), const=F(1),
                                                exponent=-1, origin="weight-den")])
        flag = simple_flag([(-1, 0), (-1, -1)], [(1, 0), (0, 1)])
        [lf] = localize(ig, (0, 0), flag)
        assert (lf.const, lf.lin, lf.den) == (1, (0, -4), 1)

    def test_constant_factor(self):
        ig = bare_integrand(2, [IntegrandFactor(rho=(F(0), F(0)), const=F(3),
                                                exponent=1, origin="weight-num")])
        flag = simple_flag([(1, 0), (0, 1)], [(1, 0), (0, 1)])
        [lf] = localize(ig, (5, 7), flag)
        assert (lf.const, lf.lin, lf.den) == (3, (0, 0), 1)

    def test_duplicate_factors_merge(self):
        fac = IntegrandFactor(rho=(F(1),), const=F(0), exponent=-1, origin="weight-den")
        ig = bare_integrand(1, [fac, fac, fac])
        flag = simple_flag([(1,)], [(1,)])
        [lf] = localize(ig, (0,), flag)
        assert lf.exponent == -3


def _seeded_raw_problems(rank, count, seed=2024):
    """Rank-`rank` raw problems with a fractional stable point that compute."""
    rng = random.Random(f"{seed}:{rank}")
    found = []
    while len(found) < count:
        weights = [(tuple(rng.randint(-3, 3) for _ in range(rank)), rng.randint(0, 3),
                    rng.randint(1, 2)) for _ in range(rng.randint(rank + 1, rank + 2))]
        xi = tuple(rng.choice((-1, 1)) * rng.randint(1, 3) for _ in range(rank))
        prob = invariants.make_problem(rank, weights, [], xi, degree=rng.choice((1, 2)))
        try:
            points = invariants.compute(prob, kind="additive").diagnostics.points
        except (invariants.ValidationError, arr.PerturbationError):
            continue
        if any(x.denominator != 1 for p in points for x in p.point) \
                and any(p.flags for p in points):
            found.append((prob, points))
    return found


class TestLocalizeAgainstReference:
    """The integer localization returns the factors of the Fraction reference
    in `localize_reference.py`: same order, values and exponents, each on
    integers over its least common denominator."""

    @staticmethod
    def assert_same(integrand, point, flags):
        for flag in flags:
            got = localize(integrand, point, flag)
            want = localize_reference.localize(integrand, point, flag)
            assert [localize_reference.as_fractions(lf) for lf in got] == want
            for lf, (c, ell, _) in zip(got, want):
                assert all(type(x) is int for x in (lf.const, *lf.lin, lf.den))
                assert lf.den > 0 and gcd(lf.const, *lf.lin, lf.den) == 1
                assert lf.den == linalg.cleared(ell + (c,))[1]

    def assert_every_flag(self, problems):
        """At every stable point of `problems`: each flag's `kappa_inverse` is
        kappa's Fraction inverse over its least common denominator, and the
        localizations are the reference's.  Returns the number of flags from
        the closed form and from the search (`arrangement.enumerate_flags`)."""
        paths = Counter()
        for problem in problems:
            points = invariants.compute(problem, kind="additive",
                                        allow_root_incidence=True).diagnostics.points
            integrand = invariants.build_integrand(problem, "additive")
            for p in points:
                for flag in p.flags:
                    rows, d = flag.kappa_inverse
                    assert [tuple(F(x, d) for x in row) for row in rows] \
                        == linalg_reference.inverse(flag.kappa)
                    assert gcd(d, *(x for row in rows for x in row)) == 1
                    paths["search" if len(set(p.active_weights)) > problem.rank
                          else "closed form"] += 1
                for t in (1, F(3, 2)):
                    # t P is a pole at t = 1 only; t = 3/2 makes the constants
                    # fractional and nonzero
                    self.assert_same(integrand, tuple(t * x for x in p.point), p.flags)
        return dict(paths)

    @pytest.mark.parametrize("charges", [(1, 1, 1), (1, 2, 2)])
    def test_every_point_and_flag_of_a3_quivers(self, charges):
        paths = self.assert_every_flag([builders.framed_a3_problem(3, 1, charges)])
        assert sum(paths.values()) > 10 and paths["search"] > 0

    @pytest.mark.parametrize("workload, paths", [
        ("request-mix", {"closed form": 343, "search": 4}),
        ("elliptic-genus", {"closed form": 37}),
    ])
    def test_every_point_and_flag_of_a_seed_3_deck(self, workload, paths):
        assert self.assert_every_flag(deck_problems(workload)) == paths

    @pytest.mark.parametrize("rank", [2, 3])
    def test_fractional_points_of_raw_problems_at_s_2(self, rank):
        for problem, points in _seeded_raw_problems(rank, 3):
            integrand = invariants.build_integrand(problem, "additive", s=2)
            for p in points:
                # s enters the additive residue only: every kind localizes at P
                self.assert_same(integrand, p.point, p.flags)


    def test_repeated_rhos_with_different_constants(self):
        # (1, 0) comes with four constants, two of which localize to the same
        # c and cancel; (2, 0) and (1, 0) share a line but not an l
        ig = bare_integrand(2, [
            IntegrandFactor(rho=(F(1), F(0)), const=F(1, 2), exponent=1, origin="weight-num"),
            IntegrandFactor(rho=(F(1), F(0)), const=F(-1, 3), exponent=-2, origin="weight-den"),
            IntegrandFactor(rho=(F(2), F(0)), const=F(1, 2), exponent=-1, origin="weight-den"),
            IntegrandFactor(rho=(F(1), F(0)), const=F(1, 2), exponent=-1, origin="root-den"),
            IntegrandFactor(rho=(F(0), F(3, 2)), const=F(0), exponent=1, origin="root-num"),
            IntegrandFactor(rho=(F(1), F(0)), const=F(5, 6), exponent=2, origin="root-num"),
        ])
        flags = [simple_flag([(1, 0), (0, 1)], [(1, 0), (0, 1)]),
                 simple_flag([(1, 1), (0, 2)], [(1, 0), (0, 1)])]
        self.assert_same(ig, (F(1, 3), F(-1, 2)), flags)
        assert len(localize(ig, (F(1, 3), F(-1, 2)), flags[0])) == 4

    def test_localize_hashes_no_fraction(self, monkeypatch):
        """localize, which reads the flag's integer `kappa_inverse`, neither
        builds nor hashes a Fraction, at P and at 3/2 P (fractional nonzero
        constants), and its factors there are those of the reference, each
        reduced."""
        problem = builders.framed_a3_problem(3, 1, (1, 1, 2))
        points = invariants.compute(problem, kind="additive",
                                    allow_root_incidence=True).diagnostics.points
        integrand = invariants.build_integrand(problem, "additive")
        cases = [(point, flag) for p in points for flag in p.flags
                 for point in (p.point, tuple(F(3, 2) * x for x in p.point))]
        built, hashes = [], []
        fraction_new, fraction_hash = F.__new__, F.__hash__

        def counted_new(cls, *args, **kwargs):
            built.append(args)
            return fraction_new(cls, *args, **kwargs)

        def counted_hash(self):
            hashes.append(self)
            return fraction_hash(self)

        monkeypatch.setattr(F, "__new__", staticmethod(counted_new))
        monkeypatch.setattr(F, "__hash__", counted_hash)
        for point, flag in cases:
            localize(integrand, point, flag)
        assert built == [] and hashes == []
        # the counts see a localization that builds Fractions and keys its
        # merge by them
        localize_reference.localize(integrand, points[0].point, points[0].flags[0])
        assert built and hashes
        for point, flag in cases:
            self.assert_same(integrand, point, [flag])

    def test_flags_and_integrand_hash_no_fraction(self, monkeypatch):
        problem = builders.framed_a3_problem(3, 1, (1, 1, 2))
        points = invariants.validate(problem, strict_roots=False).stable_points
        basis = arr.lattice_basis(problem.nonzero_weights())
        order = arr.sum_regular_perturbation(problem.xi).order
        hashes = []
        fraction_hash = F.__hash__

        def counted(self):
            hashes.append(self)
            return fraction_hash(self)

        monkeypatch.setattr(F, "__hash__", counted)
        flags = [arr.enumerate_flags(p.active_weights, problem.xi, basis, order) for p in points]
        for kind in engine.KINDS:
            invariants.build_integrand(problem, kind, q_order=1)
        assert hashes == [] and sum(map(len, flags)) == len(points)
        hash(F(1, 2))
        assert hashes   # the count sees a Fraction hashed


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


def _mod_q(poly, N, qv):
    """poly with every term of q-degree above N dropped."""
    return MultiPoly(poly.nvars, {k: c for k, c in poly.terms.items() if k[qv] <= N})


def _theta_factor(b, N):
    """(numerator, denominator) of the sine image w^b - w^(-b) and the theta
    numerator modulo q^(N+1) of the rank-0 factor with Y^(1/2) = w^b, in (w, q)."""
    num = MultiPoly(2, {(2 * max(b, 0), 0): 1, (2 * max(-b, 0), 0): -1})
    kr, _, product = _theta_numerator([((2 * b, 0), 1)], 0, N, [MultiPoly.const(2, 1)])
    numerator = kr.unpack(product(kr)[0])
    return num, MultiPoly.monomial(2, (abs(b), 0)), numerator


def _euler(N, nv=2):
    """prod_(n<=N) (1 - q^n), q the last of nv variables."""
    q = MultiPoly.monomial(nv, (0,) * (nv - 1) + (1,))
    out = MultiPoly.const(nv, 1)
    for n in range(1, N + 1):
        out = _mod_q(out.mul(1 - q.pow(n)), N, nv - 1)
    return out


class TestMultiplicativeImages:
    def test_theta_truncated_product(self):
        # the residues use the theta image modulo q^(N+1) only: the sine
        # image times (q;q) times the theta numerator, for Y^(1/2) = w and
        # N = 1 (w - 1/w)(1-q)(1 - q w^2)(1 - q w^{-2})
        num, den, numerator = _theta_factor(1, 1)
        w, q = MultiPoly.monomial(2, (1, 0)), MultiPoly.monomial(2, (0, 1))
        expect_num = (w.pow(2) - 1).mul(1 - q).mul(1 - q.mul(w.pow(2))).mul(w.pow(2) - q)
        got = num.mul(1 - q).mul(numerator).mul(w.pow(3))
        assert _mod_q(got, 1, 1) == _mod_q(expect_num.mul(den), 1, 1)

    @pytest.mark.parametrize("N", range(11))
    def test_triple_product_piece_is_the_truncated_product(self, N):
        # Jacobi's triple product: sum (-1)^n q^(n(n-1)/2) Y^(1/2-n) is the
        # sine image times (q;q) times Phi(Y) = prod (1-q^n Y)(1-q^n/Y), the
        # theta numerator of the one factor, modulo q^(N+1); Y^(1/2) = w^b
        for b in (1, 2, -2, 3):
            num, den, numerator = _theta_factor(b, N)
            jacobi = MultiPoly(2, {(b * (1 - 2 * n), n * (n - 1) // 2): (-1) ** n
                                   for n in range(-N - 1, N + 2) if n * (n - 1) // 2 <= N})
            got = num.mul(_euler(N)).mul(numerator)
            assert _mod_q(got, N, 1) == _mod_q(jacobi.mul(den), N, 1), (N, b)

    @pytest.mark.parametrize("N", range(11))
    def test_pentagonal_piece_is_the_euler_product(self, N):
        # with no factors the theta numerator is (q;q)^(2k), a constant in
        # S_0: the 2k-th power of Euler's pentagonal sum of
        # (-1)^j q^(j(3j-1)/2)
        for k in (1, 2):
            nv = k + 2
            pentagonal = MultiPoly(nv, {(0,) * (k + 1) + (j * (3 * j - 1) // 2,): (-1) ** j
                                        for j in range(-N, N + 1) if j * (3 * j - 1) // 2 <= N})
            assert _mod_q(pentagonal, N, k + 1) == _euler(N, nv)
            start = [MultiPoly.const(nv, 1), MultiPoly.zero(nv)]
            kr, _, product = _theta_numerator([], k, N, start)
            assert [kr.unpack(p) for p in product(kr)] == \
                [_mod_q(pentagonal.pow(2 * k), N, k + 1), MultiPoly.zero(nv)]

    def test_denominator_scale_must_clear_data(self):
        lf = LocalFactor(const=1, lin=(2,), den=2, exponent=1)   # 1/2 + z
        with pytest.raises(ValueError):
            engine._half_exponents(lf, 1)
        assert engine._half_exponents(lf, 2) == [2, 1]


class TestFlagResidueMultiplicative:
    def p1_problem(self):
        return builders.projective_space(1, (1, 0), degree=1)

    def test_p1_sine_sum_over_points(self):
        prob = self.p1_problem()
        res = invariants.compute(prob, kind="sine")
        # -(y^(1/2) + y^(-1/2)) in w = y^(1/2)
        assert res.chi_y.laurent() == {1: F(-1), -1: F(-1)}

    def test_theta_order_zero_reproduces_sine(self):
        for prob in (self.p1_problem(), builders.projective_bundle(3, (2,))):
            full = invariants.compute(prob, kind="all", q_order=0)
            assert full.ell.coeffs[0] == full.chi_y == \
                invariants.compute(prob, kind="sine").chi_y

    def test_unset_denominator_scale_is_named(self):
        # `build_integrand` leaves D unset; `compute` takes it from the
        # localizations (`engine.denominator_scale`)
        prob = builders.projective_bundle(3, (2,))
        ig = invariants.build_integrand(prob, "sine")
        flag = simple_flag([(1,)], arr.lattice_basis(prob.nonzero_weights()))
        local = localize(ig, (0,), flag)
        with pytest.raises(ValueError, match="denominator_scale"):
            engine.flag_residue(local, flag, ig)

    def test_factors_are_binomials_over_one_monomial(self, monkeypatch):
        # each factor's sine image is the binomial of a half-exponent row over
        # a monomial, and every monomial merges with the measure into the hot
        # numerator: at the first step it is one monomial, and every row is
        # nonzero with its first nonzero entry positive
        terms = []
        step = engine._step

        def first_step(term, var, *args, **kwargs):
            if var == 0:
                terms.append(term)
            return step(term, var, *args, **kwargs)

        monkeypatch.setattr(engine, "_step", first_step)
        invariants.compute(builders.framed_a3_problem(3, 1, (1, 2, 3)), kind="sine",
                           allow_root_incidence=True)
        assert terms
        for term in terms:
            assert list(term.hot.terms.values()) == [1]
            assert term.factors and all(next(filter(None, h)) > 0 for h in term.factors)
            assert all(len(h) == term.hot.nvars for h in term.factors)

    def test_unbalanced_factor_list_rejected(self):
        ig = bare_integrand(1, [IntegrandFactor(rho=(F(1),), const=F(0), exponent=-1,
                                                origin="weight-den")], kind="sine")
        flag = simple_flag([(1,)], [(1,)])
        local = localize(ig, (0,), flag)
        with pytest.raises(AssertionError):
            flag_residue_multiplicative(local, flag, ig)

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
        value = flag_residue_multiplicative(local, flag, ig)
        # residue at S=1 of (wS - 1/(wS)) / (S - 1/S) times the prefactor
        # 1/(w - 1/w): the binomial at S=1 cancels the prefactor exactly
        assert value == RatFunc.const(1)


class TestJKResidue:
    def test_cy3_origin_jk_is_352(self):
        prob = builders.grassmannian_det(2, 4, 4, degree=1)
        ig = invariants.build_integrand(prob, "additive")
        basis = arr.lattice_basis(prob.nonzero_weights())
        flags = arr.enumerate_flags([(-1, 0), (0, -1)], prob.xi, basis, ((0, -1), (1, 1)))
        assert jk_residue(ig, local_flags(ig, (0, 0), flags)) == 352

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

        flags = arr.enumerate_flags(weights, xi_t, basis, ((0, 1), (1, 1)))
        base = jk_residue(make(1), local_flags(make(1), (0, 0), flags))
        scaled = jk_residue(make(3), local_flags(make(3), (0, 0), flags))
        assert base == 1
        assert scaled == F(1, 9) * base

    def test_flag_order_irrelevant(self):
        prob = builders.framed_a3_problem(2, 1)
        ig = invariants.build_integrand(prob, "additive")
        basis = arr.lattice_basis(prob.nonzero_weights())
        report = invariants.validate(prob)
        pert = arr.sum_regular_perturbation(prob.xi, seed=0)
        pt = report.stable_points[0]
        flags = arr.enumerate_flags(pt.active_weights, prob.xi, basis, pert.order)
        fwd = jk_residue(ig, local_flags(ig, pt.point, flags))
        rev = jk_residue(ig, local_flags(ig, pt.point, list(reversed(flags))))
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

            flags = arr.enumerate_flags(weights, xi_t, basis, tuple((j, 1) for j in range(k)))
            base, scaled = (jk_residue(ig, local_flags(ig, (0,) * k, flags))
                            for ig in (bare_integrand(k, factors),
                                       bare_integrand(k, scaled_factors(lam))))
            assert scaled == lam ** (-k) * base, (trial, k, lam)


def _unscreened(local_factors, rank):
    """`engine._pole_bounds` with neither screen nor caps."""
    return [math.inf] * rank


def _screen_problem(case):
    """(problem, compute keywords) of a zero-screen case: a framed A^3 quiver
    of length 3, rank 1, by its charges, or a fuzz config by name."""
    if isinstance(case, tuple):
        return builders.framed_a3_problem(3, 1, case), \
            {"allow_root_incidence": case in ((1, 1, 2), (1, 2, 3))}
    cfg = parse_config(test_fuzz.CONFIGS[case])
    return cfg.build_problem(), {"seed": cfg.seed}


SCREEN_CASES = [(1, 1, 1), (1, 2, 2), (1, 1, 2), (1, 2, 3), *test_fuzz.CONFIGS]


@pytest.mark.parametrize("case", SCREEN_CASES, ids=map(str, SCREEN_CASES))
def test_screened_flags_have_zero_residue(case, monkeypatch):
    """Every flag the zero screen decides has residue exactly zero when the
    residue is computed in full: for all three kinds at q-order 1 on the fuzz
    configs, and for the additive and sine kinds on the quivers, whose 109
    screened flags take about 7 s of full theta residues at q-order 1."""
    try:
        problem, kwargs = _screen_problem(case)
        points = invariants.compute(problem, kind="additive", **kwargs).diagnostics.points
    except (ConfigError, ValueError, invariants.ValidationError, arr.PerturbationError):
        return   # the fuzz config is rejected before any residue is taken
    additive = invariants.build_integrand(problem, "additive")
    screened = [(p.point, flag) for p in points for flag in p.flags
                if engine._pole_bounds(localize(additive, p.point, flag), problem.rank) is None]
    if case == (1, 1, 2):
        assert len(screened) >= 24
    monkeypatch.setattr(engine, "_pole_bounds", _unscreened)
    for kind in engine.KINDS[:2] if isinstance(case, tuple) else engine.KINDS:
        integrand = invariants.build_integrand(problem, kind, q_order=1)
        integrand.denom_scale = engine.denominator_scale(localize(integrand, p.point, flag)
                                                         for p in points for flag in p.flags)
        for point, flag in screened:
            value = engine.flag_residue(localize(integrand, point, flag), flag, integrand)
            assert (value == 0) if kind == "additive" else value.is_zero(), (kind, point)


def _local(*factors):
    """LocalFactors from (c, l, exponent) triples, plus a constant factor that
    balances the factor count as the sine kind requires."""
    out = [LocalFactor(const=c, lin=lin, den=1, exponent=e) for c, lin, e in factors]
    return out + [LocalFactor(const=1, lin=(0,) * len(factors[0][1]), den=1,
                              exponent=-sum(e for _, _, e in factors))]


def test_screen_bounds_the_pole_order_of_rank2_integrands(monkeypatch):
    """Rank-2 integrands at the origin with the flag kappa = identity: every
    one the screen decides has zero additive and sine residues.  The first
    two have nonzero residues: (z0+z1)^2 / (z0 z1)^2 is 2, and
    z1 / (z0^2 (z0+z1)) is -1.  A screen that carries a numerator factor
    with its exponent, or a denominator factor without the e - target
    update, decides them.  The seeded ones have factors c + l.z with c in
    {0, 1}, l in [-2, 2]^2 and exponent in [-3, 2]."""
    cases = [_local((0, (1, 1), 2), (0, (1, 0), -2), (0, (0, 1), -2)),
             _local((0, (0, 1), 1), (0, (1, 0), -2), (0, (1, 1), -1))]
    rng = random.Random(11)
    for _ in range(400):
        factors = [(rng.choice((0, 0, 1)), (rng.randint(-2, 2), rng.randint(-2, 2)),
                    rng.choice((-3, -2, -1, 1, 2))) for _ in range(rng.randint(2, 5))]
        cases.append(_local(*[f for f in factors if any(f[1])] or [(1, (1, 0), 1)]))
    screened = [local for local in cases if engine._pole_bounds(local, 2) is None]
    # decided at the second step, where the carried exponents matter
    assert sum(engine._pole_bounds(local, 1) is not None for local in screened) >= 20
    monkeypatch.setattr(engine, "_pole_bounds", _unscreened)
    flag = simple_flag([(1, 0), (0, 1)], [(1, 0), (0, 1)])
    additive = bare_integrand(2, [])
    sine = bare_integrand(2, [], kind="sine")
    for local in screened:
        assert flag_residue_additive(local, flag, additive) == 0, local
        assert flag_residue_multiplicative(local, flag, sine).is_zero(), local


def _triangular(rng, k):
    """Seeded rank-k factors at the origin whose flag kappa = identity has a
    pole at every step: (c, l, exponent) triples, one c = 0 denominator with
    l_j = 1 and random l_i, i < j, for each j."""
    out = []
    for j in range(k):
        lin = [rng.choice((0, 1, -1)) for _ in range(j)] + [1] + [0] * (k - j - 1)
        out.append((0, tuple(lin), -rng.choice((1, 1, 2))))
    return out


def identity_flag(k):
    return simple_flag([[int(i == j) for j in range(k)] for i in range(k)],
                       [[int(i == j) for j in range(k)] for i in range(k)])


def test_the_degree_screen_decides_only_zero_residues(monkeypatch):
    """A flag whose c = 0 factors have exponents summing to d > -rank has
    zero additive, sine and theta residues when computed unscreened, and
    `_pole_bounds` decides it.  The seeded cases, ranks 1 to 4, add c = 0
    numerators to `_triangular`'s poles; the walk alone misses 12 of the 86
    that the degree screen decides."""
    rng = random.Random(7)
    decided = []
    for _ in range(300):
        k = rng.randint(1, 4)
        factors = _triangular(rng, k)
        for _ in range(rng.randint(1, 3)):
            lin = tuple(rng.randint(-1, 1) for _ in range(k))
            if any(lin):
                factors.append((0, lin, rng.choice((1, 1, -1))))
        if sum(e for _, _, e in factors) > -k:
            local = _local(*factors)
            assert engine._pole_bounds(local, k) is None, factors
            decided.append((k, local))
    assert len(decided) == 86
    monkeypatch.setattr(engine, "_pole_bounds", _unscreened)
    for k, local in decided:
        flag = identity_flag(k)
        assert flag_residue_additive(local, flag, bare_integrand(k, [])) == 0
        for kind in ("sine", "theta"):
            integrand = bare_integrand(k, [], kind=kind, q_order=1)
            assert flag_residue_multiplicative(local, flag, integrand).is_zero(), (kind, local)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_the_degree_screen_keeps_one_over_the_coordinates(k):
    """1 / (z_0 ... z_(k-1)) has d = -k, on the screen's edge, and residue 1:
    no screen decides it, and every pole bound is 1."""
    local = _local(*((0, tuple(int(i == j) for j in range(k)), -1) for i in range(k)))
    assert engine._pole_bounds(local, k) == [1] * k
    flag = identity_flag(k)
    assert flag_residue_additive(local, flag, bare_integrand(k, [])) == 1
    assert not flag_residue_multiplicative(local, flag, bare_integrand(k, [], kind="sine")).is_zero()


def _uncapped(monkeypatch):
    """Keep the screens and turn the caps off: `_pole_bounds` bounds no step."""
    bounds = engine._pole_bounds
    monkeypatch.setattr(engine, "_pole_bounds", lambda local_factors, rank: (
        None if bounds(local_factors, rank) is None else [math.inf] * rank))


def _quiver_flags(problem, **kwargs):
    """The (flag, localization) pairs of every flag of a DT run of `problem`."""
    points = invariants.compute(problem, kind="additive", **kwargs).diagnostics.points
    integrand = invariants.build_integrand(problem, "additive")
    return integrand, [(flag, localize(integrand, p.point, flag))
                       for p in points for flag in p.flags]


CAP_CASES = ["quiver-dt"] + [(charges, seed) for charges in ((1, 1, 1), (1, 1, 2), (1, 2, 2))
                             for seed in (0, 1)]


@pytest.mark.parametrize("case", CAP_CASES, ids=map(str, CAP_CASES))
def test_capped_residues_equal_uncapped_ones(case, monkeypatch):
    """Every flag's capped additive residue equals its uncapped one: on the
    seed-3 `quiver-dt` deck, and on length-4 framed A^3 DT at two seeds."""
    if case == "quiver-dt":
        runs = [_quiver_flags(item.problem, **{k: v for k, v in item.kwargs.items()
                                               if k != "kind"})
                for item in deck("quiver-dt")]
    else:
        charges, seed = case
        runs = [_quiver_flags(builders.framed_a3_problem(4, 1, charges), seed=seed,
                              allow_root_incidence=True)]
    cases = [(local, flag, integrand) for integrand, flags in runs for flag, local in flags]
    capped = [flag_residue_additive(*c) for c in cases]
    assert any(capped)
    _uncapped(monkeypatch)
    assert [flag_residue_additive(*c) for c in cases] == capped


def test_capped_residues_of_seeded_integrands_equal_uncapped_ones(monkeypatch):
    """Seeded rank-3 to rank-5 additive integrands at the origin, poles from
    `_triangular` and a few unit numerators and c = 0 factors: each capped
    residue equals the uncapped one.  Of the 300, 225 are nonzero, and the
    caps drop packed groups in 157."""
    rng = random.Random(6)
    cases = []
    for k in (3, 4, 5):
        for _ in range(100):
            factors = _triangular(rng, k)
            for _ in range(rng.randint(0, 2)):
                lin = tuple(rng.randint(-1, 1) for _ in range(k))
                if any(lin):
                    factors.append((0, lin, rng.choice((-1, -1, 1))))
            for _ in range(rng.randint(1, 3)):
                lin = tuple(rng.randint(-2, 2) for _ in range(k))
                factors.append((rng.choice((1, 2, -1)), lin, rng.choice((-1, 1, 2, 3))))
            cases.append((_local(*factors), identity_flag(k), bare_integrand(k, [])))
    capped = [flag_residue_additive(*c) for c in cases]
    assert sum(map(bool, capped)) == 225
    _uncapped(monkeypatch)
    assert [flag_residue_additive(*c) for c in cases] == capped


def _handoff_cases():
    """Seeded sine and theta flag residues at ranks 1-3, theta at q-orders
    0-4: `_triangular`'s poles times one to three units c + l.z, c in
    {-2, -1, 1, 2}, of exponent -2 to 2, at the identity flag."""
    rng = random.Random(33)
    for k in (1, 2, 3):
        for _ in range(12):
            factors = _triangular(rng, k)
            for _ in range(rng.randint(1, 3)):
                lin = tuple(rng.randint(-2, 2) for _ in range(k))
                factors.append((rng.choice((-2, -1, 1, 2)), lin, rng.choice((-2, -1, 1, 2))))
            local = _local(*factors)
            yield local, identity_flag(k), bare_integrand(k, [], kind="sine")
            yield local, identity_flag(k), bare_integrand(k, [], kind="theta",
                                                          q_order=rng.randint(0, 4))


def _assembled_from_terms(term, order):
    """`engine._assemble_multiplicative` as it read the last step's value
    before it stayed packed: unpacked, split by q, each q^t coefficient
    built from (exponent of w, coefficient) pairs."""
    kr, packed, shift = term.hot
    poly = kr.unpack(packed)
    rows = [(RatFunc([(2 * h[kr.var], 1), (0, -1)]), e) for h, e in term.factors.items()]
    num = math.prod([p ** e for p, e in rows if e > 0], start=RatFunc.const(term.coeff))
    den = math.prod([p ** -e for p, e in rows if e < 0], start=RatFunc.const(1))
    coeffs = [RatFunc([(key[kr.var] + shift, c) for key, c in poly.terms.items() if key[-1] == t])
              * num / den for t in range((order or 0) + 1)]
    return coeffs[0] if order is None else coeffs


def test_the_packed_handoff_gives_the_values_of_the_unpacked_one(monkeypatch):
    """The last step's packed groups become the RatFunc coefficient lists
    directly: each q^t group's digits, spread by the stride, from its low.
    On the seeded sine and theta residues of `_handoff_cases` and the
    rank-2 residues of Ell of grassmannian_det(2, 4, 4) to q^2 every
    assembly equals the one read off the unpacked value, and the values
    are those of the code that unpacked them (their digest).  The cases
    hand over a group of negative low, a layout of stride > 1, a q^t
    coefficient with no group, and rank-2 values."""
    seen = Counter()
    assemble = engine._assemble_multiplicative

    def checked(term, order):
        kr, packed, shift = term.hot
        qs = {others[-1] for others, _ in packed}
        seen["negative low"] += any(low + shift < 0 for low, _ in packed.values())
        seen["stride > 1"] += kr.stride > 1
        seen["empty q^t"] += len(qs) < (order or 0) + 1
        seen["rank 2"] += kr.var == 2
        got = assemble(term, order)
        want = _assembled_from_terms(term, order)
        assert (got.coeffs if order is not None else got) == want
        return got

    monkeypatch.setattr(engine, "_assemble_multiplicative", checked)
    values = [flag_residue_multiplicative(*case).to_string() for case in _handoff_cases()]
    ell = invariants.compute(builders.grassmannian_det(2, 4, 4), kind="theta", q_order=2).ell
    values.append(ell.to_string())
    assert all(seen[key] for key in ("negative low", "stride > 1", "empty q^t", "rank 2")), seen
    digest = hashlib.sha256("\n".join(values).encode()).hexdigest()
    assert digest == HANDOFF_DIGEST, digest


class TestIdenticallyZeroFactors:
    def test_zero_numerator_gives_zero_invariants(self):
        """The zero covector with charge d has the numerator factor 0 + 0.u:
        DT, chi_y and every Ell coefficient vanish."""
        problem = invariants.make_problem(rank=1, weights=[((1,), 0, 2), ((0,), 1, 1)],
                                          roots=[], xi=(1,), degree=1)
        res = invariants.compute(problem, kind="all", q_order=1)
        assert res.dt == 0
        assert res.chi_y.is_zero()
        assert len(res.ell.coeffs) == 2
        assert all(c.is_zero() for c in res.ell.coeffs)

    def test_zero_denominator_raises(self):
        local = _local((0, (1,), -1), (0, (0,), -1))
        flag = simple_flag([(1,)], [(1,)])
        with pytest.raises(ZeroDivisionError, match="identically zero"):
            flag_residue_additive(local, flag, bare_integrand(1, []))
        with pytest.raises(ZeroDivisionError, match="identically zero"):
            flag_residue_multiplicative(local, flag, bare_integrand(1, [], kind="sine"))

    def test_zero_degree_prefactor_raises(self):
        # at d = 0 the prefactor 1 / sine(y^d)^k is an identically zero denominator
        local = _local((0, (1,), -1), (1, (1,), 1))
        flag = simple_flag([(1,)], [(1,)])
        with pytest.raises(ZeroDivisionError, match="identically zero"):
            flag_residue_multiplicative(local, flag, bare_integrand(1, [], kind="sine", degree=0))


def _affine_series(a, b, e, n):
    """The first n coefficients of (a + b z)^e, a != 0, over Q."""
    out, c = [], Fraction(a) ** e
    for k in range(n):
        out.append(c)
        c = c * (e - k) / (k + 1) * b / a
    return out


def _additive_step(factors, z1=5):
    """One additive residue step at z0 = 0 on the (c, b, d, e) factors
    (c + b z0 + d z1)^e of hot numerator 1, as rows (b, d, c): the new term,
    its value at z1 and the residue computed over Q at z1, from the pole
    order of the factors with c = d = 0."""
    rows, scale = {}, (1, 1)
    for c, b, d, e in factors:
        scale = engine._fold(rows, engine._affine((b, d, c)), e, scale)
    hot = MultiPoly.const(2, 1)
    term = engine._step(engine._Term(Fraction(*scale), hot, rows), 0, 1, engine._affine_unit,
                        partial(hot.shift_coefficients, 0, a=0), zero_units=False)
    order = -sum(e for c, b, d, e in factors if not c and not d)
    want = [Fraction(1)] + [Fraction(0)] * (order - 1)
    for c, b, d, e in factors:
        if c or d:
            f = _affine_series(c + d * z1, b, e, order)
            want = [sum(want[i] * f[t - i] for i in range(t + 1)) for t in range(order)]
        else:
            want = [x * Fraction(b) ** e for x in want]

    got = term.coeff * sum(c * z1 ** k[1] for k, c in term.hot.terms.items())
    for (_, d, c), e in term.factors.items():
        got *= Fraction(c + d * z1) ** e
    return term, got, want[-1]


def test_residue_step_carries_powers_from_the_target_up():
    # 1 / z0^3 at target 2: the numerator power below the target is expanded,
    # the one at e = 4 carried as (2 + 3 z1)^2, the denominator as (1 + z1)^-3
    term, got, want = _additive_step([(0, 1, 0, -3), (1, 1, 1, 1), (2, 1, 3, 4), (1, -1, 1, -1)])
    assert got == want != 0
    assert sorted(term.factors.values()) == [-3, 2]


def test_a_target_zero_step_multiplies_nothing(monkeypatch):
    # a simple pole: every other factor is carried whole, with no series product
    monkeypatch.setattr(engine, "_row_series", None)
    term, got, want = _additive_step([(0, 2, 0, -1), (1, 1, 1, 1), (2, 1, 3, 4), (1, -1, 2, -1)])
    assert got == want != 0
    assert sorted(term.factors.values()) == [-1, 1, 4]
    assert term.hot == MultiPoly.const(2, 1)


def test_the_quiver_dt_deck_takes_its_residues_on_rows(count_calls):
    """The additive residues of the seed-3 `quiver-dt` deck run on affine
    rows alone: 54 residue steps, no binomial unit, and 1,846 packed
    products (60 steps and 1,940 products before the degree screen and the
    caps, 2,899 products while every factor was a polynomial raised by
    Miller's recurrence)."""
    binomial_units = count_calls(engine, "_binomial_unit")
    steps = count_calls(engine, "_step")
    products = count_calls(Kronecker, "mul_into")
    for item in deck("quiver-dt"):
        invariants.compute(item.problem, **item.kwargs)
    assert len(binomial_units) == 0
    assert len(steps) == 54
    assert len(products) == 1846


def test_the_request_mix_deck_makes_8840_packed_products(count_calls):
    """The DT requests of the seed-3 `request-mix` deck, parsed and computed
    as the benchmark computes them, make 8,840 packed products."""
    products = count_calls(Kronecker, "mul_into")
    for item in deck("request-mix"):
        cfg = parse_config(item.text)
        invariants.compute(cfg.build_problem(), kind="additive", q_order=cfg.q_order,
                           seed=cfg.seed)
    assert len(products) == 8840


def test_the_elliptic_genus_deck_makes_7050_packed_products(count_calls):
    """The chi_y and Ell requests of the seed-3 `elliptic-genus` deck, one
    theta residue per flag, make 7,050 packed products: the count moves
    with the work of the multiplicative steps, the order in which they
    multiply their units included.  It was 7,677 while the second and later
    scaled terms of a coefficient were added as products by a packed
    constant (627 of them); they are now added slot by slot."""
    products = count_calls(Kronecker, "mul_into")
    for item in deck("elliptic-genus"):
        invariants.compute(item.problem, **item.kwargs)
    assert len(products) == 7050


def test_the_elliptic_genus_deck_reads_back_only_between_steps(count_calls):
    """The seed-3 `elliptic-genus` deck hands the theta numerator to the
    first residue step and the last step's value to the assembly packed:
    41 unpacks are left, the hot numerators between the two steps of
    rank-2 residues, and 1,165 packs.  It was 988 unpacks and 1,475 packs
    while both went through polynomials."""
    unpacks = count_calls(Kronecker, "unpack")
    packs = count_calls(Kronecker, "pack_terms")
    for item in deck("elliptic-genus"):
        invariants.compute(item.problem, **item.kwargs)
    assert (len(unpacks), len(packs)) == (41, 1165)


def test_the_elliptic_genus_deck_takes_no_gcd_and_no_reslot(count_calls):
    """The seed-3 `elliptic-genus` deck divides the rows w^(2c) - 1 out of
    its assembled coefficients on their digits: no `RatFunc` gcd is left
    (217 while each coefficient was multiplied and divided as RatFuncs),
    and the theta numerator is packed straight into the first step's
    layout, so nothing is re-slotted (1,118 re-slots through `_pack`)."""
    gcds = count_calls(polyarith, "poly_gcd")
    for item in deck("elliptic-genus"):
        invariants.compute(item.problem, **item.kwargs)
    assert len(gcds) == 0
    assert not hasattr(engine, "_pack")


def test_two_groups_of_one_q_coefficient_are_merged():
    """A q^t coefficient packed at stride 2 with slots of both residues is
    two groups; the assembly merges them before it divides the rows out.
    Here q^0 is w^(-3) (w^2 - 1)(1 + 2w), two groups, q^1 is 3w - w^5, one
    group, and q^2 has none; the w shift is 1, and the rows are
    (w^2 - 1)^(-1) (w^6 - 1)^(-2) (w^4 - 1), so only the merged q^0 sheds
    its w^2 - 1."""
    kr = Kronecker(3, 1, 2 ** 8, [], 2)
    terms = {(0, -3, 0): -1, (0, -2, 0): -2, (0, -1, 0): 1, (0, 0, 0): 2,
             (0, 1, 1): 3, (0, 5, 1): -1}
    packed = kr.pack_terms(terms.items())
    assert sorted(key for key in packed if key[0][-1] == 0) == [((0, 0), 0), ((0, 0), 1)]
    rows = {(0, 1, 0): -1, (0, 3, 0): -2, (0, 2, 0): 1}
    term = engine._Term(F(3, 4), (kr, packed, 1), rows)
    got = engine._assemble_multiplicative(term, 2)
    assert got.coeffs == _assembled_from_terms(term, 2)
    assert got.coeffs[0] == RatFunc([(-2, 1), (-1, 2)]) * RatFunc(
        [(4, 1), (0, -1)]) / RatFunc([(6, 1), (0, -1)]) ** 2 * F(3, 4)


def test_screen_decides_the_zero_flags_of_the_quiver_dt_deck(monkeypatch):
    """The seed-3 `quiver-dt` deck has 199 flags, 115 of them with zero
    residue: the screens decide all of those (the walk alone decides 113),
    and every flag they decide has residue zero when computed in full."""
    screen = engine._pole_bounds
    monkeypatch.setattr(engine, "_pole_bounds", _unscreened)
    flags = zero = decided = 0
    for item in deck("quiver-dt"):
        problem = item.problem
        points = invariants.compute(problem, **item.kwargs).diagnostics.points
        integrand = invariants.build_integrand(problem, "additive")
        for p in points:
            for flag in p.flags:
                local = localize(integrand, p.point, flag)
                value = engine.flag_residue(local, flag, integrand)
                screened = screen(local, problem.rank) is None
                assert value == 0 or not screened, (item.name, p.point)
                flags += 1
                zero += value == 0
                decided += screened
    assert (flags, zero, decided) == (199, 115, 115)


def test_denominator_scale_collects_fractions():
    prob = invariants.make_problem(rank=1, weights=[((2,), 1, 1), ((1,), 0, 1)],
                                   roots=[], xi=(1,), degree=1)
    ig = invariants.build_integrand(prob, "sine")
    basis = arr.lattice_basis(prob.nonzero_weights())
    from jkcalc.engine import denominator_scale
    flags = arr.enumerate_flags([(2,)], (F(1),), basis, ((0, 1),))
    D = denominator_scale(localize(ig, (F(-1, 2),), flag) for flag in flags)
    assert D == 2
