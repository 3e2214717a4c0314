"""Arrangement combinatorics: intersections, stability cones, flags, lattices."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import flag_reference
import perturbation_reference
from jkcalc import arrangement as arr
from jkcalc import builders, linalg
from jkcalc.arrangement import AffineForm, PerturbationError
from jkcalc.invariants import validate

CY3_FORMS = (
    [AffineForm.make((-1, 0), 0)] * 4
    + [AffineForm.make((0, -1), 0)] * 4
    + [AffineForm.make((4, 4), 1)]
)
CY3_WEIGHTS = [(-1, 0), (0, -1), (4, 4)]
CY3_XI = (-1, -1)
CY3_XI_TILDE = (Fraction(-11, 10), Fraction(-9, 10))  # the worked choice


def points_of(points):
    return sorted(p.point for p in points)


class TestIsolatedIntersections:
    def test_two_points_on_a_line(self):
        forms = [AffineForm.make((1,), 1), AffineForm.make((1,), 0)]
        pts = arr.isolated_intersections(forms, 1)
        assert points_of(pts) == [(-1,), (0,)]

    def test_cy3_three_points(self):
        pts = arr.isolated_intersections(CY3_FORMS, 2)
        assert points_of(pts) == [(Fraction(-1, 4), Fraction(0)),
                                  (Fraction(0), Fraction(-1, 4)),
                                  (Fraction(0), Fraction(0))]

    def test_too_few_hyperplanes(self):
        assert arr.isolated_intersections([AffineForm.make((1, 1), 0)], 2) == []

    def test_active_sets_recomputed_against_all_forms(self):
        for pt in arr.isolated_intersections(CY3_FORMS, 2):
            expected = tuple(i for i, f in enumerate(CY3_FORMS)
                             if f.value_at(pt.point) == 0)
            assert pt.active_indices == expected
            # deduplicated covectors only
            assert len(set(pt.active_weights)) == len(pt.active_weights)


    def test_activity_at_denominators_3_and_7(self):
        # P = (1/3, 2/7) = (7, 6)/21: 3 u1 + 7 u2 - 3 vanishes there, and
        # 3 u1 + 7 u2 - 63 would vanish if its constant were not scaled by 21
        point = (Fraction(1, 3), Fraction(2, 7))
        forms = [AffineForm.make((3, 7), -3), AffineForm.make((3, 7), -63),
                 AffineForm.make((Fraction(1, 2), 0), Fraction(-1, 6)),
                 AffineForm.make((0, 14), -4), AffineForm.make((0, 14), -3),
                 AffineForm.make((0, 0), 0), AffineForm.make((0, 0), 1),
                 AffineForm.make((21, -21), 1)]
        pt = arr._build_point(point, forms)
        assert pt.point == point
        assert pt.active_indices == (0, 2, 3, 5)
        assert pt.active_indices == tuple(i for i, f in enumerate(forms)
                                          if f.value_at(point) == 0)
        assert pt.active_weights == (forms[0].rho, forms[2].rho, forms[3].rho)


class TestConeMembership:
    def test_origin_cone_contains_xi(self):
        ok, mult = arr.cone_membership(CY3_XI, [(-1, 0), (0, -1)])
        assert ok
        assert mult == [1, 1]

    def test_mixed_cone_excludes_xi(self):
        ok, _ = arr.cone_membership(CY3_XI, [(4, 4), (0, -1)])
        assert not ok

    def test_identity(self):
        ok, mult = arr.cone_membership((1,), [(1,)])
        assert ok and mult == [1]

    def test_strict_needs_positive_coordinates(self):
        ok, _ = arr.cone_membership((1, 0), [(1, 0), (0, 1)], strict=True)
        assert not ok
        ok, mult = arr.cone_membership((2, 3), [(1, 0), (0, 1)], strict=True)
        assert ok and mult == [2, 3]


class TestRegularStability:
    def test_one_dimensional(self):
        assert arr.regular_stability_check([(1,), (-5,)], (1,))

    def test_cy3(self):
        assert arr.regular_stability_check(CY3_WEIGHTS, CY3_XI)

    def test_outside_span(self):
        assert not arr.regular_stability_check([(1, 0)], (0, 1))

    def test_on_a_ray_is_irregular(self):
        assert not arr.regular_stability_check([(1, 0), (0, 1)], (1, 0))


class TestStableIntersections:
    def test_p1_both_points_stable(self):
        forms = [AffineForm.make((1,), 1), AffineForm.make((1,), 0)]
        pts = arr.stable_intersections(forms, 1, (1,))
        assert points_of(pts) == [(-1,), (0,)]

    def test_cy3_only_origin(self):
        pts = arr.stable_intersections(CY3_FORMS, 2, CY3_XI)
        assert points_of(pts) == [(0, 0)]

    def test_ci_only_origin(self):
        forms = [AffineForm.make((1,), 0)] * 5 + [AffineForm.make((-5,), 1)]
        pts = arr.stable_intersections(forms, 1, (1,))
        assert points_of(pts) == [(0,)]

    def test_irregular_stability_rejected(self):
        forms = [AffineForm.make((1, 0), 0), AffineForm.make((0, 1), 0)]
        with pytest.raises(PerturbationError):
            arr.stable_intersections(forms, 2, (1, 0))

    def test_subset_of_isolated_and_cone(self):
        stable = arr.stable_intersections(CY3_FORMS, 2, CY3_XI)
        all_pts = {p.point for p in arr.isolated_intersections(CY3_FORMS, 2)}
        for pt in stable:
            assert pt.point in all_pts
            assert arr.cone_membership(CY3_XI, pt.active_weights)[0]


class TestPerturbation:
    def cy3_walls(self):
        sets = [p.active_weights for p in arr.stable_intersections(CY3_FORMS, 2, CY3_XI)]
        return arr.perturbation_walls(sets, CY3_WEIGHTS, 2)

    def test_worked_perturbation_verifies(self):
        pert = arr.verify_perturbation(CY3_XI, CY3_XI_TILDE, self.cy3_walls())
        assert arr.recheck_certificate(pert, CY3_XI)

    def test_xi_itself_fails_sum_regularity_for_cy3(self):
        with pytest.raises(PerturbationError):
            arr.verify_perturbation(CY3_XI, CY3_XI, self.cy3_walls())

    def test_rank_one_returns_xi(self):
        walls = arr.perturbation_walls([((1,),)], [(1,), (-3,)], 1)
        pert = arr.sum_regular_perturbation((1,), walls, seed=4)
        assert pert.xi_tilde == (1,)

    def test_seeded_perturbations_verify_and_differ(self):
        walls = self.cy3_walls()
        p0 = arr.sum_regular_perturbation(CY3_XI, walls, seed=0)
        p1 = arr.sum_regular_perturbation(CY3_XI, walls, seed=1)
        for p in (p0, p1):
            assert arr.recheck_certificate(p, CY3_XI)
            arr.verify_perturbation(CY3_XI, p.xi_tilde, walls)

    def test_certificate_recheck_detects_tampering(self):
        pert = arr.verify_perturbation(CY3_XI, CY3_XI_TILDE, self.cy3_walls())
        pert.xi_tilde = (Fraction(-1, 4), Fraction(-1, 4))  # crosses the (4,4) wall
        assert not arr.recheck_certificate(pert, CY3_XI)


class TestPerturbationAgainstReference:
    """The closed-form eps gives the certificate of the halving search in
    `perturbation_reference.py`."""

    @staticmethod
    def assert_same(xi, walls, seed):
        got = arr.sum_regular_perturbation(xi, walls, seed=seed)
        ref = perturbation_reference.sum_regular_perturbation(xi, walls, seed=seed)
        assert (got.xi_tilde, got.chamber_checks, got.sum_checks, got.seed) == \
            (ref.xi_tilde, ref.chamber_checks, ref.sum_checks, ref.seed)
        return got.xi_tilde

    def xi_tildes(self, problem, seeds):
        points = validate(problem).stable_points
        walls = arr.perturbation_walls([p.active_weights for p in points],
                                       problem.nonzero_weights(), problem.rank)
        return [self.assert_same(problem.xi, walls, seed) for seed in seeds]

    def test_cy3(self):
        xi_tildes = self.xi_tildes(builders.grassmannian_det(2, 4, 4, degree=1), range(4))
        assert CY3_XI not in xi_tildes

    def test_rank_one_keeps_xi(self):
        assert self.xi_tildes(builders.projective_bundle(4, (5,)), range(2)) == [(1,), (1,)]

    def test_framed_a3_quiver(self):
        # xi = (1, 1, 1).  Seed 0 draws r = (3, 4, -8), where eps = 1/10 puts
        # xi_tilde on a sum wall, so eps = 1/20; seed 2 first draws
        # r = (-8, -7, -7) on the sum wall (0, 1, -1) through xi, then (2, -4, 0)
        xi_tildes = self.xi_tildes(builders.framed_a3_problem(3, 1), range(4))
        assert xi_tildes[0] == (Fraction(23, 20), Fraction(6, 5), Fraction(3, 5))
        assert xi_tildes[2] == (Fraction(6, 5), Fraction(3, 5), Fraction(1))

    def test_eps_stays_strictly_inside_the_chamber(self):
        # seed 0 draws r = (3, 4), off the sum wall (1, 0) through xi; the
        # chamber wall (14, -3) vanishes at eps = 1/10 exactly
        walls = arr.PerturbationWalls(chamber=((14, -3),), sums=((1, 0),))
        assert self.assert_same((0, 1), walls, 0) == (Fraction(3, 20), Fraction(6, 5))


class TestLatticeBasis:
    def test_identity(self):
        assert arr.lattice_basis([(1, 0), (0, 1)]) == [(1, 0), (0, 1)]

    def test_gcd_lattice(self):
        assert arr.lattice_basis([(2,), (3,)]) == [(1,)]

    def test_index_two_sublattice(self):
        basis = arr.lattice_basis([(2, 0), (0, 2), (1, 1)])
        assert basis == [(1, 1), (0, 2)]
        from jkcalc import linalg
        assert abs(linalg.det(basis)) == 2
        for w in [(2, 0), (0, 2), (1, 1)]:
            coords = linalg.solve_coords([linalg.fvec(b) for b in basis], linalg.fvec(w))
            assert all(c.denominator == 1 for c in coords)

    def test_nonspanning_rejected(self):
        with pytest.raises(ValueError):
            arr.lattice_basis([(1, 0)])


class TestFlags:
    def test_cy3_origin_single_stable_flag(self):
        basis = arr.lattice_basis(CY3_WEIGHTS)
        flags = arr.enumerate_flags([(-1, 0), (0, -1)], CY3_XI_TILDE, basis)
        assert len(flags) == 1
        assert flags[0].kappa == (((-1), 0), ((-1), (-1))) or \
            flags[0].kappa == ((Fraction(-1), Fraction(0)),
                               (Fraction(-1), Fraction(-1)))
        assert flags[0].lattice_factor == 1

    def test_cy3_mirrored_perturbation_selects_other_flag(self):
        basis = arr.lattice_basis(CY3_WEIGHTS)
        flags = arr.enumerate_flags([(-1, 0), (0, -1)],
                                    (Fraction(-9, 10), Fraction(-11, 10)), basis)
        assert len(flags) == 1
        assert flags[0].kappa[0] == (Fraction(0), Fraction(-1))

    def test_rank_one_single_flag(self):
        basis = arr.lattice_basis([(1,)])
        assert len(arr.enumerate_flags([(1,)], (Fraction(1),), basis)) == 1
        assert arr.enumerate_flags([(1,)], (Fraction(-1),), basis) == []

    def test_repeated_weight_counts_once(self):
        basis = arr.lattice_basis([(1,)])
        flags = arr.enumerate_flags([(1,), (1,)], (Fraction(1),), basis)
        assert len(flags) == 1
        assert flags[0].kappa == ((Fraction(1),),)

    def test_order_independence(self):
        basis = arr.lattice_basis(CY3_WEIGHTS)
        ws = [(-1, 0), (0, -1), (4, 4)]
        reference = None
        for perm in itertools.permutations(ws):
            flags = arr.enumerate_flags(list(perm), CY3_XI_TILDE, basis)
            signature = sorted((f.kappa, f.lattice_factor) for f in flags)
            if reference is None:
                reference = signature
            assert signature == reference

    def test_perturbation_on_a_face_is_surfaced(self):
        # xi itself sits on the face spanned by kappa_2 = -u1-u2: the zero
        # multiplier contradicts sum-regularity and must raise, not guess
        basis = arr.lattice_basis(CY3_WEIGHTS)
        with pytest.raises(arr.FlagStabilityError):
            arr.enumerate_flags([(-1, 0), (0, -1)], (-1, -1), basis)

    def test_rank_zero_trivial_flag(self):
        flags = arr.enumerate_flags([], (), [])
        assert len(flags) == 1 and flags[0].lattice_factor == 1


class TestFlagsAgainstReference:
    """The prefix-tree enumeration returns the flags of the per-tuple
    reference in `flag_reference.py`, field by field and in the same order."""

    @staticmethod
    def flags_of(enumerate_flags, weights, xi_tilde, basis):
        try:
            return [(f.generators, f.chain, f.kappa, f.lattice_factor)
                    for f in enumerate_flags(weights, xi_tilde, basis)]
        except arr.FlagStabilityError:
            return "FlagStabilityError"

    def assert_same(self, weights, xi_tilde, basis):
        got = self.flags_of(arr.enumerate_flags, weights, xi_tilde, basis)
        assert got == self.flags_of(flag_reference.enumerate_flags, weights, xi_tilde, basis)
        return got

    def assert_same_at_stable_points(self, problem, xi_tildes):
        weights = problem.nonzero_weights()
        basis = arr.lattice_basis(weights)
        points = validate(problem).stable_points
        walls = arr.perturbation_walls([p.active_weights for p in points], weights,
                                       problem.rank)
        xi_tildes = list(xi_tildes) + [arr.sum_regular_perturbation(problem.xi, walls).xi_tilde]
        kept = 0
        for xi_tilde in xi_tildes:
            for pt in points:
                kept += len(self.assert_same(pt.active_weights, xi_tilde, basis))
        return len(points), kept

    def test_framed_a3_quiver(self):
        n_points, kept = self.assert_same_at_stable_points(
            builders.framed_a3_problem(3, 1, (2, 2, 2)), [])
        assert (n_points, kept) == (13, 13)

    def test_cy3(self):
        n_points, kept = self.assert_same_at_stable_points(
            builders.grassmannian_det(2, 4, 4, degree=1),
            [CY3_XI_TILDE, (Fraction(-9, 10), Fraction(-11, 10))])
        assert (n_points, kept) == (1, 3)

    def test_random_active_sets(self):
        rng = random.Random(23)
        outcomes = Counter()
        for rank in (2, 3):
            for _ in range(60):
                weights = [tuple(rng.randint(-2, 2) for _ in range(rank))
                           for _ in range(rng.randint(rank, rank + 3))]
                weights = [w for w in weights if any(w)]
                if len(weights) < rank or linalg.rank(weights) < rank:
                    continue
                basis = arr.lattice_basis(weights)
                xi_tilde = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                                 for _ in range(rank))
                got = self.assert_same(weights, xi_tilde, basis)
                outcomes["raised" if isinstance(got, str) else min(len(got), 2)] += 1
        # every path is exercised: no flag, one flag, several flags, a zero multiplier
        assert all(outcomes[key] > 0 for key in (0, 1, 2, "raised"))


class TestProjectivity:
    def test_pointed_cone(self):
        assert arr.projectivity_check([(-1, 0), (0, -1)])

    def test_line(self):
        assert not arr.projectivity_check([(1,), (-1,)])

    def test_positive_circuit(self):
        assert not arr.projectivity_check([(1, 0), (0, 1), (-1, -1)])


def test_p1_fixed_point_count_matches():
    forms = [AffineForm.make((1,), 1), AffineForm.make((1,), 0)]
    assert len(arr.stable_intersections(forms, 1, (1,))) == 2


def test_random_points_reproduce_activity():
    rng = random.Random(2)
    for _ in range(20):
        forms = [AffineForm.make((rng.randint(-2, 2), rng.randint(-2, 2)),
                                 rng.randint(-1, 1)) for _ in range(5)]
        forms = [f for f in forms if f.is_hyperplane()]
        if len(forms) < 2:
            continue
        for pt in arr.isolated_intersections(forms, 2):
            assert all(forms[i].value_at(pt.point) == 0 for i in pt.active_indices)
            others = set(range(len(forms))) - set(pt.active_indices)
            assert all(forms[i].value_at(pt.point) != 0 for i in others)
