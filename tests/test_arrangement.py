"""Arrangement combinatorics: intersections, stability cones, flags, lattices."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import flag_reference
from decks import deck_problems
import intersection_reference
from jkcalc import arrangement as arr
from jkcalc import builders, linalg
from jkcalc.arrangement import AffineForm, PerturbationError
from jkcalc.invariants import compute, make_problem, validate

CY3_FORMS = (
    [AffineForm((-1, 0), 0)] * 4
    + [AffineForm((0, -1), 0)] * 4
    + [AffineForm((4, 4), 1)]
)
CY3_WEIGHTS = [(-1, 0), (0, -1), (4, 4)]
CY3_XI = (-1, -1)
CY3_XI_TILDE = (Fraction(-11, 10), Fraction(-9, 10))  # the worked choice
# xi_tilde = (-1 - eps, -1 + eps^2), on the worked choice's side of the sum
# wall u1 = u2 through xi, and its mirror image (-1 + eps^2, -1 - eps)
CY3_ORDER = ((0, -1), (1, 1))
CY3_MIRRORED = ((1, -1), (0, 1))


def points_of(points):
    return sorted(p.point for p in points)


def value_at(form, point):
    """rho.point + const in Fraction arithmetic: the reference for the
    active sets of `arrangement.isolated_intersections`."""
    return sum((r * Fraction(x) for r, x in zip(form.rho, point)), Fraction(form.const))


class TestIsolatedIntersections:
    def test_two_points_on_a_line(self):
        forms = [AffineForm((1,), 1), AffineForm((1,), 0)]
        pts = arr.isolated_intersections(forms, 1)
        assert points_of(pts) == [(-1,), (0,)]

    def test_cy3_three_points(self):
        pts = arr.isolated_intersections(CY3_FORMS, 2)
        assert points_of(pts) == [(Fraction(-1, 4), Fraction(0)),
                                  (Fraction(0), Fraction(-1, 4)),
                                  (Fraction(0), Fraction(0))]

    def test_too_few_hyperplanes(self):
        assert arr.isolated_intersections([AffineForm((1, 1), 0)], 2) == []

    def test_active_sets_recomputed_against_all_forms(self):
        for pt in arr.isolated_intersections(CY3_FORMS, 2):
            expected = tuple(i for i, f in enumerate(CY3_FORMS)
                             if value_at(f, pt.point) == 0)
            assert pt.active_indices == expected
            # deduplicated covectors only
            assert len(set(pt.active_weights)) == len(pt.active_weights)


    def test_activity_at_denominators_3_and_7(self):
        # P = (1/3, 2/7) = (7, 6)/21: 3 u1 + 7 u2 = 3, 3 u1 = 1 and
        # 14 u2 = 4 meet there, 3 u1 + 7 u2 = 63 is a parallel of the first,
        # and the zero covector of constant 0 vanishes everywhere
        point = (Fraction(1, 3), Fraction(2, 7))
        forms = [AffineForm((3, 7), -3), AffineForm((3, 7), -63),
                 AffineForm((3, 0), -1),
                 AffineForm((0, 14), -4), AffineForm((0, 14), -3),
                 AffineForm((0, 0), 0), AffineForm((0, 0), 1),
                 AffineForm((21, -21), 1)]
        [pt] = [p for p in arr.isolated_intersections(forms, 2) if p.point == point]
        assert pt.active_indices == (0, 2, 3, 5)
        assert pt.active_indices == tuple(i for i, f in enumerate(forms)
                                          if value_at(f, point) == 0)
        assert pt.active_weights == (forms[0].rho, forms[2].rho, forms[3].rho)


def random_forms(rng, rank):
    """A seeded arrangement whose covectors repeat in every way the line
    grouping must handle: parallel hyperplanes, opposite covectors, 2w with
    an odd constant (a point with denominator 2) and zero covectors."""
    forms = []
    for _ in range(rng.randint(rank, rank + 2)):
        w = tuple(rng.randint(-2, 2) for _ in range(rank))
        c = rng.randint(-2, 2)
        forms.append(AffineForm(w, c))
        kind = rng.randrange(5)
        if kind == 0:
            forms.append(AffineForm(w, c + rng.randint(1, 2)))
        elif kind == 1:
            forms.append(AffineForm(tuple(-x for x in w), rng.randint(-2, 2)))
        elif kind == 2:
            forms.append(AffineForm(tuple(2 * x for x in w), 2 * rng.randint(-2, 2) + 1))
        elif kind == 3:
            forms.append(AffineForm((0,) * rank, rng.randint(0, 1)))
    rng.shuffle(forms)
    return forms


class TestIntersectionsAgainstReference:
    """`isolated_intersections` and `intersections` return what the
    hyperplane-combination enumeration of `intersection_reference.py`
    returns: the same points in the same order, with the same active
    indices and weights, the same stable subset, and the same regularity
    verdict; with one elimination, an inverse, per `rank`-set of sign-free
    lines, which gives both the points and xi's coordinates."""

    def assert_same(self, forms, rank, xi, monkeypatch, count_calls):
        echelons = count_calls(linalg, "_echelon")
        points = arr.isolated_intersections(forms, rank)
        alone = len(echelons)
        try:
            got = arr.intersections(forms, rank, xi)
        except PerturbationError:
            got = None
        monkeypatch.undo()
        sets = math.comb(len({linalg.primitive(f.rho) for f in forms if f.is_hyperplane()}), rank)
        assert alone == (sets if rank else 0)
        assert len(echelons) - alone == sets
        assert points == intersection_reference.isolated_intersections(forms, rank)
        weights = [f.rho for f in forms]
        assert arr.regular_stability_check(weights, xi) == \
            intersection_reference.regular_stability_check(weights, xi)
        try:
            expected = intersection_reference.intersections(forms, rank, xi)
        except PerturbationError:
            expected = None
        assert got == expected
        return points, got and got[1]

    def test_seeded_arrangements(self, monkeypatch, count_calls):
        rng = random.Random(18)
        seen = Counter()
        for rank in range(5):
            for _ in range(24 if rank < 4 else 12):
                forms = random_forms(rng, rank)
                xi = tuple(rng.randint(-2, 2) for _ in range(rank))
                points, stable = self.assert_same(forms, rank, xi, monkeypatch, count_calls)
                seen["points"] += len(points)
                seen["fractional"] += sum(any(x.denominator > 1 for x in pt.point)
                                          for pt in points)
                seen["irregular"] += stable is None
                seen["stable"] += len(stable or ())
        assert all(seen[key] > 0 for key in ("fractional", "irregular", "stable")), seen

    def test_hand_built_repetitions(self, monkeypatch, count_calls):
        # x - y and y - x, two parallels of each, 2x with an odd constant
        # (the points with x = -1/2), and two zero covectors
        forms = [AffineForm((1, -1), 1), AffineForm((-1, 1), 1), AffineForm((1, -1), 0),
                 AffineForm((2, 0), 1), AffineForm((1, 0), 0), AffineForm((0, 1), -1),
                 AffineForm((0, 0), 0), AffineForm((0, 0), 2), AffineForm((0, 3), 2)]
        points, stable = self.assert_same(forms, 2, (1, 2), monkeypatch, count_calls)
        assert (Fraction(-1, 2), Fraction(1, 2)) in [pt.point for pt in points]
        assert stable

    @pytest.mark.parametrize("problem", [
        builders.framed_a3_problem(3, 1, (1, 2, 3)), builders.framed_a3_problem(3, 2, (1, 1, 1)),
        builders.grassmannian_det(2, 4, 4, degree=1), builders.projective_bundle(4, (5,))],
        ids=["a3-n3-r1-123", "a3-n3-r2-111", "cy3-g24", "quintic"])
    def test_problems(self, problem, monkeypatch, count_calls):
        self.assert_same(problem.forms(), problem.rank, problem.xi, monkeypatch, count_calls)


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
        forms = [AffineForm((1,), 1), AffineForm((1,), 0)]
        pts = arr.intersections(forms, 1, (1,))[1]
        assert points_of(pts) == [(-1,), (0,)]

    def test_cy3_only_origin(self):
        pts = arr.intersections(CY3_FORMS, 2, CY3_XI)[1]
        assert points_of(pts) == [(0, 0)]

    def test_ci_only_origin(self):
        forms = [AffineForm((1,), 0)] * 5 + [AffineForm((-5,), 1)]
        pts = arr.intersections(forms, 1, (1,))[1]
        assert points_of(pts) == [(0,)]

    def test_irregular_stability_rejected(self):
        forms = [AffineForm((1, 0), 0), AffineForm((0, 1), 0)]
        with pytest.raises(PerturbationError):
            arr.intersections(forms, 2, (1, 0))

    def test_subset_of_isolated_and_cone(self):
        stable = arr.intersections(CY3_FORMS, 2, CY3_XI)[1]
        all_pts = {p.point for p in arr.isolated_intersections(CY3_FORMS, 2)}
        for pt in stable:
            assert pt.point in all_pts
            assert arr.cone_membership(CY3_XI, pt.active_weights)[0]


def perturbed(xi, order, eps):
    """The concrete xi + eps s_1 e_j1 + eps^2 s_2 e_j2 + ... of a signed order."""
    xi = list(map(Fraction, xi))
    for t, (j, s) in enumerate(order, 1):
        xi[j] += s * eps ** t
    return tuple(xi)


def origin_kappas(xi, order):
    """The kappa bases of the flags kept at the CY3 origin."""
    basis = arr.lattice_basis(CY3_WEIGHTS)
    return [f.kappa for f in arr.enumerate_flags([(-1, 0), (0, -1)], xi, basis, order)]


class TestPerturbation:
    def test_worked_perturbation_verifies(self):
        pert = arr.verify_perturbation(CY3_XI, CY3_ORDER)
        assert pert == arr.Perturbation(order=CY3_ORDER, seed=-1)
        # the order keeps the flag the worked xi_tilde keeps
        basis = arr.lattice_basis(CY3_WEIGHTS)
        worked = flag_reference.enumerate_flags([(-1, 0), (0, -1)], CY3_XI_TILDE, basis,
                                                CY3_ORDER)
        assert origin_kappas(CY3_XI, CY3_ORDER) == [f.kappa for f in worked]

    def test_xi_itself_fails_sum_regularity_for_cy3(self):
        # xi has the kappa-coordinates (0, 1) on both flags of the origin, so
        # the order decides which one is kept (TestFlags)
        for kappa in ([(-1, 0), (-1, -1)], [(0, -1), (-1, -1)]):
            assert linalg.solve_coords(kappa, CY3_XI) == (0, 1)

    def test_rank_one_order_never_decides(self):
        # in rank one the kappa-coordinate of a regular xi is never 0
        basis = arr.lattice_basis([(1,), (-3,)])
        orders = {arr.sum_regular_perturbation((1,), seed=seed).order for seed in range(8)}
        assert orders == {((0, 1),), ((0, -1),)}
        for weights in ([(1,)], [(-3,)], [(1,), (-3,)]):
            assert len({tuple(arr.enumerate_flags(weights, (1,), basis, order))
                        for order in orders}) == 1

    def test_seeded_perturbations_verify_and_differ(self):
        orders = [arr.sum_regular_perturbation(CY3_XI, seed=seed).order for seed in range(8)]
        for order in orders:
            assert arr.verify_perturbation(CY3_XI, order).order == order
        assert len(set(orders)) > 2


class TestPerturbationAgainstReference:
    """The symbolic perturbation is the limit of concrete ones: at every
    stable point, `enumerate_flags` at xi and the seeded order keeps the
    flags `flag_reference.py` keeps at xi + eps s_1 e_j1 + eps^2 s_2 e_j2 +
    ... for a concrete eps > 0 small enough that no coordinate vanishes."""

    EPS = Fraction(1, 1000)

    def assert_same(self, problem, seeds):
        weights = problem.nonzero_weights()
        basis = arr.lattice_basis(weights)
        points = validate(problem).stable_points
        orders = []
        for seed in seeds:
            order = arr.sum_regular_perturbation(problem.xi, seed=seed).order
            concrete = perturbed(problem.xi, order, self.EPS)
            for pt in points:
                got = arr.enumerate_flags(pt.active_weights, problem.xi, basis, order)
                # the order and its negation keep the same flags at the
                # concrete point: none of their coordinates there vanish
                for signs in (order, [(j, -s) for j, s in order]):
                    assert got == flag_reference.enumerate_flags(
                        pt.active_weights, concrete, basis, signs)
            orders.append(order)
        return orders

    def test_cy3(self):
        orders = self.assert_same(builders.grassmannian_det(2, 4, 4, degree=1), range(4))
        assert len(set(orders)) > 1

    def test_rank_one_keeps_xi(self):
        # no kappa-coordinate of xi vanishes in rank one: the flags are xi's
        problem = builders.projective_bundle(4, (5,))
        self.assert_same(problem, range(2))
        basis = arr.lattice_basis(problem.nonzero_weights())
        for pt in validate(problem).stable_points:
            assert arr.enumerate_flags(pt.active_weights, (1,), basis, ((0, 1),)) == \
                flag_reference.enumerate_flags(pt.active_weights, (1,), basis, ())

    def test_framed_a3_quiver(self):
        orders = self.assert_same(builders.framed_a3_problem(3, 1), range(4))
        assert orders[0] == ((1, -1), (2, -1), (0, -1))
        assert orders[2] == ((0, -1), (2, 1), (1, -1))

    def test_eps_stays_strictly_inside_the_chamber(self):
        # the concrete perturbations have the stable points of xi
        for problem in (builders.grassmannian_det(2, 4, 4, degree=1),
                        builders.framed_a3_problem(3, 1), builders.framed_a3_problem(2, 2)):
            stable = points_of(validate(problem).stable_points)
            for seed in range(3):
                order = arr.sum_regular_perturbation(problem.xi, seed=seed).order
                xi_tilde = perturbed(problem.xi, order, self.EPS)
                assert points_of(arr.intersections(
                    problem.forms(), problem.rank, xi_tilde)[1]) == stable


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
            coords = linalg.solve_coords(basis, w)
            assert all(c.denominator == 1 for c in coords)

    def test_nonspanning_rejected(self):
        with pytest.raises(ValueError):
            arr.lattice_basis([(1, 0)])


class TestFlags:
    def test_cy3_origin_single_stable_flag(self):
        basis = arr.lattice_basis(CY3_WEIGHTS)
        flags = arr.enumerate_flags([(-1, 0), (0, -1)], CY3_XI, basis, CY3_ORDER)
        assert len(flags) == 1
        assert flags[0].kappa == ((Fraction(-1), Fraction(0)),
                                  (Fraction(-1), Fraction(-1)))
        assert flags[0].lattice_factor == 1

    def test_cy3_mirrored_perturbation_selects_other_flag(self):
        basis = arr.lattice_basis(CY3_WEIGHTS)
        flags = arr.enumerate_flags([(-1, 0), (0, -1)], CY3_XI, basis, CY3_MIRRORED)
        assert len(flags) == 1
        assert flags[0].kappa[0] == (Fraction(0), Fraction(-1))

    def test_rank_one_single_flag(self):
        basis = arr.lattice_basis([(1,)])
        assert len(arr.enumerate_flags([(1,)], (Fraction(1),), basis, ((0, 1),))) == 1
        assert arr.enumerate_flags([(1,)], (Fraction(-1),), basis, ((0, 1),)) == []

    def test_repeated_weight_counts_once(self):
        basis = arr.lattice_basis([(1,)])
        flags = arr.enumerate_flags([(1,), (1,)], (Fraction(1),), basis, ((0, -1),))
        assert len(flags) == 1
        assert flags[0].kappa == ((Fraction(1),),)

    def test_order_independence(self):
        basis = arr.lattice_basis(CY3_WEIGHTS)
        ws = [(-1, 0), (0, -1), (4, 4)]
        reference = None
        for perm in itertools.permutations(ws):
            flags = arr.enumerate_flags(list(perm), CY3_XI, basis, CY3_ORDER)
            signature = sorted((f.kappa, f.lattice_factor) for f in flags)
            if reference is None:
                reference = signature
            assert signature == reference

    def test_perturbation_on_a_face_is_decided_by_the_order(self):
        # xi sits on the face spanned by kappa_2 = -u1-u2 of both flags at
        # the origin: each of the 8 signed orders keeps exactly one of them
        kept = Counter()
        for coords in itertools.permutations(range(2)):
            for signs in itertools.product((1, -1), repeat=2):
                kappas = origin_kappas(CY3_XI, tuple(zip(coords, signs)))
                assert len(kappas) == 1
                kept[kappas[0]] += 1
        assert sorted(kept.values()) == [4, 4]

    def test_rank_zero_trivial_flag(self):
        flags = arr.enumerate_flags([], (), [], ())
        assert len(flags) == 1 and flags[0].lattice_factor == 1

    def test_multi_flag_point_keeps_the_kappa_order(self):
        # three flags at the origin, in the order of their kappa: the chains'
        # first weights (1, 0) < (2, 1) < (3, 1), each with its inverse
        weights = [(1, 0), (0, 1), (2, 1), (3, 1), (1, 1)]
        problem = make_problem(2, [(w, 0, 1) for w in weights], [], (9, 5))
        for seed in range(6):
            result = compute(problem, kind="additive", seed=seed)
            assert result.dt == Fraction(-13, 3)
            [point] = result.diagnostics.points
            assert point.point == (0, 0)
            assert [(f.kappa, f.lattice_factor) for f in point.flags] == [
                (((1, 0), (7, 4)), Fraction(1, 4)),
                (((2, 1), (7, 4)), 1),
                (((3, 1), (7, 4)), Fraction(1, 5))]
            assert all(f.kappa_inverse == linalg.inverse(f.kappa) for f in point.flags)


class TestFlagsAgainstReference:
    """`enumerate_flags`, in closed form or by its top-down search, returns
    the flags of the per-tuple reference in `flag_reference.py`: kappa,
    kappa's inverse and the lattice factor, in the same order; the reference
    solves for the kappa-coordinates of xi and of each signed e_j separately
    and compares them lexicographically, and inverts kappa in Fractions."""

    @staticmethod
    def flags_of(enumerate_flags, weights, xi, basis, order):
        return [(f.kappa, f.kappa_inverse, f.lattice_factor)
                for f in enumerate_flags(weights, xi, basis, order)]

    def assert_same(self, weights, xi, basis, order):
        got = self.flags_of(arr.enumerate_flags, weights, xi, basis, order)
        assert got == self.flags_of(flag_reference.enumerate_flags, weights, xi, basis, order)
        return got

    def assert_same_at_stable_points(self, problem, orders):
        weights = problem.nonzero_weights()
        basis = arr.lattice_basis(weights)
        points = validate(problem).stable_points
        orders = list(orders) + [arr.sum_regular_perturbation(problem.xi).order]
        kept = 0
        for order in orders:
            for pt in points:
                kept += len(self.assert_same(pt.active_weights, problem.xi, basis, order))
        return len(points), kept

    def test_framed_a3_quiver(self):
        n_points, kept = self.assert_same_at_stable_points(
            builders.framed_a3_problem(3, 1, (2, 2, 2)), [((0, 1), (1, 1), (2, 1))])
        assert (n_points, kept) == (13, 26)

    def test_quiver_dt_deck_where_the_search_runs(self):
        # the top-down search, at every point with more than `rank` distinct
        # active weights, under two seeded orders each
        points = 0
        for problem in deck_problems("quiver-dt"):
            basis = arr.lattice_basis(problem.nonzero_weights())
            stable = validate(problem, strict_roots=False).stable_points
            stable = [pt for pt in stable if len(set(pt.active_weights)) > problem.rank]
            for seed in range(2):
                order = arr.sum_regular_perturbation(problem.xi, seed=seed).order
                for pt in stable:
                    self.assert_same(pt.active_weights, problem.xi, basis, order)
            points += len(stable)
        assert points == 63

    def test_cy3(self):
        n_points, kept = self.assert_same_at_stable_points(
            builders.grassmannian_det(2, 4, 4, degree=1), [CY3_ORDER, CY3_MIRRORED])
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
                xi = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                           for _ in range(rank))
                order = tuple((j, rng.choice((1, -1)))
                              for j in rng.sample(range(rank), rank))
                got = self.assert_same(weights, xi, basis, order)
                outcomes[min(len(got), 2)] += 1
                outcomes["tie"] += any(
                    0 in linalg.solve_coords(kappa, xi) for kappa, _, _ in got)
        # every path is exercised: no flag, one flag, several flags, and a
        # kept flag with a kappa-coordinate of xi that only the order decides
        assert all(outcomes[key] > 0 for key in (0, 1, 2, "tie"))


class TestSimplicialFlags:
    """At a point with exactly `rank` distinct active weights, the closed
    form of `enumerate_flags` keeps the flags of `flag_reference.py`, each
    with the same kappa, inverse of kappa and lattice factor."""

    def assert_same_at_simplicial_points(self, problems):
        count = 0
        for problem in problems:
            basis = arr.lattice_basis(problem.nonzero_weights())
            points = [pt for pt in validate(problem, strict_roots=False).stable_points
                      if len(set(pt.active_weights)) == problem.rank]
            for seed in range(5):
                order = arr.sum_regular_perturbation(problem.xi, seed=seed).order
                for pt in points:
                    assert arr.enumerate_flags(pt.active_weights, problem.xi, basis, order) == \
                        flag_reference.enumerate_flags(pt.active_weights, problem.xi, basis, order)
            count += len(points)
        return count

    def test_quiver_dt_deck(self):
        assert self.assert_same_at_simplicial_points(deck_problems("quiver-dt")) == 136

    def test_request_mix_deck(self):
        assert self.assert_same_at_simplicial_points(deck_problems("request-mix")) == 343

    def test_length_4_framed_a3(self):
        assert self.assert_same_at_simplicial_points([builders.framed_a3_problem(4, 1)]) == 41

    @pytest.mark.parametrize("weights, xi", [
        ([(1, 0), (0, 1)], (1, 1)),
        ([(1, 0), (0, 1)], (1, 0)),
        ([(1, 1, 0), (0, 1, 1), (1, 0, 1)], (2, 2, 2)),
        ([(1, 1, 0), (0, 1, 1), (1, 0, 1)], (1, 2, 1)),
        ([(2, -1, 0), (0, 1, 0), (0, 0, -1)], (2, 0, -1)),
    ], ids=["equal", "zero", "all-equal", "zero-and-equal", "zero-non-unimodular"])
    def test_ties_are_decided_by_the_signed_order(self, weights, xi):
        # xi's coordinates in the weights tie, or one is 0: only the signed
        # order decides, and different orders keep different flags
        basis = arr.lattice_basis(weights)
        kept = set()
        for coords in itertools.permutations(range(len(xi))):
            for signs in itertools.product((1, -1), repeat=len(xi)):
                order = tuple(zip(coords, signs))
                got = arr.enumerate_flags(weights, xi, basis, order)
                assert got == flag_reference.enumerate_flags(weights, xi, basis, order)
                kept.add(tuple(f.kappa for f in got))
        assert len(kept) > 1

    def test_the_inverse_read_off_the_line_table(self, monkeypatch, count_calls):
        # seeded sets of `rank` weights m p with multipliers +-1, +-2, +-3:
        # the weights' inverse, each column the column of p in the inverse of
        # the sorted lines over m, is `linalg.inverse(weights)`, rows and
        # denominator, and the flags are those of a run without the table;
        # two weights on one line, or dependent lines, invert to None and
        # keep no flag
        def scaled(m, v):
            return tuple(m * x for x in v)

        rng = random.Random(25)
        seen = Counter()
        for rank in (1, 2, 3):
            vectors = [v for v in itertools.product(range(-2, 3), repeat=rank) if any(v)]
            table = arr.LineTable()
            arr._line_inverses({arr._line(v)[0] for v in vectors}, rank, table)
            for _ in range(40):
                weights = [scaled(rng.choice((1, -1, 2, -2, 3, -3)), rng.choice(vectors))
                           for _ in range(rank)]
                if rank > 1 and rng.random() < 0.2:
                    weights[-1] = scaled(rng.choice((-2, -1, 2, 3)), weights[0])
                inverses = count_calls(linalg, "inverse")
                got = arr._weights_inverse(weights, table)
                monkeypatch.undo()
                assert len(inverses) == 0
                assert got == linalg.inverse(weights)
                xi = tuple(rng.randint(-2, 2) for _ in range(rank))
                order = tuple((j, rng.choice((1, -1))) for j in rng.sample(range(rank), rank))
                basis = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
                flags = arr.enumerate_flags(weights, xi, basis, order, table=table)
                assert flags == arr.enumerate_flags(weights, xi, basis, order)
                if got is None:
                    assert flags == []
                    one_line = len({arr._line(w)[0] for w in weights}) < rank
                    seen["one line" if one_line else "dependent lines"] += 1
                else:
                    seen["denominator > 1" if got[1] > 1 else "unimodular"] += 1
                    seen["flag"] += len(flags)
        assert all(seen[key] > 0 for key in ("one line", "dependent lines", "denominator > 1",
                                             "unimodular", "flag")), seen

    @pytest.mark.parametrize("weights", [[(1, 0), (2, 0)], [(1, 0, 0), (0, 1, 0), (1, 1, 0)]])
    def test_dependent_weights_keep_no_flag(self, weights):
        dim = len(weights[0])
        basis = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        order = tuple((j, 1) for j in range(dim))
        assert arr.enumerate_flags(weights, (1,) * dim, basis, order) == []


class TestProjectivity:
    def test_pointed_cone(self):
        assert arr.projectivity_check([(-1, 0), (0, -1)])

    def test_line(self):
        assert not arr.projectivity_check([(1,), (-1,)])

    def test_positive_circuit(self):
        assert not arr.projectivity_check([(1, 0), (0, 1), (-1, -1)])


def test_p1_fixed_point_count_matches():
    forms = [AffineForm((1,), 1), AffineForm((1,), 0)]
    assert len(arr.intersections(forms, 1, (1,))[1]) == 2


def test_random_points_reproduce_activity():
    rng = random.Random(2)
    for _ in range(20):
        forms = [AffineForm((rng.randint(-2, 2), rng.randint(-2, 2)),
                                 rng.randint(-1, 1)) for _ in range(5)]
        forms = [f for f in forms if f.is_hyperplane()]
        if len(forms) < 2:
            continue
        for pt in arr.isolated_intersections(forms, 2):
            assert all(value_at(forms[i], pt.point) == 0 for i in pt.active_indices)
            others = set(range(len(forms))) - set(pt.active_indices)
            assert all(value_at(forms[i], pt.point) != 0 for i in others)
