"""Quiver-to-arrangement translation and the cycle properness test."""

from collections import Counter

import pytest

import oracles
import quiver_reference
from jkcalc import builders, invariants
from jkcalc.invariants import ValidationError
from jkcalc.quiver import (Quiver, QuiverArrow, QuiverNode, QuiverStability,
                           cycle_condition_check, to_git_problem)


def test_elliptic_genus_of_the_length3_quiver():
    """The paper's quiver application to q^1: the framed A^3 quiver of length
    3, rank 1, charges (1,1,1).  Ell(q=0) = chi_y, chi_y(1) = DT, and DT is
    the q^3 coefficient of the MacMahon power, -48."""
    res = invariants.compute(builders.framed_a3_problem(3, 1, (1, 1, 1)), kind="all",
                             q_order=1)
    assert res.ell.coeffs[0] == res.chi_y
    assert invariants.limit_at_one(res.chi_y) == res.dt
    series = oracles.macmahon_power(1, oracles.quiver_a3_exponent(1, (1, 1, 1)), 3)
    assert res.dt == series[3] == -48


A3_CHARGES = ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3))


def macmahon_dt(n, r, charges):
    return oracles.macmahon_power(r, oracles.quiver_a3_exponent(r, charges), n)[n]


@pytest.mark.parametrize("n, r", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_dt_of_framed_a3_quivers_at_two_seeds(n, r):
    """xi = (1, ..., 1) lies on sum walls of these quivers, so the signed
    order the seed draws decides ties of the flag-stability test; DT is the
    MacMahon value at both seeds."""
    for charges in A3_CHARGES:
        problem = builders.framed_a3_problem(n, r, charges)
        for seed in (0, 1):
            res = invariants.compute(problem, kind="additive", seed=seed,
                                     allow_root_incidence=True)
            assert res.dt == macmahon_dt(n, r, charges), (charges, seed)


@pytest.mark.parametrize("charges, dt", [((1, 1, 1), -98), ((1, 1, 2), -162),
                                         ((1, 2, 2), -162), ((2, 2, 2), -98),
                                         ((1, 2, 3), -240)],
                         ids=["111", "112", "122", "222", "123"])
def test_dt_of_the_length4_quiver(charges, dt):
    """Length 4, rank 1, at every charge vector; at (1,1,1), 189 of the 7,368
    sum walls pass through xi = (1, 1, 1, 1).  DT is the MacMahon value."""
    res = invariants.compute(builders.framed_a3_problem(4, 1, charges), kind="additive",
                             allow_root_incidence=True)
    assert res.dt == macmahon_dt(4, 1, charges) == dt


CHI_Y_CASES = [(n, r, charges) for r in (1, 2) for n in (1, 2)
               for charges in ((1, 1, 1), (1, 1, 2), (1, 2, 3), (2, 2, 2))] \
    + [(3, 1, (1, 1, 1)), (3, 1, (1, 1, 2)), (4, 1, (1, 1, 1)), (4, 1, (1, 1, 2))]


@pytest.mark.parametrize("n, r, charges", CHI_Y_CASES)
def test_chi_y_of_framed_a3_quivers_is_the_k_theoretic_partition_function(n, r, charges):
    """chi_y, a rational function num/den in w = y^(1/(2D)), is the
    residue-free oracle's num_o/den_o in s = y^(1/2) = w^D, exactly:
    num den_o = num_o den as Laurent polynomials in w.  D is 2 at n = 3."""
    res = invariants.compute(builders.framed_a3_problem(n, r, charges), kind="sine",
                             allow_root_incidence=True)
    D = res.denom_scale
    num, den = (dict(pairs) for pairs in res.chi_y.pairs())
    num_o, den_o = ({D * e: c for e, c in part.items()}
                    for part in oracles.quiver_a3_chi_y(n, r, charges))
    assert num
    assert oracles.laurent_mul(num, den_o) == oracles.laurent_mul(num_o, den)


def _translations():
    """(quiver, stability, degree): the framed A^3 quivers with n, r <= 3, an
    unframed two-node quiver, and a quiver with every kind of arrow (gauged
    or framed head and tail, loops on both)."""
    for n in (1, 2, 3):
        for r in (1, 2, 3):
            for charges in A3_CHARGES:
                yield builders.framed_a3_quiver(n, r, charges), {"X": 1}, sum(charges)
    yield (Quiver(nodes=[QuiverNode("a", 1), QuiverNode("b", 2)],
                  arrows=[QuiverArrow("a", "b", 1), QuiverArrow("b", "a", 0),
                          QuiverArrow("b", "b", 2)]),
           {"a": 2, "b": -1}, 1)
    yield (Quiver(nodes=[QuiverNode("X", 2), QuiverNode("Y", 1), QuiverNode("F", 2, False),
                         QuiverNode("G", 3, False)],
                  arrows=[QuiverArrow("F", "X", 0), QuiverArrow("X", "G", 1),
                          QuiverArrow("X", "Y", 2), QuiverArrow("Y", "X", -1),
                          QuiverArrow("F", "G", 3), QuiverArrow("G", "G", 1),
                          QuiverArrow("X", "X", 1)]),
           {"X": 1, "Y": -2}, 2)


def test_translation_equals_the_four_branch_reference():
    """One weight rule per arrow gives the reference's problem, in order:
    weight entries, roots, xi, Weyl order and properness hint."""
    cases = list(_translations())
    assert len(cases) == 47
    for quiver, xi, degree in cases:
        problem = to_git_problem(quiver, QuiverStability(xi), degree)
        reference = quiver_reference.to_git_problem(quiver, QuiverStability(xi), degree)
        for name in ("weight_entries", "roots", "xi", "weyl_order", "properness_hint"):
            assert getattr(problem, name) == getattr(reference, name), (quiver.label, name)
        assert problem == reference


class TestFramedA3:
    def test_weights_match_displayed_integrand(self):
        n, r = 2, 3
        prob = builders.framed_a3_problem(n, r, (1, 1, 1))
        assert prob.rank == n
        assert prob.weyl_order == 2
        assert prob.degree == 3
        counts = Counter((w.rho, w.r_charge) for w in prob.weight_entries)
        # three loops: every ordered pair (m, n); the n diagonal slots share
        # the zero covector
        assert counts[((0,) * n, 1)] == 3 * n
        for m in range(n):
            for nn in range(n):
                if m == nn:
                    continue
                rho = [0] * n
                rho[m] += 1
                rho[nn] -= 1
                assert counts[(tuple(rho), 1)] == 3
        # framing: u_k with multiplicity r
        for k in range(n):
            rho = [0] * n
            rho[k] = 1
            assert counts[(tuple(rho), 0)] == r
        assert len(prob.weight_entries) == 3 * n * n + n * r
        # roots come in +/- pairs, n(n-1) of them
        assert len(prob.roots) == n * (n - 1)
        assert {tuple(-x for x in a) for a in prob.roots} == set(prob.roots)
        assert prob.xi == (1,) * n

    def test_integrand_factors_match_display(self):
        # d^{-N} prod_{i != j} (u_i-u_j)/(d+u_i-u_j) * ((d-u_k)/u_k)^r
        #   * prod_l prod_{m,n} (d-R_l-u_n+u_m)/(R_l+u_n-u_m)
        prob = builders.framed_a3_problem(2, 1, (1, 1, 1))
        ig = invariants.build_integrand(prob, "additive")
        num = Counter()
        den = Counter()
        for f in ig.factors:
            key = (tuple(f.rho), f.const)
            (num if f.exponent > 0 else den)[key] += abs(f.exponent)
        d = 3
        # roots: numerators u_i - u_j, denominators d + u_i - u_j
        assert num[((1, -1), 0)] == 1 and num[((-1, 1), 0)] == 1
        assert den[((1, -1), d)] == 1 and den[((-1, 1), d)] == 1
        # loop diagonal entries: constants (d - R_l) over R_l
        assert num[((0, 0), d - 1)] == 6  # two diagonal slots, three loops
        assert den[((0, 0), 1)] == 6
        # loop off-diagonal with R_l = 1: numerator (d-1) - (u_n - u_m)
        assert num[((1, -1), d - 1)] == 3 and num[((-1, 1), d - 1)] == 3
        assert den[((1, -1), 1)] == 3 and den[((-1, 1), 1)] == 3
        # framing: numerator d - u_k, denominator u_k
        assert num[((-1, 0), d)] == 1 and num[((0, -1), d)] == 1
        assert den[((1, 0), 0)] == 1 and den[((0, 1), 0)] == 1

    def test_rank_one_dt_values(self):
        assert invariants.compute(builders.framed_a3_problem(1, 1), kind="additive").dt == 8
        assert invariants.compute(builders.framed_a3_problem(1, 2), kind="additive").dt == -16


class TestUnframed:
    def test_single_node_point_quotient(self):
        quiver = Quiver(nodes=[QuiverNode("v", 1)], arrows=[])
        prob = to_git_problem(quiver, QuiverStability({"v": 0}), degree=1)
        assert prob.rank == 0
        assert prob.weight_entries == []
        assert invariants.compute(prob, kind="additive").dt == 1

    def test_stability_must_annihilate_diagonal(self):
        quiver = Quiver(nodes=[QuiverNode("a", 1), QuiverNode("b", 1)],
                        arrows=[QuiverArrow("a", "b", 1)])
        with pytest.raises(ValidationError):
            to_git_problem(quiver, QuiverStability({"a": 1, "b": 2}), degree=1)
        prob = to_git_problem(quiver, QuiverStability({"a": 1, "b": -1}), degree=1)
        assert prob.rank == 1

    def test_weight_count_identity(self):
        # #weights = sum over arrows of D_head * D_tail
        quiver = Quiver(
            nodes=[QuiverNode("a", 1), QuiverNode("b", 3)],
            arrows=[QuiverArrow("a", "b", 1), QuiverArrow("a", "b", 0),
                    QuiverArrow("b", "a", 2)])
        prob = to_git_problem(quiver, QuiverStability({"a": 3, "b": -1}), degree=1)
        assert len(prob.weight_entries) == 3 + 3 + 3
        assert len(prob.roots) == 3 * 2
        assert prob.weyl_order == 6


class TestCycleCondition:
    def test_positive_loops_pass(self):
        assert cycle_condition_check(builders.framed_a3_quiver(2, 1, (1, 1, 1))) == "pass"

    def test_zero_loop_fails(self):
        q = Quiver(nodes=[QuiverNode("v", 1), QuiverNode("f", 1, gauged=False)],
                   arrows=[QuiverArrow("v", "v", 0), QuiverArrow("f", "v", 0)])
        assert cycle_condition_check(q) == "fail"

    def test_mixed_signs_inconclusive(self):
        q = Quiver(nodes=[QuiverNode("v", 1)],
                   arrows=[QuiverArrow("v", "v", 1), QuiverArrow("v", "v", -1)])
        assert cycle_condition_check(q) == "inconclusive"

    def test_two_node_cycle(self):
        q = Quiver(nodes=[QuiverNode("a", 1), QuiverNode("b", 1)],
                   arrows=[QuiverArrow("a", "b", 2), QuiverArrow("b", "a", 1)])
        assert cycle_condition_check(q) == "pass"
        q0 = Quiver(nodes=[QuiverNode("a", 1), QuiverNode("b", 1)],
                    arrows=[QuiverArrow("a", "b", 2), QuiverArrow("b", "a", -2)])
        assert cycle_condition_check(q0) == "fail"


class TestQuiverValidation:
    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            Quiver(nodes=[QuiverNode("a", 1), QuiverNode("b", 1)], arrows=[])

    def test_missing_node_rejected(self):
        with pytest.raises(ValueError):
            Quiver(nodes=[QuiverNode("a", 1)], arrows=[QuiverArrow("a", "c", 0)])

    def test_needs_gauged_node(self):
        with pytest.raises(ValueError):
            Quiver(nodes=[QuiverNode("a", 1, gauged=False)], arrows=[])
