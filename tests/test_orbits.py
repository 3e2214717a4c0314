"""One residue per orbit of stable points: `invariants.compute` takes each
kind's JK residue once per orbit of the coordinate permutations that fix xi,
the roots and the (weight, charge) multiset, and copies it to the orbit's
other points.  These tests take the residue at every point directly and
compare, and count the residues taken."""

import dataclasses
import itertools
from collections import defaultdict
from fractions import Fraction

import pytest

import decks
from jkcalc import arrangement, builders, engine, invariants, linalg
from jkcalc.config import parse_config
from jkcalc.invariants import WeightEntry, build_integrand, compute


def framed_a3_charge_mutant():
    """Length 3, rank 1: the first framing entry (a unit covector of charge 0)
    gets charge 1, so only coordinates 1 and 2 may still be swapped."""
    problem = builders.framed_a3_problem(3, 1, (1, 1, 1))
    entries = list(problem.weight_entries)
    first = next(i for i, w in enumerate(entries) if w.r_charge == 0 and sum(w.rho) == 1)
    entries[first] = WeightEntry(entries[first].rho, 1)
    return dataclasses.replace(problem, weight_entries=entries)


def framed_a3_root_mutant():
    """Length 3, rank 1, without the roots +-(e_0 - e_1): only coordinates 0
    and 1 may still be swapped."""
    problem = builders.framed_a3_problem(3, 1, (1, 1, 1))
    return dataclasses.replace(problem, roots=[a for a in problem.roots
                                               if a not in ((1, -1, 0), (-1, 1, 0))])


ORBIT_CASES = [
    *(pytest.param(item.problem, item.kwargs, id="quiver-dt-" + item.name)
      for item in decks.deck("quiver-dt", 3)),
    *(pytest.param(builders.framed_a3_problem(4, 1, charges),
                   {"kind": "additive", "allow_root_incidence": True},
                   id="a3-n4-r1-" + "".join(map(str, charges)))
      for charges in ((1, 1, 1), (1, 1, 2))),
    pytest.param(builders.framed_a3_problem(3, 1, (1, 1, 1)), {"kind": "sine"},
                 id="a3-n3-r1-111-sine"),
    *(pytest.param(builders.grassmannian_det(2, n, p), {"kind": "additive"},
                   id=f"gr2{n}-det{p}")
      for n in (4, 5) for p in (1, 3)),
    pytest.param(framed_a3_charge_mutant(), {"kind": "additive", "allow_root_incidence": True},
                 id="charge-mutant"),
    pytest.param(framed_a3_root_mutant(), {"kind": "additive", "allow_root_incidence": True},
                 id="root-mutant"),
]


@pytest.mark.parametrize("problem, kwargs", ORBIT_CASES)
def test_every_point_of_an_orbit_has_the_copied_residue(problem, kwargs):
    """At seeds 0-2 the residue taken directly at each stable point, from the
    run's own flags there, localized here, equals the contribution copied from
    its orbit's first point; so the members of each orbit agree.  The Gr(2, n)
    cases have one stable point, and take no symmetry search."""
    kind = kwargs["kind"]
    for seed in (0, 1, 2):
        result = compute(problem, seed=seed, **kwargs)
        diag = result.diagnostics
        integrand = dataclasses.replace(build_integrand(problem, kind),
                                        denom_scale=result.denom_scale)
        orbits = defaultdict(list)
        keys = invariants.orbit_keys(problem, diag.hypothesis.stable_points)
        for key, pdiag in zip(keys, diag.points):
            local = [(flag, engine.localize(integrand, pdiag.point, flag))
                     for flag in pdiag.flags]
            direct = engine.jk_residue(integrand, local)
            assert direct == pdiag.contributions[kind], (seed, pdiag.point)
            orbits[key].append(direct)
        assert all(value == values[0] for values in orbits.values() for value in values)
        assert len(orbits) == diag.orbits <= len(diag.points)


def test_mutated_weights_and_roots_keep_their_unreduced_dt():
    """The DT of the two mutants equals the sum over all stable points; a
    reduction that swapped coordinates of a moved charge or root would give
    1408633/300 and -3960."""
    for problem, dt in ((framed_a3_charge_mutant(), Fraction(-15491, 300)),
                        (framed_a3_root_mutant(), Fraction(-9213, 64))):
        assert compute(problem, kind="additive", allow_root_incidence=True).dt == dt


def test_blocks_follow_xi_the_charges_and_the_roots():
    problem = builders.framed_a3_problem(3, 1, (1, 1, 1))
    assert invariants.symmetric_blocks(problem) == [[0, 1, 2]]
    assert invariants.symmetric_blocks(dataclasses.replace(problem, xi=(1, 1, 2))) == \
        [[0, 1], [2]]
    assert invariants.symmetric_blocks(framed_a3_charge_mutant()) == [[0], [1, 2]]
    assert invariants.symmetric_blocks(framed_a3_root_mutant()) == [[0, 1], [2]]
    # roots count with their multiplicity: a second e_0 - e_1 breaks every swap
    doubled = dataclasses.replace(problem, roots=problem.roots + [(1, -1, 0)])
    assert invariants.symmetric_blocks(doubled) == [[0], [1], [2]]


@pytest.mark.parametrize("deck_seed", [3, 424242])
def test_the_quiver_dt_deck_takes_one_residue_per_orbit(count_calls, deck_seed):
    """One residue and one localization per orbit (50 among the deck's 199
    stable points), and the flags enumerated where they are localized, once
    per distinct set of active weights at the orbits' first points (31);
    the other points' flags are enumerated when first read, once per set
    (109 in all), and are still each point's own (199 flags).  An s = 2
    rerun at the same seed enumerates and localizes none; a rerun at
    the next seed, which draws another order for every problem here,
    enumerates at the orbits' first points alone.

    The geometry runs once per problem: each form is read once, by its
    line, and no point scans the forms again; each hyperplane normal is
    computed once per set of rows (113 at the orbits' first points, and 240
    once every point's flags are read, where the flag searches ask 630
    times: a search walks its set's weights sorted, so the count does not
    depend on which point reads a set first); and the simplicial points
    read their inverses off the validation's 140, so the only others are
    the 39 of the flags kept at the other points, 10 of them at the orbits'
    first points."""
    calls = count_calls(engine, "jk_residue")
    flag_calls = count_calls(arrangement, "enumerate_flags")
    local_calls = count_calls(engine, "localize")
    form_reads = count_calls(arrangement.AffineForm, "is_hyperplane")
    normal_calls = count_calls(linalg, "hyperplane_normal")
    inverse_calls = count_calls(linalg, "inverse")
    orbits = points = 0
    results = []
    for item in decks.deck("quiver-dt", deck_seed):
        result = compute(item.problem, **item.kwargs)
        orbits += result.diagnostics.orbits
        points += len(result.diagnostics.points)
        results.append((item, result))
    assert (len(calls), orbits, points) == (50, 50, 199)
    assert (len(flag_calls), len(local_calls)) == (31, 50)
    assert len(form_reads) == sum(len(item.problem.weight_entries) for item, _ in results) == 216
    assert (len(normal_calls), len(inverse_calls)) == (113, 140 + 10)
    assert sum(len(pdiag.flags) for _, result in results for pdiag in result.diagnostics.points) \
        == 199
    assert len(flag_calls) == sum(len({frozenset(pdiag.active_weights)
                                       for pdiag in result.diagnostics.points})
                                  for _, result in results) == 109
    assert (len(normal_calls), len(inverse_calls)) == (240, 140 + 39)
    for item, result in results:
        diag = result.diagnostics
        basis = arrangement.lattice_basis(item.problem.nonzero_weights())
        for pdiag in diag.points:
            assert pdiag.flags == arrangement.enumerate_flags(
                pdiag.active_weights, item.problem.xi, basis, diag.perturbation.order)
    flag_calls.clear()
    local_calls.clear()
    for item, result in results:
        rerun = invariants._rerun(result, item.problem, "additive", seed=result.diagnostics.seed,
                                  s=2)
        assert rerun.dt == result.dt
    assert flag_calls == local_calls == []
    for item, result in results:
        rerun = invariants._rerun(result, item.problem, "additive",
                                  seed=result.diagnostics.seed + 1)
        assert rerun.dt == result.dt
    assert (len(flag_calls), len(local_calls)) == (31, 50)


def test_runs_on_one_report_share_flags_and_localizations_by_order(count_calls):
    """A report keeps its runs' flags and localizations by signed order, not
    by seed: a rerun at another seed that draws the same order enumerates
    and localizes nothing, one at another order enumerates and localizes
    again at the orbits' first points, and a sine rerun after a DT run at
    the same order localizes only the points the DT run skipped, and gets
    the D and chi_y of a fresh sine run."""
    problem = builders.framed_a3_problem(3, 1, (1, 1, 1))
    result = compute(problem, kind="additive")
    order = result.diagnostics.perturbation.order
    same, other = (next(seed for seed in itertools.count(1) if want ==
                        (arrangement.sum_regular_perturbation(problem.xi, seed).order == order))
                   for want in (True, False))
    points = result.diagnostics.points
    first = {}
    for i, key in enumerate(invariants.orbit_keys(problem, points)):
        first.setdefault(key, i)
    skipped = set(range(len(points))) - set(first.values())
    assert (len(points), len(first)) == (13, 4)
    flag_calls = count_calls(arrangement, "enumerate_flags")
    local_calls = count_calls(engine, "localize")
    assert invariants._rerun(result, problem, "additive", seed=same).dt == result.dt
    assert flag_calls == local_calls == []
    assert invariants._rerun(result, problem, "additive", seed=other).dt == result.dt
    assert len(flag_calls) == len({frozenset(points[i].active_weights) for i in first.values()})
    assert len(local_calls) == sum(len(points[i].flags) for i in first.values())
    local_calls.clear()
    sine = invariants._rerun(result, problem, "sine", seed=same)
    assert len(local_calls) == sum(len(points[i].flags) for i in skipped) > 0
    fresh = compute(problem, kind="sine", seed=same)
    assert (sine.denom_scale, sine.chi_y) == (fresh.denom_scale, fresh.chi_y)


def test_the_elliptic_genus_deck_takes_one_multiplicative_residue_per_flag(count_calls):
    """Asked for together, chi_y is read off Ell's q^0 coefficient, so the
    seed-3 `elliptic-genus` deck, all at kind="all", takes 37 multiplicative
    flag residues, one per flag at the orbits' first points, where a sine
    and a theta residue per flag took 74.  kind="sine" alone takes its own,
    again one per such flag, and gives the same chi_y."""
    calls = count_calls(engine, "flag_residue_multiplicative")
    orbit_flags = []
    results = []
    for item in decks.deck("elliptic-genus", 3):
        assert item.kwargs["kind"] == "all"
        result = compute(item.problem, **item.kwargs)
        points = result.diagnostics.points
        first = {}
        for i, key in enumerate(invariants.orbit_keys(item.problem, points)):
            first.setdefault(key, i)
        orbit_flags.append(sum(len(points[i].flags) for i in first.values()))
        results.append((item, result))
    assert len(calls) == sum(orbit_flags) == 37
    for (item, result), flags in zip(results, orbit_flags):
        calls.clear()
        sine = compute(item.problem, kind="sine")
        assert len(calls) == flags
        assert sine.chi_y == result.chi_y


def test_rank_one_requests_take_one_residue_per_point_without_a_search(count_calls,
                                                                      monkeypatch):
    calls = count_calls(engine, "jk_residue")

    def no_search(problem):
        raise AssertionError("a symmetry search below rank 2")

    monkeypatch.setattr(invariants, "symmetric_blocks", no_search)
    several = 0
    for item in decks.deck("request-mix", 3):
        cfg = parse_config(item.text)
        problem = cfg.build_problem()
        if problem.rank != 1:
            continue
        calls.clear()
        diag = compute(problem, kind="additive", seed=cfg.seed).diagnostics
        assert len(calls) == diag.orbits == len(diag.points)
        several += len(diag.points) > 1
    assert several > 0


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_d_is_the_lcm_over_every_point(seed):
    """For a multiplicative kind D is the lcm of the localized denominators
    at every stable point, although the residues are taken at the orbits'
    first points alone: members of one orbit can have different flags under
    one perturbation, so D over the first points is not known to be the
    same.  No case tried tells the two apart (seeds 0-3 of the length-2 and
    length-3 framed A^3 problems, and six Gr(2, n) bundles), so this test
    pins the definition; it is not a mutation check."""
    for item in decks.deck("quiver-dt", 3):
        problem = item.problem
        result = compute(problem, kind="sine", seed=seed,
                         allow_root_incidence=item.kwargs["allow_root_incidence"])
        integrand = build_integrand(problem, "sine")
        assert result.denom_scale == engine.denominator_scale(
            engine.localize(integrand, pdiag.point, flag)
            for pdiag in result.diagnostics.points for flag in pdiag.flags)
