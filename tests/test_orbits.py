"""One residue per orbit of stable points: `invariants.compute` takes each
kind's JK residue once per orbit of the coordinate permutations that fix xi,
the roots and the (weight, charge) multiset, and copies it to the orbit's
other points.  These tests take the residue at every point directly and
compare, and count the residues taken."""

import dataclasses
from collections import defaultdict
from fractions import Fraction

import pytest

import decks
from jkcalc import builders, engine, invariants
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
    run's own localized flags, equals the contribution copied from its orbit's
    first point; so the members of each orbit agree.  The Gr(2, n) cases have
    one stable point, and take no symmetry search."""
    kind = kwargs["kind"]
    for seed in (0, 1, 2):
        result = compute(problem, seed=seed, **kwargs)
        diag = result.diagnostics
        integrand = dataclasses.replace(build_integrand(problem, kind),
                                        denom_scale=result.denom_scale)
        orbits = defaultdict(list)
        keys = invariants.orbit_keys(problem, diag.hypothesis.stable_points)
        for key, pdiag, flags in zip(keys, diag.points, diag.local_flags):
            direct = engine.jk_residue(integrand, flags)
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


def residue_calls(monkeypatch):
    calls = []
    jk_residue = engine.jk_residue

    def counting(integrand, local_flags):
        calls.append(1)
        return jk_residue(integrand, local_flags)

    monkeypatch.setattr(engine, "jk_residue", counting)
    return calls


def test_the_quiver_dt_deck_takes_one_residue_per_orbit(monkeypatch):
    calls = residue_calls(monkeypatch)
    orbits = points = 0
    for item in decks.deck("quiver-dt", 3):
        diag = compute(item.problem, **item.kwargs).diagnostics
        orbits += diag.orbits
        points += len(diag.points)
    assert (len(calls), orbits, points) == (50, 50, 199)


def test_rank_one_requests_take_one_residue_per_point_without_a_search(monkeypatch):
    calls = residue_calls(monkeypatch)

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
