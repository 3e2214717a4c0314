"""Seeded input generators for the benchmark workloads.

Every workload is a deck of problems built from the workload seed alone; the
timed loop runs whole passes over the deck.  The program only ever sees the
generated configuration text (`request-mix`) or `GITProblem` values and
keyword arguments of `compute` (`quiver-dt`, `elliptic-genus`).

Families whose cost varies a lot between parameter choices appear in a
balanced design (every parameter combination a fixed number of times per
deck), and perturbation seeds do not follow the workload seed, because one
unlucky perturbation can make a problem four times slower (r = 1, charges
(1,2,3): 3 s at seed 0, 14 s at seed 2).  The workload seed draws the
rank-one raw problems of `request-mix`, the order of the weight entries and
roots of each `quiver-dt` and `elliptic-genus` problem, and the deck order.
That keeps the cost of a deck nearly the same from seed to seed, so the
end-to-end figures of two seeds can be compared.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass, field

WORKLOADS = ("request-mix", "quiver-dt", "elliptic-genus")

# loop charges of the framed three-loop quiver whose MacMahon exponent is integral
A3_CHARGES = ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3))
# at length 3 a root hyperplane shifted by the degree passes through a stable
# point for these charges; the acceptance suite computes them with
# allow_root_incidence=True, and so does quiver-dt (counted as root_overrides)
A3_ROOT_INCIDENT = ((1, 1, 2), (1, 2, 3))
# quiver-dt: (rank, charges) at length 3; the rank-2 cases with 37 and 73
# stable points (4-11 s each) are left out so that a run holds whole passes
QUIVER_DT_CASES = ((1, (1, 1, 1)), (1, (1, 1, 2)), (1, (1, 2, 2)), (1, (2, 2, 2)),
                   (1, (1, 2, 3)), (2, (1, 1, 1)), (2, (2, 2, 2)))
# elliptic-genus: complete intersections (n, degrees) in P^n and q-orders
ELLIPTIC_CIS = ((4, (5,)), (5, (3, 3)), (5, (2, 4)), (6, (2, 2, 3)), (5, (6,)))
ELLIPTIC_CI_ORDERS = (2, 3, 4, 5, 6, 7, 8)
ELLIPTIC_G24_ORDERS = (2, 3)

# request-mix deck composition: every complete intersection in P^n with n <= 6
# and at most two degrees <= 6 once, every Gr(2, n) determinant bundle
# (n = 3..6, power = 1..6) twice, every framed A^3 quiver with n <= 2, r <= 3
# once, and REQUEST_RAW random rank-one raw problems
REQUEST_GR_REPEATS = 2
REQUEST_RAW = 40


@dataclass(frozen=True)
class Item:
    """One problem of a deck: what the program receives and the oracle key."""

    name: str
    oracle: tuple                   # ("ci", k, n, degrees) | ("quiver", n, r, charges)
                                    # | ("wp", covectors)
    text: str = ""                  # request-mix: configuration document
    problem: object = None          # library workloads: a GITProblem
    kwargs: dict = field(default_factory=dict)   # keyword arguments of compute


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _cov(values) -> str:
    return "[" + ",".join(str(v) for v in values) + "]"


def _config(mode, label, seed, lines) -> str:
    head = [f"mode {mode}", f"label {label}", "invariant dt", f"seed {seed}"]
    return "\n".join(head + lines) + "\n"


def _ci_request(n, degrees, seed) -> Item:
    label = f"ci-p{n}-" + ("-".join(map(str, degrees)) or "none")
    text = _config("projective-bundle", label, seed,
                   [f"n {n}", f"degrees {_cov(degrees)}"])
    return Item(label, ("ci", 1, n + 1, tuple(degrees)), text=text)


def _gr_request(n, power, seed) -> Item:
    label = f"gr2{n}-det{power}"
    text = _config("grassmannian-det", label, seed,
                   ["k 2", f"n {n}", f"power {power}", "degree 1"])
    return Item(label, ("ci", 2, n, (power,)), text=text)


def _quiver_request(n, r, charges, seed) -> Item:
    label = f"a3-n{n}-r{r}-" + "".join(map(str, charges))
    lines = [f"degree {sum(charges)}", f"node X gauged {n}", f"node F framed {r}"]
    lines += [f"arrow X X {c}" for c in charges]
    lines += ["arrow F X 0", "xi X 1"]
    return Item(label, ("quiver", n, r, tuple(charges)),
                text=_config("quiver", label, seed, lines))


def _raw_request(covectors, charges, degree, seed) -> Item:
    label = "wp-" + "-".join(f"{c}r{r}" for c, r in zip(covectors, charges))
    lines = ["rank 1", f"degree {degree}", "xi [1]"]
    lines += [f"weight [{c}] {r} 1" for c, r in zip(covectors, charges)]
    return Item(label, ("wp", tuple(covectors)), text=_config("raw", label, seed, lines))


def request_mix(seed: int) -> list[Item]:
    """Small DT requests through the configuration and JSON path.

    Each request carries its own perturbation seed, numbered in the order the
    deck is built; it does not depend on the workload seed, since a rank-two
    request can take twice as long under another perturbation.
    """
    rng = _rng("request-mix", seed)
    numbers = itertools.count()
    ci_space = [(n, degs) for n in range(1, 7) for m in range(3) if m < n
                for degs in itertools.combinations_with_replacement(range(1, 7), m)]
    deck = [_ci_request(n, degs, next(numbers)) for n, degs in ci_space]
    for _ in range(REQUEST_GR_REPEATS):
        deck += [_gr_request(n, p, next(numbers)) for n in range(3, 7) for p in range(1, 7)]
    deck += [_quiver_request(n, r, ch, next(numbers))
             for n in (1, 2) for r in (1, 2, 3) for ch in A3_CHARGES]
    raw = []
    while len(raw) < REQUEST_RAW:
        m = rng.choice((2, 3))
        covectors = [rng.randint(1, 3) for _ in range(m)]
        charges = [rng.randint(0, 2) for _ in range(m)]
        if all(r % c == 0 for c, r in zip(covectors, charges)):
            continue    # keep only arrangements with a fractional intersection
        raw.append(_raw_request(covectors, charges, rng.choice((1, 2)), next(numbers)))
    deck += raw
    rng.shuffle(deck)
    return deck


def _presented(problem, rng):
    """The same problem with its weight entries and roots in a seeded order."""
    entries = list(problem.weight_entries)
    roots = list(problem.roots)
    rng.shuffle(entries)
    rng.shuffle(roots)
    return dataclasses.replace(problem, weight_entries=entries, roots=roots)


def quiver_dt(seed: int, builders) -> list[Item]:
    """DT of framed A^3 quivers at length 3."""
    rng = _rng("quiver-dt", seed)
    deck = []
    for r, charges in QUIVER_DT_CASES:
        problem = _presented(builders.framed_a3_problem(3, r, charges), rng)
        kwargs = {"kind": "additive", "allow_root_incidence": charges in A3_ROOT_INCIDENT}
        deck.append(Item(f"a3-n3-r{r}-" + "".join(map(str, charges)),
                         ("quiver", 3, r, charges), problem=problem, kwargs=kwargs))
    rng.shuffle(deck)
    return deck


def elliptic_genus(seed: int, builders) -> list[Item]:
    """chi_y and the elliptic genus of Calabi-Yau and general-type examples."""
    rng = _rng("elliptic-genus", seed)
    cases = [(f"ci-p{n}-" + "-".join(map(str, degs)), builders.projective_bundle(n, degs),
              ("ci", 1, n + 1, degs), q)
             for n, degs in ELLIPTIC_CIS for q in ELLIPTIC_CI_ORDERS]
    cases += [("cy3-g24", builders.grassmannian_det(2, 4, 4), ("ci", 2, 4, (4,)), q)
              for q in ELLIPTIC_G24_ORDERS]
    deck = []
    for label, problem, oracle, q in cases:
        kwargs = {"kind": "all", "q_order": q}
        deck.append(Item(f"{label}-q{q}", oracle, problem=_presented(problem, rng),
                         kwargs=kwargs))
    rng.shuffle(deck)
    return deck


def generate(workload: str, seed: int, builders) -> list[Item]:
    if workload == "request-mix":
        return request_mix(seed)
    if workload == "quiver-dt":
        return quiver_dt(seed, builders)
    if workload == "elliptic-genus":
        return elliptic_genus(seed, builders)
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str, builders) -> list[Item]:
    """A fixed handful of small problems on the workload's code path."""
    if workload == "request-mix":
        return [_ci_request(4, (5,), 0), _gr_request(4, 4, 0),
                _quiver_request(2, 1, (1, 1, 1), 0), _raw_request((2, 1), (1, 0), 1, 0)]
    if workload == "quiver-dt":
        return [Item("a3-n2-r1-111", ("quiver", 2, 1, (1, 1, 1)),
                     problem=builders.framed_a3_problem(2, 1, (1, 1, 1)),
                     kwargs={"kind": "additive"})]
    if workload == "elliptic-genus":
        return [Item("ci-p4-5-q2", ("ci", 1, 5, (5,)),
                     problem=builders.projective_bundle(4, (5,)),
                     kwargs={"kind": "all", "q_order": 2})]
    raise ValueError(f"unknown workload {workload!r}")
