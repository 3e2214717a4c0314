"""One SHA-256 over everything the benchmark decks emit.

    python3 tests/deck_digest.py [seed ...]        # default seeds: 3 424242

Runs every problem of the three `perfbench` decks (`request-mix`,
`quiver-dt`, `elliptic-genus`) at each seed, the way `perfbench/run.py` does,
and hashes, per problem in deck order, the emitted JSON with diagnostics.  A
problem that raises contributes its exception instead.  Prints one line per
workload, with its document count and its own digest over its documents at
every seed, then the total count and the digest over all; two source trees
that emit the same results print the same lines, and when the total moves,
the workload lines name the decks that moved.  A last line digests the same
documents with `diagnostics.perturbation` removed, so that two trees that
perturb xi differently can show that nothing else moved.  jkcalc is imported
from the `src/` of the checkout the script sits in, as `perfbench` does.  Not
collected by pytest; `tests/test_pinned_outputs.py` runs it at the default
seeds and compares its lines with `tests/data/deck_digest.txt`.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEEDS = (3, 424242)


def document(jk, item) -> str:
    try:
        result = run.execute(jk, item)[0]
    except Exception as exc:  # noqa: BLE001 - a failure is part of the output
        return f"{type(exc).__name__}: {exc}\n"
    return run.emit(jk, result)


def without_perturbation(doc: str) -> str:
    """The emitted document `doc` with `diagnostics.perturbation` removed."""
    try:
        parsed = json.loads(doc)
    except json.JSONDecodeError:
        return doc   # an exception line
    parsed["diagnostics"].pop("perturbation")
    return json.dumps(parsed, indent=2) + "\n"


def main(argv) -> int:
    seeds = [int(s) for s in argv] or DEFAULT_SEEDS
    sys.path.insert(0, str(run.SRC))
    jk = run.import_jkcalc()
    digest = hashlib.sha256()
    unperturbed = hashlib.sha256()
    decks = {workload: [0, hashlib.sha256()] for workload in workloads.WORKLOADS}
    for seed in seeds:
        for workload, deck in decks.items():
            for item in workloads.generate(workload, seed, jk["builders"]):
                head = f"{workload} {seed} {item.name}\n"
                doc = document(jk, item)
                data = (head + doc).encode()
                digest.update(data)
                unperturbed.update((head + without_perturbation(doc)).encode())
                deck[1].update(data)
                deck[0] += 1
    for workload, (count, deck_digest) in decks.items():
        print(f"{workload:<16}{count:>4} documents  sha256 {deck_digest.hexdigest()}")
    total = sum(count for count, _ in decks.values())
    print(f"{total} documents  sha256 {digest.hexdigest()}")
    print(f"{total} documents without diagnostics.perturbation  "
          f"sha256 {unperturbed.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
