"""Fraction constructions and hashes of one deck pass, by calling function.

    python3 tests/fraction_census.py [seed]        # default seed: 3

Runs every problem of each `perfbench` deck (`request-mix`, `quiver-dt`,
`elliptic-genus`) once at the seed, the way `perfbench/run.py` does, with
`Fraction.__new__` and `Fraction.__hash__` counted.  Each count goes to the
innermost calling function outside the `fractions` module, so that
arithmetic on Fractions counts where it is written.  Prints, per workload,
the totals and then one line per function, most constructions first.
jkcalc is imported from the `src/` of the checkout the script sits in, as
`perfbench` does.  Not collected by pytest.
"""

from __future__ import annotations

import fractions
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 3


def _caller() -> str:
    """module.function of the innermost frame outside `fractions` and this
    file; a comprehension or lambda counts for the function that holds it."""
    frame = sys._getframe(2)
    while frame.f_code.co_filename in (fractions.__file__, __file__):
        frame = frame.f_back
    name = frame.f_code.co_qualname.split(".<locals>.<", 1)[0]
    return f"{Path(frame.f_code.co_filename).stem}.{name}"


class Census:
    """Counts of Fraction constructions and hashes while installed."""

    def __init__(self):
        self.built: Counter = Counter()
        self.hashed: Counter = Counter()
        self._new = Fraction.__new__
        self._hash = Fraction.__hash__

    def install(self):
        new, fraction_hash = self._new, self._hash
        built, hashed = self.built, self.hashed

        def counted_new(cls, *args, **kwargs):
            built[_caller()] += 1
            return new(cls, *args, **kwargs)

        def counted_hash(value):
            hashed[_caller()] += 1
            return fraction_hash(value)

        Fraction.__new__ = staticmethod(counted_new)
        Fraction.__hash__ = counted_hash

    def uninstall(self):
        Fraction.__new__ = self._new
        Fraction.__hash__ = self._hash


def main(argv) -> int:
    seed = int(argv[0]) if argv else DEFAULT_SEED
    sys.path.insert(0, str(run.SRC))
    jk = run.import_jkcalc()
    for workload in workloads.WORKLOADS:
        deck = workloads.generate(workload, seed, jk["builders"])
        census = Census()
        census.install()
        try:
            for item in deck:
                try:
                    run.execute(jk, item)
                except Exception:  # noqa: BLE001 - a failed problem still counts
                    pass
        finally:
            census.uninstall()
        built, hashed = census.built, census.hashed
        print(f"{workload} seed {seed}: {sum(built.values()):,} constructions, "
              f"{sum(hashed.values()):,} hashes")
        for name in sorted(built.keys() | hashed.keys(),
                           key=lambda n: (-built[n], -hashed[n], n)):
            print(f"  {built[name]:>9,} {hashed[name]:>9,}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
