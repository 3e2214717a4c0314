"""Exact work counts of the residue core over the benchmark decks.

    python3 tests/work_counts.py [workload ...] [--seed N ...]

Runs every problem of each named `perfbench` deck (default: `request-mix`,
`quiver-dt` and `elliptic-genus`) at each seed (default: 3), the way
`perfbench/run.py` does, with counting wrappers around the residue core,
and prints one line per deck and seed:

    steps        `engine._step` calls (residue steps)
    row_series   `engine._row_series` calls (steps that multiply)
    mul_into     `Kronecker.mul_into` calls (packed products)
    pack_terms   `Kronecker.pack_terms` calls
    unpack       `Kronecker.unpack` calls
    add          packed adds: `Kronecker.add_into` calls (`engine._add_scaled`
                 calls in trees that have it), and after the slash those into
                 a nonempty sum, which `_add_scaled` made as products
    capped       `engine._capped` calls, and after the slash those with caps
    gcd          `polyarith.poly_gcd` calls (`RatFunc` reductions)
    reslot       `engine._pack` calls: packed values re-slotted to another
                 width (0 in trees whose `engine` does not import `_pack`)

Counts do not depend on the clock, so two source trees that do the same work
print the same lines.  jkcalc is imported from the `src/` of the checkout
the script sits in, as `perfbench` does.  Not collected by pytest.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402


def counted(owner, name, counts, key, second=None):
    """Wrap owner.name so that each call adds 1 to counts[key], and to
    counts[key + "+"] when second(*args) holds."""
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[key] += 1
        if second is not None and second(*args):
            counts[key + "+"] += 1
        return real(*args, **kwargs)

    setattr(owner, name, counting)


def main(argv) -> int:
    names = [a for a in argv if not a.startswith("--") and not a.isdigit()]
    seeds = [int(a) for a in argv if a.isdigit()] or [3]
    sys.path.insert(0, str(run.SRC))
    jk = run.import_jkcalc()
    engine = jk["engine"]
    from jkcalc.kronecker import Kronecker

    counts: dict = {}
    counted(engine, "_step", counts, "steps")
    counted(engine, "_row_series", counts, "row_series")
    counted(Kronecker, "mul_into", counts, "mul_into")
    counted(Kronecker, "pack_terms", counts, "pack_terms")
    counted(Kronecker, "unpack", counts, "unpack")
    if hasattr(engine, "_add_scaled"):
        counted(engine, "_add_scaled", counts, "add", lambda kr, acc, *_: bool(acc))
    else:
        counted(Kronecker, "add_into", counts, "add", lambda kr, dst, *_: bool(dst))
    counted(engine, "_capped", counts, "capped", lambda packed, caps: bool(caps))
    counted(jk["polyarith"], "poly_gcd", counts, "gcd")
    if hasattr(engine, "_pack"):
        counted(engine, "_pack", counts, "reslot")
    for workload in names or workloads.WORKLOADS:
        for seed in seeds:
            counts.update(dict.fromkeys(
                ("steps", "row_series", "mul_into", "pack_terms", "unpack",
                 "add", "add+", "capped", "capped+", "gcd", "reslot"), 0))
            for item in workloads.generate(workload, seed, jk["builders"]):
                try:
                    run.execute(jk, item)
                except Exception:  # noqa: BLE001 - a failing problem still did its work
                    pass
            print(f"{workload:<16}seed {seed:<7}"
                  f"steps {counts['steps']:>5}  row_series {counts['row_series']:>5}  "
                  f"mul_into {counts['mul_into']:>6}  pack_terms {counts['pack_terms']:>6}  "
                  f"unpack {counts['unpack']:>5}  "
                  f"add {counts['add']:>5}/{counts['add+']:<5}  "
                  f"capped {counts['capped']:>5}/{counts['capped+']:<5}  "
                  f"gcd {counts['gcd']:>4}  reslot {counts['reslot']:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
