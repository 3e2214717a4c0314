"""DT of the framed A^3 quiver at lengths 4 to 6, one process per case.

    python3 tests/scale_probe.py [--timeout SECONDS] [case ...]

A case is `n:c1,c2,c3:seed`, for example `5:1,2,2:1`.  The default cases
are lengths 4 and 5 at the charges (1,1,1), (1,1,2), (1,2,2) and (1,2,3),
each at seeds 0 and 1, then length 6 at (1,1,1), seed 0.  Each case runs

    invariants.compute(builders.framed_a3_problem(n, 1, c), kind="additive",
                       seed=seed, allow_root_incidence=True)

in a child process under a 3 GiB RLIMIT_AS and the per-case timeout
(default 600 s), and prints one line: the case, its DT, the MacMahon value
(`oracles.macmahon_power`), the wall time and the child's peak RSS.  A case
that runs out of time or memory says so on its line.  A last line per
length sums the times of the cases that finished.  jkcalc is imported from
the `src/` of the checkout the script sits in.  Not collected by pytest.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
MEMORY_LIMIT = 3 << 30
CHARGES = ((1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 2, 3))
DEFAULT_CASES = [f"{n}:{','.join(map(str, c))}:{seed}"
                 for n in (4, 5) for c in CHARGES for seed in (0, 1)] + ["6:1,1,1:0"]


def parse(case: str):
    n, charges, seed = case.split(":")
    return int(n), tuple(int(c) for c in charges.split(",")), int(seed)


def child(case: str) -> None:
    """Compute one case and print its DT, time and peak RSS as one JSON line."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from jkcalc import builders, invariants

    n, charges, seed = parse(case)
    start = time.perf_counter()
    res = invariants.compute(builders.framed_a3_problem(n, 1, charges), kind="additive",
                             seed=seed, allow_root_incidence=True)
    seconds = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # KiB on Linux
    print(json.dumps({"dt": str(res.dt), "seconds": seconds, "rss_mib": rss}))


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run(case: str, timeout: float) -> tuple[str, float | None]:
    """The case's line: DT, MacMahon, time and peak RSS, or why it stopped."""
    import oracles

    n, charges, _ = parse(case)
    macmahon = str(oracles.macmahon_power(1, oracles.quiver_a3_exponent(1, charges), n)[n])
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, __file__, "--child", case], capture_output=True,
                              text=True, timeout=timeout, preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        return f"{case:12} timed out after {timeout:g} s  MacMahon {macmahon}", None
    if done.returncode:
        last = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return (f"{case:12} failed after {time.perf_counter() - start:.1f} s "
                f"({last})  MacMahon {macmahon}"), None
    out = json.loads(done.stdout.strip().splitlines()[-1])
    mark = "" if out["dt"] == macmahon else "  (differs)"
    return (f"{case:12} DT {out['dt']:>14}  MacMahon {macmahon:>5}{mark}  "
            f"{out['seconds']:8.2f} s  peak RSS {out['rss_mib']:7.1f} MiB"), out["seconds"]


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--timeout", type=float, default=600.0, help="seconds per case")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("cases", nargs="*", default=DEFAULT_CASES)
    args = ap.parse_args(argv)
    if args.child:
        child(args.child)
        return 0
    sys.path.insert(0, str(HERE))
    totals: dict = defaultdict(lambda: [0, 0.0])
    for case in args.cases:
        line, seconds = run(case, args.timeout)
        print(line, flush=True)
        if seconds is not None:
            total = totals[parse(case)[0]]
            total[0] += 1
            total[1] += seconds
    for n, (count, seconds) in sorted(totals.items()):
        print(f"length {n}: {count} finished, {seconds:.1f} s in total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
