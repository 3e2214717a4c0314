"""jkcalc benchmark: one workload, one seed, a closed loop with one client.

    python3 perfbench/run.py --workload request-mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the calculator is imported from
./src.  Each problem is sent only after the previous result came back.

--trace 0 (timed run): set-up runs SETUPS times (fresh import of jkcalc,
generation of the seeded deck, a fixed warm-up), then whole passes over the
deck run until the next pass would likely end after --seconds (at least one
pass).  Every result is checked against an oracle that does not use the
residue pipeline, outside the timed interval of the problem.  No tracing
wrapper is installed in this mode.  Latencies include failed problems;
throughput counts only correct ones.

--trace 1 (traced run): one set-up, one untraced pass over the deck, then
the same pass again with every public function of the jkcalc layers wrapped
by spans.  Reports per-layer self times and counts, and the tracing overhead
as traced versus untraced throughput.  The traced pass is a fixed amount of
work, so its counts repeat exactly for one seed; its length follows from the
deck, not from --seconds.

Times are calibrated seconds (see calibration.py); raw wall-clock figures are
printed alongside.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import calibration
import oracles
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = HERE / "out"

SETUPS = 5
MODULES = ("config", "cli", "invariants", "arrangement", "linalg", "engine",
           "polyarith", "builders", "quiver")
# failure classes counted separately; anything else is "other"
FAILURE_CLASSES = ("ValidationError", "PerturbationError", "PipelineError",
                   "NonGenericResidueError")


def import_jkcalc() -> dict:
    """Import jkcalc afresh (dropping any earlier import) and return its modules."""
    for name in [n for n in sys.modules if n == "jkcalc" or n.startswith("jkcalc.")]:
        del sys.modules[name]
    importlib.import_module("jkcalc")
    return {name: importlib.import_module(f"jkcalc.{name}") for name in MODULES}


def emit(jk, result, diagnostics=True) -> str:
    buf = io.StringIO()
    jk["cli"].emit_json(result, buf, diagnostics=diagnostics)
    return buf.getvalue()


def execute(jk, item):
    """The timed part of one problem; returns (result, emitted JSON, parsed back)."""
    if item.text:
        # the path of `jkcalc --invariant dt --emit json`
        cfg = jk["config"].parse_config(item.text)
        problem = cfg.build_problem()
        result = jk["invariants"].compute(problem, kind="additive", q_order=cfg.q_order,
                                          seed=cfg.seed)
        text = emit(jk, result)
        return result, text, jk["cli"].result_from_json(text)
    result = jk["invariants"].compute(item.problem, **item.kwargs)
    if item.kwargs["kind"] == "all":
        return result, emit(jk, result), None
    return result, None, None


_ORACLES = {"ci": oracles.ci_dt, "quiver": oracles.quiver_a3_dt,
            "wp": oracles.weighted_projective_dt}


class Checker:
    """Compares results with oracle values, computed once per oracle key."""

    def __init__(self, jk):
        self.jk = jk
        self._expected: dict = {}

    def expected(self, key):
        if key not in self._expected:
            self._expected[key] = _ORACLES[key[0]](*key[1:])
        return self._expected[key]

    def fault(self, item, outcome) -> str | None:
        """None when the outcome is right, else what is wrong with it."""
        result, text, back = outcome
        expected = self.expected(item.oracle)
        if result.dt != expected:
            return f"DT {result.dt} differs from the oracle value {expected}"
        if back is not None:
            if back.dt != result.dt or \
                    emit(self.jk, back, False) != emit(self.jk, result, False):
                return "the JSON document does not round-trip bit for bit"
        if text is not None and item.kwargs.get("kind") == "all":
            try:
                self.jk["invariants"].specialize(result)
            except self.jk["invariants"].PipelineError as exc:
                return f"specialization identity failed: {exc}"
            dt = json.loads(text)["dt"]
            if (dt["num"], dt["den"]) != (expected.numerator, expected.denominator):
                return "emitted DT differs from the oracle value"
        return None


class Tally:
    """Outcomes of the problems of one phase."""

    def __init__(self):
        self.marks: list = []                # sampler marks around each problem
        self.problem_index: list[int] = []
        self.ok = 0
        self.failures: Counter = Counter()   # class name (or "wrong value") -> count
        self.first_error: dict = {}
        self.retries = 0
        self.root_overrides = 0

    @property
    def attempted(self) -> int:
        return len(self.marks)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def times(self, sampler) -> tuple[list[float], list[float]]:
        """(wall, calibrated) seconds per problem."""
        pairs = [sampler.measure(start, end) for start, end in self.marks]
        return [w for w, _ in pairs], [c for _, c in pairs]

    def fail(self, kind, item, message):
        self.failures[kind] += 1
        self.first_error.setdefault(kind, f"{item.name}: {message}")


def run_pass(jk, deck, sampler, checker, tally, tracer=None):
    for index, item in enumerate(deck):
        outcome = None
        start = sampler.mark()
        try:
            if tracer is None:
                outcome = execute(jk, item)
            else:
                tracer.problem = index
                with tracer.span("bench.problem"):
                    outcome = execute(jk, item)
        except Exception as exc:  # noqa: BLE001 - every failure is counted, none retried
            kind = type(exc).__name__
            tally.fail(kind if kind in FAILURE_CLASSES else "other", item,
                       "".join(traceback.format_exception_only(exc)).strip())
        finally:
            tally.marks.append((start, sampler.mark()))
            tally.problem_index.append(index)
        if outcome is None:
            continue
        wrong = checker.fault(item, outcome)
        if wrong:
            tally.fail("wrong value", item, wrong)
            continue
        tally.ok += 1
        diag = outcome[0].diagnostics
        tally.retries += diag.retries
        tally.root_overrides += diag.hypothesis.root_condition != "ok"


def setup(workload, seed, sampler):
    """Import, generate the seeded deck, warm up; returns (jk, deck, marks)."""
    start = sampler.mark()
    jk = import_jkcalc()
    deck = workloads.generate(workload, seed, jk["builders"])
    for item in workloads.warmup(workload, jk["builders"]):
        execute(jk, item)
    return jk, deck, (start, sampler.mark())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def timed_run(workload, seed, seconds):
    tally = Tally()
    with calibration.SpeedSampler() as sampler:
        setups = [setup(workload, seed, sampler) for _ in range(SETUPS)]
        jk, deck, _ = setups[-1]
        checker = Checker(jk)
        start = time.perf_counter()
        passes = 0
        while True:
            run_pass(jk, deck, sampler, checker, tally)
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / passes > seconds:
                break
    rss = peak_rss_mb()
    wrappers = spans.installed_wrappers()

    wall, lat = tally.times(sampler)
    setup_wall, setup_cal = zip(*(sampler.measure(*marks) for _, _, marks in setups))
    n = tally.attempted
    metrics = {
        "setup_s": statistics.median(setup_cal),
        "throughput_qps": tally.ok / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "peak_rss_mb": rss,
    }
    print(f"workload {workload}  seed {seed}  closed loop, 1 client  "
          f"{passes} pass(es) over a {len(deck)}-problem deck in {elapsed:.1f} s wall")
    print(f"  throughput_qps  {metrics['throughput_qps']:.6g} 1/s   "
          f"({tally.ok} correct of {n}, busy {sum(lat):.3f} s)")
    print(f"  latency_p50_s   {metrics['latency_p50_s']:.6g} s   (n={n})")
    if n >= 100:
        print(f"  latency_p90_s   {_quantile(lat, 0.9):.6g} s   (n={n})")
    else:
        print(f"  latency_p90_s   not reported: {n} samples < 100")
    print(f"  error_rate      {tally.failed / n:.6g}   ({tally.failed} of {n})")
    print(f"  setup_s         {metrics['setup_s']:.6g} s   (median of {SETUPS} set-ups)")
    print(f"  peak_rss_mb     {metrics['peak_rss_mb']:.6g} MiB")
    print(f"  wall clock: throughput {tally.ok / sum(wall):.6g} 1/s, "
          f"p50 {statistics.median(wall):.6g} s, setup {statistics.median(setup_wall):.6g} s; "
          f"{len(sampler.durations)} speed samples, median kernel "
          f"{statistics.median(sampler.durations) * 1e3:.4f} ms")
    report_failures(tally)
    print(f"  tracing wrappers installed during the timed run: {wrappers}")
    return tally.attempted, tally.failed, metrics


def traced_run(workload, seed):
    """Untraced pass, traced pass, untraced pass over the same deck."""
    tracer = spans.Tracer()
    before, traced, after = Tally(), Tally(), Tally()
    with calibration.SpeedSampler() as sampler:
        jk, deck, _ = setup(workload, seed, sampler)
        checker = Checker(jk)
        run_pass(jk, deck, sampler, checker, before)
        tracer.install(jk)
        try:
            run_pass(jk, deck, sampler, checker, traced, tracer)
        finally:
            tracer.uninstall()
        run_pass(jk, deck, sampler, checker, after)
    traced_wall, traced_lat = traced.times(sampler)
    # span times are wall seconds; calibrate each by its problem's factor
    scale = {p: cal / wall for p, wall, cal in zip(traced.problem_index, traced_wall,
                                                     traced_lat)}
    metrics = spans.layer_metrics(tracer, scale)
    untraced_qps = (before.ok + after.ok) / (sum(before.times(sampler)[1])
                                              + sum(after.times(sampler)[1]))
    traced_qps = traced.ok / sum(traced_lat)
    metrics.update({
        "invariants.retries": traced.retries,
        "invariants.root_overrides": traced.root_overrides,
        "trace.untraced_qps": untraced_qps,
        "trace.traced_qps": traced_qps,
        "trace.overhead_ratio": untraced_qps / traced_qps,
    })
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{workload}-seed{seed}.csv"
    tracer.write(span_file)
    print(f"workload {workload}  seed {seed}  traced pass over a {len(deck)}-problem deck "
          f"between two untraced passes; {len(tracer.spans)} spans written to "
          f"{span_file.relative_to(ROOT)}")
    for name in sorted(metrics):
        print(f"  {name:42s} {metrics[name]:.6g}")
    phases = (before, traced, after)
    for tally in phases:
        report_failures(tally)
    return sum(t.attempted for t in phases), sum(t.failed for t in phases), metrics


def report_failures(tally):
    kinds = FAILURE_CLASSES + ("other", "wrong value")
    print("  failures: " + ", ".join(f"{k} {tally.failures[k]}" for k in kinds)
          + f"   root_overrides {tally.root_overrides}, retries {tally.retries}")
    for kind, message in tally.first_error.items():
        print(f"    first {kind}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "jkcalc" / "__init__.py").is_file():
        print(f"error: no jkcalc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        attempted, failed, metrics = traced_run(args.workload, args.seed)
        declared = spec["per_layer"]
    else:
        attempted, failed, metrics = timed_run(args.workload, args.seed, args.seconds)
        declared = spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
