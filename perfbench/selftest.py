"""Self-test of the benchmark itself (not of jkcalc).

    python3 perfbench/selftest.py

Checks that inputs follow the seed, that traced counts repeat exactly for one
seed, that the timed run has no tracing wrapper installed, that the oracles
reproduce known values, and that the benchmark refuses to run without the
sources.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _fingerprint(item):
    problem = item.problem
    shape = None if problem is None else (problem.weight_entries, problem.roots, problem.xi)
    return (item.name, item.text, shape, sorted(item.kwargs.items()))


class InputsFollowTheSeed(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        jk = run.import_jkcalc()
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = [_fingerprint(i) for i in workloads.generate(workload, 5, jk["builders"])]
                again = [_fingerprint(i) for i in workloads.generate(workload, 5, jk["builders"])]
                other = [_fingerprint(i) for i in workloads.generate(workload, 6, jk["builders"])]
                self.assertEqual(first, again)
                self.assertNotEqual(first, other)


class TracedCountsRepeat(unittest.TestCase):
    def _counts(self, workload, seed, pick):
        jk = run.import_jkcalc()
        deck = [item for item in workloads.generate(workload, seed, jk["builders"])
                if pick(item)]
        tracer = spans.Tracer()
        tally = run.Tally()
        with calibration.SpeedSampler() as sampler:
            tracer.install(jk)
            try:
                run.run_pass(jk, deck, sampler, run.Checker(jk), tally, tracer)
            finally:
                tracer.uninstall()
            self.assertEqual(spans.installed_wrappers(), 0)
        self.assertEqual(tally.failed, 0)
        metrics = spans.layer_metrics(tracer, {p: 1.0 for p in tally.problem_index})
        return {name: metrics[name] for name in COUNT_METRICS if name in metrics}

    def test_request_mix_counts_repeat_across_processes(self):
        runs = []
        for _ in range(2):
            proc = _bench("--workload", "request-mix", "--seed", "3", "--seconds", "1",
                          "--trace", "1")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
            runs.append({name: metrics[name]["value"] for name in COUNT_METRICS})
        self.assertEqual(runs[0], runs[1])
        self.assertGreater(runs[0]["arrangement.flag_tuples"], 0)

    def test_library_workload_counts_repeat(self):
        cheap = {"quiver-dt": lambda item: item.oracle[2] == 1 and
                 item.oracle[3] in ((1, 1, 1), (2, 2, 2)),
                 "elliptic-genus": lambda item: item.kwargs["q_order"] <= 2}
        for workload, pick in cheap.items():
            with self.subTest(workload=workload):
                first = self._counts(workload, 4, pick)
                self.assertEqual(first, self._counts(workload, 4, pick))
                self.assertGreater(first["engine.flag_residues"], 0)


class TimedRunIsUntraced(unittest.TestCase):
    def test_no_wrapper_in_timed_run(self):
        proc = _bench("--workload", "request-mix", "--seed", "2", "--seconds", "1",
                      "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("tracing wrappers installed during the timed run: 0", proc.stdout)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC["end_to_end"]})

    def test_uninstall_restores_every_binding(self):
        jk = run.import_jkcalc()
        tracer = spans.Tracer()
        tracer.install(jk)
        try:
            wrapped = spans.installed_wrappers()
        finally:
            tracer.uninstall()
        self.assertGreaterEqual(wrapped, len(spans.TARGETS))
        self.assertEqual(spans.installed_wrappers(), 0)


class OraclesReproduceKnownValues(unittest.TestCase):
    def test_known_values(self):
        self.assertEqual(oracles.ci_dt(1, 5, (5,)), 200)          # quintic threefold
        self.assertEqual(oracles.ci_dt(2, 4, (4,)), 176)          # CY3 in G(2,4)
        self.assertEqual(oracles.ci_dt(1, 3, (3,)), 0)            # plane cubic
        self.assertEqual(oracles.quiver_a3_dt(1, 1, (1, 1, 1)), 8)
        self.assertEqual(oracles.quiver_a3_dt(3, 1, (1, 1, 1)), -48)
        self.assertEqual(oracles.weighted_projective_dt((2, 1)), Fraction(-3, 2))


class RefusesWithoutSources(unittest.TestCase):
    def test_bare_directory_fails_without_result(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in HERE.glob("*.py"):
                shutil.copy(path, bare / "perfbench")
            proc = _bench("--workload", "quiver-dt", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
