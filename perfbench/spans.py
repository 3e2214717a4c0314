"""Span tracing from outside the program, for the traced run only.

`Tracer.install` replaces public functions of the jkcalc modules with timing
wrappers, at every binding that refers to the same function object (module
globals, package re-exports, class attributes such as `QSeries.__mul__` and
its alias `__rmul__`), and `uninstall` puts the originals back.  The timed
run installs nothing; it only calls `installed_wrappers` to confirm that.

Each span records (name, start, end, parent span, problem id).  Spans stay in
memory until the run writes them out.  A span's self time is its duration
minus the durations of its direct children; calls are nested on one thread,
so the children never overlap.
"""

from __future__ import annotations

import csv
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from math import perm

MARKER = "__perfbench_span__"

LINALG_FUNCTIONS = ("rank", "rref", "in_span", "solve", "solve_coords", "inverse",
                    "det", "hyperplane_normal")


def _is_zero(value) -> bool:
    return value == 0 if not hasattr(value, "is_zero") else value.is_zero()


def _observe_isolated(counts, args, kwargs, out):
    counts["arrangement.points_isolated"] += len(out)


def _observe_validate(counts, args, kwargs, out):
    counts["arrangement.points_stable"] += len(out.stable_points)


def _observe_verify(counts, args, kwargs, out):
    counts["arrangement.perturbation_ok"] += 1


def _observe_flags(counts, args, kwargs, out):
    active_weights, xi_tilde = args[0], args[1]
    distinct = {tuple(w) for w in active_weights}
    counts["arrangement.flag_tuples"] += perm(len(distinct), len(xi_tilde))
    counts["arrangement.flags_kept"] += len(out)


def _observe_residue(counts, args, kwargs, out):
    counts["engine.flag_residues"] += 1
    counts["engine.zero_residues"] += _is_zero(out)


def _observe_exact_div(counts, args, kwargs, out):
    counts["polyarith.exact_div_ok"] += out is not None


def _observe_laurent(counts, args, kwargs, out):
    counts["invariants.laurent_exact"] += out is not None


# (span name, module, attribute path, observer of successful calls)
TARGETS = [
    ("config.parse_config", "config", "parse_config", None),
    ("config.build_problem", "config", "ProblemConfig.build_problem", None),
    ("cli.emit_json", "cli", "emit_json", None),
    ("cli.result_from_json", "cli", "result_from_json", None),
    ("invariants.compute", "invariants", "compute", None),
    ("invariants.validate", "invariants", "validate", _observe_validate),
    ("invariants.build_integrand", "invariants", "build_integrand", None),
    ("invariants.laurent_form", "invariants", "laurent_form", _observe_laurent),
    ("arrangement.isolated_intersections", "arrangement", "isolated_intersections",
     _observe_isolated),
    ("arrangement.sum_regular_perturbation", "arrangement", "sum_regular_perturbation",
     None),
    ("arrangement.verify_perturbation", "arrangement", "verify_perturbation",
     _observe_verify),
    ("arrangement.enumerate_flags", "arrangement", "enumerate_flags", _observe_flags),
    ("arrangement.cone_membership", "arrangement", "cone_membership", None),
    *((f"linalg.{name}", "linalg", name, None) for name in LINALG_FUNCTIONS),
    ("engine.localize", "engine", "localize", None),
    ("engine.denominator_scale", "engine", "denominator_scale", None),
    ("engine.flag_residue_additive", "engine", "flag_residue_additive", _observe_residue),
    ("engine.flag_residue_multiplicative", "engine", "flag_residue_multiplicative",
     _observe_residue),
    ("polyarith.exact_div", "polyarith", "MultiPoly.exact_div", _observe_exact_div),
    ("polyarith.poly_gcd", "polyarith", "poly_gcd", None),
    ("polyarith.qseries_mul", "polyarith", "QSeries.__mul__", None),
    ("polyarith.qseries_inverse", "polyarith", "QSeries.inverse", None),
]

# per-layer time metric -> spans whose self times it sums
SELF_TIME_METRICS = {
    "config.parse_s": ("config.parse_config", "config.build_problem"),
    "cli.emit_json_s": ("cli.emit_json",),
    "cli.result_from_json_s": ("cli.result_from_json",),
    "invariants.validate_s": ("invariants.validate",),
    "invariants.build_integrand_s": ("invariants.build_integrand",),
    "invariants.laurent_form_s": ("invariants.laurent_form",),
    "arrangement.isolated_intersections_s": ("arrangement.isolated_intersections",),
    "arrangement.perturbation_s": ("arrangement.sum_regular_perturbation",
                                   "arrangement.verify_perturbation"),
    "arrangement.enumerate_flags_s": ("arrangement.enumerate_flags",),
    "arrangement.cone_membership_s": ("arrangement.cone_membership",),
    "linalg.busy_s": tuple(f"linalg.{name}" for name in LINALG_FUNCTIONS),
    "engine.localize_s": ("engine.localize",),
    "engine.denominator_scale_s": ("engine.denominator_scale",),
    "engine.flag_residue_additive_s": ("engine.flag_residue_additive",),
    "engine.flag_residue_multiplicative_s": ("engine.flag_residue_multiplicative",),
    "polyarith.exact_div_s": ("polyarith.exact_div",),
    "polyarith.gcd_s": ("polyarith.poly_gcd",),
    "polyarith.qseries_mul_s": ("polyarith.qseries_mul",),
    "polyarith.qseries_inverse_s": ("polyarith.qseries_inverse",),
}


def _resolve(module, path):
    owner = module
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return getattr(owner, name)


def _namespaces():
    """(owner, namespace) of every loaded jkcalc module and of every class
    defined in one, each owner once."""
    seen = set()
    for name, mod in list(sys.modules.items()):
        if name != "jkcalc" and not name.startswith("jkcalc."):
            continue
        classes = [v for v in vars(mod).values()
                   if isinstance(v, type) and v.__module__.startswith("jkcalc")]
        for owner in [mod] + classes:
            if id(owner) not in seen:
                seen.add(id(owner))
                yield owner, vars(owner)


def bindings(fn):
    """(owner, attribute) pairs bound to the function object fn."""
    return [(owner, name) for owner, namespace in _namespaces()
            for name, value in list(namespace.items()) if value is fn]


def installed_wrappers() -> int:
    """Number of bindings in the loaded jkcalc modules that hold a tracing wrapper."""
    return sum(1 for _, namespace in _namespaces()
               for value in namespace.values() if hasattr(value, MARKER))


class Tracer:
    """Spans and counts of one traced pass; `problem` is set by the caller."""

    def __init__(self):
        self.spans: list = []        # (name, start, end, parent, problem)
        self.counts: Counter = Counter()
        self.problem = -1
        self._stack: list[int] = []
        self._restore: list = []

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, name, start, parent):
        self._stack.pop()
        self.spans[sid] = (name, start, time.perf_counter(), parent, self.problem)

    @contextmanager
    def span(self, name):
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, start, parent)

    def _wrap(self, name, fn, observe):
        counts = self.counts

        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid, name, start, parent)
                counts[name + ".calls"] += 1
            if observe is not None:
                observe(counts, args, kwargs, out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARKER, name)
        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every target; `modules` maps short names to jkcalc modules."""
        for name, module, path, observe in TARGETS:
            fn = _resolve(modules[module], path)
            wrapper = self._wrap(name, fn, observe)
            for owner, attr in bindings(fn):
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def self_times(self, scale) -> dict:
        """Self time per span name, each span scaled by scale[problem id]."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, (name, start, end, _, problem) in enumerate(self.spans):
            out[name] += (end - start - child[sid]) * scale[problem]
        return out

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "name", "start_s", "end_s", "parent", "problem"))
            for sid, (name, start, end, parent, problem) in enumerate(self.spans):
                out.writerow((sid, name, f"{start:.9f}", f"{end:.9f}", parent, problem))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, scale) -> dict:
    """The per-layer figures of one traced pass: self times (scaled per problem
    by `scale`, see calibration.py) and counts."""
    selfs = tracer.self_times(scale)
    c = tracer.counts
    out = {metric: sum(selfs.get(name, 0.0) for name in names)
           for metric, names in SELF_TIME_METRICS.items()}
    verify_calls = c["arrangement.verify_perturbation.calls"]
    exact_div_calls = c["polyarith.exact_div.calls"]
    laurent_calls = c["invariants.laurent_form.calls"]
    out.update({
        "invariants.laurent_form_calls": laurent_calls,
        "invariants.laurent_exact_ratio": _ratio(c["invariants.laurent_exact"], laurent_calls),
        "arrangement.points_isolated": c["arrangement.points_isolated"],
        "arrangement.points_stable": c["arrangement.points_stable"],
        "arrangement.stable_ratio": _ratio(c["arrangement.points_stable"],
                                           c["arrangement.points_isolated"]),
        "arrangement.perturbation_attempts": verify_calls,
        "arrangement.perturbation_yield": _ratio(c["arrangement.perturbation_ok"],
                                                 verify_calls),
        "arrangement.flag_tuples": c["arrangement.flag_tuples"],
        "arrangement.flags_kept": c["arrangement.flags_kept"],
        "arrangement.flag_yield": _ratio(c["arrangement.flags_kept"],
                                         c["arrangement.flag_tuples"]),
        "linalg.calls": sum(c[f"linalg.{name}.calls"] for name in LINALG_FUNCTIONS),
        "engine.flag_residues": c["engine.flag_residues"],
        "engine.zero_residue_ratio": _ratio(c["engine.zero_residues"],
                                            c["engine.flag_residues"]),
        "polyarith.exact_div_calls": exact_div_calls,
        "polyarith.exact_div_yield": _ratio(c["polyarith.exact_div_ok"], exact_div_calls),
        "polyarith.gcd_calls": c["polyarith.poly_gcd.calls"],
    })
    return out
