"""Command line entry point: parse a config, run the pipeline, emit results.

Exit codes: 0 success, 2 validation failure, 3 parse error (of the config
or the command line, or an output file that cannot be written), 4 internal
error (a failed identity or a non-generic residue configuration).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction

from . import invariants
from .arrangement import sum_regular_perturbation
from .config import INVARIANT_KINDS, ConfigError, parse_config
from .engine import NonGenericResidueError
from .invariants import (InvariantResult, PipelineError, ValidationError,
                         integrality_scale, specialize)
from .polyarith import QSeries, RatFunc


def _fmt_y_power(exp: int, D: int) -> str:
    p = Fraction(exp, 2 * D)
    if p == 0:
        return ""
    if p == 1:
        return "y"
    if p.denominator == 1:
        return f"y^{p.numerator}"
    return f"y^({p})"


def _fmt_laurent(laurent: dict, D: int) -> str:
    if not laurent:
        return "0"
    parts = []
    for exp in sorted(laurent):
        c = laurent[exp]
        mono = _fmt_y_power(exp, D)
        if not mono:
            body = str(c)
        elif c == 1:
            body = mono
        elif c == -1:
            body = f"-{mono}"
        else:
            body = f"{c}*{mono}"
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append("- " + body[1:])
        else:
            parts.append("+ " + body)
    return " ".join(parts)


def _fmt_value(rf: RatFunc, D: int, note: bool) -> str:
    """rf as a Laurent polynomial in y when it is one, else as a function of
    w = y^(1/(2D)), with a note that says so when `note` is set."""
    laurent = invariants.laurent_form(rf)
    if laurent is not None:
        return _fmt_laurent(laurent, D)
    body = rf.to_string(names=["w"])
    return body + f"   (w = y^(1/{2 * D}), not a Laurent polynomial)" if note else body


def emit_text(result: InvariantResult, out) -> None:
    """Human-readable exact values."""
    D = result.denom_scale
    if result.label:
        out.write(f"# {result.label}\n")
    if result.dt is not None:
        out.write(f"DT = {result.dt}\n")
        if not result.dt_is_integer():
            out.write("  (non-integral: the critical locus is not a finite reduced set)\n")
    if result.chi_y is not None:
        out.write(f"chi_y = {_fmt_value(result.chi_y, D, True)}\n")
    if result.ell is not None:
        out.write(f"Ell (q-expansion to order {result.ell.order}):\n")
        for i, coeff in enumerate(result.ell.coeffs):
            out.write(f"  q^{i}: {_fmt_value(coeff, D, False)}\n")


def _json_pairs(pairs):
    return [[e, c.numerator, c.denominator] for e, c in pairs]


def _pairs_from_json(entries):
    return [(int(e), Fraction(int(n), int(d))) for e, n, d in entries]


def _ratfunc_json(rf: RatFunc):
    """rf as a JSON object: its Laurent form, if it has one."""
    laur = invariants.laurent_form(rf)
    if laur is not None:
        return {"laurent": _json_pairs(sorted(laur.items()))}
    num, den = rf.pairs()
    return {"ratfunc": {"num": _json_pairs(num), "den": _json_pairs(den)}}


def emit_json(result: InvariantResult, out, diagnostics: bool = True) -> None:
    doc = {"label": result.label, "degree": result.degree}
    doc["dt"] = None if result.dt is None else \
        {"num": result.dt.numerator, "den": result.dt.denominator}
    D = result.denom_scale
    doc["chi_y"] = None if result.chi_y is None else \
        {"denom_scale": D, **_ratfunc_json(result.chi_y)}
    doc["ell"] = None if result.ell is None else {
        "denom_scale": D, "q_order": result.ell.order,
        "coefficients": [_ratfunc_json(c) for c in result.ell.coeffs]}
    if diagnostics:
        diag = result.diagnostics
        doc["diagnostics"] = {
            "weyl_order": diag.weyl_order,
            "denom_scale": D,
            "seed": diag.seed,
            "retries": diag.retries,
            "stable_points": [[str(x) for x in p.point] for p in diag.points],
            "flags_per_point": [len(p.flags) for p in diag.points],
            "perturbation": None if diag.perturbation is None else
                [f"{'+' if s > 0 else '-'}e{j}" for j, s in diag.perturbation.order],
            "properness": None if diag.hypothesis is None else diag.hypothesis.properness,
        }
    json.dump(doc, out, indent=2)
    out.write("\n")


def _ratfunc_from_json(doc) -> RatFunc:
    if "laurent" in doc:
        return RatFunc(_pairs_from_json(doc["laurent"]))
    rf = doc["ratfunc"]
    return RatFunc(_pairs_from_json(rf["num"]), _pairs_from_json(rf["den"]))


def result_from_json(doc: dict) -> InvariantResult:
    """Rebuild exact values from an emitted JSON document (bit-exact)."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    result = InvariantResult(label=doc.get("label", ""), degree=doc.get("degree", 1))
    if doc.get("dt") is not None:
        result.dt = Fraction(int(doc["dt"]["num"]), int(doc["dt"]["den"]))
    chi_y, ell = doc.get("chi_y"), doc.get("ell")
    if chi_y is not None:
        result.chi_y = _ratfunc_from_json(chi_y)
        result.denom_scale = int(chi_y["denom_scale"])
    if ell is not None:
        result.ell = QSeries(int(ell["q_order"]), map(_ratfunc_from_json, ell["coefficients"]))
        result.denom_scale = int(ell["denom_scale"])
    return result


def _print_intersections(result_diag, out):
    report = result_diag.hypothesis
    out.write(f"isolated intersections: {len(report.all_points)}\n")
    stable_keys = {p.point for p in report.stable_points}
    for pt in report.all_points:
        mark = "stable" if pt.point in stable_keys else "unstable"
        out.write(f"  P = {pt}  [{mark}]  active weights: "
                  + ", ".join(str(tuple(map(str, w))) for w in pt.active_weights) + "\n")
    out.write(f"stable intersections: {len(report.stable_points)}\n")
    for pdiag in result_diag.points:
        out.write(f"  P = ({', '.join(str(x) for x in pdiag.point)}): "
                  f"{len(pdiag.flags)} contributing flag(s)\n")
        for fl in pdiag.flags:
            kap = "; ".join("(" + ", ".join(str(x) for x in ka) + ")" for ka in fl.kappa)
            out.write(f"    kappa = {kap}   lattice factor = {fl.lattice_factor}\n")


def build_arg_parser():
    ap = argparse.ArgumentParser(
        prog="jkcalc",
        description="Exact Jeffrey-Kirwan residue calculator for virtual invariants "
                    "(DT, chi_y, elliptic genus) of critical loci on GIT quotients.")
    ap.add_argument("config", help="problem configuration file ('-' for stdin)")
    ap.add_argument("--invariant", choices=sorted(INVARIANT_KINDS),
                    help="which invariant(s) to compute (overrides the config)")
    ap.add_argument("--q-order", type=int, help="elliptic genus truncation order")
    ap.add_argument("--seed", type=int, help="perturbation seed")
    ap.add_argument("--degree", type=int, help="override the potential degree")
    ap.add_argument("--emit", choices=("text", "json"), default="text")
    ap.add_argument("--output", "-o", help="write the result document to a file")
    ap.add_argument("--check-only", action="store_true",
                    help="validate the hypotheses and exit")
    ap.add_argument("--cross-check", action="store_true",
                    help="also verify specialization identities, s- and seed-independence")
    ap.add_argument("--list-intersections", action="store_true",
                    help="print isolated/stable intersections and contributing flags")
    return ap


def run(argv=None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a bad command line, which is
        # a parse error here
        return 3 if exc.code else 0
    try:
        if args.config == "-":
            text = sys.stdin.read()
        else:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    try:
        cfg = parse_config(text)
        for name in ("degree", "q_order", "seed", "invariant"):
            if getattr(args, name) is not None:
                setattr(cfg, name, getattr(args, name))
        problem = cfg.build_problem()
    except (ConfigError, ValidationError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3

    try:
        if args.check_only:
            report = invariants.validate(problem)
            print("stability: regular")
            print(f"root condition: {report.root_condition}")
            print(f"properness: {report.properness} ({report.properness_note})")
            print(f"isolated intersections: {len(report.all_points)}, "
                  f"stable: {len(report.stable_points)}")
            return 0 if report.ok() else 2
        kind = INVARIANT_KINDS[cfg.invariant]
        result = invariants.compute(problem, kind=kind, q_order=cfg.q_order,
                                    seed=cfg.seed)
        if args.cross_check:
            _run_cross_checks(problem, cfg, result)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (PipelineError, NonGenericResidueError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4

    try:
        out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
        try:
            if args.list_intersections:
                _print_intersections(result.diagnostics, out)
            if args.emit == "json":
                emit_json(result, out)
            else:
                emit_text(result, out)
        finally:
            if args.output:
                out.close()
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3
    return 0


def _run_cross_checks(problem, cfg, result):
    # the reruns reuse the validation report of `result`; a kind="all" run
    # reads chi_y off Ell(q=0), so Ell is checked against a sine run of its own
    if result.ell is not None:
        specialize(result, invariants._rerun(result, problem, "sine", seed=cfg.seed))
    if result.dt is not None:
        alt = invariants._rerun(result, problem, "additive", seed=cfg.seed, s=2)
        if alt.dt != result.dt:
            raise PipelineError("DT changed between s=1 and s=2")
        # the first seed from seed + 1000 on that draws another signed order;
        # rank 0 has one order only
        order = result.diagnostics.perturbation.order
        if order:
            seed = next(t for t in itertools.count(cfg.seed + 1000)
                        if sum_regular_perturbation(problem.xi, t).order != order)
            if invariants._rerun(result, problem, "additive", seed=seed).dt != result.dt:
                raise PipelineError("DT changed under another perturbation order")
    if integrality_scale(problem, result.diagnostics.hypothesis.stable_points) > 1:
        q_order = min(cfg.q_order, 2)
        # a kind="all" run at q-order <= 2 is the direct run itself
        direct = result if cfg.invariant == "all" and cfg.q_order <= 2 else \
            invariants._rerun(result, problem, "all", q_order, cfg.seed)
        invariants._fractional_reduction(problem, direct, q_order, cfg.seed)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
