"""Config grammar, builders, CLI plumbing and emit round trips."""

import glob
import io
import json
import os
import re
from collections import Counter

import pytest

import decks
from jkcalc import builders, cli, invariants
from jkcalc.config import ConfigError, parse_config
from jkcalc.polyarith import QSeries, RatFunc

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

CY3_TEXT = """
mode raw
label cy3
rank 2
degree 1
weyl 2
xi [-1,-1]
weight [-1,0] 0 4
weight [0,-1] 0 4
weight [4,4] 1 1
root [1,-1]
root [-1,1]
"""

P21_TEXT = "mode raw\nlabel p21\nrank 1\nxi [1]\nweight [2] 1 1\nweight [1] 0 1\nq-order 1\n"

QUIVER_TEXT = """
mode quiver
label a3
degree 3
node X gauged 1
node F framed 1
arrow X X 1
arrow X X 1
arrow X X 1
arrow F X 0
xi X 1
"""


class TestParse:
    def test_cy3_matches_builder(self):
        problem = parse_config(CY3_TEXT).build_problem()
        reference = builders.grassmannian_det(2, 4, 4, degree=1)
        assert problem.rank == reference.rank
        assert problem.xi == reference.xi
        assert problem.weyl_order == reference.weyl_order
        assert Counter((w.rho, w.r_charge) for w in problem.weight_entries) == \
            Counter((w.rho, w.r_charge) for w in reference.weight_entries)
        assert sorted(problem.roots) == sorted(reference.roots)
        assert invariants.compute(problem, kind="additive").dt == 176

    def test_quiver_matches_builder(self):
        problem = parse_config(QUIVER_TEXT).build_problem()
        reference = builders.framed_a3_problem(1, 1)
        assert Counter((w.rho, w.r_charge) for w in problem.weight_entries) == \
            Counter((w.rho, w.r_charge) for w in reference.weight_entries)
        assert problem.degree == 3
        assert invariants.compute(problem, kind="additive").dt == 8

    def test_covector_length_mismatch(self):
        bad = CY3_TEXT.replace("weight [4,4] 1 1", "weight [4,4,1] 1 1")
        with pytest.raises(ConfigError, match="rank"):
            parse_config(bad)

    def test_unknown_key_with_line_number(self):
        bad = CY3_TEXT + "frobnicate 3\n"
        with pytest.raises(ConfigError, match="unknown key 'frobnicate'"):
            parse_config(bad)

    def test_syntax_error_reports_line(self):
        bad = "mode raw\nrank 2\nxi [-1,-1\n"
        with pytest.raises(ConfigError, match="line 3"):
            parse_config(bad)

    def test_mode_must_come_first(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config("rank 2\nmode raw\n")

    def test_shipped_configs_parse_and_validate(self):
        paths = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg")))
        assert len(paths) >= 3
        for path in paths:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
            problem = cfg.build_problem()
            invariants.validate(problem)

    def test_builder_modes(self):
        cfg = parse_config("mode projective-bundle\nn 4\ndegrees [5]\n")
        assert invariants.compute(cfg.build_problem(), kind="additive").dt == 200
        cfg = parse_config("mode grassmannian-det\nk 2\nn 4\npower 4\ndegree 1\n")
        assert invariants.compute(cfg.build_problem(), kind="additive").dt == 176


PROJECTIVE_TEXT = "mode projective-bundle\nn 4\ndegrees [5]\n"
GRASSMANNIAN_TEXT = "mode grassmannian-det\nk 2\nn 4\npower 4\ndegree 1\n"
# (config, lines that repeat a once-only key, what the error names); the last
# line used to win, so that PROJECTIVE_TEXT + "n 3" printed the DT of P^3, 55
REPEATED_LINES = [(CY3_TEXT, line, line.split()[0]) for line in
                  ("rank 1", "weyl 1", "xi [1,1]", "label x", "degree 2")] + \
    [(QUIVER_TEXT, "xi X 2", "xi X")] + \
    [(PROJECTIVE_TEXT, line, line.split()[0]) for line in
     ("n 3", "degrees [3]", "invariant dt\ninvariant all", "q-order 1\nq-order 2",
      "seed 1\nseed 2")] + \
    [(GRASSMANNIAN_TEXT, line, line.split()[0]) for line in ("k 1", "n 5", "power 2")]


def _exit_and_error(tmp_path, capsys, text):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(text)
    return cli.run([str(cfg), "--invariant", "dt"]), capsys.readouterr().err


class TestStrictGrammar:
    @pytest.mark.parametrize("base, lines, what", REPEATED_LINES,
                             ids=[what for _, _, what in REPEATED_LINES])
    def test_once_only_key_given_twice(self, base, lines, what, tmp_path, capsys):
        text = base + lines + "\n"
        last = len(text.splitlines())
        with pytest.raises(ConfigError, match=f"^line {last}: {what} may be given only once$"):
            parse_config(text)
        code, err = _exit_and_error(tmp_path, capsys, text)
        assert code == 3 and err.startswith(f"config error: line {last}: ")

    def test_quiver_stability_once_per_node(self):
        text = QUIVER_TEXT.replace("xi X 1", "xi X 1\nnode G gauged 1\narrow X G 0\nxi G 2")
        assert parse_config(text).values["xi"] == {"X": 1, "G": 2}

    @pytest.mark.parametrize("root, message", [
        ("root [1,-1] 1 junk", "root needs '<covector> [multiplicity]'"),
        ("root [1,-1] 0", "root multiplicity must be >= 1"),
        ("root [1,-1] -1", "root multiplicity must be >= 1"),
        ("root [1,-1] x", "expected multiplicity, got 'x'"),
    ])
    def test_root_multiplicity(self, root, message, tmp_path, capsys):
        text = CY3_TEXT.replace("root [1,-1]", root)
        lineno = text.splitlines().index(root) + 1
        with pytest.raises(ConfigError, match=f"^line {lineno}: {re.escape(message)}$"):
            parse_config(text)
        code, err = _exit_and_error(tmp_path, capsys, text)
        assert code == 3 and f"line {lineno}: " in err

    @pytest.mark.parametrize("text, line, message", [
        ("mode projective-bundle\nn 4\ndegrees [0]\n", "degrees [0]",
         "bundle degrees must be >= 1"),
        (QUIVER_TEXT.replace("node X gauged 1", "node X gauged 0"), "node X gauged 0",
         "node X must have dimension >= 1"),
        (QUIVER_TEXT.replace("node F framed 1", "node F framed 1\nnode X framed 2"),
         "node X framed 2", "duplicate node name X"),
        (QUIVER_TEXT.replace("arrow F X 0", "arrow F X 0\narrow X Y 0"), "arrow X Y 0",
         "arrow X Y references a missing node Y"),
        # integers are ASCII digits after an optional sign, which int() alone
        # widens to digit separators and other scripts' digits
        (CY3_TEXT.replace("degree 1", "degree 1_000"), "degree 1_000",
         "expected degree, got '1_000'"),
        (CY3_TEXT + "seed \u0663\n", "seed \u0663", "expected seed, got '\u0663'"),
        (CY3_TEXT.replace("xi [-1,-1]", "xi [-1,-\u0661]"), "xi [-1,-\u0661]",
         "expected xi entry, got '-\u0661'"),
        (CY3_TEXT.replace("weight [4,4] 1 1", "weight [4,4] 1 1_0"), "weight [4,4] 1 1_0",
         "expected multiplicity, got '1_0'"),
    ], ids=["bundle-degree", "node-dimension", "duplicate-node", "missing-node",
            "scalar-separator", "scalar-digit", "covector-entry-digit", "multiplicity-separator"])
    def test_value_errors_name_their_line(self, text, line, message, tmp_path, capsys):
        lineno = text.splitlines().index(line) + 1
        with pytest.raises(ConfigError, match=f"^line {lineno}: {re.escape(message)}$"):
            parse_config(text)
        code, err = _exit_and_error(tmp_path, capsys, text)
        assert code == 3 and err == f"config error: line {lineno}: {message}\n"

    def test_zero_root_multiplicities_no_longer_drop_the_roots(self, tmp_path, capsys):
        # with both roots dropped the cy3 problem printed DT = 14304, not 176
        text = CY3_TEXT.replace("root [1,-1]", "root [1,-1] 0").replace(
            "root [-1,1]", "root [-1,1] 0")
        assert _exit_and_error(tmp_path, capsys, text)[0] == 3
        doubled = CY3_TEXT.replace("root [1,-1]", "root [1,-1] 2").replace(
            "root [-1,1]", "root [-1,1] 2")
        assert parse_config(doubled).build_problem().roots == [(1, -1)] * 2 + [(-1, 1)] * 2

    @pytest.mark.parametrize("text, missing", [
        ("mode raw\nrank 1\nxi [1]\n", "raw mode is missing required keys: weight"),
        ("mode raw\nweight [1] 0\n", "raw mode is missing required keys: rank, xi"),
        ("mode quiver\nnode X gauged 1\n", "quiver mode is missing required keys: degree"),
        ("mode quiver\ndegree 1\n", "quiver mode is missing required keys: node"),
        ("mode projective-bundle\ndegrees [2]\n",
         "projective-bundle mode is missing required keys: n"),
        ("mode grassmannian-det\nk 2\n",
         "grassmannian-det mode is missing required keys: n, power"),
    ])
    def test_missing_required_keys(self, text, missing):
        cfg = parse_config(text)    # command-line overrides may still supply them
        with pytest.raises(ConfigError, match=f"^{missing}$"):
            cfg.build_problem()

    def test_degree_option_supplies_a_missing_degree(self, tmp_path, capsys):
        with open(os.path.join(CONFIG_DIR, "framed-a3-n1-r1.cfg"), encoding="utf-8") as fh:
            text = fh.read()
        cfg = tmp_path / "p.cfg"
        cfg.write_text(text.replace("degree 3\n", ""))
        assert cli.run([str(cfg), "--degree", "3"]) == 0
        assert "DT = 8\n" in capsys.readouterr().out
        assert cli.run([str(cfg)]) == 3
        assert capsys.readouterr().err == \
            "config error: quiver mode is missing required keys: degree\n"


class TestLineOrder:
    def test_stability_before_rank_names_the_length(self, tmp_path, capsys):
        text = "mode raw\nxi [1]\nrank 2\nweight [1,0] 0\nweight [0,1] 0\n"
        message = "line 2: xi [1] has 1 entries but the declared rank is 2"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)
        code, err = _exit_and_error(tmp_path, capsys, text)
        assert code == 3 and message in err

    def test_weight_before_rank_names_the_length(self):
        with pytest.raises(ConfigError, match=re.escape(
                "line 2: weight [1,0,0] has 3 entries but the declared rank is 2")):
            parse_config("mode raw\nweight [1,0,0] 0\nrank 2\nxi [1,1]\n")

    def test_directive_order_is_free(self):
        # weight and root lines first, then rank and xi
        lines = CY3_TEXT.strip().splitlines()
        shuffled = "\n".join([lines[0], *sorted(
            lines[1:], key=lambda line: line.split()[0] not in ("weight", "root"))])
        assert shuffled.splitlines()[-1] == "xi [-1,-1]"
        assert parse_config(shuffled) == parse_config(CY3_TEXT)
        assert parse_config(shuffled).build_problem() == parse_config(CY3_TEXT).build_problem()


def _family_problem(item):
    """The problem a request-mix item asks for, from its family's builder or
    `make_problem`, with the parameters of its oracle key and label."""
    family, *params = item.oracle
    if family == "ci" and params[0] == 1:
        return builders.projective_bundle(params[1] - 1, params[2], label=item.name)
    if family == "ci":
        return builders.grassmannian_det(2, params[1], params[2][0], degree=1,
                                         label=item.name)
    if family == "quiver":
        return builders.framed_a3_problem(*params, label=item.name)
    charges = [int(part.split("r")[1]) for part in item.name.split("-")[1:]]
    degree = int(re.search(r"^degree (\d+)$", item.text, re.M).group(1))
    return invariants.make_problem(
        rank=1, weights=[((c,), r, 1) for c, r in zip(params[0], charges)], roots=[],
        xi=(1,), degree=degree, label=item.name)


@pytest.mark.parametrize("seed", [3, 424242])
def test_request_mix_texts_parse_to_the_family_problems(seed):
    items = decks.deck("request-mix", seed)
    assert Counter(item.text.split()[1] for item in items) == {
        "projective-bundle": 120, "grassmannian-det": 48, "quiver": 30, "raw": 40}
    for item in items:
        cfg = parse_config(item.text)
        assert (cfg.label, cfg.invariant, cfg.q_order) == (item.name, "dt", 6)
        assert cfg.build_problem() == _family_problem(item), item.name


class TestBuilders:
    def test_builder_outputs_validate(self):
        for n in range(1, 5):
            for degs in ((), (2,), (2, 3)):
                if len(degs) >= n:
                    continue
                invariants.validate(builders.projective_bundle(n, degs))
        for k, n in ((1, 3), (2, 4), (2, 5)):
            invariants.validate(builders.grassmannian_det(k, n, 2, degree=1))
        # power 1: the -1 determinant bundle over G(2,4)
        invariants.validate(builders.grassmannian_det(2, 4, 1, degree=1))
        for n, r in ((1, 1), (2, 2)):
            invariants.validate(builders.framed_a3_problem(n, r))

    def test_grassmannian_det_rank_one_matches_projective_bundle(self):
        a = invariants.compute(builders.grassmannian_det(1, 4, 5, degree=1),
                               kind="all", q_order=1)
        b = invariants.compute(builders.projective_bundle(3, (5,)),
                               kind="all", q_order=1)
        assert a.dt == b.dt
        assert a.chi_y == b.chi_y
        assert a.ell == b.ell

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            builders.projective_bundle(2, (0,))
        with pytest.raises(ValueError):
            builders.projective_bundle(1, (2,))
        with pytest.raises(ValueError):
            builders.grassmannian_det(3, 3, 1)


class TestEmit:
    def result(self):
        return invariants.compute(builders.projective_space(1, (1, 0)),
                                  kind="all", q_order=2)

    def test_text_emit_layout(self):
        out = io.StringIO()
        cli.emit_text(self.result(), out)
        text = out.getvalue()
        assert "DT = -2" in text
        assert "chi_y = -y^(-1/2) - y^(1/2)" in text
        assert "q^0:" in text and "q^2:" in text

    def test_ell_order_zero_single_row(self):
        res = invariants.compute(builders.projective_space(1, (1, 0)),
                                 kind="theta", q_order=0)
        out = io.StringIO()
        cli.emit_text(res, out)
        text = out.getvalue()
        assert "q^0:" in text and "q^1:" not in text

    def test_cy3_text_values(self):
        res = invariants.compute(builders.grassmannian_det(2, 4, 4, degree=1),
                                 kind="additive")
        out = io.StringIO()
        cli.emit_text(res, out)
        assert "DT = 176" in out.getvalue()

    def test_json_round_trip_is_bit_exact(self):
        res = self.result()
        out = io.StringIO()
        cli.emit_json(res, out)
        doc = json.loads(out.getvalue())
        assert doc["dt"] == {"num": -2, "den": 1}
        back = cli.result_from_json(doc)
        assert back.dt == res.dt
        assert back.chi_y == res.chi_y
        assert back.ell == res.ell

    def test_json_round_trip_rational_dt(self):
        prob = invariants.make_problem(rank=1, weights=[((2,), 1, 1), ((1,), 0, 1)],
                                       roots=[], xi=(1,), degree=1)
        res = invariants.compute(prob, kind="all", q_order=1)
        out = io.StringIO()
        cli.emit_json(res, out)
        back = cli.result_from_json(out.getvalue())
        assert back.dt == res.dt
        assert back.chi_y == res.chi_y
        assert back.ell == res.ell


@pytest.mark.parametrize("problem, kwargs, D", [
    pytest.param(problem, {"kind": "all", "q_order": item.kwargs["q_order"]}, 1, id=item.name)
    for item, problem in zip(decks.deck("elliptic-genus"), decks.deck_problems("elliptic-genus"))
] + [pytest.param(invariants.make_problem(1, [((1,), 0, 1), ((2,), 0, 1)], [], (1,)),
                  {"kind": "theta", "q_order": 1}, 3, id="p12-theta")])
def test_json_round_trip_keeps_the_values_and_d(problem, kwargs, D):
    """The parsed document holds the computed dt, chi_y, ell and D; with
    kind "theta" (on P(1, 2), where D = 3) D reaches it through ell alone."""
    res = invariants.compute(problem, **kwargs)
    out = io.StringIO()
    cli.emit_json(res, out)
    back = cli.result_from_json(out.getvalue())
    assert res.denom_scale == D
    assert (back.dt, back.chi_y, back.ell, back.denom_scale) == \
        (res.dt, res.chi_y, res.ell, D)


class TestCliProcess:
    def test_success_exit_zero(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(CY3_TEXT)
        code = cli.run([str(cfg), "--invariant", "dt"])
        assert code == 0
        assert "DT = 176" in capsys.readouterr().out

    def test_parse_error_exit_three(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("mode raw\nbogus 1\n")
        assert cli.run([str(cfg)]) == 3
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_three(self, capsys):
        assert cli.run(["/nonexistent/p.cfg"]) == 3

    def test_validation_failure_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("mode raw\nrank 1\nxi [-1]\nweight [1] 0 2\n")
        assert cli.run([str(cfg), "--invariant", "dt"]) == 2
        assert "validation error" in capsys.readouterr().err

    def test_check_only(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(CY3_TEXT)
        assert cli.run([str(cfg), "--check-only"]) == 0
        out = capsys.readouterr().out
        assert "properness" in out and "stable: 1" in out

    def test_list_intersections(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(CY3_TEXT)
        assert cli.run([str(cfg), "--invariant", "dt", "--list-intersections"]) == 0
        out = capsys.readouterr().out
        assert "isolated intersections: 3" in out
        assert "stable intersections: 1" in out
        assert "kappa" in out

    def test_json_output_file(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("mode projective-bundle\nn 2\ndegrees [3]\n")
        out_path = tmp_path / "result.json"
        assert cli.run([str(cfg), "--invariant", "dt", "--emit", "json",
                        "-o", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["dt"] == {"num": 0, "den": 1}

    def test_cross_check_runs(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("mode projective-bundle\nn 2\ndegrees [2]\nq-order 1\n")
        assert cli.run([str(cfg), "--cross-check"]) == 0

    def test_cross_check_compares_ell_with_a_sine_run_of_its_own(self, tmp_path, capsys,
                                                                 monkeypatch):
        # theta residues whose q^0 is off by w - 1, which leaves the chi_y ->
        # DT limit as it is: a kind="all" run reads chi_y off Ell(q=0), so
        # only the cross-check's sine rerun sees it
        real = invariants.engine.flag_residue_multiplicative

        def off(local_factors, flag, integrand):
            value = real(local_factors, flag, integrand)
            if integrand.kind == "theta":
                value = value + QSeries.const(integrand.q_order, RatFunc([(1, 1), (0, -1)]))
            return value

        monkeypatch.setattr(invariants.engine, "flag_residue_multiplicative", off)
        cfg = tmp_path / "p.cfg"
        cfg.write_text("mode projective-bundle\nn 2\ndegrees [2]\nq-order 1\n")
        assert cli.run([str(cfg)]) == 0
        capsys.readouterr()
        assert cli.run([str(cfg), "--cross-check"]) == 4
        assert capsys.readouterr().err == "internal error: Ell(q=0) does not reproduce chi_y\n"

    def test_cross_check_validates_each_problem_once(self, tmp_path, capsys, count_calls):
        # p21 and its rescaled problem: the reruns for the sine check, s = 2
        # and the second seed reuse the first run's validation, and the run
        # itself is the direct side of the fractional check
        cfg = tmp_path / "p21.cfg"
        cfg.write_text(P21_TEXT)
        assert cli.run([str(cfg), "--emit", "json"]) == 0
        plain = capsys.readouterr().out
        calls = count_calls(invariants, "validate")
        assert cli.run([str(cfg), "--emit", "json", "--cross-check"]) == 0
        assert capsys.readouterr().out == plain
        assert len(calls) == 2

    def test_cross_check_takes_an_all_run_as_its_fractional_direct_run(self, tmp_path, capsys,
                                                                       count_calls):
        # at --invariant all and q-order <= 2 the run is the direct side of
        # the fractional check: the sine, s = 2, reseeded and rescaled runs
        # follow it, and no sixth run repeats it
        cfg = tmp_path / "p21.cfg"
        cfg.write_text(P21_TEXT)
        argv = [str(cfg), "--invariant", "all", "--q-order", "1", "--emit", "json"]
        assert cli.run(argv) == 0
        plain = capsys.readouterr().out
        calls = count_calls(invariants, "_compute")
        assert cli.run(argv + ["--cross-check"]) == 0
        assert capsys.readouterr().out == plain
        assert len(calls) == 5

    def test_cross_check_reseeds_to_another_order(self, tmp_path, capsys, monkeypatch):
        # at rank 1 seeds 1001 and 1002 draw seed 1's own signed order for
        # the quintic, so a rerun there would repeat the run; the check takes
        # the first seed from 1001 on that draws the other order
        real = invariants._rerun
        orders = []

        def recording(*args, **kwargs):
            rerun = real(*args, **kwargs)
            orders.append(rerun.diagnostics.perturbation.order)
            return rerun

        monkeypatch.setattr(invariants, "_rerun", recording)
        cfg = os.path.join(CONFIG_DIR, "quintic.cfg")
        assert cli.run([cfg, "--invariant", "dt", "--seed", "1", "--cross-check"]) == 0
        assert capsys.readouterr().out == "# quintic-threefold\nDT = 200\n"
        assert orders == [((0, 1),), ((0, -1),)]
        # rank 0 has the empty order alone: the s = 2 rerun, and no reseeding
        orders.clear()
        cfg = tmp_path / "r0.cfg"
        cfg.write_text("mode raw\nrank 0\nxi []\nweight [] 1 1\n")
        assert cli.run([str(cfg), "--invariant", "dt", "--cross-check"]) == 0
        assert orders == [()]

    def test_s_check_reuses_the_localized_flags(self, capsys, count_calls):
        # s enters only the additive residues: the s = 2 rerun and the sine
        # rerun reuse the first run's (flag, localization) pairs, and only
        # the reseeded check localizes again
        cfg = os.path.join(CONFIG_DIR, "framed-a3-n1-r1.cfg")
        calls = {name: count_calls(owner, name)
                 for owner, name in ((invariants.arrangement, "enumerate_flags"),
                                     (invariants.engine, "localize"))}

        def counts():
            return {name: len(c) for name, c in calls.items()}

        assert cli.run([cfg, "--q-order", "1", "--emit", "json"]) == 0
        plain, once = capsys.readouterr().out, counts()
        for c in calls.values():
            c.clear()
        assert cli.run([cfg, "--q-order", "1", "--emit", "json", "--cross-check"]) == 0
        assert capsys.readouterr().out == plain
        assert once["enumerate_flags"] > 0 and once["localize"] > 0
        assert counts() == {name: 2 * n for name, n in once.items()}

    def test_flags_per_point_read_on_demand_match_an_all_run(self, tmp_path, capsys):
        # length 2, three stable points in two orbits: a DT run enumerates
        # the flags of the third point when the JSON reads them, an all run
        # at every point up front
        cfg = tmp_path / "a3-n2.cfg"
        cfg.write_text(QUIVER_TEXT.replace("node X gauged 1", "node X gauged 2"))
        per_point = {}
        for invariant in ("dt", "all"):
            assert cli.run([str(cfg), "--invariant", invariant, "--q-order", "0",
                            "--emit", "json"]) == 0
            per_point[invariant] = json.loads(capsys.readouterr().out)[
                "diagnostics"]["flags_per_point"]
        assert per_point["dt"] == per_point["all"] == [1, 1, 1]

    def test_degree_override(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("mode raw\nrank 1\ndegree 1\nxi [1]\nweight [1] 1 1\nweight [1] 0 1\n")
        assert cli.run([str(cfg), "--invariant", "dt", "--degree", "2"]) == 0
        assert "DT" in capsys.readouterr().out

    def test_negative_q_order_override_exit_three(self, capsys):
        quintic = os.path.join(CONFIG_DIR, "quintic.cfg")
        assert cli.run([quintic, "--q-order", "-1"]) == 3
        err = capsys.readouterr().err
        assert err == "config error: q-order must be >= 0\n"

    @pytest.mark.parametrize("argv", [
        ["quintic.cfg", "--q-order", "x"],
        ["quintic.cfg", "--invariant", "bogus"],
        ["quintic.cfg", "--frobnicate"],
        [],
    ], ids=["malformed-q-order", "unknown-invariant", "unknown-option", "missing-config"])
    def test_command_line_error_exit_three(self, argv, capsys):
        argv = [os.path.join(CONFIG_DIR, a) if a.endswith(".cfg") else a for a in argv]
        assert cli.run(argv) == 3
        assert "usage: jkcalc" in capsys.readouterr().err

    def test_help_exit_zero(self, capsys):
        assert cli.run(["--help"]) == 0
        assert "usage: jkcalc" in capsys.readouterr().out

    def test_unwritable_output_exit_three(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(CY3_TEXT)
        out_path = tmp_path / "missing" / "x.json"
        assert cli.run([str(cfg), "--invariant", "dt", "-o", str(out_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out_path.parent.exists()
