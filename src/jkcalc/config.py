"""Line-oriented problem configuration: strict key/value grammar with tables.

Example (raw mode):

    mode raw
    label cy3-g24
    rank 2
    degree 1
    weyl 2
    xi [-1,-1]
    weight [-1,0] 0 4
    weight [0,-1] 0 4
    weight [4,4] 1 1
    root [1,-1]
    root [-1,1]

Quiver mode uses `node <name> gauged|framed <dim>`, `arrow <tail> <head> <R>`
and `xi <node> <int>` lines.  Unknown keys are errors; integers are arbitrary
precision; covectors are bracketed integer lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .builders import grassmannian_det, projective_bundle
from .invariants import DEFAULT_Q_ORDER, GITProblem, make_problem
from .quiver import Quiver, QuiverArrow, QuiverNode, QuiverStability, to_git_problem

MODES = ("raw", "quiver", "projective-bundle", "grassmannian-det")
# invariant name -> integrand kind of `invariants.compute`
INVARIANT_KINDS = {"dt": "additive", "chi-y": "sine", "ell": "theta", "all": "all"}


class ConfigError(Exception):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass
class ProblemConfig:
    mode: str
    label: str = ""
    degree: int | None = None
    invariant: str = "all"
    q_order: int = DEFAULT_Q_ORDER
    seed: int = 0
    # raw payload
    rank: int | None = None
    weyl: int = 1
    xi: tuple | None = None
    weights: list = field(default_factory=list)
    roots: list = field(default_factory=list)
    # quiver payload
    nodes: list = field(default_factory=list)
    arrows: list = field(default_factory=list)
    node_xi: dict = field(default_factory=dict)
    # builder payloads
    n: int | None = None
    degrees: tuple | None = None
    gr_k: int | None = None
    gr_n: int | None = None
    gr_power: int | None = None

    def build_problem(self) -> GITProblem:
        if self.mode == "raw":
            problem = make_problem(
                rank=self.rank, weights=self.weights, roots=self.roots,
                xi=self.xi, weyl_order=self.weyl,
                degree=self.degree if self.degree is not None else 1,
                label=self.label)
            return problem
        if self.mode == "quiver":
            quiver = Quiver(nodes=self.nodes, arrows=self.arrows, label=self.label)
            if self.degree is None:
                raise ConfigError("quiver mode requires an explicit degree")
            return to_git_problem(quiver, QuiverStability(dict(self.node_xi)), self.degree)
        if self.mode == "projective-bundle":
            problem = projective_bundle(self.n, self.degrees or (), label=self.label)
            if self.degree is not None:
                problem.degree = self.degree
            return problem
        if self.mode == "grassmannian-det":
            return grassmannian_det(self.gr_k, self.gr_n, self.gr_power,
                                    degree=self.degree if self.degree is not None else 1,
                                    label=self.label)
        raise ConfigError(f"unknown mode {self.mode!r}")


def _parse_int(tok, lineno, what="integer"):
    try:
        return int(tok)
    except ValueError:
        raise ConfigError(f"expected {what}, got {tok!r}", lineno) from None


def _parse_covector(tok, lineno, rank=None, key="covector"):
    tok = tok.strip()
    if not (tok.startswith("[") and tok.endswith("]")):
        raise ConfigError(f"{key} must be a bracketed integer list, got {tok!r}", lineno)
    inner = tok[1:-1].strip()
    if inner:
        parts = [p.strip() for p in inner.split(",")]
        vec = tuple(_parse_int(p, lineno, f"{key} entry") for p in parts)
    else:
        vec = ()
    if rank is not None and len(vec) != rank:
        raise ConfigError(
            f"{key} {tok} has {len(vec)} entries but the declared rank is {rank}", lineno)
    return vec


def _split_cov_line(rest, lineno, key):
    """Split '[a,b] x y' into the bracketed part and trailing tokens."""
    rest = rest.strip()
    if not rest.startswith("["):
        raise ConfigError(f"{key} must start with a bracketed covector", lineno)
    close = rest.find("]")
    if close < 0:
        raise ConfigError(f"unterminated covector in {key}", lineno)
    return rest[: close + 1].replace(" ", ""), rest[close + 1:].split()


def parse_config(text: str) -> ProblemConfig:
    """Parse a configuration document; unknown keys and malformed values raise
    ConfigError with the offending line number."""
    cfg = None
    pending = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if cfg is None:
            if key != "mode":
                raise ConfigError("the first directive must be 'mode'", lineno)
            if rest not in MODES:
                raise ConfigError(f"unknown mode {rest!r} (choose from {', '.join(MODES)})",
                                  lineno)
            cfg = ProblemConfig(mode=rest)
            continue
        pending.append((lineno, key, rest))
    if cfg is None:
        raise ConfigError("empty configuration: missing 'mode' directive")
    for lineno, key, rest in pending:
        _apply_directive(cfg, key, rest, lineno)
    check_complete(cfg)
    return cfg


def _apply_directive(cfg: ProblemConfig, key, rest, lineno):
    common = {
        "label": lambda: setattr(cfg, "label", rest),
        "degree": lambda: setattr(cfg, "degree", _parse_int(rest, lineno, "degree")),
        "q-order": lambda: setattr(cfg, "q_order", _parse_int(rest, lineno, "q-order")),
        "seed": lambda: setattr(cfg, "seed", _parse_int(rest, lineno, "seed")),
        "invariant": lambda: _set_invariant(cfg, rest, lineno),
    }
    if key in common:
        common[key]()
        return
    if cfg.mode == "raw":
        if key == "rank":
            cfg.rank = _parse_int(rest, lineno, "rank")
        elif key == "weyl":
            cfg.weyl = _parse_int(rest, lineno, "weyl order")
        elif key == "xi":
            cfg.xi = _parse_covector(rest.replace(" ", ""), lineno, cfg.rank, "xi")
        elif key == "weight":
            cov_tok, tail = _split_cov_line(rest, lineno, "weight")
            cov = _parse_covector(cov_tok, lineno, cfg.rank, "weight")
            if len(tail) not in (1, 2):
                raise ConfigError("weight needs '<covector> <R> [multiplicity]'", lineno)
            r = _parse_int(tail[0], lineno, "circle charge")
            mult = _parse_int(tail[1], lineno, "multiplicity") if len(tail) == 2 else 1
            if mult < 1:
                raise ConfigError("weight multiplicity must be >= 1", lineno)
            cfg.weights.append((cov, r, mult))
        elif key == "root":
            cov_tok, tail = _split_cov_line(rest, lineno, "root")
            cov = _parse_covector(cov_tok, lineno, cfg.rank, "root")
            mult = _parse_int(tail[0], lineno, "multiplicity") if tail else 1
            for _ in range(mult):
                cfg.roots.append(cov)
        else:
            raise ConfigError(f"unknown key {key!r} in raw mode", lineno)
        return
    if cfg.mode == "quiver":
        if key == "node":
            parts = rest.split()
            if len(parts) != 3 or parts[1] not in ("gauged", "framed"):
                raise ConfigError("node needs '<name> gauged|framed <dim>'", lineno)
            cfg.nodes.append(QuiverNode(parts[0], _parse_int(parts[2], lineno, "dimension"),
                                        gauged=parts[1] == "gauged"))
        elif key == "arrow":
            parts = rest.split()
            if len(parts) != 3:
                raise ConfigError("arrow needs '<tail> <head> <R>'", lineno)
            cfg.arrows.append(QuiverArrow(parts[0], parts[1],
                                          _parse_int(parts[2], lineno, "circle charge")))
        elif key == "xi":
            parts = rest.split()
            if len(parts) != 2:
                raise ConfigError("xi needs '<node> <integer>'", lineno)
            cfg.node_xi[parts[0]] = _parse_int(parts[1], lineno, "stability")
        else:
            raise ConfigError(f"unknown key {key!r} in quiver mode", lineno)
        return
    if cfg.mode == "projective-bundle":
        if key == "n":
            cfg.n = _parse_int(rest, lineno, "n")
        elif key == "degrees":
            cfg.degrees = _parse_covector(rest.replace(" ", ""), lineno, None, "degrees")
        else:
            raise ConfigError(f"unknown key {key!r} in projective-bundle mode", lineno)
        return
    if cfg.mode == "grassmannian-det":
        if key == "k":
            cfg.gr_k = _parse_int(rest, lineno, "k")
        elif key == "n":
            cfg.gr_n = _parse_int(rest, lineno, "n")
        elif key == "power":
            cfg.gr_power = _parse_int(rest, lineno, "power")
        else:
            raise ConfigError(f"unknown key {key!r} in grassmannian-det mode", lineno)
        return
    raise ConfigError(f"unknown key {key!r}", lineno)


def _set_invariant(cfg, rest, lineno):
    if rest not in INVARIANT_KINDS:
        raise ConfigError(
            f"invariant must be one of {', '.join(INVARIANT_KINDS)}", lineno)
    cfg.invariant = rest


def check_complete(cfg: ProblemConfig):
    if cfg.q_order < 0:
        raise ConfigError("q-order must be >= 0")
    if cfg.mode == "raw":
        missing = [name for name, val in
                   (("rank", cfg.rank), ("xi", cfg.xi))
                   if val is None]
        if missing:
            raise ConfigError(f"raw mode is missing required keys: {', '.join(missing)}")
        if not cfg.weights:
            raise ConfigError("raw mode needs at least one weight line")
    elif cfg.mode == "quiver":
        if not cfg.nodes:
            raise ConfigError("quiver mode needs node lines")
        if cfg.degree is None:
            raise ConfigError("quiver mode requires an explicit degree")
    elif cfg.mode == "projective-bundle":
        if cfg.n is None:
            raise ConfigError("projective-bundle mode requires n")
        if cfg.degrees is None:
            cfg.degrees = ()
    elif cfg.mode == "grassmannian-det":
        missing = [name for name, val in
                   (("k", cfg.gr_k), ("n", cfg.gr_n), ("power", cfg.gr_power))
                   if val is None]
        if missing:
            raise ConfigError(
                f"grassmannian-det mode is missing required keys: {', '.join(missing)}")
