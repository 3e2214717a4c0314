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
precision; covectors are bracketed integer lists.  `MODES` declares each mode.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass, field

from .builders import grassmannian_det, projective_bundle
from .invariants import DEFAULT_Q_ORDER, GITProblem, make_problem
from .quiver import Quiver, QuiverArrow, QuiverNode, QuiverStability, to_git_problem

# invariant name -> integrand kind of `invariants.compute`
INVARIANT_KINDS = {"dt": "additive", "chi-y": "sine", "ell": "theta", "all": "all"}
# how often a key may appear: once, on any number of lines, or once per name
# (a '<name> <value>' key, collected into a dict)
ONCE, MANY, PER_NAME = "once", "many", "per name"
_INTEGER = re.compile(r"[+-]?[0-9]+")


class ConfigError(Exception):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass
class ProblemConfig:
    """A parsed configuration: the common keys, and the mode's own keys in
    `values` (key -> parsed value; a list for MANY keys, a dict for PER_NAME
    keys)."""

    mode: str
    label: str = ""
    degree: int | None = None
    invariant: str = "all"
    q_order: int = DEFAULT_Q_ORDER
    seed: int = 0
    values: dict = field(default_factory=dict)

    def build_problem(self) -> GITProblem:
        """The problem this configuration describes, once any command-line
        overrides are set on it; raises ConfigError for a negative q-order or
        a missing required key."""
        if self.q_order < 0:
            raise ConfigError("q-order must be >= 0")
        mode = MODES[self.mode]
        # a required common key (quiver's degree) is an attribute, not a value
        missing = [key for key in mode.required
                   if key not in self.values and getattr(self, key, None) is None]
        if missing:
            raise ConfigError(f"{self.mode} mode is missing required keys: {', '.join(missing)}")
        problem = mode.build({**mode.defaults, **self.values}, self.label, self.degree)
        if self.degree is not None:
            problem.degree = self.degree
        return problem


# A config mode: its keys, key -> (parser, ONCE | MANY | PER_NAME), where a
# parser is called as parse(key, rest of the line, line number, values parsed
# so far); the keys it requires; build(values, label, degree) -> GITProblem; and
# the values of the optional keys that are not given.
Mode = namedtuple("Mode", "keys required build defaults", defaults=({},))


def _integer(key, rest, lineno, values=None, what=None):
    """`rest` as an int: ASCII digits after an optional sign, within `int`'s
    digit limit (`int` alone also takes '1_000' and other scripts' digits)."""
    try:
        if _INTEGER.fullmatch(rest):
            return int(rest)
    except ValueError:
        pass
    raise ConfigError(f"expected {what or key}, got {rest!r}", lineno)


def _rank(key, rest, lineno, values):
    rank = _integer(key, rest, lineno)
    if rank < 0:
        raise ConfigError("rank must be >= 0", lineno)
    return rank


def _covector_line(key, rest, lineno, values):
    """Split '[a,b] x y' into the covector, which has `rank` entries once a
    rank is declared, and the trailing tokens."""
    close = rest.find("]")
    if not rest.startswith("[") or close < 0:
        raise ConfigError(f"{key} must start with a bracketed integer list", lineno)
    tok, inner = rest[:close + 1].replace(" ", ""), rest[1:close].strip()
    vec = tuple(_integer(key, p.strip(), lineno, what=f"{key} entry")
                for p in inner.split(",")) if inner else ()
    rank = values.get("rank")
    if rank is not None and len(vec) != rank:
        raise ConfigError(
            f"{key} {tok} has {len(vec)} entries but the declared rank is {rank}", lineno)
    return vec, rest[close + 1:].split()


def _covector(key, rest, lineno, values):
    vec, tail = _covector_line(key, rest, lineno, values)
    if tail:
        raise ConfigError(f"{key} must be a bracketed integer list, got {rest!r}", lineno)
    return vec


def _invariant(key, rest, lineno, values):
    if rest not in INVARIANT_KINDS:
        raise ConfigError(f"invariant must be one of {', '.join(INVARIANT_KINDS)}", lineno)
    return rest


def _multiplicity(key, tail, lineno):
    mult = _integer(key, tail[0], lineno, what="multiplicity") if tail else 1
    if mult < 1:
        raise ConfigError(f"{key} multiplicity must be >= 1", lineno)
    return mult


def _weight(key, rest, lineno, values):
    cov, tail = _covector_line(key, rest, lineno, values)
    if len(tail) not in (1, 2):
        raise ConfigError("weight needs '<covector> <R> [multiplicity]'", lineno)
    return (cov, _integer(key, tail[0], lineno, what="circle charge"),
            _multiplicity(key, tail[1:], lineno))


def _root(key, rest, lineno, values):
    cov, tail = _covector_line(key, rest, lineno, values)
    if len(tail) > 1:
        raise ConfigError("root needs '<covector> [multiplicity]'", lineno)
    return cov, _multiplicity(key, tail, lineno)


def _node(key, rest, lineno, values):
    parts = rest.split()
    if len(parts) != 3 or parts[1] not in ("gauged", "framed"):
        raise ConfigError("node needs '<name> gauged|framed <dim>'", lineno)
    name, dim = parts[0], _integer(key, parts[2], lineno, what="dimension")
    if dim < 1:
        raise ConfigError(f"node {name} must have dimension >= 1", lineno)
    if any(node.name == name for node in values.get("node", ())):
        raise ConfigError(f"duplicate node name {name}", lineno)
    return QuiverNode(name, dim, gauged=parts[1] == "gauged")


def _arrow(key, rest, lineno, values):
    parts = rest.split()
    if len(parts) != 3:
        raise ConfigError("arrow needs '<tail> <head> <R>'", lineno)
    names = {node.name for node in values.get("node", ())}
    for end in parts[:2]:
        if end not in names:
            raise ConfigError(f"arrow {parts[0]} {parts[1]} references a missing node {end}",
                              lineno)
    return QuiverArrow(parts[0], parts[1],
                       _integer(key, parts[2], lineno, what="circle charge"))


def _degrees(key, rest, lineno, values):
    degrees = _covector(key, rest, lineno, values)
    if any(d < 1 for d in degrees):
        raise ConfigError("bundle degrees must be >= 1", lineno)
    return degrees


def _node_xi(key, rest, lineno, values):
    parts = rest.split()
    if len(parts) != 2:
        raise ConfigError("xi needs '<node> <integer>'", lineno)
    return parts[0], _integer(key, parts[1], lineno, what="stability")


def _build_raw(values, label, degree):
    roots = [root for root, mult in values["root"] for _ in range(mult)]
    return make_problem(rank=values["rank"], weights=values["weight"], roots=roots,
                        xi=values["xi"], weyl_order=values["weyl"], label=label)


def _build_quiver(values, label, degree):
    quiver = Quiver(nodes=values["node"], arrows=values["arrow"], label=label)
    return to_git_problem(quiver, QuiverStability(dict(values["xi"])), degree)


def _builder(function):
    """A builder mode: its keys are the keyword arguments of `function`."""
    return lambda values, label, degree: function(label=label, **values)


COMMON = {
    "label": (lambda key, rest, lineno, values: rest, ONCE),
    "degree": (_integer, ONCE),
    "invariant": (_invariant, ONCE),
    "q-order": (_integer, ONCE),
    "seed": (_integer, ONCE),
}

MODES = {
    "raw": Mode(
        keys={"rank": (_rank, ONCE), "weyl": (_integer, ONCE), "xi": (_covector, ONCE),
              "weight": (_weight, MANY), "root": (_root, MANY)},
        required=("rank", "xi", "weight"), build=_build_raw,
        defaults={"weyl": 1, "root": ()}),
    "quiver": Mode(
        keys={"node": (_node, MANY), "arrow": (_arrow, MANY), "xi": (_node_xi, PER_NAME)},
        required=("node", "degree"), build=_build_quiver,
        defaults={"arrow": (), "xi": {}}),
    "projective-bundle": Mode(
        keys={"n": (_integer, ONCE), "degrees": (_degrees, ONCE)},
        required=("n",), build=_builder(projective_bundle), defaults={"degrees": ()}),
    "grassmannian-det": Mode(
        keys={"k": (_integer, ONCE), "n": (_integer, ONCE), "power": (_integer, ONCE)},
        required=("k", "n", "power"), build=_builder(grassmannian_det)),
}


def parse_config(text: str) -> ProblemConfig:
    """Parse a configuration document; unknown keys and malformed values raise
    ConfigError with the offending line number.  Missing keys are reported by
    `ProblemConfig.build_problem`, since a command-line override may supply
    them."""
    cfg = None
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
            keys = {**COMMON, **MODES[rest].keys}
            lines = {name: [] for name in keys}
            continue
        if key not in lines:
            raise ConfigError(f"unknown key {key!r} in {cfg.mode} mode", lineno)
        lines[key].append((lineno, rest))
    if cfg is None:
        raise ConfigError("empty configuration: missing 'mode' directive")
    # every line is read; apply them key by key in table order, so that a
    # parser may read the keys declared before its own (raw covectors are
    # checked against the rank wherever its line stands)
    values = cfg.values
    for key, (parse, repeat) in keys.items():
        for lineno, rest in lines[key]:
            value = parse(key, rest, lineno, values)
            if repeat == MANY:
                values.setdefault(key, []).append(value)
                continue
            table, name, what = values, key, key
            if repeat == PER_NAME:
                table, (name, value) = values.setdefault(key, {}), value
                what = f"{key} {name}"
            if name in table:
                raise ConfigError(f"{what} may be given only once", lineno)
            table[name] = value
    for key in COMMON:
        if key in values:
            setattr(cfg, key.replace("-", "_"), values.pop(key))
    return cfg

