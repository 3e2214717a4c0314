"""The problems of a `perfbench` deck, generated as `perfbench/run.py`
generates them, for tests that check the program on the benchmark's inputs."""

import importlib.util
import sys
from pathlib import Path

from jkcalc import builders
from jkcalc.config import parse_config

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def deck(workload, seed=3):
    """The deck's items: each a name, a problem or config text, and the
    keyword arguments of its compute."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)   # its dataclasses look their module up
    return workloads.generate(workload, seed, builders)


def deck_problems(workload, seed=3):
    """The deck's problems, config texts parsed as the benchmark parses them."""
    return [parse_config(item.text).build_problem() if item.text else item.problem
            for item in deck(workload, seed)]
