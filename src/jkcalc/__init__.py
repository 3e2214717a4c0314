"""Exact Jeffrey-Kirwan residue calculator for virtual invariants of critical
loci on GIT quotients of linear spaces: DT numbers, the virtual Hirzebruch
genus chi_y and the virtual chiral elliptic genus, all in exact arithmetic."""

from .arrangement import (AffineForm, Flag, IntersectionPoint, Perturbation,
                          cone_membership, enumerate_flags, isolated_intersections,
                          lattice_basis, projectivity_check, regular_stability_check,
                          sum_regular_perturbation)
from .builders import (framed_a3_problem, grassmannian, grassmannian_det,
                       projective_bundle, projective_space)
from .config import ConfigError, ProblemConfig, parse_config
from .engine import (FactorizedIntegrand, flag_residue_additive, flag_residue_multiplicative,
                     jk_residue, localize)
from .invariants import (GITProblem, InvariantResult, PipelineError, ValidationError,
                         WeightEntry, build_integrand, compute, make_problem,
                         specialize, validate)
from .polyarith import MultiPoly, NonUnitError, QSeries, RatFunc
from .quiver import Quiver, QuiverArrow, QuiverNode, QuiverStability, \
    cycle_condition_check, to_git_problem

__version__ = "0.1.0"
