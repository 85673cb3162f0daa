"""Probabilistic bounds on restricted isometry constants of Gaussian
matrices: asymptotic bound families, finite-size tail probabilities,
empirical estimates, covering simulations, and the l1 recovery phase
transition curve."""

import importlib

from .asymptotic import AsymptoticBound, bct_bounds, bt_bounds, compute_bounds, ct_bounds, l1_phase_transition
from .errors import DomainError, GuardError, IOFailure, RicBoundsError, SolverError
from .finite import FiniteInstance, TailBound, tail_prob_lower, tail_prob_upper
from .rates import ProblemShape, psi_max, psi_min, shannon_entropy

__version__ = "0.1.0"

# numpy-backed names, imported on first use (PEP 562) so the CLI starts without numpy.
_LAZY = dict.fromkeys(["CoveringPlan", "covering_bound", "min_group_count", "random_cover"], "covering")
_LAZY.update(dict.fromkeys(["EmpiricalRun", "MatrixSample", "exhaustive_ric", "gram_extreme_eigs",
                            "local_search", "sample_gaussian", "sharpness_ratio"], "empirical"))


def __getattr__(name):
    # Any other name raises, so `from ricbounds import covering` imports the submodule.
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


__all__ = [
    "AsymptoticBound",
    "CoveringPlan",
    "DomainError",
    "EmpiricalRun",
    "FiniteInstance",
    "GuardError",
    "IOFailure",
    "MatrixSample",
    "ProblemShape",
    "RicBoundsError",
    "SolverError",
    "TailBound",
    "bct_bounds",
    "bt_bounds",
    "compute_bounds",
    "covering_bound",
    "ct_bounds",
    "exhaustive_ric",
    "gram_extreme_eigs",
    "l1_phase_transition",
    "local_search",
    "min_group_count",
    "psi_max",
    "psi_min",
    "random_cover",
    "sample_gaussian",
    "shannon_entropy",
    "sharpness_ratio",
    "tail_prob_lower",
    "tail_prob_upper",
]
