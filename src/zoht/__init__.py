"""Zeroth-order hard-thresholding solvers for l0-constrained finite-sum
minimization, with variance-reduced gradient estimators, executable
convergence constants, and a reproducible benchmark harness."""

from .core import FunctionOracle, spawn_stream
from .solvers import (
    ALGORITHMS,
    RunTrace,
    SolverConfig,
    gradient_squared_decomposition,
    run_solver,
)
from .problems import (
    CwAttackProblem,
    RidgeProblem,
    attack_surrogate_problem,
    ridge_from_csv,
    ridge_synthetic,
    surrogate_classifier,
)
from .zo import ZoEstimatorConfig
from .harness import ExperimentResult, ExperimentSpec, emit_csv, emit_svg, run_experiment

__version__ = "0.1.0"
