"""Zeroth-order hard-thresholding solvers for l0-constrained finite-sum
minimization, with variance-reduced gradient estimators, executable
convergence constants, and a reproducible benchmark harness."""

from .core import FunctionOracle, spawn_stream
from .ht import expansivity_ratio, hard_threshold
from .solvers import (
    ALGORITHMS,
    RunTrace,
    SolverConfig,
    gradient_squared_decomposition,
    run_solver,
)
from .theory import (
    EpsilonConstants,
    EtaInterval,
    TheoryParams,
    alpha,
    complexity_estimate,
    epsilon_constants,
    pm_eta_interval,
    sarah_eta_interval,
    system_error_terms,
    szoht_conditions,
    vrszht_eta_interval,
)
from .problems import (
    CwAttackProblem,
    RidgeProblem,
    attack_surrogate_problem,
    cw_loss,
    ridge_from_csv,
    ridge_synthetic,
    surrogate_classifier,
)
from .zo import ZoEstimatorConfig, zo_gradient
from .vr import (
    ExactComponentEstimator,
    GradientMemory,
    SvrgSnapshot,
    ZoComponentEstimator,
    draw_update_set,
    init_gradient_memory,
    memory_update,
    pm_gradient,
    sarah_init,
    sarah_step,
    svrg_gradient,
    take_snapshot,
)
from .harness import ExperimentResult, ExperimentSpec, emit_csv, emit_svg, run_experiment

__version__ = "0.1.0"
