"""Drift-plus-penalty control of asynchronous renewal systems.

Library layout:
    core          domain types, frame sampling, model validation
    distributions geometric and phase-sum frame lengths, constant-rate samplers
    controller    the queue step and the per-frame ratio solvers
    simulation    the slotted-time engine, its run trace and analyses of it
    simplex       dense two-phase LP solver
    benchmark     optimal-stationary LP, its reference point and policy
    scheduling    the multi-server energy-aware scheduling instance
    config, cli   experiment front end
"""

from .benchmark import (
    LPSolution,
    StationaryLP,
    extract_reference_point,
    solve_lp,
    stationary_policy_weights,
)
from .config import ConfigError, ExperimentConfig, parse_config
from .controller import (
    ratio_bound_holds,
    solve_bisection,
    solve_enumerate,
)
from .core import (
    FrameOutcome,
    PerformanceTriple,
    PerformanceVector,
    RenewalSystemModel,
    ValidationReport,
    sample_frame,
    validate_model,
)
from .scheduling import (
    TABLE1,
    SchedulingInstance,
    ServerClassParams,
    build_instance,
)
from .simplex import SimplexResult, simplex_solve
from .simulation import (
    CappedPoisson,
    CheckViolation,
    DppRatioPolicy,
    DriftDiagnostic,
    ExternalProcess,
    RandomizedStationaryPolicy,
    RunTrace,
    check_queue_bound,
    drift_diagnostic,
    frame_stats,
    queue_trajectory,
    run,
    stationary_predictions,
    uniform_frame_drift_bound,
)

__version__ = "0.1.0"
