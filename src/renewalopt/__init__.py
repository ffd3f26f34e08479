"""Drift-plus-penalty control of asynchronous renewal systems.

Library layout:
    core          domain types, frame sampling, model validation
    distributions geometric frame lengths, constant-rate samplers
    controller    the queue step, the ratio objectives and the per-frame solvers
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
from .controller import ratio_bound_holds, ratio_objectives, solve_bisection, solve_enumerate
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
    ExternalProcess,
    RandomizedStationaryPolicy,
    RunTrace,
    SamplePath,
    check_trace,
    drift_diagnostic,
    frame_stats,
    queue_trajectory,
    run,
)

__version__ = "0.1.0"
