"""Simulation and moment-based inference for dynamic on/off random graphs.

Every edge of a complete graph switches between present and absent according
to an independent alternating renewal process; the package simulates the
stationary aggregate edge / triangle / wedge count processes, computes their
exact joint laws and covariances, and estimates the on/off duration
parameters from observed counts.
"""

from .asymp import (
    DivergenceWarning,
    MomentCov,
    ParamCov,
    finiteness_check,
    general_moment_cov,
    geometric_moment_cov,
    param_cov,
)
from .errors import (
    ConvergenceError,
    DegenerateSaddleError,
    IncompatibleMomentsError,
    InfiniteMeanError,
    OutOfRangeError,
    ParameterError,
)
from .harness import (
    CampaignSummary,
    ExperimentConfig,
    emit_outputs,
    mix_seed,
    run_campaign,
)
from .laws import Geometric, Pareto, Weibull, law_from_config
from .moments import (
    EstimateReport,
    MomentSet,
    empirical_moments,
    estimate_from_subgraph,
    estimate_pareto_geo,
    fit,
    theoretical_moment_set,
)
from .renewal import (
    autocovariance,
    joint_distribution,
    joint_mgf,
    legendre_transform,
    saddlepoint_logprob,
)
from .simulate import (
    CountTrace,
    ModelSpec,
    load_trace,
    save_trace,
    simulate_edge_trace,
    simulate_trace,
)

__version__ = "1.0.0"
