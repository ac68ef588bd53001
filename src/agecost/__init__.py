"""agecost: simulate and optimize the freshness / update-cost tradeoff.

A discrete-time toolkit for pull-based information-update systems: a replay
engine for update policies against request arrivals, closed-form average
costs and optimizers for threshold and periodic policies, average-cost and
discounted MDP solvers, offline-optimal scheduling, and a config-driven
experiment CLI.
"""

__version__ = "0.1.0"

from .core import (
    Aoi,
    CostBreakdown,
    CostModel,
    InvalidRate,
    NoCapExists,
    Slot,
    StalenessFn,
    aoi_step,
    cap_threshold,
)
from .arrivals import (
    ArrivalSequence,
    BernoulliSource,
    EmptyTrace,
    ParseError,
    empirical_rate,
    generate_bernoulli,
    load_trace,
)
from .policies import (
    NotReactive,
    Policy,
    cap,
    reactify,
)
from .engine import (
    NoCompletedInterval,
    RenewalStats,
    SimResult,
    SweepResult,
    renewal_stats,
    simulate,
    simulate_many,
)
from .analysis import (
    PeriodSolution,
    RenewalExpectations,
    ThresholdSolution,
    optimal_period,
    optimal_threshold,
    periodic_avg_cost,
    renewal_expectations,
    threshold_avg_cost,
)
from .mdp import (
    MdpConfig,
    MdpSolution,
    NoConvergence,
    solve_average,
    solve_discounted,
    write_policy_csv,
)
from .offline import OfflineSolution, TooLarge, brute_force_optimal, offline_optimal
from .experiments import (
    ConfigError,
    ExperimentSpec,
    ResultTable,
    emit,
    run_policy_comparison,
    run_threshold_sweep,
    run_trace_compare,
    truncate_requests,
)

__all__ = [
    "__version__",
    "Aoi",
    "Slot",
    "StalenessFn",
    "CostModel",
    "CostBreakdown",
    "NoCapExists",
    "InvalidRate",
    "aoi_step",
    "cap_threshold",
    "ArrivalSequence",
    "BernoulliSource",
    "ParseError",
    "EmptyTrace",
    "generate_bernoulli",
    "load_trace",
    "empirical_rate",
    "Policy",
    "NotReactive",
    "reactify",
    "cap",
    "SimResult",
    "SweepResult",
    "RenewalStats",
    "NoCompletedInterval",
    "simulate",
    "simulate_many",
    "renewal_stats",
    "ThresholdSolution",
    "PeriodSolution",
    "RenewalExpectations",
    "threshold_avg_cost",
    "optimal_threshold",
    "periodic_avg_cost",
    "optimal_period",
    "renewal_expectations",
    "MdpConfig",
    "MdpSolution",
    "NoConvergence",
    "solve_discounted",
    "solve_average",
    "write_policy_csv",
    "OfflineSolution",
    "TooLarge",
    "offline_optimal",
    "brute_force_optimal",
    "ExperimentSpec",
    "ResultTable",
    "ConfigError",
    "run_threshold_sweep",
    "run_policy_comparison",
    "run_trace_compare",
    "truncate_requests",
    "emit",
]
