"""agecost: simulate and optimize the freshness / update-cost tradeoff.

A discrete-time toolkit for pull-based information-update systems: a replay
engine for update policies against request arrivals, closed-form average
costs and optimizers for threshold and periodic policies, average-cost and
discounted MDP solvers, offline-optimal scheduling, and a config-driven
experiment CLI.
"""

__version__ = "0.1.0"

from .core import (
    CostModel,
    InvalidRate,
    NoCapExists,
    StalenessFn,
    cap_threshold,
)
from .arrivals import (
    ArrivalSequence,
    BernoulliSource,
    EmptyTrace,
    ParseError,
    SlotOverflow,
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
    solve_average,
    solve_discounted,
    write_policy_csv,
)
from .offline import OfflineSolution, TooLarge, brute_force_optimal, offline_optimal, offline_optimal_many
from .experiments import (
    ConfigError,
    ExperimentSpec,
    ResultTable,
    emit,
    run_policy_comparison,
    run_trace_compare,
    simulate_many,
    truncate_requests,
)

__all__ = [
    "__version__",
    "StalenessFn",
    "CostModel",
    "NoCapExists",
    "InvalidRate",
    "cap_threshold",
    "ArrivalSequence",
    "BernoulliSource",
    "ParseError",
    "EmptyTrace",
    "SlotOverflow",
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
    "solve_discounted",
    "solve_average",
    "write_policy_csv",
    "OfflineSolution",
    "TooLarge",
    "offline_optimal",
    "offline_optimal_many",
    "brute_force_optimal",
    "ExperimentSpec",
    "ResultTable",
    "ConfigError",
    "run_policy_comparison",
    "run_trace_compare",
    "truncate_requests",
    "emit",
]
