"""Average-cost and discounted MDP solvers over the request-indexed age chain.

Decision epochs are request arrivals, the state is the age seen by the
request, actions are update (cost p, next age geometric from 1) or skip
(cost f(s), next age geometric from s+1), and skipping is forbidden once
f(s) >= p. The chain is truncated at ``state_cap`` with the geometric tail
mass folded into the last state, which keeps every transition row a proper
distribution.

``solve_average`` runs damped relative value iteration on the average-cost
optimality equation; ``solve_discounted`` runs plain value iteration on the
discounted one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from .core import CostModel, cap_threshold, check_rate

# Damping of the relative-value update; breaks the near-periodic cycling
# that plain sweeps exhibit when the arrival rate is close to 1.
_DAMPING = 0.5


class NoConvergence(RuntimeError):
    def __init__(self, iterations: int, residual: float):
        super().__init__(f"no convergence after {iterations} sweeps, residual {residual:.3e}")
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class MdpConfig:
    """Problem instance plus solver knobs.

    ``state_cap`` must leave room above the cap threshold so the forced
    update region exists inside the truncated chain.
    """

    rate: float
    model: CostModel
    state_cap: int = 1024
    discount: float = 0.9
    tolerance: float = 1e-10
    max_iterations: int = 10**6
    delta_star: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        check_rate(self.rate, allow_one=False)
        ds = cap_threshold(self.model)
        if self.state_cap < ds + 1:
            raise ValueError(f"state_cap must be >= cap threshold + 1 = {ds + 1}")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must be in [0, 1)")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        object.__setattr__(self, "delta_star", ds)


@dataclass(frozen=True, eq=False)
class MdpSolution:
    """Converged values, per-state argmin actions, and the implied threshold.

    ``values[s]`` is the discounted value or the relative value (h, with
    h(1) = 0) of starting at age s, for s = 0..state_cap. ``gain`` is the
    optimal average cost per request (None for the discounted solver).
    ``actions[s]`` is 1 where updating is the argmin (skipping preferred on
    exact ties below the cap).
    """

    values: np.ndarray
    gain: float | None
    threshold: int
    actions: np.ndarray
    iterations_used: int
    residual: float


def _skip_continuation(values: np.ndarray, rate: float) -> np.ndarray:
    """K[s] = E[values(next age) | skip at age s] on the truncated chain.

    K[s] = sum_{z=s+1}^{S-1} (1-rate)^(z-s-1) * rate * values[z]
           + (1-rate)^(S-s-1) * values[S]
    computed through the backward recurrence K[s] = rate*values[s+1]
    + (1-rate)*K[s+1], seeded with K[S] = values[S]. K[0] doubles as the
    post-update continuation since an update restarts the age at 1.
    """
    S = values.size - 1
    q = 1.0 - rate
    x = values[:0:-1]  # values[S], values[S-1], ..., values[1]
    y, _ = lfilter([rate], [1.0, -q], x, zi=np.array([q * values[S]]))
    out = np.empty(values.size)
    out[S] = values[S]
    out[:S] = y[::-1]
    return out


def _sweep(values: np.ndarray, config: MdpConfig, disc: float, f: np.ndarray, forced: np.ndarray):
    """One Bellman backup; returns (new values, argmin actions)."""
    K = _skip_continuation(values, config.rate)
    update_val = config.model.update_cost + disc * K[0]
    skip_val = f + disc * K
    new = np.where(forced, update_val, np.minimum(update_val, skip_val))
    actions = (forced | (update_val < skip_val)).astype(np.int8)
    return new, actions


def _tables(config: MdpConfig):
    ages = np.arange(config.state_cap + 1)
    return config.model.staleness.eval_array(ages), ages >= config.delta_star


def _threshold_from_actions(actions: np.ndarray, delta_star: int) -> int:
    upd = np.nonzero(actions[1:])[0]
    first = int(upd[0]) + 1 if upd.size else delta_star
    return min(first, delta_star)


def solve_discounted(config: MdpConfig) -> MdpSolution:
    """Value iteration for the discounted total cost, to sup-norm tolerance."""
    alpha = config.discount
    f, forced = _tables(config)
    values = np.zeros(config.state_cap + 1)
    residual = np.inf
    for it in range(1, config.max_iterations + 1):
        new, actions = _sweep(values, config, alpha, f, forced)
        residual = float(np.max(np.abs(new - values)))
        values = new
        if residual <= config.tolerance:
            return MdpSolution(
                values=values,
                gain=None,
                threshold=_threshold_from_actions(actions, config.delta_star),
                actions=actions,
                iterations_used=it,
                residual=residual,
            )
    raise NoConvergence(config.max_iterations, residual)


def solve_average(config: MdpConfig) -> MdpSolution:
    """Damped relative value iteration for the average-cost optimality equation.

    Converges when the span of the one-sweep differences drops below the
    tolerance; the gain is then pinned between their min and max. Values are
    normalized so the relative value of age 1 is zero.
    """
    f, forced = _tables(config)
    values = np.zeros(config.state_cap + 1)
    residual = np.inf
    for it in range(1, config.max_iterations + 1):
        new, actions = _sweep(values, config, 1.0, f, forced)
        diff = new - values
        lo = float(diff.min())
        hi = float(diff.max())
        residual = hi - lo
        if residual <= config.tolerance:
            values = values - values[1]
            return MdpSolution(
                values=values,
                gain=0.5 * (lo + hi),
                threshold=_threshold_from_actions(actions, config.delta_star),
                actions=actions,
                iterations_used=it,
                residual=residual,
            )
        values = values + _DAMPING * diff
        values = values - values[1]
    raise NoConvergence(config.max_iterations, residual)


def write_policy_csv(solution: MdpSolution, path) -> None:
    """Dump s, h(s), action rows for inspecting the threshold structure."""
    with open(path, "w") as fh:
        fh.write("s,h,action\n")
        for s in range(solution.values.size):
            fh.write(f"{s},{solution.values[s]:.12g},{int(solution.actions[s])}\n")
