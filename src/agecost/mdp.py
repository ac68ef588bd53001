"""Average-cost and discounted MDP solvers over the request-indexed age chain.

Decision epochs are request arrivals, the state is the age seen by the
request, actions are update (cost p, next age geometric from 1) or skip
(cost f(s), next age geometric from s+1), and skipping is forbidden once
f(s) >= p, i.e. at every age >= the cap threshold Delta*. All those ages
update, pay p and restart at age 1, so they lump into one state and the
chain on ages 0..Delta* is exact, not truncated. ``state_cap`` only sets how
many ages a solution reports.

``solve_average`` runs damped relative value iteration on the average-cost
optimality equation; ``solve_discounted`` runs plain value iteration on the
discounted one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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

    ``state_cap`` is the largest age a solution reports; it must reach the
    lumped state Delta*, and it changes no solved number.
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
    h(1) = 0) of starting at age s, for s = 0..state_cap; every age from
    Delta* up holds the lumped state's value. ``gain`` is the optimal
    average cost per request (None for the discounted solver).
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
    """K[s] = E[values(next age) | skip at age s] on the lumped chain.

    K[s] = sum_{z=s+1}^{S-1} (1-rate)^(z-s-1) * rate * values[z]
           + (1-rate)^(S-s-1) * values[S]
    is the backward recurrence K[s] = a[s] + (1-rate)*K[s+1] with
    a[s] = rate*values[s+1] and a[S] = values[S], solved by a doubling scan
    (Hillis & Steele 1986): after the step with stride d, K[s] sums the
    terms of a[s..s+2d-1], in log2(S+1) vector steps. K[0] doubles as the
    post-update continuation since an update restarts the age at 1.
    """
    K = np.append(rate * values[1:], values[-1])
    scratch = np.empty(K.size)
    w, d = 1.0 - rate, 1
    while d < K.size:
        K[:-d] += np.multiply(K[d:], w, out=scratch[d:])
        w *= w
        d *= 2
    return K


def _backup(values: np.ndarray, config: MdpConfig, disc: float, f: np.ndarray):
    """One Bellman backup; returns (update value, per-state skip values)."""
    K = _skip_continuation(values, config.rate)
    return config.model.update_cost + disc * K[0], f + disc * K


def _skip_costs(config: MdpConfig) -> np.ndarray:
    """f(s) for s = 0..Delta*; infinite in the lumped state, which must update."""
    f = config.model.staleness.eval_array(np.arange(config.delta_star + 1))
    f[-1] = np.inf
    return f


def _solution(config: MdpConfig, values, gain, updates, iterations, residual) -> MdpSolution:
    """Report the lumped chain's solution on ages 0..state_cap."""
    pad = config.state_cap - config.delta_star
    actions = np.pad(updates.astype(np.int8), (0, pad), constant_values=1)
    return MdpSolution(
        values=np.pad(values, (0, pad), mode="edge"),
        gain=gain,
        # The lumped state always updates, so some action is 1.
        threshold=int(np.argmax(actions[1:])) + 1,
        actions=actions,
        iterations_used=iterations,
        residual=residual,
    )


def solve_discounted(config: MdpConfig) -> MdpSolution:
    """Value iteration for the discounted total cost, to sup-norm tolerance."""
    f = _skip_costs(config)
    values = np.zeros(f.size)
    residual = np.inf
    for it in range(1, config.max_iterations + 1):
        update_val, skip_val = _backup(values, config, config.discount, f)
        new = np.minimum(update_val, skip_val)
        residual = float(np.max(np.abs(new - values)))
        values = new
        if residual <= config.tolerance:
            return _solution(config, values, None, update_val < skip_val, it, residual)
    raise NoConvergence(config.max_iterations, residual)


def solve_average(config: MdpConfig) -> MdpSolution:
    """Damped relative value iteration for the average-cost optimality equation.

    Converges when the span of the one-sweep differences drops below the
    tolerance; the gain is then pinned between their min and max. Values are
    normalized so the relative value of age 1 is zero.
    """
    f = _skip_costs(config)
    values = np.zeros(f.size)
    residual = np.inf
    for it in range(1, config.max_iterations + 1):
        update_val, skip_val = _backup(values, config, 1.0, f)
        diff = np.minimum(update_val, skip_val) - values
        lo = float(diff.min())
        hi = float(diff.max())
        residual = hi - lo
        if residual <= config.tolerance:
            return _solution(config, values, 0.5 * (lo + hi), update_val < skip_val, it, residual)
        values = values + _DAMPING * diff
        values = values - values[1]
    raise NoConvergence(config.max_iterations, residual)


def write_policy_csv(solution: MdpSolution, path) -> None:
    """Dump s, h(s), action rows for inspecting the threshold structure."""
    with open(path, "w") as fh:
        fh.write("s,h,action\n")
        for s in range(solution.values.size):
            fh.write(f"{s},{solution.values[s]:.12g},{int(solution.actions[s])}\n")
