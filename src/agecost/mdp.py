"""Average-cost and discounted MDP solvers over the request-indexed age chain.

Decision epochs are request arrivals, the state is the age seen by the
request, actions are update (cost p, next age geometric from 1) or skip
(cost f(s), next age geometric from s+1), and skipping is forbidden once
f(s) >= p, i.e. at every age >= the cap threshold Delta*. All those ages
update, pay p and restart at age 1, so they lump into one state and the
chain on ages 0..Delta* is exact, not truncated. ``state_cap`` only sets how
many ages a solution reports.

Both criteria are solved exactly by policy iteration (Howard 1960; Puterman
1994, sections 6.4 and 8.6): evaluate the policy with one backward scan, read
both actions' Q-values off the continuation that scan solves, then switch
every action the other one strictly beats, until none switches. The
search starts at the paper's threshold policy, which updates at every age
>= the closed-form tau* of ``analysis``. Under the average criterion that
policy is optimal, so one evaluation usually ends the search. The closed
form is only where the search starts: the step at which no action switches
is the Bellman optimality check, and a start that is not optimal (the
discounted optimum can sit at another threshold) is switched away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import _first_minimizer
from .core import CostModel, as_float, as_int, cap_threshold, check_rate


# Largest ``state_cap``: a solution reports one value and one action per age
# up to it, so a larger cap only asks for arrays of that size.
MAX_STATE_CAP = 2**24


@dataclass(frozen=True)
class MdpConfig:
    """Problem instance. ``state_cap`` is the largest age a solution reports,
    read through ``as_int``; it must reach the lumped state Delta*, must not
    exceed ``MAX_STATE_CAP`` = 2^24 (checked before any array is built, so a
    model with Delta* >= 2^24 has no config), and it changes no solved
    number. ``discount`` is read through ``as_float`` and lies in [0, 1)."""

    rate: float
    model: CostModel
    state_cap: int = 1024
    discount: float = 0.9

    def __post_init__(self) -> None:
        check_rate(self.rate, allow_one=False)
        object.__setattr__(self, "state_cap", as_int(self.state_cap, "state_cap"))
        if self.state_cap > MAX_STATE_CAP:
            raise ValueError(f"state_cap must be <= 2^24 = {MAX_STATE_CAP}, got {self.state_cap}")
        ds = cap_threshold(self.model)
        if self.state_cap < ds + 1:
            raise ValueError(f"state_cap must be >= cap threshold + 1 = {ds + 1}")
        object.__setattr__(self, "discount", as_float(self.discount, "discount"))
        if not 0.0 <= self.discount < 1.0:
            raise ValueError(f"discount must be in [0, 1), got {self.discount}")


@dataclass(frozen=True, eq=False)
class MdpSolution:
    """Values of the optimal policy, per-state argmin actions, and the threshold.

    ``values[s]`` is the discounted value or the relative value (h, with
    h(1) = 0) of starting at age s, for s = 0..state_cap; every age from
    Delta* up holds the lumped state's value. ``gain`` is the optimal
    average cost per request (None for the discounted solver).
    ``actions[s]`` is 1 where updating is the argmin (skipping preferred on
    exact ties below the cap). ``iterations_used`` counts policy evaluations;
    ``residual`` is the sup-norm Bellman residual of ``values`` under the
    Q-values of the last evaluation.
    """

    values: np.ndarray
    gain: float | None
    threshold: int
    actions: np.ndarray
    iterations_used: int
    residual: float


def _scan(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Solve the backward recurrence K[s] = a[s] + m[s]*K[s+1], K[-1] = a[-1].

    A doubling scan (Hillis & Steele 1986): after the step with stride d,
    K[s] sums the terms of a[s..s+2d-1] and m[s] is the product of
    m[s..s+2d-1], in log2(size) vector steps. Leading axes of ``a`` are
    solved alongside, with the same multipliers.
    """
    K = np.array(a, dtype=np.float64)
    m = np.array(m, dtype=np.float64)
    d = 1
    while d < m.size:
        K[..., :-d] += m[:-d] * K[..., d:]
        m[:-d] *= m[d:]
        d *= 2
    return K


def _evaluate(updates: np.ndarray, config: MdpConfig, disc: float, f: np.ndarray, average: bool):
    """Exact (values, gain, K) of the policy that updates where ``updates`` is true.

    Its values are v = cost + disc*(c if update else K) - g with K the skip
    continuation, K[s] = E[v(next age) | skip at s], and c = K[0], as an
    update restarts the age at 1. Put into K's recurrence, they make one scan,
    affine in x = c for the discounted criterion (g = 0) or in x = g for the
    average one (c = 0 fixes the free constant of relative values, which are
    then shifted to h(1) = 0, K with them); K[0] = c then gives x. The scan's
    two right-hand sides are filled into one (2, S) array: rate times the next
    age's cost and rate times the coefficient of x, except in the lumped
    state S, which pays p and maps to itself.
    """
    rate, p = config.rate, config.model.update_cost
    cost = np.where(updates, p, f)
    nxt = np.empty(f.size, dtype=bool)
    nxt[:-1] = updates[1:]
    nxt[-1] = True  # the lumped state maps to itself
    a = np.empty((2, f.size))
    a[0, :-1] = cost[1:]
    a[0, -1] = p
    a[1] = -1.0 if average else disc * nxt
    a[:, :-1] *= rate
    K0, K1 = _scan(a, np.where(nxt, 1.0 - rate, 1.0 - rate + rate * disc))
    x = float(-K0[0] / K1[0] if average else K0[0] / (1.0 - K1[0]))
    c, g = (0.0, x) if average else (x, 0.0)
    K = K0 + K1 * x
    values = cost + disc * np.where(updates, c, K) - g
    shift = values[1] if average else 0.0
    return values - shift, g, K - shift


def _solve(config: MdpConfig, average: bool) -> MdpSolution:
    """Policy iteration from the threshold policy at the closed-form tau*.

    Each step runs one scan, whose continuation K gives both Q-values. An
    action switches only where the other one is strictly better, and the
    loop stops when none does. The optimal policy is a threshold and a few
    evaluations reach it; more than Delta* + 2 mean rounding made it cycle at
    a near-tie, an error, not a tuning matter.
    """
    ds = cap_threshold(config.model)
    f = config.model.staleness.eval_array(np.arange(ds + 1))
    f[-1] = np.inf  # the lumped state must update
    disc = 1.0 if average else config.discount
    # tau* <= Delta*, so the lumped state updates from the start.
    updates = np.arange(ds + 1) >= _first_minimizer(config.rate, config.model, ds)[0]
    for iterations in range(1, ds + 3):
        values, gain, K = _evaluate(updates, config, disc, f, average)
        update_val, skip_val = config.model.update_cost + disc * K[0], f + disc * K
        switch = np.where(updates, skip_val < update_val, update_val < skip_val)
        if not switch.any():  # report ages 0..state_cap; the lumped state's from Delta* up
            actions = np.ones(config.state_cap + 1, dtype=np.int8)
            actions[:ds] = skip_val[:ds] > update_val
            reported = np.full(config.state_cap + 1, values[ds])
            reported[:ds] = values[:ds]
            return MdpSolution(
                values=reported,
                gain=gain if average else None,
                # The lumped state always updates, so some action is 1.
                threshold=int(np.argmax(actions[1:])) + 1,
                actions=actions,
                iterations_used=iterations,
                residual=float(np.max(np.abs(np.minimum(update_val, skip_val) - gain - values))),
            )
        updates ^= switch
    raise RuntimeError(f"policy iteration did not settle within {ds + 2} steps")


def solve_discounted(config: MdpConfig) -> MdpSolution:
    """Optimal discounted total cost at ``config.discount``, by policy iteration."""
    return _solve(config, average=False)


def solve_average(config: MdpConfig) -> MdpSolution:
    """Optimal average cost per request and relative values, by policy iteration."""
    return _solve(config, average=True)


def write_policy_csv(solution: MdpSolution, path) -> None:
    """Dump s, h(s), action rows for inspecting the threshold structure."""
    with open(path, "w") as fh:
        fh.write("s,h,action\n")
        for s in range(solution.values.size):
            fh.write(f"{s},{solution.values[s]:.12g},{int(solution.actions[s])}\n")
