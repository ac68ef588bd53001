"""Closed-form average costs and optimizers for threshold and periodic policies.

Under Bernoulli(rate) arrivals a fixed-threshold policy renews at every
update, which gives the average cost per request in closed form:

    cost(tau) = (rate * sum_{t=1}^{tau-1} f(t) + p) / (rate * (tau - 1) + 1)

with the numerator and denominator being the expected cost and expected
number of requests in one update interval. A periodic policy renews every
d slots whatever the arrivals do, so renewal-reward makes its analogue
exact for every penalty too:

    cost(d) = (p + rate * sum_{t=1}^{d-1} f(t)) / (rate * d)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MAX_CAP, CostModel, InvalidRate, as_int, cap_threshold, check_rate


@dataclass(frozen=True)
class ThresholdSolution:
    """Best integer threshold plus the continuous minimizer of the closed form."""

    tau_star: int
    tau_continuous: float
    cost_at_tau_star: float
    clamped_to_cap: bool


@dataclass(frozen=True)
class PeriodSolution:
    """Best integer update period plus the continuous minimizer; both None
    when the cost falls toward ``cost_at_d_star``, the held penalty, forever."""

    d_star: int | None
    d_continuous: float | None
    cost_at_d_star: float


@dataclass(frozen=True)
class RenewalExpectations:
    """Expected requests and expected cost in one update interval."""

    e_requests: float
    e_cost: float


def _penalty_prefix(model: CostModel, n: int) -> np.ndarray:
    """F(k) = sum_{t=1}^{k} f(t) for k = 0..n-1, summed in age order; the one
    prefix every closed form reads, so each policy has a single cost."""
    f = model.staleness.eval_array(np.arange(n))
    return np.cumsum(f, out=f)


def _periodic_costs(rate: float, p: float, prefix: np.ndarray) -> np.ndarray:
    """periodic_avg_cost for d = 1..prefix.size, from F(0..d-1)."""
    d = np.arange(1, prefix.size + 1, dtype=np.float64)
    return (p + rate * prefix) / (rate * d)


def _windows(model: CostModel, cap: int | None):
    """Yield (n, f, F) for windows of n = 64, 128, ... ages, n never past
    ``cap``: f holds f(0..n), each age evaluated once, and F = cumsum(f[:n])
    holds F(0..n-1), the ``_penalty_prefix`` of n ages. A prefix of one
    age-order cumsum is bit for bit a shorter one, so a price read off a
    window is the price every other path gives. The first window has 64
    ages, not 16: numpy's per-call cost dominates so small a window (one
    window's pricing took 6.2 us at 16 ages and 6.4 us at 64 on a 2-core
    Xeon), so a crossing below 64, such as the README's tau* = 37, takes one
    window where it took three.
    """
    n = 64
    while True:
        n = n if cap is None else min(n, cap)
        f = model.staleness.eval_array(np.arange(n + 1))
        yield n, f, np.cumsum(f[:n])
        n *= 2


def threshold_avg_cost(rate: float, model: CostModel, tau: int) -> float:
    """Average cost per request of the threshold-tau policy under Bernoulli(rate):
    the ratio of its ``renewal_expectations``; ``tau`` is read through ``as_int``."""
    e = renewal_expectations(rate, model, tau)
    return e.e_cost / e.e_requests


def _linear_tau_continuous(rate: float, p: float) -> float:
    return (math.sqrt(2.0 * p * rate - rate + 1.0) + rate - 1.0) / rate


def _quadratic_tau_continuous(rate: float, p: float, hi: float) -> float:
    # Continuous minimizer of the closed form for the squared penalty solves
    # 1 - 6p - 6x + 6x^2 + rate*(4x - 1)*(x - 1)^2 = 0, which has a single
    # crossing on [1, cap + 1]; bisection to 1e-9.
    def g(x: float) -> float:
        return 1.0 - 6.0 * p - 6.0 * x + 6.0 * x * x + rate * (4.0 * x - 1.0) * (x - 1.0) ** 2

    lo = 1.0
    if g(lo) >= 0.0:
        return lo
    while g(hi) < 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-9:
            break
        lo, hi = (mid, hi) if g(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def _first_minimizer(rate: float, model: CostModel, delta_star: int) -> tuple[int, float]:
    """(tau*, c(tau*)): the first minimizer of the closed form c over [1, cap]
    and its price, bit for bit as if every tau were priced. With D(k) = rate·k + 1,
    c(k + 2) - c(k + 1) = rate·(f(k + 1) - c(k + 1)) / D(k + 1), and
    f(k + 1) - c(k + 1) = (g(k) - p) / D(k) with g(k) = D(k)·f(k + 1) -
    rate·F(k) non-decreasing: c falls up to the first k where g(k) >= p and
    never after. Prices stop, found by doubling windows of n ages (never
    past the cap), at the first k where f(k + 1) >= c(k + 1)·(1 + 2R),
    R = ((2n + 11)(n + 1/rate) + cap)·2^-52. A computed c(j + 1) is off by a
    relative (j + 6)·2^-53 at most (cap <= 2^50), which half of 2R covers;
    the rest lifts every later c(k' + 1) above the minimum by at least
    rate·(k' - k)·R·c(k + 1) / D(k') >= (k' + k + 12)·2^-52·c(k + 1), more
    than the rounding of both prices. Each window is priced once, and the
    argmin is taken over the prices of the window that found the crossing.
    """
    p = model.update_cost
    for n, f, prefix in _windows(model, delta_star):
        costs = (rate * prefix + p) / (rate * np.arange(n, dtype=np.float64) + 1.0)
        slack = 1.0 + 2.0**-51 * ((2.0 * n + 11.0) * (n + 1.0 / rate) + delta_star)
        hits = np.flatnonzero(f[1:] >= costs * slack)
        if hits.size or n == delta_star:
            break
    if hits.size:
        costs = costs[: hits[0] + 1]
    tau_star = int(np.argmin(costs)) + 1
    return tau_star, float(costs[tau_star - 1])


def optimal_threshold(rate: float, model: CostModel) -> ThresholdSolution:
    """Cost-minimizing integer threshold, never above the cap threshold.

    ``tau_star`` is the first minimizer of the closed form over [1, cap]
    (``_first_minimizer``). The continuous minimizer is reported beside it:
    in closed form (linear penalty), by root-finding (quadratic), else
    ``tau_star`` itself.
    """
    check_rate(rate)
    p = model.update_cost
    delta_star = cap_threshold(model)
    tau_star, cost = _first_minimizer(rate, model, delta_star)

    kind = model.staleness.kind
    if kind == "linear":
        tau_c = _linear_tau_continuous(rate, p)
    elif kind == "quadratic":
        tau_c = _quadratic_tau_continuous(rate, p, delta_star + 1.0)
    else:
        tau_c = float(tau_star)

    return ThresholdSolution(
        tau_star=tau_star,
        tau_continuous=tau_c,
        cost_at_tau_star=cost,
        clamped_to_cap=math.ceil(tau_c) > delta_star,
    )


def periodic_avg_cost(rate: float, model: CostModel, d: int) -> float:
    """Average cost per request of updating every d slots under Bernoulli(rate);
    ``d`` is read through ``as_int``."""
    check_rate(rate)
    d = as_int(d, "d")
    if d < 1:
        raise ValueError("period must be >= 1")
    return float(_periodic_costs(rate, model.update_cost, _penalty_prefix(model, d))[-1])


def optimal_period(rate: float, model: CostModel) -> PeriodSolution:
    """Cost-minimizing integer update period.

    Linear penalty: the continuous minimizer sqrt(2p/rate) is refined by
    comparing the closed form at its floor and ceil (ties go to the longer
    period, i.e. fewer updates); a rate so small that sqrt(2p/rate) passes
    ``MAX_CAP`` is an InvalidRate, raised before any array is sized by it.
    Other penalties: cost(d+1) < cost(d) iff h(d) = d*f(d) - F(d-1) <
    p/rate, and h(d+1) - h(d) = (d+1)(f(d+1) - f(d)) >= 0, so the cost falls
    strictly up to the first d with h(d) >= p/rate (found by doubling) and
    never after; the smallest minimizer up to there is returned. A held
    penalty keeps h constant from where it is held; if h is still below
    p/rate there, no finite period is optimal. The doubling windows are
    those of ``_first_minimizer``, never past the held age, and each is
    priced once: the costs come from the prefix of the window that found
    the crossing.
    """
    check_rate(rate)
    p = model.update_cost
    d_c = math.sqrt(2.0 * p / rate)
    if model.staleness.kind == "linear":
        if not d_c <= MAX_CAP:  # inf at a subnormal rate
            raise InvalidRate(f"arrival rate {rate} is too small at update cost {p}: the optimal "
                              f"period sqrt(2p/rate) = {d_c} passes 2^50")
        lo, hi = max(math.floor(d_c), 1), max(math.ceil(d_c), 1)
        costs = _periodic_costs(rate, p, _penalty_prefix(model, hi))
        best = hi if costs[hi - 1] <= costs[lo - 1] else lo
        return PeriodSolution(d_star=best, d_continuous=d_c, cost_at_d_star=float(costs[best - 1]))
    held = model.staleness.held_from
    level = p / rate
    for n, f, prefix in _windows(model, held):
        hits = np.flatnonzero(np.arange(1, n + 1) * f[1:] - prefix >= level)
        if hits.size or n == held:
            break
    if not hits.size:
        return PeriodSolution(d_star=None, d_continuous=None, cost_at_d_star=model.staleness(held))
    costs = _periodic_costs(rate, p, prefix[: hits[0] + 1])
    best = int(np.argmin(costs)) + 1
    return PeriodSolution(d_star=best, d_continuous=float(best), cost_at_d_star=float(costs[best - 1]))


def renewal_expectations(rate: float, model: CostModel, tau: int) -> RenewalExpectations:
    """Expected requests and cost per update interval of the threshold-tau policy.

    Their ratio is ``threshold_avg_cost``; ``tau`` is read through ``as_int``.
    """
    check_rate(rate)
    tau = as_int(tau, "tau")
    if tau < 1:
        raise ValueError("tau must be >= 1")
    return RenewalExpectations(
        e_requests=rate * (tau - 1) + 1.0,
        e_cost=model.update_cost + rate * float(_penalty_prefix(model, tau)[-1]),
    )
