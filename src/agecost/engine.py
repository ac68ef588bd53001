"""Discrete-time replay of update policies against arrival sequences.

Event ordering inside a slot: requests arrive and observe the pre-decision
age, the policy decides, an update (if any) completes before the replies go
out, so requests in an update slot are served fresh at zero staleness, and
the age then steps (resets to 0 on update, otherwise grows by 1). The run
starts with age 1 at slot 1, as if an update had completed at slot 0.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .arrivals import ArrivalSequence, BernoulliSource, derive_seed, generate_bernoulli
from .core import CostBreakdown, CostModel, cap_threshold
from .policies import Policy


class NoCompletedInterval(ValueError):
    """Renewal statistics need at least one closed update interval."""


@dataclass(frozen=True, eq=False)
class SimResult:
    """Full cost accounting of one replay.

    ``request_charges`` holds the staleness charged to each request of an
    occupied slot, aligned with ``arrivals.slots``; update slots charge 0.
    ``update_slots`` is the realized update schedule. ``arrivals`` is the
    replayed sequence itself, not a copy.
    """

    breakdown: CostBreakdown
    avg_total: float
    avg_staleness: float
    avg_update: float
    update_slots: np.ndarray
    request_charges: np.ndarray
    arrivals: ArrivalSequence


@dataclass(frozen=True)
class RenewalStats:
    mean_requests_per_interval: float
    mean_cost_per_interval: float


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Per-run average costs of independent replays, in run order; the replays are not kept."""

    avg_total: np.ndarray
    avg_staleness: np.ndarray
    avg_update: np.ndarray

    @classmethod
    def of(cls, results: Iterable[SimResult]) -> "SweepResult":
        """Summarize replays one at a time, keeping only their three averages."""
        avgs = np.array([(r.avg_total, r.avg_staleness, r.avg_update) for r in results], dtype=np.float64)
        if not avgs.size:
            raise ValueError("a sweep needs at least one run")
        return cls(*avgs.T)

    @property
    def mean_avg_total(self) -> float:
        return float(np.mean(self.avg_total))

    @property
    def stderr(self) -> float:
        n = self.avg_total.size
        return float(np.std(self.avg_total, ddof=1) / np.sqrt(n)) if n > 1 else 0.0

    @property
    def mean_avg_staleness(self) -> float:
        return float(np.mean(self.avg_staleness))

    @property
    def mean_avg_update(self) -> float:
        return float(np.mean(self.avg_update))


def simulate(policy: Policy, arrivals: ArrivalSequence, model: CostModel) -> SimResult:
    """Replay one policy over one arrival sequence and account every cost.

    Reactive policies update only at request slots; periodic and scheduled
    policies also fire on request-free slots (and still pay the update cost
    there). Costs are charged for the whole horizon of the arrival sequence.
    """
    n_req = arrivals.n_requests
    if n_req < 1:
        raise ValueError("arrival sequence has no requests")
    ups = _update_schedule(policy, arrivals, model)
    slots = arrivals.slots
    # Each request is charged at its age since the last update at or before
    # its slot; f(0) = 0 serves requests in an update slot fresh.
    last_up = np.concatenate(([0], ups))[np.searchsorted(ups, slots, side="right")]
    charges = model.staleness.eval_array(slots - last_up)
    # cumsum adds strictly in request order (np.sum would add pairwise), so
    # the total matches a sequential per-request sum bit for bit.
    total_staleness = float(np.cumsum(arrivals.counts * charges)[-1])
    total_update = model.update_cost * ups.size
    breakdown = CostBreakdown(
        total_staleness=total_staleness,
        total_update=total_update,
        n_requests=n_req,
        n_updates=ups.size,
    )
    return SimResult(
        breakdown=breakdown,
        avg_total=breakdown.total / n_req,
        avg_staleness=total_staleness / n_req,
        avg_update=total_update / n_req,
        update_slots=ups,
        request_charges=charges,
        arrivals=arrivals,
    )


def _update_schedule(policy: Policy, arrivals: ArrivalSequence, model: CostModel) -> np.ndarray:
    """Sorted int64 array of the slots at which the policy updates.

    Threshold and naive: one searchsorted finds each request's successor, the
    first request slot >= its slot + tau, and a walk follows them from slot 0.
    """
    horizon = arrivals.horizon
    if policy.kind == "periodic":
        return np.arange(policy.period, horizon + 1, policy.period, dtype=np.int64)
    if policy.kind == "scheduled":
        sched = policy.update_slots
        return np.array(sched[: bisect.bisect_right(sched, horizon)], dtype=np.int64)
    tau = policy.tau if policy.kind == "threshold" else cap_threshold(model)
    slots = arrivals.slots
    if tau > int(slots[-1]):  # no request reaches age tau
        return np.empty(0, dtype=np.int64)
    # slots - tau cannot wrap in int64 (slots >= 1, tau <= last slot); slots + tau can.
    shifted = slots - tau
    succ = memoryview(np.searchsorted(shifted, slots))
    i, ups = int(np.searchsorted(shifted, 0)), []
    while i < len(succ):
        ups.append(i)
        i = succ[i]
    return slots[ups]


def simulate_many(
    policy: Policy,
    source: BernoulliSource,
    n_runs: int,
    n_requests_per_run: int,
    model: CostModel,
) -> SweepResult:
    """Independent replays on fresh Bernoulli sample paths.

    Run i draws its arrivals from a child seed derived from
    (source.seed, i), so the sweep is reproducible and runs are independent.
    Each replay is dropped once its three averages are taken.
    """
    paths = (
        generate_bernoulli(BernoulliSource(source.rate, derive_seed(source.seed, i)), n_requests=n_requests_per_run)
        for i in range(n_runs)
    )
    return SweepResult.of(simulate(policy, arrivals, model) for arrivals in paths)


def renewal_stats(result: SimResult) -> RenewalStats:
    """Sample means over the completed update intervals of one replay.

    The trailing slots after the last update form an incomplete interval and
    are excluded here (they are still part of the result's cost breakdown).
    The ratio of the two means estimates the long-run average cost per
    request.
    """
    ups = result.update_slots
    if not ups.size:
        raise NoCompletedInterval("replay contains no completed update interval")
    arr = result.arrivals
    closed = int(np.searchsorted(arr.slots, ups[-1], side="right"))
    counts = arr.counts[:closed]
    stale = float(np.dot(counts, result.request_charges[:closed]))
    return RenewalStats(
        mean_requests_per_interval=float(counts.sum()) / ups.size,
        mean_cost_per_interval=(result.breakdown.total_update + stale) / ups.size,
    )
