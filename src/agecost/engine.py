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
from .core import CostModel, cap_threshold
from .policies import Policy


class NoCompletedInterval(ValueError):
    """Renewal statistics need at least one closed update interval."""


@dataclass(frozen=True, eq=False)
class SimResult:
    """Full cost accounting of one replay.

    ``total`` and the three per-request averages are computed from the totals
    held. ``updates_through`` counts the updates at or before each occupied
    slot and ``request_charges`` holds the staleness charged to each of its
    requests, both aligned with ``arrivals.slots``: an update in a request's
    slot counts before it and serves it fresh. ``update_slots`` is the
    realized schedule; ``arrivals`` is the replayed sequence, not a copy.
    """

    total_staleness: float
    total_update: float
    n_requests: int
    n_updates: int
    update_slots: np.ndarray
    updates_through: np.ndarray
    request_charges: np.ndarray
    arrivals: ArrivalSequence

    @property
    def total(self) -> float:
        return self.total_staleness + self.total_update

    @property
    def avg_total(self) -> float:
        return self.total / self.n_requests

    @property
    def avg_staleness(self) -> float:
        return self.total_staleness / self.n_requests

    @property
    def avg_update(self) -> float:
        return self.total_update / self.n_requests


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
    """Replay one policy over one arrival sequence into one ``SimResult``.

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
    through = np.searchsorted(ups, slots, side="right")
    charges = model.staleness.eval_array(slots - np.concatenate(([0], ups))[through])
    # cumsum adds strictly in request order (np.sum would add pairwise), so
    # the total matches a sequential per-request sum bit for bit.
    return SimResult(
        total_staleness=float(np.cumsum(arrivals.counts * charges)[-1]),
        total_update=model.update_cost * ups.size,
        n_requests=n_req,
        n_updates=ups.size,
        update_slots=ups,
        updates_through=through,
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
    are excluded here (they still count in the result's totals).
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
        mean_cost_per_interval=(result.total_update + stale) / ups.size,
    )
