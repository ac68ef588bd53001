"""Discrete-time replay of update policies against arrival sequences.

Event ordering inside a slot: requests arrive and observe the pre-decision
age, the policy decides, an update (if any) completes before the replies go
out, so requests in an update slot are served fresh at zero staleness, and
the age then steps (resets to 0 on update, otherwise grows by 1). The run
starts with age 1 at slot 1, as if an update had completed at slot 0.

``ordered_map`` runs independent tasks on a few threads; the Monte Carlo
loop that uses it, ``simulate_many`` included, is in ``experiments``.
"""

from __future__ import annotations

import bisect
import collections
import contextvars
import itertools
import os
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .arrivals import ArrivalSequence
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

    @property
    def averages(self) -> tuple[float, float, float]:
        """(avg_total, avg_staleness, avg_update): what a sweep keeps of a run."""
        return self.avg_total, self.avg_staleness, self.avg_update


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
    def of_averages(cls, averages: list[tuple[float, float, float]]) -> "SweepResult":
        """The sweep of runs given by their ``SimResult.averages``, in run order."""
        avgs = np.array(averages, dtype=np.float64)
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
    there). Costs are charged for the whole horizon of the arrival sequence:
    each request at its age since the last update at or before its slot,
    which ``updates_through`` from ``_update_schedule`` points to.
    """
    n_req = arrivals.n_requests
    ups, through = _update_schedule(policy, arrivals, model)
    slots = arrivals.slots
    # f(0) = 0 serves requests in an update slot fresh.
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


def _update_schedule(policy: Policy, arrivals: ArrivalSequence, model: CostModel) -> tuple[np.ndarray, np.ndarray]:
    """The sorted int64 slots at which the policy updates, and per occupied
    slot the number of those updates at or before it.

    Threshold and naive: ``_reactive_updates`` gives the request indices
    that update; marking them in an array of zeros and taking its ``cumsum``
    counts them with no search. Periodic and scheduled: the policy gives the
    slots, and one ``searchsorted`` counts them.
    """
    slots = arrivals.slots
    if policy.kind in ("threshold", "naive"):
        idx = _reactive_updates(slots, policy.tau if policy.kind == "threshold" else cap_threshold(model))
        marks = np.zeros(slots.size, dtype=np.intp)
        marks[idx] = 1
        return slots[idx], np.cumsum(marks)
    if policy.kind == "periodic":
        ups = np.arange(policy.period, arrivals.horizon + 1, policy.period, dtype=np.int64)
    else:
        sched = policy.update_slots
        ups = np.array(sched[: bisect.bisect_right(sched, arrivals.horizon)], dtype=np.int64)
    return ups, np.searchsorted(ups, slots, side="right")


def _reactive_updates(slots: np.ndarray, tau: int) -> np.ndarray:
    """Indices into ``slots`` of the requests at which threshold ``tau`` updates.

    The first update is the first request at slot >= tau, and each next one
    is the previous one's successor: the first request at least tau slots
    later. One ``searchsorted`` finds every request's successor.
    """
    if tau > int(slots[-1]):  # no request reaches age tau
        return np.empty(0, dtype=np.intp)
    # slots - tau cannot wrap in int64 (slots >= 1, tau <= last slot); slots + tau can.
    shifted = slots - tau
    succ = np.searchsorted(shifted, slots)
    return _follow(succ, int(np.searchsorted(shifted, 0)), _doubling_levels(succ))


# A walk step costs ~100 ns and a doubling level ~1 ns per request (2-core
# Xeon, 1e4 requests), but past a mean jump of 16 requests the walk is short
# and the levels' memory and fixed cost win nothing measurable. Doubling to
# 16 from a jump of at least 1 takes at most 4 levels, so at most 5 arrays
# of n + 1 entries (see ``_follow``).
_DOUBLE_BELOW = 16


def _doubling_levels(succ: np.ndarray) -> int:
    """How often ``_follow`` doubles the successors: until the mean jump,
    estimated from every 64th request, reaches ``_DOUBLE_BELOW``."""
    jump = float(np.mean(succ[::64] - np.arange(0, succ.size, 64)))
    levels = 0
    while jump < _DOUBLE_BELOW:
        jump *= 2
        levels += 1
    return levels


def _follow(succ: np.ndarray, start: int, levels: int) -> np.ndarray:
    """The path start, succ[start], succ[succ[start]], ... while below n = ``succ.size``.

    Partial pointer doubling: with J_0 = succ plus a sentinel J_0[n] = n and
    J_{l+1} = J_l[J_l], the path p has p[k + 2^l] = J_l[p[k]]. A Python walk
    along J_levels takes 1/2^levels of the steps; then each level down
    interleaves the path with J_l of it, where only the last new entry can
    be the sentinel. J_0..J_levels are ``levels`` + 1 int arrays of n + 1
    entries besides ``succ``; ``levels`` = 0 walks ``succ`` itself. Needs
    ``start`` < n.
    """
    n = succ.size
    if not levels:
        return _walk(succ, start, n)
    jumps = [np.append(succ, n)]
    for _ in range(levels - 1):
        jumps.append(jumps[-1][jumps[-1]])
    path = _walk(jumps[-1][jumps[-1]], start, n)
    for jump in reversed(jumps):
        out = np.empty(2 * path.size, dtype=np.intp)
        out[0::2] = path
        out[1::2] = jump[path]
        path = out[:-1] if out[-1] == n else out
    return path


def _walk(jump: np.ndarray, start: int, n: int) -> np.ndarray:
    """start, jump[start], jump[jump[start]], ... while below n, one Python step each."""
    path, i, jump = [], start, memoryview(jump)
    while i < n:
        path.append(i)
        i = jump[i]
    return np.fromiter(path, dtype=np.intp, count=len(path))


# Most worker threads of ``ordered_map``. Each run of a sweep draws from its
# own generator, and numpy releases the GIL in the generation, search and
# cumsum that take most of a replay, so threads use the cores; the cap keeps
# the 2 × workers tasks in flight, each up to one batch of paths, small.
_MAX_WORKERS = 4


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def ordered_map(fn: Callable, items: Iterable) -> Iterator:
    """Yield ``fn(item)`` for each item, in input order, from a pool of
    min(4, usable CPUs) threads.

    Items are pulled lazily: at most 2 × workers calls are running, queued
    or waiting for their result to be taken. Each call runs in a copy of
    the caller's context, so numpy's ``errstate`` holds in it. With one
    usable CPU, or one item, every call runs inline in the caller's thread.
    An exception of item i is raised after the results of the items before
    it. The calls not yet started are then cancelled, and the pool is shut
    down; so it is when the generator is closed or exhausted, and no worker
    thread outlives it.
    """
    items = iter(items)
    head = list(itertools.islice(items, 2))
    workers = min(_MAX_WORKERS, _usable_cpus())
    if workers == 1 or len(head) < 2:
        yield from map(fn, itertools.chain(head, items))
        return
    from concurrent.futures import ThreadPoolExecutor  # imported by the runs that start a pool only

    pool = ThreadPoolExecutor(workers)
    pending = collections.deque()
    try:
        for item in itertools.chain(head, items):
            pending.append(pool.submit(contextvars.copy_context().run, fn, item))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


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
