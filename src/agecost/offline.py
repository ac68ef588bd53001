"""Offline-optimal update schedules: an O(N^2) dynamic program and an
exhaustive enumerator for small instances.

Both restrict candidate update times to request slots, which loses nothing
(any off-request update can be postponed to the next request at no extra
cost). The brute-force search replays every subset through the simulation
engine and is the ground truth the DP is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrivals import ArrivalSequence
from .core import CostModel
from .engine import simulate
from .policies import Policy

BRUTE_FORCE_LIMIT = 22


class TooLarge(ValueError):
    """Instance exceeds the exhaustive-enumeration bound."""


@dataclass(frozen=True)
class OfflineSolution:
    update_slots: tuple[int, ...]
    total_cost: float
    per_request_cost: float


def offline_optimal(arrivals: ArrivalSequence, model: CostModel) -> OfflineSolution:
    """Minimum-cost update schedule given full knowledge of the arrivals.

    DP over request indices. U[j] is the cheapest way to serve requests
    1..j with an update at request j: pick the previous update point i
    (0 = never updated, so ages run from slot 0), charge the requests
    strictly between at their induced age, and pay one update. The answer
    appends an update-free tail. Requests sharing a slot are charged with
    their multiplicity; an update in their slot serves them all fresh.
    """
    n = arrivals.slots.size
    if n == 0:
        raise ValueError("arrival sequence has no requests")
    r = arrivals.slots.astype(np.int64)
    w = arrivals.counts.astype(np.float64)
    f = model.staleness
    p = model.update_cost

    U = np.full(n + 1, np.inf)
    U[0] = 0.0
    parent = np.full(n + 1, -1, dtype=np.int64)
    best_total = np.inf
    best_end = 0
    for i in range(n + 1):
        if not np.isfinite(U[i]):
            continue
        base = 0 if i == 0 else int(r[i - 1])
        stale = w[i:] * f.eval_array(r[i:] - base)
        cum = np.cumsum(stale)
        tail = U[i] + (cum[-1] if cum.size else 0.0)
        if tail < best_total:
            best_total = tail
            best_end = i
        if i < n:
            cand = U[i] + p + np.concatenate(([0.0], cum[:-1]))
            mask = cand < U[i + 1:]
            U[i + 1:][mask] = cand[mask]
            parent[i + 1:][mask] = i

    ups = []
    j = best_end
    while j > 0:
        ups.append(int(r[j - 1]))
        j = int(parent[j])
    ups.reverse()
    return OfflineSolution(
        update_slots=tuple(ups),
        total_cost=float(best_total),
        per_request_cost=float(best_total) / arrivals.n_requests,
    )


def brute_force_optimal(arrivals: ArrivalSequence, model: CostModel) -> OfflineSolution:
    """Engine replay of every subset of request slots; exact but exponential.

    Ties break toward fewer updates, then the lexicographically earliest
    schedule (tie means bit-identical replayed cost).
    """
    n = arrivals.slots.size
    if n > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"{n} occupied slots exceeds the enumeration bound {BRUTE_FORCE_LIMIT}")
    slots = [int(s) for s in arrivals.slots]
    best_cost = np.inf
    best_sched: tuple[int, ...] = ()
    for mask in range(1 << n):
        sched = tuple(slots[k] for k in range(n) if mask >> k & 1)
        res = simulate(Policy.scheduled(sched), arrivals, model)
        cost = res.breakdown.total
        if cost < best_cost or (cost == best_cost and (len(sched), sched) < (len(best_sched), best_sched)):
            best_cost = cost
            best_sched = sched
    return OfflineSolution(
        update_slots=best_sched,
        total_cost=float(best_cost),
        per_request_cost=float(best_cost) / arrivals.n_requests,
    )
