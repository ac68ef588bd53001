"""Offline-optimal update schedules: an O(N^2) dynamic program and an
exhaustive enumerator for small instances.

Both restrict candidate update times to request slots, which loses nothing
(any off-request update can be postponed to the next request at no extra
cost). The brute-force search prices every subset with array operations,
independently of the DP and of the replay engine, and is the ground truth
the DP is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrivals import ArrivalSequence
from .core import CostModel

BRUTE_FORCE_LIMIT = 22
# Masks priced per array pass. Larger blocks are no faster and raise the
# peak memory of the search.
_BLOCK_MASKS = 1 << 11


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
    """Exhaustive search over every subset of request slots; exact but exponential.

    Prices the 2^n schedules as arrays, one block of masks at a time: bit k
    of a mask updates at the k-th request slot, each request is charged at
    its age since the last update at or before its slot, and the charges are
    summed in request order, so every total is bit-identical to the replayed
    cost. Shares no code with the DP or the replay engine. Ties break toward
    fewer updates, then the lexicographically earliest schedule (tie means
    bit-identical cost).
    """
    n = arrivals.slots.size
    if n == 0:
        raise ValueError("arrival sequence has no requests")
    if n > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"{n} occupied slots exceeds the enumeration bound {BRUTE_FORCE_LIMIT}")
    slots = arrivals.slots
    f = model.staleness
    p = model.update_cost
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    # Of two schedules with equally many updates, the lexicographically
    # earlier one has the lowest bit where they differ set: it is the larger
    # mask when read with bit 0 as the most significant digit.
    lex_weight = bits[::-1]
    best_key = (np.inf, 0, 0)
    best_sched: tuple[int, ...] = ()
    for start in range(0, 1 << n, _BLOCK_MASKS):
        masks = np.arange(start, min(start + _BLOCK_MASKS, 1 << n), dtype=np.int64)
        on = (masks[:, None] & bits) != 0
        last = np.maximum.accumulate(np.where(on, slots, 0), axis=1)
        # cumsum adds along each row in request order, like the replay does.
        stale = np.cumsum(arrivals.counts * f.eval_array(slots - last), axis=1)[:, -1]
        n_up = on.sum(axis=1)
        cost = stale + p * n_up
        tied = np.flatnonzero(cost == cost.min())
        tied = tied[n_up[tied] == n_up[tied].min()]
        lex = (on[tied] * lex_weight).sum(axis=1)
        j = tied[lex.argmax()]
        key = (float(cost[j]), int(n_up[j]), -int(lex.max()))
        if key < best_key:
            best_key = key
            best_sched = tuple(slots[on[j]].tolist())
    best_cost = best_key[0]
    return OfflineSolution(
        update_slots=best_sched,
        total_cost=best_cost,
        per_request_cost=best_cost / arrivals.n_requests,
    )
