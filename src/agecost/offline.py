"""Offline-optimal update schedules: a dynamic program over a capped window
and an exhaustive enumerator for small instances.

Both restrict candidate update times to request slots, which loses nothing
(any off-request update can be postponed to the next request at no extra
cost). The DP also never serves a request at an age whose penalty exceeds
the update cost, so each update looks back over at most W requests and a
solve costs O(N·W). The brute-force search prices every subset with array
operations, independently of the DP and of the replay engine, and is the
ground truth the DP is validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrivals import ArrivalSequence
from .core import CostModel

BRUTE_FORCE_LIMIT = 22
# Masks priced per array pass. Larger blocks are no faster and raise the
# peak memory of the search.
_BLOCK_MASKS = 1 << 11
# Targets per block of the windowed DP: small blocks pay more per-block
# overhead, large ones hold a larger array of charges.
_BLOCK_TARGETS = 64


class TooLarge(ValueError):
    """Instance exceeds the exhaustive-enumeration bound."""


@dataclass(frozen=True)
class OfflineSolution:
    update_slots: tuple[int, ...]
    total_cost: float
    per_request_cost: float


def _reach(model: CostModel, n: int, horizon: int) -> int:
    """Largest age, at most ``horizon``, at which the DP over n occupied slots
    may still serve a request stale.

    Serving a request at an age a with f(a) > p is never optimal: updating at
    that request instead pays p, saves f(a) and leaves every later request of
    the interval younger. The bound admits f(a) up to p plus a relative margin
    of n(n + 2)·2^-50, which exceeds the rounding of two candidate sums of at
    most n + 2 terms each, so every candidate it drops is strictly worse in
    floating point too and never the DP's first argmin. The reach ends one
    age short of the first where f exceeds that limit.
    """
    f = model.staleness
    limit = model.update_cost * (1.0 + n * (n + 2) * 2.0**-50)
    first = f.first_age(math.nextafter(limit, math.inf), horizon)
    return horizon if first is None else first - 1


def offline_optimal(arrivals: ArrivalSequence, model: CostModel) -> OfflineSolution:
    """Minimum-cost update schedule given full knowledge of the arrivals.

    DP over request indices. U[j] is the cheapest way to serve requests
    1..j with an update at request j: pick the previous update point i
    (0 = never updated, so ages run from slot 0), charge the requests
    strictly between at their induced age, and pay one update. The answer
    appends an update-free tail. Requests sharing a slot are charged with
    their multiplicity; an update in their slot serves them all fresh.

    Only update points whose stale requests stay within ``_reach`` are
    candidates, W of them at most, so a solve costs O(N·W) instead of
    O(N^2). Targets go in blocks of ``_BLOCK_TARGETS``; each block sums its
    candidates' charges in one (block + 1) x (W + block) array, so memory
    is O(W), not O(N·W). Every charge is summed in request order from its
    update point, as (U[i] + p) + charges, and ties go to the earliest
    update point, so the schedule and the total are those of the full
    O(N^2) recursion bit for bit.
    """
    n = arrivals.slots.size
    if n == 0:
        raise ValueError("arrival sequence has no requests")
    r = arrivals.slots.astype(np.int64)
    w = arrivals.counts.astype(np.float64)
    f = model.staleness
    p = model.update_cost

    # Ages after update point i run from slot base[i].
    base = np.concatenate(([0], r))
    # Target j = 1..n updates at request j; target n + 1 is the update-free
    # tail. From update point i, target j serves requests i+1..j-1 stale, the
    # oldest at age r[j-2] - base[i], so lo[j] is the first point in reach.
    lo = [0, 0, *np.searchsorted(base, r - _reach(model, n, int(r[-1]))).tolist()]
    U = np.empty(n + 1)
    V = np.empty(n + 1)  # U + p: the price of the next update after i
    parent = np.empty(n + 1, dtype=np.int64)
    U[0] = 0.0
    V[0] = U[0] + p
    # carry[i - c0]: the charge of requests i+1..j0-1 from base[i].
    carry, c0 = np.zeros(1), 0
    for j0 in range(1, n + 2, _BLOCK_TARGETS):
        j1 = min(j0 + _BLOCK_TARGETS, n + 2)
        s0, s1 = lo[j0], min(j1, n + 1)
        k = np.arange(j0 - 1, min(j1 - 1, n))
        # Ages before an update point clamp to 0, where f is 0, so each
        # column's sum starts at its own update point.
        ages = np.maximum(r[k, None] - base[None, s0:s1], 0)
        rows = np.zeros((k.size + 1, s1 - s0))
        rows[0, : j0 - s0] = carry[s0 - c0 :]
        np.multiply(w[k, None], f.eval_array(ages), out=rows[1:])
        # C[j - j0, i - s0]: the charge of requests i+1..j-1 from base[i],
        # summed in request order down each column.
        C = np.cumsum(rows, axis=0)
        for j in range(j0, j1):
            a = lo[j]
            cand = (V if j <= n else U)[a:j] + C[j - j0, a - s0 : j - s0]
            t = int(cand.argmin())
            if j <= n:
                U[j] = cand[t]
                V[j] = U[j] + p
                parent[j] = a + t
            else:
                best_total, best_end = cand[t], a + t
        carry, c0 = C[-1], s0

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
