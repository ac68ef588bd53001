"""Offline-optimal update schedules: a dynamic program over a capped window
and an exhaustive enumerator for small instances.

Both restrict candidate update times to request slots, which loses nothing
(any off-request update can be postponed to the next request at no extra
cost). The DP also never serves a request at an age whose penalty exceeds
the update cost, so each update looks back over at most W requests and a
solve costs O(N·W). ``offline_optimal_many`` steps K such solves
together, one Python step per target for a group of paths of like W, and
holds O(K·(N + B·W)) floats for blocks of B targets. A block prices each
candidate once before its steps and, after them, only those of its own
points again; ``offline_optimal`` is a batch of one. The brute-force
search prices each subset from its prefix's sums, O(2^n) array work in a
few MiB at its bound of 22 requests, independently of the DP and of the
replay engine, and is the ground truth the DP is validated against.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .arrivals import ArrivalSequence
from .core import CostModel

BRUTE_FORCE_LIMIT = 22
# Requests whose choices the exhaustive search holds as arrays over every
# mask: 2^16 prefixes, three arrays of 0.5 MiB each. Each choice of the
# bits past them (at most 6) extends that prefix as one block, so the
# search holds a few MiB at its bound.
_PREFIX_REQUESTS = 16
# Targets per block of the windowed DP, halved down to 8 while a block's
# charges exceed _BLOCK_CELLS or half a block holds every target: small
# blocks pay more numpy calls per target, large ones sum more charges that
# no target reads. Bounds of 2^13 to 2^15 cells ran alike; 2^12 made one
# narrow path's solve ~12% slower, 2^17 a compare sweep's batch ~8%.
_BLOCK_TARGETS = 64
_BLOCK_CELLS = 1 << 13
# Charges per target that a group's narrower paths may sum beyond their own
# windows before the next path starts a new group, which pays its Python
# steps again: a lambda sweep at one p (289 spare) stays one group, and a
# path whose window spans every request leaves the narrow ones.
_SPARE_CELLS = 1 << 10


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

    U[j] is the cheapest way to serve requests 1..j with an update at
    request j: U at the previous update point i (0 = never updated, ages run
    from slot 0), the requests strictly between at their induced age, and
    p. An update-free tail ends the schedule, and requests sharing a slot
    are charged with their multiplicity. A batch of one for
    ``offline_optimal_many``; its schedule and total are those of the full
    O(N^2) recursion bit for bit.
    """
    return offline_optimal_many([arrivals], [model])[0]


def offline_optimal_many(paths: Sequence[ArrivalSequence], models: Sequence[CostModel]) -> list[OfflineSolution]:
    """``offline_optimal`` of each path under its own model; the models must
    share one staleness function.

    Each path keeps its own update cost and its own ``_reach``, whose window
    W is the most update points any of its targets has in reach. The paths
    go by W into groups, and one loop solves each group: one Python step per
    target index for the whole group, not one per path (see ``_solve``). A
    group shares its widest window, so its narrower paths sum charges no
    target reads; a group grows while those spare charges stay within
    ``_SPARE_CELLS`` per target. Every schedule and total is the same bits
    whatever else is in the batch.
    """
    k_paths = len(paths)
    if len(models) != k_paths:
        raise ValueError(f"{k_paths} paths but {len(models)} cost models")
    if not k_paths:
        return []
    f = models[0].staleness
    if any(m.staleness != f for m in models):
        raise ValueError("the paths of a batch must share one staleness function")
    lo = [_first_in_reach(a, _reach(m, a.slots.size, int(a.slots[-1]))) for a, m in zip(paths, models)]
    windows = [int((np.arange(x.size) - x).max()) for x in lo]
    order = sorted(range(k_paths), key=windows.__getitem__)
    groups, spare = [[order[0]]], 0
    for k in order[1:]:
        group = groups[-1]
        spare += len(group) * (windows[k] - windows[group[-1]])
        if spare > _SPARE_CELLS:
            groups.append([k])
            spare = 0
        else:
            group.append(k)
    solutions = [None] * k_paths
    for group in groups:
        sols = _solve([paths[k] for k in group], [models[k].update_cost for k in group], f,
                      [lo[k] for k in group], max(1, windows[group[-1]]))
        for k, sol in zip(group, sols):
            solutions[k] = sol
    return solutions


def _solve(
    paths: list[ArrivalSequence], costs: list[float], f, lo: list[np.ndarray], d: int
) -> list[OfflineSolution]:
    """The DP of K paths under penalty f, one Python step per target index.

    ``lo[k]`` is path k's ``_first_in_reach`` array, its last entry the
    tail's first point in reach, and d is the window D, at least as wide as
    any path's.
    A point out of a path's reach stays in the window: ``_reach``'s margin
    makes its candidate strictly worse than one in reach, so it is never a
    minimum nor the first of one. Targets go in blocks of B, 8 to 64: a
    block sums its charges down the columns of one (B + 1) x K x (D + B)
    array, one row add per target, carried from block to block, so a group
    holds O(K·(N + B·D)) floats. A block's ages are float64 read from one
    path-major copy of the slots while every slot is below 2^53 (exact
    there), int64 past that, and its charges are weighed by the counts only
    if some slot holds several requests. A target's minimum over the points
    before its block is one array reduction; each step then turns the next
    target's minimum into its V and pushes V + charge to every later target
    of the block. Once the block is done, only the candidates of its own
    points are priced again, and the first candidate that reaches each
    minimum is one argmin over the window. Candidate values, charge sums and
    first-index ties are those of each path's own solve.
    """
    k_paths = len(paths)
    sizes = [a.slots.size for a in paths]
    n = max(sizes)
    b = _BLOCK_TARGETS
    while b > 8 and ((b + 1) * k_paths * (d + b) > _BLOCK_CELLS or b // 2 > n):
        b //= 2
    width = d + b

    # Every array carries the paths on its last axis, but for the charges,
    # which carry them before the window's axis, and the slots, which carry
    # them first: so a window's minimum and a block's ages run along
    # contiguous memory. A batch of one drops that axis, so its steps add
    # numpy scalars, not 1-vectors. The views named *_k always have it, for
    # per-path access.
    paths_axis = (k_paths,) if k_paths > 1 else ()
    # Column D + i holds base[i], the slot ages run from after update point
    # i, and so column D + j the slot of request j. Past a path's end its
    # last slot repeats; before point 0 slot 0 does, as at point 0, so that
    # no age but those of a block's own points, read before their request,
    # is below 0. Ages are floats while every slot is below 2^53, which
    # float64 holds exactly, so each age and each f(age) keeps its bits.
    top = max(int(a.slots[-1]) for a in paths)
    slot = np.zeros((*paths_axis, n + 1 + b + d), np.float64 if top < 2**53 else np.int64)
    slot_k = slot.reshape(k_paths, -1)
    for k, a in enumerate(paths):
        m = a.slots.size
        slot_k[k, d + 1 : d + 1 + m] = a.slots
        slot_k[k, d + 1 + m :] = a.slots[-1]
    # targets[j]: the slot of request j, against the window's axis.
    targets = np.moveaxis(slot[..., d:], -1, 0)[..., None]
    # Counts weigh the charges only if some slot of the batch holds several
    # requests, in the narrowest type that holds them, and are 0 past a
    # path's end. Without them the padding's charges are not 0, but only
    # targets past a path's end, which nothing reads, sum them.
    most = max(int(a.counts.max()) for a in paths)
    weights = None
    if most > 1:
        weights = np.zeros((n + b, *paths_axis), np.min_scalar_type(most))
        weights_k = weights.reshape(-1, k_paths)
        for k, a in enumerate(paths):
            weights_k[: a.slots.size, k] = a.counts

    p = np.array(costs).reshape(paths_axis)[()]
    # In the block from j0, row c holds U[i] and V[i] = U[i] + p, the price
    # of the next update after i, for i = j0 - D + c; the rows of points
    # before 0 and of the points the block has not reached are +inf.
    U = np.full((d + b, *paths_axis), np.inf)
    V = np.full((d + b, *paths_axis), np.inf)
    U[d - 1] = 0.0
    V[d - 1] = p
    U_k = U.reshape(-1, k_paths)
    # V_window[q]: V over target j0 + q's window, the points j0+q-D..j0+q-1.
    V_window = as_strided(V, (b + 1, *paths_axis, d), (V.strides[0], *V.strides[1:], V.strides[0]), writeable=False)
    parent = np.empty((n + 2, *paths_axis), np.int32)  # argmin within target j's window
    C = np.zeros((b + 1, *paths_axis, width))
    C_k = C.reshape(b + 1, k_paths, width)
    # window[q]: C[q] over target j0 + q's window.
    window = as_strided(C, (b, *paths_axis, d), (C.strides[0] + C.strides[-1], *C.strides[1:]), writeable=False)
    # pushes[q]: the charges from update point j0 + q to each later target
    # of the block, copied out of C; +inf for the targets at or before it.
    pushes = np.full((b, b, *paths_axis), np.inf)
    from_block = np.moveaxis(C[:b, ..., d:], -1, 0)
    later = (np.arange(b)[:, None] < np.arange(b)).reshape((b, b) + (1,) * len(paths_axis))
    cand = np.empty((b, *paths_axis, d))
    best = np.empty((b, *paths_axis))
    push = np.empty((b, *paths_axis))
    ages = np.empty((b, *paths_axis, width), slot.dtype)
    # The ages from the block's own points, the only ones that may be < 0.
    own_ages = ages[..., d:]
    best_total = np.empty(k_paths)
    best_end = np.empty(k_paths, np.int64)
    tails = sorted(range(k_paths), key=sizes.__getitem__)
    add, minimum = np.add, np.minimum
    views_from = -1
    for j0 in range(1, n + 2, b):
        j1 = min(j0 + b, n + 2)
        nb = j1 - j0
        # The block skips the columns before c0, whose points precede 0 for
        # each of its targets: while the window is wider than the points
        # so far, that is most of it.
        c0 = max(0, d - j0 - b + 1)
        if c0 != views_from:
            views_from = c0
            sums = [(C[q, ..., c0:], C[q + 1, ..., c0:]) for q in range(b)]
            block_ages, V_win, C_win, cand_win = ages[..., c0:], V_window[..., c0:], window[..., c0:], cand[..., c0:]
            carry, carried = C[0, ..., c0:d], C[b, ..., b + c0 :]
            # The window columns whose points may lie in the block.
            r = max(c0, d - b + 1)
            V_own, C_own, cand_own = V_window[..., r:], window[..., r:], cand[..., r:]
        # C[0]: the carry, the charge of requests i+1..j0-1 from base[i]; a
        # point from j0 - 1 on has none yet.
        carry[...] = carried
        # Ages before an update point clamp to 0, where f is 0, so each
        # column's sum starts at its own update point.
        np.subtract(targets[j0 : j0 + b], slot[..., j0 + c0 : j0 + width], out=block_ages)
        np.maximum(own_ages, 0, out=own_ages)
        charges = f.eval_array(block_ages)
        if weights is not None:
            np.multiply(charges, weights[j0 - 1 : j0 - 1 + b, ..., None], out=charges)
        # C[q, ..., c]: the charge of requests i+1..j0+q-1 from base[i], with
        # i = j0 - D + c, summed in request order down each column.
        for (prev, row), charge in zip(sums, charges):
            add(prev, charge, row)
        np.copyto(pushes, from_block, where=later)
        # best[q]: the cheapest candidate of target j0 + q so far, first
        # from the points before the block, whose V is known (a target D or
        # more into the block has none) ...
        old = min(nb, d)
        minimum.reduce(add(V_win[:old], C_win[:old], cand_win[:old]), axis=-1, out=best[:old])
        best[old:] = np.inf
        # ... then, one step per target, from each point of the block once
        # its V is known: U[j] is complete when the step reaches j.
        for c, (u, charges) in enumerate(zip(best[:nb], pushes), d):
            v = V[c] = u + p
            minimum(best, add(v, charges, push), out=best)
        U[d : d + nb] = best[:nb]
        # The first candidate that reaches each minimum, in window order:
        # only the candidates of the block's own points have changed.
        add(V_own[:nb], C_own[:nb], cand_own[:nb])
        parent[j0:j1] = c0 + cand_win[:nb].argmin(-1)
        while tails and sizes[tails[0]] + 1 < j1:
            k = tails.pop(0)
            j, a = sizes[k] + 1, int(lo[k][-1])
            tail = U_k[a - j0 + d : j - j0 + d, k] + C_k[j - j0, k, a - j0 + d : j - j0 + d]
            t = int(tail.argmin())
            best_total[k], best_end[k] = tail[t], a + t
        # The next block's window starts b points on.
        U[:d] = U[b:]
        V[:d] = V[b:]
        V[d:] = np.inf

    solutions = []
    parent_k = parent.reshape(-1, k_paths)
    for k, a in enumerate(paths):
        m = a.slots.size
        # A window of +inf candidates (a sum past the float range) ties at
        # its first point in reach, as the solve of one path has it.
        prev = np.maximum(parent_k[: m + 1, k] + np.arange(-d, m + 1 - d), lo[k][: m + 1]).tolist()
        ups = []
        j = int(best_end[k])
        while j > 0:
            ups.append(int(a.slots[j - 1]))
            j = prev[j]
        ups.reverse()
        total = float(best_total[k])
        solutions.append(OfflineSolution(tuple(ups), total, total / a.n_requests))
    return solutions


def _first_in_reach(arrivals: ArrivalSequence, reach: int) -> np.ndarray:
    """lo[j], j = 0..n+1: the first update point in reach of target j.

    Target j = 1..n updates at request j and target n + 1 is the
    update-free tail. From update point i, target j serves requests
    i+1..j-1 stale, the oldest at age r[j-2] - base[i], where base[i] is
    the slot ages run from after point i: 0 for i = 0 (never updated), else
    the slot of request i.
    """
    r = arrivals.slots.astype(np.int64)
    return np.concatenate(([0, 0], np.searchsorted(np.concatenate(([0], r)), r - reach)))


def brute_force_optimal(arrivals: ArrivalSequence, model: CostModel) -> OfflineSolution:
    """Exhaustive search over every subset of request slots; exact but exponential.

    Bit k of a mask updates at the k-th request slot, and each request is
    charged at its age since the last update at or before its slot. The
    schedules are built by extending prefixes: after request k, three arrays
    indexed by the mask of requests 0..k hold each prefix's staleness sum,
    last update slot and update count. Skipping the next request adds its
    charge to the sum and updating adds nothing, so the work is O(2^n) and
    every sum adds its charges in request order: each total is bit-identical
    to the replayed cost. The arrays stop at ``_PREFIX_REQUESTS`` requests;
    the later ones are decided depth first, and each choice of their bits
    extends the shared prefix as one block. Shares no code with the DP or
    the replay engine. Ties break toward fewer updates, then the
    lexicographically earliest schedule (tie means bit-identical cost).
    """
    n = arrivals.slots.size
    if n > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"{n} occupied slots exceeds the enumeration bound {BRUTE_FORCE_LIMIT}")
    slots, counts = arrivals.slots, arrivals.counts
    f = model.staleness
    p = model.update_cost
    low = min(n, _PREFIX_REQUESTS)
    stale, last, n_up = np.zeros(1 << low), np.zeros(1 << low, slots.dtype), np.zeros(1 << low, np.int64)
    for k in range(low):
        # Mask m < 2^k skips request k, mask m + 2^k updates at it.
        skip, update = slice(0, 1 << k), slice(1 << k, 2 << k)
        stale[update] = stale[skip]
        last[update] = slots[k]
        np.add(n_up[skip], 1, out=n_up[update])
        stale[skip] += counts[k] * f.eval_array(slots[k] - last[skip])
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    # Of two schedules with equally many updates, the lexicographically
    # earlier one has the lowest bit where they differ set: it is the larger
    # mask when read with bit 0 as the most significant digit.
    lex_weight = bits[::-1]
    best_key, best_sched = (np.inf, 0, 0), ()

    def blocks(k: int, stale: np.ndarray, last, high: int, high_ups: int):
        """Each block of masks whose bits from ``low`` on are ``high``, with
        its staleness sums and its updates past the prefix, for the choices
        at requests k..n-1; ``last`` is one slot once the block updates."""
        if k == n:
            yield stale, high, high_ups
            return
        yield from blocks(k + 1, stale + counts[k] * f.eval_array(slots[k] - last), last, high, high_ups)
        yield from blocks(k + 1, stale, slots[k], high | 1 << k, high_ups + 1)

    for sums, high, high_ups in blocks(low, stale, last, 0, 0):
        ups = n_up + high_ups
        cost = sums + p * ups
        tied = np.flatnonzero(cost == cost.min())
        tied = tied[ups[tied] == ups[tied].min()]
        on = ((tied | high)[:, None] & bits) != 0
        lex = (on * lex_weight).sum(axis=1)
        j = lex.argmax()
        key = (float(cost[tied[j]]), int(ups[tied[j]]), -int(lex[j]))
        if key < best_key:
            best_key, best_sched = key, tuple(slots[on[j]].tolist())
    best_cost = best_key[0]
    return OfflineSolution(
        update_slots=best_sched,
        total_cost=best_cost,
        per_request_cost=best_cost / arrivals.n_requests,
    )
