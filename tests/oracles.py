"""Independent slow-path oracles shared by the test modules.

These deliberately avoid the package's optimized code paths: the reference
replay walks every slot and queries the policy through decide(), which
evaluates each policy's rule at one slot; the renewal enumeration sums over
all request patterns of an update interval; extract_threshold reads the MDP
threshold off the converged relative values instead of the argmin actions.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import product

import numpy as np

from agecost import ArrivalSequence, aoi_step
from agecost.mdp import _skip_continuation


class ReactiveWithoutRequest(ValueError):
    """A reactive policy was asked for a decision on a request-free slot."""


@dataclass(frozen=True)
class DecisionContext:
    """What a policy sees when deciding at one slot."""

    current_aoi: int
    slot: int
    has_request: bool

    def __post_init__(self) -> None:
        if self.slot < 1:
            raise ValueError("slots are indexed from 1")


def decide(policy, model, ctx):
    """True when the policy refreshes at this slot."""
    if policy.kind == "threshold":
        if not ctx.has_request:
            raise ReactiveWithoutRequest("threshold policy decides only at request slots")
        return ctx.current_aoi >= policy.tau
    if policy.kind == "naive":
        if not ctx.has_request:
            raise ReactiveWithoutRequest("naive policy decides only at request slots")
        return model.staleness(ctx.current_aoi) >= model.update_cost
    if policy.kind == "periodic":
        return ctx.slot % policy.period == 0
    return _in_sorted(policy.update_slots, ctx.slot)


def _in_sorted(slots, slot):
    i = bisect.bisect_left(slots, slot)
    return i < len(slots) and slots[i] == slot


def reference_replay(policy, arrivals, model):
    """Slot-by-slot replay driven through decide(); returns (total, staleness, update, updates)."""
    counts = dict(zip(arrivals.slots.tolist(), arrivals.counts.tolist()))
    f = model.staleness
    p = model.update_cost
    age_prev = 0
    total_staleness = 0.0
    updates = []
    for t in range(1, arrivals.horizon + 1):
        k = counts.get(t, 0)
        age = aoi_step(age_prev, False)
        ctx = DecisionContext(current_aoi=age, slot=t, has_request=k > 0)
        if policy.is_reactive:
            fire = decide(policy, model, ctx) if k > 0 else False
        else:
            fire = decide(policy, model, ctx)
        if fire:
            updates.append(t)
        else:
            total_staleness += k * f(age)
        age_prev = aoi_step(age_prev, fire)
    return total_staleness + p * len(updates), total_staleness, p * len(updates), updates


def enumerate_renewal(rate, model, tau):
    """Exact E[requests] and E[cost] of one update interval of a threshold policy.

    Sums over all 2^(tau-1) arrival patterns of the slots before the
    threshold is reached; the interval then closes with the first request at
    age >= tau, which updates (cost p, no staleness) regardless of when it
    lands, so the geometric tail contributes nothing beyond that.
    """
    p = model.update_cost
    f = model.staleness
    e_requests = 0.0
    e_cost = 0.0
    for pattern in product((0, 1), repeat=tau - 1):
        prob = 1.0
        stale = 0.0
        hits = 0
        for age, arrived in enumerate(pattern, start=1):
            if arrived:
                prob *= rate
                stale += f(age)
                hits += 1
            else:
                prob *= 1.0 - rate
        e_requests += prob * (hits + 1)
        e_cost += prob * (p + stale)
    return e_requests, e_cost


def make_trace(path, n_requests=1000, horizon=2500, slot_duration=1.0, seed=11):
    """Synthesize a non-Bernoulli trace with exactly n_requests/horizon occupancy.

    Occupied slots are drawn without replacement (so the process is not
    independent across slots) and each request gets a jittered timestamp
    inside its slot. Returns the occupied slots used.
    """
    rng = np.random.default_rng(seed)
    middle = rng.choice(np.arange(2, horizon), size=n_requests - 2, replace=False)
    slots = np.sort(np.concatenate(([1, horizon], middle)))
    # The first timestamp sits exactly on its slot boundary so discretization
    # maps slot k back to slot k and the occupancy stays exact.
    jitter = rng.uniform(0.0, 0.9, size=n_requests)
    jitter[0] = 0.0
    with open(path, "w") as fh:
        for s, j in zip(slots, jitter):
            ts = (int(s) - 1 + j) * slot_duration
            fh.write(f"{ts:.6f},key{int(s)},get\n")
    return slots


def random_instance(rng, max_requests=15, horizon=48):
    """Small random arrival sequence for oracle-agreement checks."""
    n = int(rng.integers(1, max_requests + 1))
    slots = np.sort(rng.choice(np.arange(1, horizon + 1), size=n, replace=False))
    return ArrivalSequence.from_slots(slots)


def extract_threshold(solution, config):
    """Smallest age where updating is at least as good as skipping.

    Evaluated on the converged relative values: update at age s once
    f(s) + E[h | skip from s] >= p + E[h | update], never above the cap
    threshold (updates are forced there anyway).
    """
    h = solution.values
    f = config.model.staleness.eval_array(np.arange(h.size))
    K = _skip_continuation(h, config.rate)
    rhs = config.model.update_cost + K[0]
    for s in range(1, config.delta_star):
        if f[s] + K[s] >= rhs:
            return s
    return config.delta_star
