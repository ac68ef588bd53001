"""Independent slow-path oracles shared by the test modules.

These deliberately avoid the package's optimized code paths: the reference
replay walks every slot, ages the AoI with aoi_step and queries the policy
through decide(), which evaluates each policy's rule at one slot;
bisect_threshold_schedule finds each reactive update with its own bisect on
Python ints, so no int64 sum can wrap; the renewal enumeration sums over
all request patterns of an update interval; scan_periods prices one
update period at a time from a running sum of the scalar penalty;
threshold_margins evaluates the threshold scan's stopping margin in exact
rational arithmetic; the MDP
oracles build the full age chain up to ``state_cap`` as a dense transition
matrix, with no lumping and no scan: extract_threshold reads the threshold
off the converged relative values instead of the argmin actions, and
dense_value_iteration solves the chain from scratch. replay_every_schedule
is the exhaustive offline search done the slow way, one engine replay per
subset of request slots; quadratic_offline_dp is the offline DP with every
earlier request as a candidate last update. reference_csv is the CSV writer
of the dict-per-row result table, one formatted cell at a time, and
reference_load_trace the trace reader that strips every line before it
parses the first field. cost_models
draws the cost models the property tests share, and alarm bounds the wall
time of a call that must not hang or grow with its input.
"""

from __future__ import annotations

import bisect
import math
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product

import numpy as np
from hypothesis import strategies as st

from agecost import (ArrivalSequence, CostModel, EmptyTrace, OfflineSolution, ParseError, Policy,
                     StalenessFn, simulate)
from agecost.experiments import COLUMNS

# Slots and ages are plain ints in the oracles.
Slot = int
Aoi = int


def aoi_step(prev: Aoi, updated: bool) -> Aoi:
    """Advance the AoI by one slot: reset to 0 on update, otherwise age by 1."""
    return 0 if updated else prev + 1


class ReactiveWithoutRequest(ValueError):
    """A reactive policy was asked for a decision on a request-free slot."""


@dataclass(frozen=True)
class DecisionContext:
    """What a policy sees when deciding at one slot."""

    current_aoi: Aoi
    slot: Slot
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
        if policy.kind in ("threshold", "naive"):
            fire = decide(policy, model, ctx) if k > 0 else False
        else:
            fire = decide(policy, model, ctx)
        if fire:
            updates.append(t)
        else:
            total_staleness += k * f(age)
        age_prev = aoi_step(age_prev, fire)
    return total_staleness + p * len(updates), total_staleness, p * len(updates), updates


def bisect_threshold_schedule(arrivals, tau):
    """Update slots of a reactive threshold tau, one bisect per update on Python ints.

    The next update is the first request slot >= last update + tau; the run
    starts as if updated at slot 0.
    """
    slots = arrivals.slots.tolist()
    ups = []
    i = bisect.bisect_left(slots, tau)
    while i < len(slots):
        ups.append(slots[i])
        i = bisect.bisect_left(slots, slots[i] + tau, i + 1)
    return np.array(ups, dtype=np.int64)


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


def scan_periods(rate, model, hi):
    """Smallest minimizer of the periodic closed form over d = 1..hi.

    Prices one period at a time from a running sum of f in age order, with
    the scalar staleness function, and returns (d, cost).
    """
    p = model.update_cost
    f = model.staleness
    best, best_cost, prefix = 0, math.inf, 0.0
    for d in range(1, hi + 1):
        cost = (p + rate * prefix) / (rate * d)
        if cost < best_cost:
            best, best_cost = d, cost
        prefix += f(d)
    return best, best_cost


def threshold_margins(rate, model, hi):
    """g(k) = (rate·k + 1)·f(k+1) − rate·F(k) for k = 0..hi-1, exactly.

    F(k) = f(1) + ... + f(k). The threshold closed form falls from
    tau = k + 1 to k + 2 exactly when g(k) < p. Sums in rational arithmetic
    from the float inputs, so no rounding enters.
    """
    lam = Fraction(rate)
    f = [Fraction(model.staleness(a)) for a in range(hi + 1)]
    prefix = list(accumulate(f))  # prefix[k] = F(k), as f(0) = 0
    return [(lam * k + 1) * f[k + 1] - lam * prefix[k] for k in range(hi)]


def replay_every_schedule(arrivals, model):
    """Cheapest schedule found by replaying every subset of request slots.

    Ties break toward fewer updates, then the lexicographically earliest
    schedule (tie means bit-identical replayed cost).
    """
    slots = arrivals.slots.tolist()
    n = len(slots)
    best_cost = math.inf
    best_sched = ()
    for mask in range(1 << n):
        sched = tuple(slots[k] for k in range(n) if mask >> k & 1)
        cost = simulate(Policy.scheduled(sched), arrivals, model).total
        if cost < best_cost or (cost == best_cost and (len(sched), sched) < (len(best_sched), best_sched)):
            best_cost = cost
            best_sched = sched
    return OfflineSolution(
        update_slots=best_sched,
        total_cost=float(best_cost),
        per_request_cost=float(best_cost) / arrivals.n_requests,
    )


def quadratic_offline_dp(arrivals, model):
    """The offline DP over every earlier request as the last update, O(N^2).

    The recursion offline_optimal restricts to a window, kept unrestricted:
    pushes each update point's candidates to every later request, with ties
    kept by the earliest point.
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


@st.composite
def cost_models(draw, p, held_at_p=False):
    """Any of the four penalty kinds at update cost p.

    Table and piecewise values are non-integer and non-decreasing, and the
    last one reaches p so that the model has a cap threshold. With
    ``held_at_p`` only those two kinds are drawn, and their last value is p
    exactly, with every earlier one at most p.
    """
    kinds = ["table", "piecewise"] if held_at_p else ["linear", "quadratic", "table", "piecewise"]
    fn = draw(st.sampled_from(kinds))
    if fn in ("linear", "quadratic"):
        return CostModel(getattr(StalenessFn, fn)(), p)
    steps = draw(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=8))
    values = list(accumulate(steps))
    if held_at_p:
        values = [min(v, p) for v in values[:-1]] + [p]
    else:
        values[-1] += p
    if fn == "table":
        return CostModel(StalenessFn.from_table([0.0, *values]), p)
    starts = sorted(draw(st.sets(st.integers(min_value=1, max_value=30), min_size=len(values), max_size=len(values))))
    return CostModel(StalenessFn.piecewise(zip(starts, values)), p)


@contextmanager
def alarm(seconds):
    """Raise TimeoutError in place of running for more than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _format_cell(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def reference_csv(rows) -> str:
    """CSV text of row dicts: the header, then each row's cells in COLUMNS order."""
    lines = [",".join(COLUMNS) + "\n"]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(c)) for c in COLUMNS) + "\n")
    return "".join(lines)


def reference_load_trace(path, slot_duration, on_malformed, skipped):
    """The trace reader line by line: strip the line, skip it if blank,
    strip its first field and parse that as a float; a timestamp that is
    not a finite number raises ParseError or, with on_malformed "skip", has
    its (line number, stripped line) appended to ``skipped``."""
    stamps = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            field = text.split(",", 1)[0].strip()
            try:
                stamp = float(field)
            except ValueError:
                stamp = math.nan
            if math.isfinite(stamp):
                stamps.append(stamp)
                continue
            if on_malformed == "error":
                raise ParseError(line_no, text)
            skipped.append((line_no, text))
    if not stamps:
        raise EmptyTrace(f"no usable timestamps in {path}")
    lo, hi = min(stamps), max(stamps)
    if not (hi - lo) / slot_duration < 2**63:
        raise ValueError(f"timestamps span {lo!r} to {hi!r}, which at slot_duration={slot_duration!r} "
                         "needs more slots than int64 holds")
    slot_ids = np.floor((np.asarray(stamps) - lo) / slot_duration).astype(np.int64) + 1
    slots, counts = np.unique(slot_ids, return_counts=True)
    return ArrivalSequence(horizon=int(slots[-1]), slots=slots, counts=counts.astype(np.int64))


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


def folded_transitions(size, rate):
    """Dense transition matrix of the age seen by the next request after a skip.

    From age s < S = size-1 the next request sees age z = s+1..S-1 with
    probability (1-rate)^(z-s-1) * rate; the tail mass beyond S is folded
    into state S, which keeps every row a proper distribution. State S maps
    to itself.
    """
    S = size - 1
    q = 1.0 - rate
    s = np.arange(size)[:, None]
    z = np.arange(size)[None, :]
    P = np.where((s < z) & (z < S), rate * q ** np.maximum(z - s - 1, 0), 0.0)
    P[:S, S] = q ** (S - 1 - np.arange(S))
    P[S, S] = 1.0
    assert np.allclose(P.sum(axis=1), 1.0)
    return P


def dense_continuation(values, rate):
    """E[values(next age) | skip at age s] for every s, as a matrix product."""
    return folded_transitions(values.size, rate) @ values


def dense_value_iteration(config, average, tolerance, max_iterations):
    """Solve the MDP on every age 0..state_cap with a dense transition matrix.

    Ages >= the cap threshold are forced to update. With ``average`` this is
    damped relative value iteration (damping 1/2, h(1) = 0) and the gain is
    returned; otherwise plain value iteration at ``config.discount``. Either
    stops once a sweep moves the values by at most ``tolerance`` (the span
    of the move when ``average``) and fails after ``max_iterations`` sweeps.
    Returns (values, gain, actions, margins), where margins[s] is the skip
    value minus the update value in the last sweep (inf where forced).
    """
    P = folded_transitions(config.state_cap + 1, config.rate)
    ages = range(config.state_cap + 1)
    f = np.array([config.model.staleness(a) for a in ages])
    forced = np.array([a >= config.delta_star for a in ages])
    disc = 1.0 if average else config.discount
    values = np.zeros(config.state_cap + 1)
    for _ in range(max_iterations):
        K = P @ values
        update = config.model.update_cost + disc * K[0]
        skip = f + disc * K
        new = np.where(forced, update, np.minimum(update, skip))
        actions = (forced | (update < skip)).astype(np.int8)
        margins = np.where(forced, np.inf, skip - update)
        diff = new - values
        if average:
            if diff.max() - diff.min() <= tolerance:
                return values - values[1], 0.5 * (diff.max() + diff.min()), actions, margins
            values = values + 0.5 * diff
            values = values - values[1]
        else:
            values = new
            if np.abs(diff).max() <= tolerance:
                return values, None, actions, margins
    raise AssertionError("dense value iteration did not converge")


def extract_threshold(solution, config):
    """Smallest age where updating is at least as good as skipping.

    Evaluated on the converged relative values: update at age s once
    f(s) + E[h | skip from s] >= p + E[h | update], never above the cap
    threshold (updates are forced there anyway).
    """
    h = solution.values
    f = config.model.staleness.eval_array(np.arange(h.size))
    K = dense_continuation(h, config.rate)
    rhs = config.model.update_cost + K[0]
    for s in range(1, config.delta_star):
        if f[s] + K[s] >= rhs:
            return s
    return config.delta_star
