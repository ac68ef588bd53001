import bisect
import itertools
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from agecost import (
    ArrivalSequence,
    BernoulliSource,
    CostModel,
    NoCompletedInterval,
    Policy,
    StalenessFn,
    SweepResult,
    cap_threshold,
    generate_bernoulli,
    periodic_avg_cost,
    renewal_stats,
    simulate,
    simulate_many,
    threshold_avg_cost,
)
from agecost import engine, experiments
from agecost.arrivals import derive_seed
from agecost.engine import _DOUBLE_BELOW, _doubling_levels, _follow, _update_schedule, ordered_map

from oracles import alarm, bernoulli_path, bisect_threshold_schedule, cost_models, reference_replay

LINEAR = StalenessFn.linear()


def test_threshold_one_pays_update_cost_exactly():
    m = CostModel(LINEAR, 7.0)
    sweep = simulate_many(Policy.threshold(1), BernoulliSource(0.4, 3), 10, 500, m)
    assert sweep.mean_avg_total == 7.0
    assert sweep.stderr == 0.0
    assert sweep.avg_total.tolist() == [7.0] * 10
    assert sweep.avg_staleness.tolist() == [0.0] * 10


def test_no_updates_charges_age_equals_slot():
    arr = ArrivalSequence.from_slots([1, 2, 3])
    res = simulate(Policy.scheduled([]), arr, CostModel(LINEAR, 100.0))
    assert res.total_staleness == 6.0
    assert res.n_updates == 0
    assert res.avg_total == 2.0


def test_update_slot_requests_served_fresh():
    # Update fires in the same slot as a request: the request costs nothing.
    arr = ArrivalSequence.from_slots([4, 9])
    res = simulate(Policy.scheduled([4]), arr, CostModel(LINEAR, 2.5))
    assert res.request_charges.tolist() == [0.0, 5.0]
    assert res.total == 2.5 + 5.0


def test_periodic_pays_on_request_free_slots():
    arr = ArrivalSequence.from_slots([5], horizon=9)
    res = simulate(Policy.periodic(3), arr, CostModel(LINEAR, 1.0))
    # updates at 3, 6, 9; the request at 5 is charged age 5 - 3 = 2
    assert res.update_slots.tolist() == [3, 6, 9]
    assert res.total == pytest.approx(3.0 + 2.0)


def test_periodic_every_slot_closed_form():
    m = CostModel(LINEAR, 50.0)
    assert periodic_avg_cost(0.5, m, 1) == 100.0
    sweep = simulate_many(Policy.periodic(1), BernoulliSource(0.5, 11), 30, 2000, m)
    assert abs(sweep.mean_avg_total - 100.0) <= 3.0 * sweep.stderr


def test_monte_carlo_matches_closed_form():
    m = CostModel(LINEAR, 100.0)
    sweep = simulate_many(Policy.threshold(37), BernoulliSource(0.1, 42), 100, 10_000, m)
    analytic = threshold_avg_cost(0.1, m, 37)
    assert analytic == pytest.approx(36.2174, abs=1e-3)
    assert abs(sweep.mean_avg_total - analytic) <= 3.0 * sweep.stderr


@pytest.mark.parametrize(
    "rate,p,tau",
    [(0.1, 100.0, 37), (0.5, 50.0, 13), (0.9, 10.0, 4)],
)
def test_long_run_agreement_with_closed_form(rate, p, tau):
    m = CostModel(LINEAR, p)
    arr = generate_bernoulli(BernoulliSource(rate, 1234), n_requests=10**6)
    res = simulate(Policy.threshold(tau), arr, m)
    analytic = threshold_avg_cost(rate, m, tau)
    assert abs(res.avg_total - analytic) / analytic < 0.005


def test_simulate_many_determinism():
    m = CostModel(LINEAR, 20.0)
    a = simulate_many(Policy.threshold(5), BernoulliSource(0.3, 9), 5, 300, m)
    b = simulate_many(Policy.threshold(5), BernoulliSource(0.3, 9), 5, 300, m)
    assert a.mean_avg_total == b.mean_avg_total
    assert a.stderr == b.stderr


def test_renewal_stats_threshold_two():
    m = CostModel(LINEAR, 10.0)
    arr = generate_bernoulli(BernoulliSource(0.5, 77), n_requests=200_000)
    res = simulate(Policy.threshold(2), arr, m)
    stats = renewal_stats(res)
    assert stats.mean_requests_per_interval == pytest.approx(1.5, rel=0.02)


def test_renewal_stats_threshold_one_exact():
    m = CostModel(LINEAR, 4.0)
    arr = generate_bernoulli(BernoulliSource(0.7, 5), n_requests=500)
    res = simulate(Policy.threshold(1), arr, m)
    stats = renewal_stats(res)
    assert stats.mean_requests_per_interval == 1.0
    assert stats.mean_cost_per_interval == 4.0


def test_renewal_stats_mean_cost():
    m = CostModel(LINEAR, 10.0)
    arr = generate_bernoulli(BernoulliSource(0.5, 31), n_requests=200_000)
    res = simulate(Policy.threshold(3), arr, m)
    stats = renewal_stats(res)
    assert stats.mean_cost_per_interval == pytest.approx(11.5, rel=0.02)
    ratio = stats.mean_cost_per_interval / stats.mean_requests_per_interval
    assert ratio == pytest.approx(threshold_avg_cost(0.5, m, 3), rel=0.02)


def test_no_completed_interval():
    arr = ArrivalSequence.from_slots([1, 2])
    res = simulate(Policy.scheduled([]), arr, CostModel(LINEAR, 5.0))
    with pytest.raises(NoCompletedInterval):
        renewal_stats(res)


def test_trailing_interval_excluded_but_charged():
    # Update at 4 closes one interval; requests at 6 and 7 trail it.
    arr = ArrivalSequence.from_slots([4, 6, 7])
    res = simulate(Policy.scheduled([4]), arr, CostModel(LINEAR, 2.0))
    stats = renewal_stats(res)
    assert stats.mean_requests_per_interval == 1.0
    assert stats.mean_cost_per_interval == 2.0
    assert res.total == pytest.approx(2.0 + 2.0 + 3.0)


def test_renewal_stats_update_before_first_request():
    # The only completed interval is (0, 3]: no request, just the update.
    arr = ArrivalSequence.from_slots([5])
    res = simulate(Policy.periodic(3), arr, CostModel(LINEAR, 4.5))
    stats = renewal_stats(res)
    assert stats.mean_requests_per_interval == 0.0
    assert stats.mean_cost_per_interval == 4.5


def test_renewal_interval_independence():
    m = CostModel(LINEAR, 10.0)
    arr = generate_bernoulli(BernoulliSource(0.5, 20), n_requests=220_000)
    res = simulate(Policy.threshold(3), arr, m)
    ups = res.update_slots
    assert ups.size >= 100_000
    lengths = np.diff(np.concatenate(([0], ups))).astype(np.float64)
    x = lengths[:-1] - lengths.mean()
    y = lengths[1:] - lengths.mean()
    rho = float(np.dot(x, y) / np.sqrt(np.dot(x, x) * np.dot(y, y)))
    assert abs(rho) < 0.02


@st.composite
def any_policy_case(draw):
    horizon = draw(st.integers(min_value=4, max_value=50))
    rate = draw(st.floats(min_value=0.1, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    arr = bernoulli_path(rate, seed, horizon)
    kind = draw(st.sampled_from(["threshold", "naive", "periodic", "scheduled"]))
    if kind == "threshold":
        pol = Policy.threshold(draw(st.integers(min_value=1, max_value=horizon + 2)))
    elif kind == "naive":
        pol = Policy.naive()
    elif kind == "periodic":
        pol = Policy.periodic(draw(st.integers(min_value=1, max_value=horizon)))
    else:
        pol = Policy.scheduled(sorted(draw(st.sets(st.integers(min_value=1, max_value=horizon), max_size=8))))
    return pol, arr, draw(cost_models(draw(st.floats(min_value=0.5, max_value=25.0))))


@settings(max_examples=150, deadline=None)
@given(any_policy_case())
def test_engine_matches_slotwise_reference_replay(case):
    pol, arr, model = case
    if arr is None:
        return
    res = simulate(pol, arr, model)
    ref_total, ref_stale, ref_update, ref_ups = reference_replay(pol, arr, model)
    # Both sum the staleness in request order, so they agree exactly.
    assert res.total_staleness == ref_stale
    assert res.total == ref_total
    assert res.update_slots.tolist() == ref_ups
    assert res.updates_through.tolist() == [bisect.bisect_right(ref_ups, t) for t in arr.slots.tolist()]


@settings(max_examples=80, deadline=None)
@given(any_policy_case())
def test_cost_conservation_from_event_log(case):
    pol, arr, model = case
    if arr is None:
        return
    res = simulate(pol, arr, model)
    recomputed = float(np.dot(res.request_charges, arr.counts)) + model.update_cost * len(res.update_slots)
    assert res.total == pytest.approx(recomputed, rel=1e-12, abs=1e-12)
    assert res.avg_total == pytest.approx(res.avg_staleness + res.avg_update, rel=1e-12)


def test_charges_capped_below_threshold_penalty():
    m = CostModel(LINEAR, 50.0)
    tau = 13
    assert tau <= cap_threshold(m)
    arr = generate_bernoulli(BernoulliSource(0.5, 8), n_requests=5000)
    res = simulate(Policy.threshold(tau), arr, m)
    nonzero = res.request_charges[res.request_charges > 0]
    assert np.all(nonzero < m.staleness(tau))
    assert m.staleness(tau) <= m.update_cost


def test_reactive_replay_with_multi_request_slots():
    # Two requests share slot 6: both are charged the same age, and a single
    # update there serves them both.
    arr = ArrivalSequence.from_counts({2: 1, 6: 2, 9: 1})
    m = CostModel(LINEAR, 5.0)
    res = simulate(Policy.threshold(4), arr, m)
    # ages seen: 2 (skip), 6 (update), 3 (skip)
    assert res.update_slots.tolist() == [6]
    assert res.request_charges.tolist() == [2.0, 0.0, 3.0]
    assert res.total == pytest.approx(2.0 + 5.0 + 3.0)
    assert res.n_requests == 4
    stats = renewal_stats(res)
    assert stats.mean_requests_per_interval == 3.0
    assert stats.mean_cost_per_interval == 5.0 + 2.0


@settings(max_examples=60, deadline=None)
@given(any_policy_case(), st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=10**6))
def test_engine_matches_reference_with_request_collisions(case, mult, pick):
    pol, arr, model = case
    if arr is None:
        return
    counts = arr.counts.copy()
    counts[pick % counts.size] = mult
    heavy = ArrivalSequence(horizon=arr.horizon, slots=arr.slots, counts=counts)
    res = simulate(pol, heavy, model)
    ref_total, ref_stale, _, ref_ups = reference_replay(pol, heavy, model)
    assert res.total_staleness == ref_stale
    assert res.total == ref_total
    assert res.update_slots.tolist() == ref_ups
    assert res.updates_through.tolist() == [bisect.bisect_right(ref_ups, t) for t in heavy.slots.tolist()]


@st.composite
def reactive_case(draw):
    """Occupied slots in runs and gaps, 1-3 requests each, and a threshold up to past the horizon,
    as far as int64 holds: a policy refuses a larger one."""
    gaps = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=40))
    slots = np.cumsum(gaps, dtype=np.int64)
    counts = np.array(draw(st.lists(st.integers(min_value=1, max_value=3), min_size=len(gaps), max_size=len(gaps))))
    horizon = int(slots[-1]) + draw(st.integers(min_value=0, max_value=4))
    tau = draw(
        st.one_of(
            st.integers(min_value=1, max_value=horizon + 3),
            st.sampled_from([horizon, horizon + 1, 2**63 - 1]),
        )
    )
    return ArrivalSequence(horizon=horizon, slots=slots, counts=counts), tau


def _same_array(got, want):
    assert got.dtype == want.dtype == np.int64
    assert got.tolist() == want.tolist()


def _same_schedule(schedule, arr, want):
    ups, through = schedule
    _same_array(ups, want)
    assert through.tolist() == np.searchsorted(want, arr.slots, side="right").tolist()


# Every slot occupied: the successor jump is exactly tau requests, so tau =
# _DOUBLE_BELOW walks the successors and tau = _DOUBLE_BELOW - 1 doubles once.
DENSE = ArrivalSequence.from_slots(range(1, 3001))
SPARSE = generate_bernoulli(BernoulliSource(0.1, 0), n_requests=3000)


@settings(max_examples=300, deadline=None)
@given(reactive_case())
@example((ArrivalSequence.from_counts({3: 2}), 3))
@example((ArrivalSequence.from_counts({3: 2}), 4))
@example((ArrivalSequence.from_counts({1: 1, 2: 3}, horizon=5), 1))
@example((ArrivalSequence.from_counts({2: 1, 7: 2}, horizon=7), 5))
@example((ArrivalSequence.from_counts({2: 1, 7: 2}, horizon=7), 7))
@example((ArrivalSequence.from_counts({2: 1, 7: 2}, horizon=7), 8))
@example((DENSE, 1))
@example((DENSE, 2))
@example((SPARSE, 1))
@example((SPARSE, 2))
@example((DENSE, _DOUBLE_BELOW - 1))
@example((DENSE, _DOUBLE_BELOW))
def test_threshold_schedule_matches_bisect_oracle(case):
    arr, tau = case
    got = _update_schedule(Policy.threshold(tau), arr, CostModel(LINEAR, 5.0))
    _same_schedule(got, arr, bisect_threshold_schedule(arr, tau))


def _successors(arr, tau):
    shifted = arr.slots - tau
    return np.searchsorted(shifted, arr.slots), int(np.searchsorted(shifted, 0))


def test_switch_examples_take_both_branches():
    # The examples above pin the doubling levels on each side of the switch.
    assert [_doubling_levels(_successors(DENSE, tau)[0]) for tau in (1, 2, _DOUBLE_BELOW - 1, _DOUBLE_BELOW)] == [
        4, 3, 1, 0]
    assert _doubling_levels(_successors(SPARSE, 1)[0]) == 4


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=4 * _DOUBLE_BELOW),
)
def test_every_doubling_level_matches_bisect_oracle(n, max_gap, seed, tau):
    # Up to 3,000 occupied slots holding 1-3 requests each, and thresholds
    # from 1 to past the switch; each branch is forced on its own.
    rng = np.random.default_rng(seed)
    slots = np.cumsum(rng.integers(1, max_gap + 1, size=n), dtype=np.int64)
    arr = ArrivalSequence(horizon=int(slots[-1]), slots=slots, counts=rng.integers(1, 4, size=n))
    want = bisect_threshold_schedule(arr, tau)
    if tau <= slots[-1]:
        succ, start = _successors(arr, tau)
        for levels in range(6):
            _same_array(slots[_follow(succ, start, levels)], want)
    model = CostModel(LINEAR, float(tau))
    for policy, threshold in ((Policy.threshold(tau), tau), (Policy.naive(), cap_threshold(model))):
        res = simulate(policy, arr, model)
        _same_array(res.update_slots, bisect_threshold_schedule(arr, threshold))
        assert res.updates_through.tolist() == np.searchsorted(res.update_slots, slots, side="right").tolist()


@settings(max_examples=150, deadline=None)
@given(reactive_case(), st.floats(min_value=0.5, max_value=40.0), st.data())
def test_naive_schedule_matches_bisect_oracle(case, p, data):
    arr, _ = case
    model = data.draw(cost_models(p))
    want = bisect_threshold_schedule(arr, cap_threshold(model))
    _same_schedule(_update_schedule(Policy.naive(), arr, model), arr, want)


@settings(max_examples=150, deadline=None)
@given(
    st.sets(st.integers(min_value=2**62 - 8, max_value=2**63 - 1), min_size=1, max_size=12),
    st.sets(st.integers(min_value=1, max_value=50), max_size=4),
    st.integers(min_value=2**62, max_value=2**63 - 1),
)
@example({2**62, 2**62 + 1, 2**63 - 1}, set(), 2**62)
def test_threshold_schedule_near_int64_limit(high, low, tau):
    # A slot plus tau can pass 2^63 - 1 here; the oracle adds Python ints. A
    # successor that wrapped would point backwards, and the walk would never end.
    arr = ArrivalSequence.from_slots(sorted(low | high))
    with alarm(5.0):
        got = _update_schedule(Policy.threshold(tau), arr, CostModel(LINEAR, 5.0))
    _same_schedule(got, arr, bisect_threshold_schedule(arr, tau))


def test_sweep_result_mean_matches_per_run():
    m = CostModel(LINEAR, 15.0)
    sweep = simulate_many(Policy.threshold(4), BernoulliSource(0.6, 2), 8, 400, m)
    assert sweep.avg_total.shape == sweep.avg_staleness.shape == sweep.avg_update.shape == (8,)
    assert sweep.mean_avg_total == pytest.approx(float(sweep.avg_total.mean()), rel=1e-15)
    assert sweep.mean_avg_staleness == pytest.approx(float(sweep.avg_staleness.mean()), rel=1e-15)
    assert sweep.mean_avg_update == pytest.approx(float(sweep.avg_update.mean()), rel=1e-15)
    np.testing.assert_allclose(sweep.avg_total, sweep.avg_staleness + sweep.avg_update, rtol=1e-12)


def test_simulate_many_seed_scheme():
    # Run i replays its own arrivals drawn from derive_seed(seed, i); callers
    # that need more than the averages (the acceptance suite's renewal
    # ratios) rebuild the same runs this way.
    m = CostModel(LINEAR, 15.0)
    pol, rate, seed, n_runs, n_requests = Policy.threshold(4), 0.6, 2, 8, 400
    sweep = simulate_many(pol, BernoulliSource(rate, seed), n_runs, n_requests, m)
    paths = [generate_bernoulli(BernoulliSource(rate, derive_seed(seed, i)), n_requests=n_requests) for i in range(n_runs)]
    rebuilt = SweepResult.of_averages([simulate(pol, p, m).averages for p in paths])
    for field in ("avg_total", "avg_staleness", "avg_update"):
        assert getattr(sweep, field).tobytes() == getattr(rebuilt, field).tobytes()
    assert (sweep.mean_avg_total, sweep.stderr) == (rebuilt.mean_avg_total, rebuilt.stderr)


def test_simulate_many_keeps_only_averages():
    # 20 runs of 1e4 requests: each replay holds ~240 kB of arrivals and
    # charges, which must be gone once simulate_many returns.
    m = CostModel(LINEAR, 100.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sweep = simulate_many(Policy.threshold(37), BernoulliSource(0.1, 42), 20, 10_000, m)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000
    assert sweep.mean_avg_total > 0


def test_sweep_needs_a_run():
    with pytest.raises(ValueError):
        SweepResult.of_averages([])
    with pytest.raises(ValueError):
        simulate_many(Policy.threshold(2), BernoulliSource(0.5, 1), 0, 100, CostModel(LINEAR, 5.0))


def _force_cpus(monkeypatch, n):
    monkeypatch.setattr(engine, "_usable_cpus", lambda: n)
    return min(engine._MAX_WORKERS, n)


def test_ordered_map_keeps_input_order_when_tasks_finish_out_of_order(monkeypatch):
    _force_cpus(monkeypatch, 4)
    finished = []

    def late_first(x):
        time.sleep(0.02 * (7 - x))
        finished.append(x)
        return x * x

    assert list(ordered_map(late_first, range(8))) == [x * x for x in range(8)]
    assert finished != sorted(finished)


def test_ordered_map_pulls_input_lazily(monkeypatch):
    workers = _force_cpus(monkeypatch, 4)
    calls = []

    def record(x):
        calls.append(x)
        return x

    def endless(pulled, limit):
        for x in itertools.count():
            pulled.append(x)
            assert x < limit, "pulled far ahead of the results taken"  # fails fast, not out of memory
            yield x

    for k in (1, 5, 20):
        calls.clear()
        pulled = []
        results = ordered_map(record, endless(pulled, 1000))
        assert list(itertools.islice(results, k)) == list(range(k))
        results.close()
        assert len(calls) <= len(pulled) <= k + 2 * workers


def test_ordered_map_raises_in_order_and_cancels_pending_tasks(monkeypatch):
    _force_cpus(monkeypatch, 2)  # four tasks in flight at most
    calls = []

    def fail_at_two(x):
        calls.append(x)
        if x == 2:
            raise ValueError("item 2")
        if x > 2:
            time.sleep(0.2)
        return x

    start = threading.active_count()
    results = ordered_map(fail_at_two, itertools.count())
    assert [next(results), next(results)] == [0, 1]
    with pytest.raises(ValueError, match="item 2"):
        next(results)
    # Items 3 to 5 were in flight when item 2 failed. Two workers were free
    # for 3 and 4 at most, which sleep; the pool is shut down well before
    # either wakes, so 5 was cancelled, not started.
    assert {0, 1, 2} <= set(calls) <= {0, 1, 2, 3, 4}
    assert threading.active_count() == start


def test_ordered_map_tasks_see_the_callers_errstate(monkeypatch):
    _force_cpus(monkeypatch, 4)
    main = threading.get_ident()
    with np.errstate(over="ignore", invalid="raise"):
        seen = list(ordered_map(lambda _: (np.geterr()["over"], np.geterr()["invalid"], threading.get_ident()),
                                range(16)))
    assert {(over, invalid) for over, invalid, _ in seen} == {("ignore", "raise")}
    assert {ident for _, _, ident in seen} - {main}  # the pool ran them


def test_ordered_map_leaves_no_thread_running(monkeypatch):
    _force_cpus(monkeypatch, 4)
    start = threading.active_count()
    assert list(ordered_map(abs, range(-50, 50))) == [abs(x) for x in range(-50, 50)]
    assert threading.active_count() == start

    def fail(x):
        if x == 30:
            raise RuntimeError("boom")
        return x

    with pytest.raises(RuntimeError):
        list(ordered_map(fail, range(100)))
    assert threading.active_count() == start
    half_read = ordered_map(abs, range(100))
    assert list(itertools.islice(half_read, 50)) == list(range(50))
    assert threading.active_count() > start
    half_read.close()
    assert threading.active_count() == start


@pytest.mark.parametrize("cpus,items", [(1, range(10)), (4, [7]), (4, [])])
def test_ordered_map_runs_inline_on_one_cpu_or_one_item(monkeypatch, cpus, items):
    _force_cpus(monkeypatch, cpus)
    start = threading.active_count()
    results = ordered_map(lambda x: (x, threading.get_ident(), threading.active_count()), items)
    assert list(results) == [(x, threading.get_ident(), start) for x in items]


def test_simulate_many_is_the_same_on_any_number_of_threads(monkeypatch):
    m = CostModel(LINEAR, 40.0)
    sweeps = {}
    for cpus in (1, 4):
        _force_cpus(monkeypatch, cpus)
        threads = set()
        real_simulate = experiments.simulate

        def spy(*args):
            threads.add(threading.get_ident())
            return real_simulate(*args)

        monkeypatch.setattr(experiments, "simulate", spy)
        sweeps[cpus] = simulate_many(Policy.threshold(6), BernoulliSource(0.3, 17), 40, 2_000, m)
        monkeypatch.setattr(experiments, "simulate", real_simulate)
        assert (threads == {threading.get_ident()}) == (cpus == 1)
    for field in ("avg_total", "avg_staleness", "avg_update"):
        assert np.array_equal(getattr(sweeps[1], field), getattr(sweeps[4], field))
    assert (sweeps[1].mean_avg_total, sweeps[1].stderr) == (sweeps[4].mean_avg_total, sweeps[4].stderr)
