from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agecost import (
    ArrivalSequence,
    BernoulliSource,
    CostModel,
    NoCompletedInterval,
    Policy,
    StalenessFn,
    cap_threshold,
    generate_bernoulli,
    periodic_avg_cost,
    renewal_stats,
    simulate,
    simulate_many,
    threshold_avg_cost,
)

from oracles import reference_replay

LINEAR = StalenessFn.linear()


def test_threshold_one_pays_update_cost_exactly():
    m = CostModel(LINEAR, 7.0)
    sweep = simulate_many(Policy.threshold(1), BernoulliSource(0.4, 3), 10, 500, m)
    assert sweep.mean_avg_total == 7.0
    assert sweep.stderr == 0.0
    for run in sweep.per_run:
        assert run.avg_total == 7.0
        assert run.avg_staleness == 0.0


def test_no_updates_charges_age_equals_slot():
    arr = ArrivalSequence.from_slots([1, 2, 3])
    res = simulate(Policy.scheduled([]), arr, CostModel(LINEAR, 100.0))
    assert res.breakdown.total_staleness == 6.0
    assert res.breakdown.n_updates == 0
    assert res.avg_total == 2.0


def test_update_slot_requests_served_fresh():
    # Update fires in the same slot as a request: the request costs nothing.
    arr = ArrivalSequence.from_slots([4, 9])
    res = simulate(Policy.scheduled([4]), arr, CostModel(LINEAR, 2.5))
    assert res.request_charges.tolist() == [0.0, 5.0]
    assert res.breakdown.total == 2.5 + 5.0


def test_periodic_pays_on_request_free_slots():
    arr = ArrivalSequence.from_slots([5], horizon=9)
    res = simulate(Policy.periodic(3), arr, CostModel(LINEAR, 1.0))
    # updates at 3, 6, 9; the request at 5 is charged age 5 - 3 = 2
    assert res.update_slots.tolist() == [3, 6, 9]
    assert res.breakdown.total == pytest.approx(3.0 + 2.0)


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
    assert res.breakdown.total == pytest.approx(2.0 + 2.0 + 3.0)


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
    arr = generate_bernoulli(BernoulliSource(rate, seed), horizon=horizon)
    kind = draw(st.sampled_from(["threshold", "naive", "periodic", "scheduled"]))
    if kind == "threshold":
        pol = Policy.threshold(draw(st.integers(min_value=1, max_value=horizon + 2)))
    elif kind == "naive":
        pol = Policy.naive()
    elif kind == "periodic":
        pol = Policy.periodic(draw(st.integers(min_value=1, max_value=horizon)))
    else:
        pol = Policy.scheduled(sorted(draw(st.sets(st.integers(min_value=1, max_value=horizon), max_size=8))))
    p = draw(st.floats(min_value=0.5, max_value=25.0))
    fn = draw(st.sampled_from(["linear", "quadratic", "table", "piecewise"]))
    if fn in ("linear", "quadratic"):
        return pol, arr, CostModel(getattr(StalenessFn, fn)(), p)
    # Non-integer, non-decreasing values whose last one reaches p.
    steps = draw(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=8))
    values = list(accumulate(steps))
    values[-1] += p
    if fn == "table":
        return pol, arr, CostModel(StalenessFn.from_table([0.0, *values]), p)
    starts = sorted(draw(st.sets(st.integers(min_value=1, max_value=30), min_size=len(values), max_size=len(values))))
    return pol, arr, CostModel(StalenessFn.piecewise(zip(starts, values)), p)


@settings(max_examples=150, deadline=None)
@given(any_policy_case())
def test_engine_matches_slotwise_reference_replay(case):
    pol, arr, model = case
    if arr.n_requests == 0:
        return
    res = simulate(pol, arr, model)
    ref_total, ref_stale, ref_update, ref_ups = reference_replay(pol, arr, model)
    # Both sum the staleness in request order, so they agree exactly.
    assert res.breakdown.total_staleness == ref_stale
    assert res.breakdown.total == ref_total
    assert res.update_slots.tolist() == ref_ups


@settings(max_examples=80, deadline=None)
@given(any_policy_case())
def test_cost_conservation_from_event_log(case):
    pol, arr, model = case
    if arr.n_requests == 0:
        return
    res = simulate(pol, arr, model)
    recomputed = float(np.dot(res.request_charges, arr.counts)) + model.update_cost * len(res.update_slots)
    assert res.breakdown.total == pytest.approx(recomputed, rel=1e-12, abs=1e-12)
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
    assert res.breakdown.total == pytest.approx(2.0 + 5.0 + 3.0)
    assert res.breakdown.n_requests == 4
    stats = renewal_stats(res)
    assert stats.mean_requests_per_interval == 3.0
    assert stats.mean_cost_per_interval == 5.0 + 2.0


@settings(max_examples=60, deadline=None)
@given(any_policy_case(), st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=10**6))
def test_engine_matches_reference_with_request_collisions(case, mult, pick):
    pol, arr, model = case
    if arr.n_requests == 0:
        return
    counts = arr.counts.copy()
    counts[pick % counts.size] = mult
    heavy = ArrivalSequence(horizon=arr.horizon, slots=arr.slots, counts=counts)
    res = simulate(pol, heavy, model)
    ref_total, ref_stale, _, ref_ups = reference_replay(pol, heavy, model)
    assert res.breakdown.total_staleness == ref_stale
    assert res.breakdown.total == ref_total
    assert res.update_slots.tolist() == ref_ups


def test_sweep_result_mean_matches_per_run():
    m = CostModel(LINEAR, 15.0)
    sweep = simulate_many(Policy.threshold(4), BernoulliSource(0.6, 2), 8, 400, m)
    per_run = np.array([r.avg_total for r in sweep.per_run])
    assert sweep.mean_avg_total == pytest.approx(float(per_run.mean()), rel=1e-15)
