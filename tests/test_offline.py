import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import agecost.engine
import agecost.offline

from agecost import (
    ArrivalSequence,
    BernoulliSource,
    CostModel,
    Policy,
    StalenessFn,
    TooLarge,
    brute_force_optimal,
    cap,
    generate_bernoulli,
    offline_optimal,
    optimal_period,
    optimal_threshold,
    simulate,
)

from oracles import cost_models, quadratic_offline_dp, random_instance, replay_every_schedule

LINEAR = StalenessFn.linear()


def test_single_request_update_or_not():
    arr = ArrivalSequence.from_slots([1])
    cheap = offline_optimal(arr, CostModel(LINEAR, 0.5))
    assert cheap.update_slots == (1,)
    assert cheap.total_cost == 0.5
    dear = offline_optimal(arr, CostModel(LINEAR, 2.0))
    assert dear.update_slots == ()
    assert dear.total_cost == 1.0


def test_brute_force_extremes():
    arr = ArrivalSequence.from_slots([3, 8])
    never = brute_force_optimal(arr, CostModel(LINEAR, 100.0))
    assert never.update_slots == ()
    assert never.total_cost == 11.0
    always = brute_force_optimal(arr, CostModel(LINEAR, 1.0))
    assert always.update_slots == (3, 8)
    assert always.total_cost == 2.0


def test_three_request_enumeration_fixture():
    # Subset costs for requests {2,4,9}, p=4, linear penalty:
    # {}:15 {2}:13 {4}:11 {9}:10 {2,4}:13 {2,9}:10 {4,9}:10 {2,4,9}:12.
    # Minimum 10 is tied; fewest updates wins, so {9}.
    arr = ArrivalSequence.from_slots([2, 4, 9])
    m = CostModel(LINEAR, 4.0)
    bf = brute_force_optimal(arr, m)
    assert bf.total_cost == 10.0
    assert bf.update_slots == (9,)
    dp = offline_optimal(arr, m)
    assert dp.total_cost == 10.0


def test_brute_force_needs_no_engine_or_dp(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the exhaustive search must not call this")

    monkeypatch.setattr(agecost.engine, "simulate", forbidden)
    monkeypatch.setattr(agecost.offline, "offline_optimal", forbidden)
    bf = agecost.offline.brute_force_optimal(ArrivalSequence.from_slots([2, 4, 9]), CostModel(LINEAR, 4.0))
    assert bf.update_slots == (9,)
    assert bf.total_cost == 10.0


@st.composite
def small_instance(draw):
    """Up to 8 occupied slots with 1-3 requests each, and an integer update
    cost so that exact ties between schedules occur."""
    slots = draw(st.sets(st.integers(min_value=1, max_value=30), min_size=1, max_size=8))
    arr = ArrivalSequence.from_counts({s: draw(st.integers(min_value=1, max_value=3)) for s in slots})
    return arr, draw(cost_models(float(draw(st.integers(min_value=1, max_value=20)))))


@settings(max_examples=200, deadline=None)
@given(small_instance())
def test_brute_force_equals_replaying_every_schedule(case):
    arr, model = case
    assert brute_force_optimal(arr, model) == replay_every_schedule(arr, model)


def test_brute_force_size_limit():
    arr = ArrivalSequence.from_slots(range(1, 24))
    with pytest.raises(TooLarge):
        brute_force_optimal(arr, CostModel(LINEAR, 2.0))


def test_dp_agrees_with_brute_force_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        arr = random_instance(rng, max_requests=12)
        model = CostModel(LINEAR, float(rng.uniform(0.4, 12.0)))
        dp = offline_optimal(arr, model)
        bf = brute_force_optimal(arr, model)
        assert abs(dp.total_cost - bf.total_cost) <= 1e-9


def test_dp_handles_multi_request_slots():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n_slots = int(rng.integers(1, 9))
        slots = np.sort(rng.choice(np.arange(1, 25), size=n_slots, replace=False))
        counts = {int(s): int(rng.integers(1, 4)) for s in slots}
        arr = ArrivalSequence.from_counts(counts)
        model = CostModel(LINEAR, float(rng.uniform(0.5, 10.0)))
        dp = offline_optimal(arr, model)
        bf = brute_force_optimal(arr, model)
        assert abs(dp.total_cost - bf.total_cost) <= 1e-9


def test_replay_reproduces_dp_cost():
    arr = generate_bernoulli(BernoulliSource(0.4, 17), n_requests=400)
    model = CostModel(LINEAR, 9.0)
    sol = offline_optimal(arr, model)
    replay = simulate(Policy.scheduled(sol.update_slots), arr, model)
    assert replay.total == pytest.approx(sol.total_cost, rel=1e-12)
    assert sol.per_request_cost == pytest.approx(sol.total_cost / arr.n_requests)


def test_offline_lower_bounds_online_policies():
    rng = np.random.default_rng(99)
    model = CostModel(LINEAR, 12.0)
    for seed in range(10):
        arr = generate_bernoulli(BernoulliSource(0.5, seed), n_requests=300)
        off = offline_optimal(arr, model).total_cost
        tau = optimal_threshold(0.5, model).tau_star
        d = optimal_period(0.5, model).d_star
        sched = sorted(rng.choice(arr.slots, size=5, replace=False))
        for pol in (Policy.threshold(tau), Policy.naive(), Policy.periodic(d), Policy.scheduled(sched)):
            online = simulate(pol, arr, model).total
            assert off <= online + 1e-9


def test_offline_schedule_is_capped():
    # With a generic float update cost the optimum is unique, so the capping
    # transform must leave the DP schedule unchanged.
    rng = np.random.default_rng(42)
    for seed in range(25):
        arr = generate_bernoulli(BernoulliSource(0.45, seed), n_requests=60)
        model = CostModel(LINEAR, float(rng.uniform(2.0, 9.0)) + 0.137)
        sol = offline_optimal(arr, model)
        assert cap(sol.update_slots, arr, model) == sol.update_slots


@st.composite
def dp_instance(draw):
    """Up to 300 occupied slots, 1-12 slots apart, with 1-3 requests each,
    drawn from a seeded generator. The update cost is an integer (so
    f(Δ*) == p and exact ties occur) or any float."""
    n = draw(st.integers(min_value=1, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    slots = np.cumsum(rng.integers(1, 13, size=n))
    arr = ArrivalSequence(horizon=int(slots[-1]), slots=slots, counts=rng.integers(1, 4, size=n))
    p = draw(st.one_of(st.integers(min_value=1, max_value=60).map(float), st.floats(min_value=0.25, max_value=200.0)))
    return arr, draw(cost_models(p))


@settings(max_examples=300, deadline=None)
@given(dp_instance())
def test_windowed_dp_equals_quadratic_dp(case):
    arr, model = case
    assert offline_optimal(arr, model) == quadratic_offline_dp(arr, model)


@pytest.mark.parametrize("penalty", [
    StalenessFn.from_table([0.0, 1.0, 2.5, 5.0]),
    StalenessFn.piecewise([(3, 2.0), (7, 5.0)]),
])
def test_dp_held_penalty_at_update_cost(penalty):
    # f never exceeds p = 5, so no earlier update point is out of reach.
    model = CostModel(penalty, 5.0)
    base = generate_bernoulli(BernoulliSource(0.3, 4), n_requests=250)
    counts = np.random.default_rng(4).integers(1, 4, size=base.slots.size)
    arr = ArrivalSequence(horizon=base.horizon, slots=base.slots, counts=counts)
    assert agecost.offline._reach(model, arr.slots.size, arr.horizon) == arr.horizon
    assert offline_optimal(arr, model) == quadratic_offline_dp(arr, model)


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(st.floats(min_value=0.25, max_value=200.0), st.booleans()).flatmap(lambda a: cost_models(*a)),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=500),
)
# f(2) is the limit p·(1 + 3·2^-50) itself, f(3) one float above it.
@example(CostModel(StalenessFn.from_table([0.0, 1.0, 1.0 + 12 * 2.0**-52, 1.0 + 13 * 2.0**-52]), 1.0), 1, 5)
def test_dp_reach_is_the_last_age_within_the_limit(model, n, horizon):
    # The reach against a scan of f from age 0 up to the horizon.
    limit = model.update_cost * (1.0 + n * (n + 2) * 2.0**-50)
    last = 0
    while last < horizon and model.staleness(last + 1) <= limit:
        last += 1
    assert agecost.offline._reach(model, n, horizon) == last


def test_dp_keeps_tie_at_cap_age():
    # Linear penalty, p = 4 = Δ*: serving slot 4 stale at age Δ* costs
    # exactly one update, and the earlier update point wins each tie. A reach
    # of Δ* - 1 would update at slot 4 in both cases.
    model = CostModel(LINEAR, 4.0)
    for slots, expected in (([4], ()), ([4, 12], (12,))):
        arr = ArrivalSequence.from_slots(slots)
        sol = offline_optimal(arr, model)
        assert sol == quadratic_offline_dp(arr, model)
        assert sol.update_slots == expected


def test_dp_reach_covers_ties_in_rounding():
    # f(1) = p + 1 ulp: in exact arithmetic serving a request stale never
    # pays, but 1 + (1 + ulp) rounds to 2, a tie the earliest update point
    # wins. A reach of "f(a) <= p" would drop that point and pick (1, 2).
    model = CostModel(StalenessFn.from_table([0.0, 1.0 + 2.0**-52]), 1.0)
    arr = ArrivalSequence.from_slots([1, 2])
    sol = offline_optimal(arr, model)
    assert sol == quadratic_offline_dp(arr, model)
    assert sol.update_slots == (1,)


def test_dp_reach_is_measured_to_the_oldest_stale_request():
    # Slot 12 is 12 > Δ* = 10 slots after slot 0, but the update at 12
    # leaves only slot 1 stale, at age 1: the optimum updates once.
    sol = offline_optimal(ArrivalSequence.from_slots([1, 12]), CostModel(LINEAR, 10.0))
    assert (sol.update_slots, sol.total_cost) == ((12,), 11.0)


def test_dp_memory_is_bounded_by_the_block():
    # p far above the horizon puts every earlier request in reach (W = N);
    # a dense N x N array of charges would take ~200 MB.
    arr = generate_bernoulli(BernoulliSource(0.5, 9), n_requests=5000)
    model = CostModel(LINEAR, 1e5)
    tracemalloc.start()
    try:
        offline_optimal(arr, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
