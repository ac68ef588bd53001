import random
import tracemalloc
from unittest import mock

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
    offline_optimal_many,
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


@settings(max_examples=100, deadline=None)
@given(small_instance())
# (5,) and (10,) tie at cost 14 in different blocks: the earlier one wins.
@example((ArrivalSequence.from_slots([2, 5, 10]), CostModel(LINEAR, 7.0)))
def test_brute_force_blocks_past_the_prefix_equal_replaying_every_schedule(case):
    # With a prefix of 2 requests, each of up to 6 later requests doubles
    # the blocks, and each block's best is compared with the others'.
    arr, model = case
    with mock.patch.object(agecost.offline, "_PREFIX_REQUESTS", 2):
        assert brute_force_optimal(arr, model) == replay_every_schedule(arr, model)


def test_brute_force_memory_is_bounded_at_its_limit():
    # 2^22 schedules: the prefix arrays hold 2^16 masks, and the blocks past
    # them one staleness sum per later request.
    rng = np.random.default_rng(22)
    slots = np.sort(rng.choice(np.arange(1, 90), size=22, replace=False))
    arr = ArrivalSequence.from_counts({int(s): int(rng.integers(1, 4)) for s in slots})
    model = CostModel(LINEAR, 7.5)
    tracemalloc.start()
    try:
        sol = brute_force_optimal(arr, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert sol.total_cost == pytest.approx(offline_optimal(arr, model).total_cost, rel=1e-9)


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


def test_dp_memory_is_bounded_in_a_mixed_batch():
    # The W = N path of the test above shares its batch with three narrow
    # paths, so every path's block spans the wide window.
    wide = generate_bernoulli(BernoulliSource(0.5, 9), n_requests=5000)
    narrow = [generate_bernoulli(BernoulliSource(0.5, seed), n_requests=5000) for seed in (1, 2, 3)]
    paths = [narrow[0], wide, *narrow[1:]]
    models = [CostModel(LINEAR, p) for p in (5.0, 1e5, 3.0, 25.0)]
    tracemalloc.start()
    try:
        sols = offline_optimal_many(paths, models)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert sols[1] == offline_optimal(wide, models[1])



def test_a_much_wider_path_is_solved_apart_and_a_rate_sweep_together(monkeypatch):
    # A batch shares its widest window, so a path that reaches back over
    # every request would make the narrow ones sum charges nothing reads;
    # the paths of a rate sweep at one p differ too little to be worth a
    # second loop.
    groups = []
    solve = agecost.offline._solve
    monkeypatch.setattr(agecost.offline, "_solve", lambda paths, *rest: groups.append(len(paths)) or solve(paths, *rest))
    wide = generate_bernoulli(BernoulliSource(0.3, 9), n_requests=600)
    narrow = [generate_bernoulli(BernoulliSource(0.3, seed), n_requests=600) for seed in (1, 2, 3)]
    paths, models = [narrow[0], wide, *narrow[1:]], [CostModel(LINEAR, p) for p in (5.0, 1e5, 3.0, 6.0)]
    sols = offline_optimal_many(paths, models)
    assert groups == [3, 1]
    assert sols == [offline_optimal(a, m) for a, m in zip(paths, models)]
    groups.clear()
    sweep = [generate_bernoulli(BernoulliSource(rate / 10, rate), n_requests=600) for rate in range(1, 10)]
    offline_optimal_many(sweep, [CostModel(LINEAR, 50.0)] * 9)
    assert groups == [9]

_KINDS = ("linear", "quadratic", "table", "piecewise")


@st.composite
def dp_batch(draw, kind=None, requests=(1, 120)):
    """1-6 paths of ``requests`` occupied slots (a range), 1-12 slots apart,
    with 1-3 requests each, under one penalty of the given (or a drawn) kind
    and an update cost per path. Half the time one path's window covers every
    earlier request: its cost is the penalty at the longest horizon, or
    the held value of a table or piecewise penalty."""
    kind = kind or draw(st.sampled_from(_KINDS))
    size = draw(st.integers(min_value=1, max_value=6))
    paths = []
    for _ in range(size):
        n = draw(st.integers(*requests))
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
        slots = np.cumsum(rng.integers(1, 13, size=n))
        paths.append(ArrivalSequence(horizon=int(slots[-1]), slots=slots, counts=rng.integers(1, 4, size=n)))
    costs = draw(st.lists(st.one_of(st.integers(min_value=1, max_value=60).map(float),
                                    st.floats(min_value=0.25, max_value=200.0)), min_size=size, max_size=size))
    if kind in ("linear", "quadratic"):
        f = getattr(StalenessFn, kind)()
        top = float(f(max(a.horizon for a in paths)))
    else:
        steps = draw(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=8))
        values = np.cumsum(steps).tolist()
        values[-1] += max(costs)  # the held value reaches every path's cost
        top = values[-1]
        if kind == "table":
            f = StalenessFn.from_table([0.0, *values])
        else:
            ages = sorted(draw(st.sets(st.integers(min_value=1, max_value=30), min_size=len(values),
                                       max_size=len(values))))
            f = StalenessFn.piecewise(zip(ages, values))
    if draw(st.booleans()):  # one wide path
        costs[draw(st.integers(min_value=0, max_value=size - 1))] = top
    return paths, [CostModel(f, p) for p in costs]


def _wide_between_narrow():
    paths = [generate_bernoulli(BernoulliSource(0.3, seed), n_requests=n) for seed, n in ((1, 90), (2, 120), (3, 60))]
    return paths, [CostModel(LINEAR, p) for p in (2.0, 1e5, 7.5)]


@settings(max_examples=120, deadline=None)
@given(dp_batch(), st.randoms(use_true_random=False))
@example(_wide_between_narrow(), random.Random(0))
def test_a_batch_solves_each_path_as_the_quadratic_dp_does(batch, rnd):
    # Each member equals the O(N^2) oracle and its own solve as a batch of
    # one, whatever the batch's order and other members.
    paths, models = batch
    sols = offline_optimal_many(paths, models)
    for arr, model, sol in zip(paths, models, sols):
        assert sol == quadratic_offline_dp(arr, model)
        assert sol == offline_optimal(arr, model)
    order = list(range(len(paths)))
    rnd.shuffle(order)
    assert offline_optimal_many([paths[k] for k in order], [models[k] for k in order]) == [sols[k] for k in order]
    assert offline_optimal_many(paths[:1] * 2 + paths, models[:1] * 2 + models)[2:] == sols


@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_every_penalty_kind_batches_with_a_wide_path(kind, data):
    paths, models = data.draw(dp_batch(kind))
    assert offline_optimal_many(paths, models) == [quadratic_offline_dp(a, m) for a, m in zip(paths, models)]


@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_dp_totals_equal_the_exhaustive_oracle_up_to_18_requests(kind, data):
    # On an exact tie the DP takes the earliest update point and the oracle
    # the fewest updates, so only the totals must agree.
    paths, models = data.draw(dp_batch(kind, requests=(13, 18)))
    batch = offline_optimal_many(paths, models)
    for arr, model, sol in zip(paths, models, batch):
        exact = brute_force_optimal(arr, model).total_cost
        assert sol.total_cost == pytest.approx(exact, rel=1e-9)
        assert offline_optimal(arr, model).total_cost == pytest.approx(exact, rel=1e-9)


def test_a_batch_refuses_mixed_penalties_and_mismatched_lengths():
    arr = ArrivalSequence.from_slots([1, 4])
    with pytest.raises(ValueError, match="share one staleness function"):
        offline_optimal_many([arr, arr], [CostModel(LINEAR, 2.0), CostModel(StalenessFn.quadratic(), 2.0)])
    with pytest.raises(ValueError, match="2 paths but 1 cost models"):
        offline_optimal_many([arr, arr], [CostModel(LINEAR, 2.0)])
    assert offline_optimal_many([], []) == []


@pytest.mark.parametrize("top", [200, 2**16 + 40, 2**32 + 40, 2**40, 2**16 - 1, 2**32 - 1, 2**63 - 1])
def test_a_batch_holds_slots_and_counts_of_any_width(top):
    # Slots and counts are stored in the narrowest type that holds them:
    # these cross the 16- and 32-bit bounds or end at the largest slot of a
    # type, where the slot before point 0 equals the last slot; counts pass
    # 255.
    rng = np.random.default_rng(top % 97)
    paths = []
    for n, short in ((30, 7), (45, 0)):
        slots = np.cumsum(rng.integers(1, 5, size=n))
        slots += top - short - slots[-1]
        paths.append(ArrivalSequence(horizon=int(slots[-1]), slots=slots, counts=rng.integers(1, 400, size=n)))
    models = [CostModel(LINEAR, p) for p in (300.0, 2500.0)]
    assert offline_optimal_many(paths, models) == [quadratic_offline_dp(a, m) for a, m in zip(paths, models)]

