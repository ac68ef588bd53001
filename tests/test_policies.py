import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agecost import (
    ArrivalSequence,
    CostModel,
    NotReactive,
    Policy,
    StalenessFn,
    cap,
    cap_threshold,
    reactify,
    simulate,
)

from oracles import DecisionContext, ReactiveWithoutRequest, bernoulli_path, decide

LINEAR = StalenessFn.linear()


def ctx(aoi, slot=1, has_request=True):
    return DecisionContext(current_aoi=aoi, slot=slot, has_request=has_request)


def test_decide_threshold():
    m = CostModel(LINEAR, 10.0)
    assert decide(Policy.threshold(37), m, ctx(36)) is False
    assert decide(Policy.threshold(37), m, ctx(37)) is True


def test_decide_naive_matches_cap():
    m = CostModel(LINEAR, 100.0)
    assert decide(Policy.naive(), m, ctx(100)) is True
    assert decide(Policy.naive(), m, ctx(99)) is False


def test_decide_periodic_and_scheduled():
    m = CostModel(LINEAR, 10.0)
    assert decide(Policy.periodic(11), m, ctx(3, slot=22, has_request=False)) is True
    assert decide(Policy.periodic(11), m, ctx(3, slot=23, has_request=False)) is False
    sched = Policy.scheduled([4, 9])
    assert decide(sched, m, ctx(1, slot=9, has_request=False)) is True
    assert decide(sched, m, ctx(1, slot=5, has_request=False)) is False


def test_reactive_without_request():
    m = CostModel(LINEAR, 10.0)
    for pol in (Policy.threshold(2), Policy.naive()):
        with pytest.raises(ReactiveWithoutRequest):
            decide(pol, m, ctx(5, slot=3, has_request=False))


def test_policy_validation_and_config():
    with pytest.raises(ValueError):
        Policy.threshold(0)
    with pytest.raises(ValueError):
        Policy.periodic(0)
    with pytest.raises(ValueError):
        Policy("scheduled", update_slots=(5, 3))
    # int() used to truncate these: 2.5 read as 2 and True as 1.
    for make, bad in ((Policy.threshold, 2.5), (Policy.threshold, "3"), (Policy.periodic, True),
                      (Policy.scheduled, [1.7, 3.2]), (Policy.scheduled, [2, np.nan])):
        with pytest.raises(ValueError, match="must be an integer"):
            make(bad)
    # Slots are checked before they are sorted, which failed on [3, None]
    # with "'<' not supported between instances of 'NoneType' and 'int'".
    for make in (Policy.scheduled, lambda v: Policy.from_config({"kind": "scheduled", "slots": v})):
        for bad, named in (([3, None], "None"), ([3, "1"], "'1'"), ([[1], 3], r"\[1\]")):
            with pytest.raises(ValueError, match=rf"^each slot must be an integer, got {named}$"):
                make(bad)
    # The transforms used to truncate too: reactify read [2.5, 4.9] as (2, 5).
    arr, m = ArrivalSequence.from_slots([2, 3, 5, 9]), CostModel(LINEAR, 5.0)
    for call, bad in ((lambda: reactify([2.5, 4.9], arr), 2.5), (lambda: reactify([True], arr), True),
                      (lambda: cap([3.7], arr, m), 3.7), (lambda: cap([True], arr, m), True)):
        with pytest.raises(ValueError, match=f"each slot must be an integer, got {bad}"):
            call()
    # Integral floats and numpy integers name the same values.
    assert Policy.threshold(np.int64(4)) == Policy.threshold(4.0) == Policy.threshold(4)
    assert Policy.periodic(np.int32(3)) == Policy.periodic(3)
    assert Policy.scheduled(np.array([8, 2])) == Policy.scheduled([2.0, 8]) == Policy.scheduled([2, 8])
    for cfg in (
        {"kind": "threshold", "tau": 9},
        {"kind": "naive"},
        {"kind": "periodic", "d": 4},
        {"kind": "scheduled", "slots": [2, 8]},
    ):
        assert Policy.from_config(cfg).to_config() == cfg
        with pytest.raises(ValueError, match=r"^unknown fields \['extra'\]"):
            Policy.from_config({**cfg, "extra": 1})
    with pytest.raises(ValueError, match=r"^unknown fields \['d'\]"):
        Policy.from_config({"kind": "threshold", "tau": 3, "d": 4})


@pytest.mark.parametrize("kind", ["bogus", 7, None])
def test_an_unknown_policy_kind_is_refused(kind):
    with pytest.raises(ValueError, match=rf"^unknown policy kind {re.escape(repr(kind))}$"):
        Policy(kind)


def test_reactify_refuses_a_slot_outside_the_horizon():
    arr = ArrivalSequence.from_slots([3, 8], horizon=10)
    for bad in ([0, 3], [3, 11], [-2]):
        with pytest.raises(ValueError, match=r"^schedule slots must lie in \[1, horizon\]$"):
            reactify(bad, arr)
    assert reactify([1, 10], arr) == (3,)


def test_reactify_examples():
    arr = ArrivalSequence.from_slots([3, 8])
    assert reactify([5], arr) == (8,)
    assert reactify([3], arr) == (3,)
    assert reactify([4, 6], ArrivalSequence.from_slots([8])) == (8,)


def test_reactify_drops_updates_after_last_request():
    arr = ArrivalSequence.from_slots([3], horizon=10)
    assert reactify([7], arr) == ()


def test_reactify_merged_updates_dominate_by_replay():
    arr = ArrivalSequence.from_slots([8])
    m = CostModel(LINEAR, 3.0)
    before = simulate(Policy.scheduled([4, 6]), arr, m).total
    after = simulate(Policy.scheduled(reactify([4, 6], arr)), arr, m).total
    assert after <= before


def test_cap_examples():
    m5 = CostModel(LINEAR, 5.0)
    assert cap([], ArrivalSequence.from_slots([10]), m5) == (10,)
    assert cap([10], ArrivalSequence.from_slots([10]), m5) == (10,)
    assert cap([], ArrivalSequence.from_slots([2, 4, 9]), m5) == (9,)


def test_cap_requires_reactive_schedule():
    with pytest.raises(NotReactive):
        cap([5], ArrivalSequence.from_slots([3, 8]), CostModel(LINEAR, 5.0))


@st.composite
def schedule_and_path(draw):
    horizon = draw(st.integers(min_value=5, max_value=60))
    rate = draw(st.floats(min_value=0.05, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    arr = bernoulli_path(rate, seed, horizon)
    n_sched = draw(st.integers(min_value=0, max_value=horizon))
    sched = draw(st.sets(st.integers(min_value=1, max_value=horizon), max_size=n_sched))
    p = draw(st.floats(min_value=0.5, max_value=30.0))
    return sorted(sched), arr, CostModel(LINEAR, p)


@settings(max_examples=120, deadline=None)
@given(schedule_and_path())
def test_transform_idempotence_and_dominance(case):
    sched, arr, model = case
    if arr is None:
        return
    r1 = reactify(sched, arr)
    assert reactify(r1, arr) == r1
    c1 = cap(r1, arr, model)
    assert cap(c1, arr, model) == c1
    base = simulate(Policy.scheduled(sched), arr, model).total
    react = simulate(Policy.scheduled(r1), arr, model).total
    capped = simulate(Policy.scheduled(c1), arr, model).total
    assert react <= base + 1e-9
    assert capped <= react + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=1.0),
    st.integers(min_value=0, max_value=2**32),
    st.floats(min_value=0.5, max_value=40.0),
)
def test_threshold_at_cap_equals_naive(rate, seed, p):
    model = CostModel(LINEAR, p)
    arr = bernoulli_path(rate, seed, 80)
    if arr is None:
        return
    thr = simulate(Policy.threshold(cap_threshold(model)), arr, model)
    naive = simulate(Policy.naive(), arr, model)
    assert np.array_equal(thr.update_slots, naive.update_slots)
    assert thr.total == naive.total


@settings(max_examples=60, deadline=None)
@given(schedule_and_path())
def test_capped_schedule_charges_at_most_p(case):
    sched, arr, model = case
    if arr is None:
        return
    capped = cap(reactify(sched, arr), arr, model)
    res = simulate(Policy.scheduled(capped), arr, model)
    ups = set(res.update_slots.tolist())
    for slot, charge in zip(arr.slots.tolist(), res.request_charges.tolist()):
        if slot in ups:
            assert charge == 0.0
        else:
            assert charge < model.update_cost
