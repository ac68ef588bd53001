import math
import timeit

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agecost import (
    CostModel,
    NoCapExists,
    StalenessFn,
    cap_threshold,
)

from oracles import alarm, aoi_step, cost_models

LINEAR = StalenessFn.linear()
QUADRATIC = StalenessFn.quadratic()


def test_aoi_step_examples():
    assert aoi_step(5, False) == 6
    assert aoi_step(5, True) == 0
    assert aoi_step(0, False) == 1


@given(st.integers(min_value=0, max_value=10**9))
def test_aoi_step_properties(a):
    assert aoi_step(a, False) == a + 1
    assert aoi_step(a, True) == 0


def test_staleness_examples():
    assert CostModel(LINEAR, 1.0).staleness(7) == 7.0
    assert CostModel(QUADRATIC, 1.0).staleness(4) == 16.0
    for fn in (LINEAR, QUADRATIC, StalenessFn.from_table([0, 2, 5]), StalenessFn.piecewise([(2, 1.0)])):
        assert fn(0) == 0.0


def test_cap_threshold_examples():
    assert cap_threshold(CostModel(LINEAR, 100.0)) == 100
    assert cap_threshold(CostModel(QUADRATIC, 100.0)) == 10
    assert cap_threshold(CostModel(StalenessFn.from_table([0, 0, 1, 5]), 4.0)) == 3


@given(st.floats(min_value=0.1, max_value=5000.0, allow_nan=False))
def test_cap_threshold_matches_direct_formulas(p):
    assert cap_threshold(CostModel(LINEAR, p)) == math.ceil(p)
    assert cap_threshold(CostModel(QUADRATIC, p)) == math.ceil(math.sqrt(p))


@given(st.floats(min_value=0.1, max_value=2000.0), st.booleans(), st.data())
def test_cap_threshold_is_the_first_crossing(p, held_at_p, data):
    # Δ* against a scan of f from age 1, over every penalty kind and over
    # penalties held at exactly p from their last age on.
    m = data.draw(cost_models(p, held_at_p))
    first = 1
    while m.staleness(first) < p:
        first += 1
    assert cap_threshold(m) == first


def test_cap_of_a_huge_update_cost_is_found_at_once():
    # A scan from age 1 would take ~45 min to reach 10^12.
    with alarm(1.0):
        assert cap_threshold(CostModel(LINEAR, 1e12)) == 10**12
        assert cap_threshold(CostModel(QUADRATIC, 1e24)) == 10**12
        assert cap_threshold(CostModel(StalenessFn.piecewise([(1, 0.5), (10**12, 7.0)]), 7.0)) == 10**12
        for held_from in (10**12, 2**60):
            with pytest.raises(NoCapExists, match="staleness tops out at 6.0 below update cost 7.0"):
                CostModel(StalenessFn.piecewise([(held_from, 6.0)]), 7.0)
        # Δ* may be 2^50 but no more: the optimizers' rounding bounds assume it.
        assert cap_threshold(CostModel(LINEAR, 2.0**50)) == 2**50
        assert cap_threshold(CostModel(QUADRATIC, 2.0**100)) == 2**50
        for staleness, p in ((LINEAR, 1.7e308), (LINEAR, 1e16), (QUADRATIC, 2.0**100 + 2.0**50),
                             (StalenessFn.piecewise([(2**60, 8.0)]), 7.0)):
            with pytest.raises(ValueError, match=r"^update_cost .* is too large") as exc:
                CostModel(staleness, p)
            assert type(exc.value) is ValueError


def test_no_cap_for_bounded_table():
    with pytest.raises(NoCapExists, match=r"staleness tops out at 2\.0 below update cost 5\.0"):
        CostModel(StalenessFn.from_table([0, 1, 2]), 5.0)
    with pytest.raises(NoCapExists, match=r"staleness tops out at 2\.0 below update cost 5\.0"):
        CostModel(StalenessFn.piecewise([(1, 0.5), (4, 2.0)]), 5.0)


def test_monotone_staleness_scan():
    models = [
        CostModel(LINEAR, 7.0),
        CostModel(QUADRATIC, 30.0),
        CostModel(StalenessFn.from_table([0, 0, 1, 1, 4, 9]), 3.0),
        CostModel(StalenessFn.piecewise([(2, 1.0), (5, 6.0)]), 4.0),
    ]
    for m in models:
        hi = 10 * cap_threshold(m)
        vals = m.staleness.eval_array(np.arange(0, hi + 1))
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] == 0.0
        assert np.all(vals >= 0)
        # scalar and vectorized evaluation agree
        probe = [0, 1, 2, hi // 2, hi]
        assert [m.staleness(a) for a in probe] == [float(vals[a]) for a in probe]


@pytest.mark.parametrize("fn", [
    LINEAR,
    QUADRATIC,
    StalenessFn.from_table([0, 0, 1, 1, 4, 9]),
    # Breakpoints past 2^53 round when compared as floats, but stay above
    # every float age.
    StalenessFn.piecewise([(2, 1.0), (5, 6.0), (2**53 - 1, 7.0), (2**53 + 1, 8.0), (2**62 + 1, 9.0)]),
], ids=["linear", "quadratic", "table", "piecewise"])
def test_float_ages_below_2_to_the_53_evaluate_as_their_integers(fn):
    ages = np.array([0, 1, 2, 4, 5, 6, 99, 2**26, 2**53 - 2, 2**53 - 1])
    as_floats = ages.astype(np.float64)
    assert fn.eval_array(as_floats).tolist() == fn.eval_array(ages).tolist() == [fn(int(a)) for a in ages]


def tuple_eval_array(fn, ages):
    """``fn.eval_array(ages)`` computed from the ``table`` and ``breakpoints``
    tuples themselves, the reference for the arrays the function builds once."""
    if fn.kind == "table":
        vals = np.asarray(fn.table, dtype=np.float64)
        return vals[np.minimum(ages, len(vals) - 1).astype(np.intp, copy=False)]
    starts = np.asarray([s for s, _ in fn.breakpoints])
    vals = np.concatenate(([0.0], [v for _, v in fn.breakpoints]))
    return vals[np.searchsorted(starts, ages, side="right")]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_table_and_piecewise_evaluate_bit_for_bit_as_their_tuples(data):
    fn = data.draw(cost_models(data.draw(st.floats(min_value=0.5, max_value=50.0)), held_at_p=True)).staleness
    ages = np.array(data.draw(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=50)))
    for spelled in (ages, ages.astype(np.float64)):
        got = fn.eval_array(spelled)
        assert got.dtype == np.float64 and got.tobytes() == tuple_eval_array(fn, spelled).tobytes()
        assert got.tolist() == [fn(int(a)) for a in ages]
        got[:] = -1.0  # a caller may write into the result


def test_built_arrays_are_read_only_and_outside_eq_hash_repr_and_config():
    for build in (lambda: StalenessFn.from_table([0, 1, 3]), lambda: StalenessFn.piecewise([(2, 1.0), (5, 6.0)])):
        fn, twin = build(), build()
        assert fn._values is not twin._values
        assert fn == twin and hash(fn) == hash(twin)
        assert not any(name in repr(fn) for name in ("_ages", "_values", "_starts"))
        assert set(CostModel(fn, 2.0).to_config()["staleness"]) <= {"kind", "values", "breakpoints"}
        for arr in (fn._values, fn._starts):
            if arr is not None:
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 1.0


@pytest.mark.parametrize("kind", ["table", "piecewise"])
def test_eval_array_cost_does_not_grow_with_the_table(kind):
    """Each call indexes arrays built once: 1e5 entries cost within 5x of 10."""
    ages = np.random.default_rng(3).integers(0, 2 * 10**5, 100)

    def best_time(n):
        values = np.arange(n, dtype=np.float64).tolist()
        fn = StalenessFn.from_table(values) if kind == "table" else StalenessFn.piecewise(zip(range(1, n + 1), values))
        return min(timeit.repeat(lambda: fn.eval_array(ages), number=20, repeat=15)) / 20

    assert best_time(10**5) < 5 * best_time(10)


@pytest.mark.parametrize("fn", [LINEAR, QUADRATIC, StalenessFn.from_table([0, 1]), StalenessFn.piecewise([(1, 1.0)])],
                         ids=["linear", "quadratic", "table", "piecewise"])
def test_a_negative_age_is_refused(fn):
    with pytest.raises(ValueError, match=r"^AoI must be non-negative, got -1$"):
        fn(-1)


def test_table_holds_last_value():
    fn = StalenessFn.from_table([0, 1, 3])
    assert fn(2) == 3.0
    assert fn(50) == 3.0
    assert fn.eval_array(np.array([2, 50])).tolist() == [3.0, 3.0]


def test_piecewise_steps():
    fn = StalenessFn.piecewise([(2, 1.0), (5, 6.0)])
    assert [fn(a) for a in (0, 1, 2, 4, 5, 99)] == [0.0, 0.0, 1.0, 1.0, 6.0, 6.0]


def test_staleness_validation():
    with pytest.raises(ValueError):
        StalenessFn.from_table([1, 2])  # f(0) != 0
    with pytest.raises(ValueError):
        StalenessFn.from_table([0, 3, 2])  # decreasing
    with pytest.raises(ValueError):
        StalenessFn.piecewise([(2, 5.0), (4, 1.0)])
    with pytest.raises(ValueError):
        CostModel(LINEAR, 0.0)
    with pytest.raises(ValueError):
        CostModel(LINEAR, -3.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="update_cost must be positive and finite"):
            CostModel(LINEAR, bad)
        with pytest.raises(ValueError, match=f"table staleness value at age 1 must be finite, got {bad}"):
            StalenessFn.from_table([0, bad, 5])
        with pytest.raises(ValueError, match=f"piecewise value at age 4 must be finite, got {bad}"):
            StalenessFn.piecewise([(2, 1.0), (4, bad)])
        with pytest.raises(ValueError, match=rf"breakpoint \[{bad}, 5.0\]: age must be an integer, got {bad}"):
            StalenessFn.piecewise([(2, 1.0), (bad, 5.0)])
    # The structure is checked before the contents are read: these used to
    # fail with "'NoneType' object is not iterable" or "not enough values to
    # unpack", naming no field.
    for make, message in (
        (lambda: StalenessFn.from_table(None), r"^table staleness values must be a list, got None$"),
        (lambda: StalenessFn.piecewise(None), r"^piecewise breakpoints must be a list, got None$"),
        (lambda: StalenessFn.piecewise([(1, 2.0), 5]), r"^each piecewise breakpoint must be a list, got 5$"),
        (lambda: StalenessFn.piecewise([(1, 2.0), [3]]),
         r"^each piecewise breakpoint must be an \[age, value\] pair, got \[3\]$"),
        (lambda: StalenessFn.piecewise([(1, 2.0, 3.0)]),
         r"^each piecewise breakpoint must be an \[age, value\] pair, got \[1, 2.0, 3.0\]$"),
        (lambda: CostModel.from_config({"staleness": {"kind": "table", "values": None}, "update_cost": 5.0}),
         r"^table staleness values must be a list, got None$"),
        (lambda: CostModel.from_config({"staleness": {"kind": "piecewise"}, "update_cost": 5.0}),
         r"^piecewise breakpoints must be a list, got None$"),
        (lambda: CostModel.from_config({"staleness": {"kind": "piecewise", "breakpoints": [[4]]}, "update_cost": 5.0}),
         r"^each piecewise breakpoint must be an \[age, value\] pair, got \[4\]$"),
    ):
        with pytest.raises(ValueError, match=message):
            make()


def test_piecewise_ages_must_be_integers():
    # int() used to truncate these: 2.5 read as age 2 and True as age 1.
    for bps, named in (
        ([(2.5, 1.0), (4, 9.0)], r"breakpoint \[2.5, 1.0\]: age must be an integer, got 2.5"),
        ([(1, 0.5), (3.9, 9.0)], r"breakpoint \[3.9, 9.0\]: age must be an integer, got 3.9"),
        ([(True, 1.0), (4, 9.0)], r"breakpoint \[True, 1.0\]: age must be an integer, got True"),
        ([(1, 0.5), ("3", 9.0)], r"breakpoint \['3', 9.0\]: age must be an integer, got '3'"),
    ):
        with pytest.raises(ValueError, match=named):
            StalenessFn.piecewise(bps)
    # Integral floats and numpy integers name the same age.
    assert StalenessFn.piecewise([(2.0, 1.0), (np.int64(5), 6.0)]) == StalenessFn.piecewise([(2, 1.0), (5, 6.0)])


def test_cost_model_config_roundtrip():
    for cfg in (
        {"staleness": {"kind": "linear"}, "update_cost": 100.0},
        {"staleness": {"kind": "quadratic"}, "update_cost": 9.0},
        {"staleness": {"kind": "table", "values": [0, 1, 5]}, "update_cost": 4.0},
        {"staleness": {"kind": "piecewise", "breakpoints": [[2, 1.5], [5, 6.0]]}, "update_cost": 4.0},
    ):
        m = CostModel.from_config(cfg)
        again = CostModel.from_config(m.to_config())
        assert again == m
    with pytest.raises(ValueError):
        CostModel.from_config({"staleness": {"kind": "cubic"}, "update_cost": 1.0})
    # A field the record's kind does not read is refused, not ignored.
    for cfg, message in (
        ({"staleness": {"kind": "linear"}, "update_cost": 1.0, "p": 3.0}, r"^unknown fields \['p'\]"),
        ({"staleness": {"kind": "linear", "values": [0, 1]}, "update_cost": 1.0},
         r"^staleness: unknown fields \['values'\]"),
        ({"staleness": {"kind": "table", "values": [0, 1], "breakpoints": [[1, 1.0]]}, "update_cost": 1.0},
         r"^staleness: unknown fields \['breakpoints'\]"),
    ):
        with pytest.raises(ValueError, match=message):
            CostModel.from_config(cfg)
