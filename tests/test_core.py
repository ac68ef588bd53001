import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from agecost import (
    CostModel,
    NoCapExists,
    StalenessFn,
    aoi_step,
    cap_threshold,
)

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


@given(st.floats(min_value=0.1, max_value=2000.0))
def test_cap_threshold_is_the_first_crossing(p):
    for fn in (LINEAR, QUADRATIC):
        m = CostModel(fn, p)
        ds = cap_threshold(m)
        assert fn(ds) >= p
        if ds > 1:
            assert fn(ds - 1) < p


def test_no_cap_for_bounded_table():
    with pytest.raises(NoCapExists):
        CostModel(StalenessFn.from_table([0, 1, 2]), 5.0)
    with pytest.raises(NoCapExists):
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
