import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from agecost import (
    CostModel,
    InvalidRate,
    StalenessFn,
    cap_threshold,
    optimal_period,
    optimal_threshold,
    periodic_avg_cost,
    renewal_expectations,
    threshold_avg_cost,
)

from oracles import alarm, cost_models, enumerate_renewal, scan_periods, threshold_margins

LINEAR = StalenessFn.linear()
QUADRATIC = StalenessFn.quadratic()

RATES = (0.1, 0.3, 0.5, 0.9, 1.0)
COSTS = (2.0, 10.0, 50.0, 100.0)


def test_threshold_cost_reference_point():
    m = CostModel(LINEAR, 100.0)
    assert threshold_avg_cost(0.1, m, 37) == pytest.approx(166.6 / 4.6, abs=1e-12)
    assert threshold_avg_cost(0.1, m, 37) == pytest.approx(36.217, abs=1e-3)


def test_threshold_cost_tau_one_is_update_cost():
    for rate in RATES:
        for p in COSTS:
            for fn in (LINEAR, QUADRATIC):
                assert threshold_avg_cost(rate, CostModel(fn, p), 1) == p


def test_threshold_cost_dense_rate():
    assert threshold_avg_cost(1.0, CostModel(LINEAR, 50.0), 10) == 9.5


def test_invalid_rate():
    m = CostModel(LINEAR, 10.0)
    with pytest.raises(InvalidRate):
        threshold_avg_cost(0.0, m, 3)
    with pytest.raises(InvalidRate):
        periodic_avg_cost(1.5, m, 3)
    with pytest.raises(InvalidRate):
        optimal_threshold(-0.2, m)


@pytest.mark.parametrize("rate", [1e-320, 1e-300, 10.0 / 2.0**100])  # the last: sqrt(2p/rate) = 2^50.5
def test_a_linear_period_past_the_cap_is_an_invalid_rate(rate):
    # sqrt(2p/rate) is inf or past 2^50: refused before any array is sized by it.
    with pytest.raises(InvalidRate, match=rf"^arrival rate {rate} is too small at update cost 10.0: "):
        optimal_period(rate, CostModel(LINEAR, 10.0))


def test_optimal_threshold_reference_points():
    sol = optimal_threshold(0.1, CostModel(LINEAR, 100.0))
    assert sol.tau_star == 37
    assert 36.71 <= sol.tau_continuous <= 36.73
    assert sol.cost_at_tau_star == pytest.approx(36.217, abs=1e-2)

    dense = optimal_threshold(1.0, CostModel(LINEAR, 50.0))
    assert dense.tau_star == 10
    assert dense.cost_at_tau_star == 9.5


def test_optimal_threshold_trace_operating_point():
    m = CostModel(LINEAR, 25.0)
    sol = optimal_threshold(0.4, m)
    assert sol.tau_continuous == pytest.approx(9.847, abs=1e-3)
    assert threshold_avg_cost(0.4, m, 9) == pytest.approx(9.381, abs=1e-3)
    assert threshold_avg_cost(0.4, m, 10) == pytest.approx(9.348, abs=1e-3)
    # 10 beats 9 by direct evaluation of the closed form
    assert sol.tau_star == 10


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(RATES) | st.floats(min_value=1e-3, max_value=1.0),
    st.tuples(st.floats(min_value=0.25, max_value=200.0) | st.integers(1, 80).map(lambda k: k / 2),
              st.booleans()).flatmap(lambda a: cost_models(*a)),
)
@example(0.5, CostModel(LINEAR, 4.5))  # tau = 3 and 4 both price at 3.0
@example(0.1, CostModel(LINEAR, 7.5))  # an exact tie that rounding gives to tau = 7 over 6
@example(0.5, CostModel(StalenessFn.from_table([0, 1, 3, 3, 3, 3, 3, 10]), 4.0))  # tau = 2..7 all at 3.0
@example(0.3, CostModel(StalenessFn.from_table([0, 5]), 5.0))  # g(k) = p for every k
# The search prices windows of 64, 128, ... ages, never past Δ*.
@example(0.001, CostModel(LINEAR, 64.0))  # Δ* = 64 is the first window
@example(0.001, CostModel(LINEAR, 65.0))  # Δ* = 65, one past it; tau* = 64 ends the first window
@example(0.0675, CostModel(LINEAR, 200.0))  # tau* = 64, the last age of the first window
@example(0.5, CostModel(StalenessFn.from_table([0] + [1.0] * 63 + [100.0]), 100.0))  # tau* = Δ* = 64
def test_optimal_threshold_exhaustive_over_cap_range(rate, m):
    # Bit for bit the first minimizer of the closed form priced over all of
    # [1, Δ*], though the search prices only a window past the crossing.
    costs = [threshold_avg_cost(rate, m, t) for t in range(1, cap_threshold(m) + 1)]
    sol = optimal_threshold(rate, m)
    assert sol.cost_at_tau_star == min(costs)
    assert sol.tau_star == costs.index(min(costs)) + 1


def test_optimal_threshold_at_a_huge_update_cost():
    # Pricing all of [1, Δ*] would build arrays of 10^12 floats.
    with alarm(10.0):
        m = CostModel(LINEAR, 1e12)
        sol = optimal_threshold(0.1, m)
    assert sol.tau_star == 4_472_127
    assert sol.cost_at_tau_star == threshold_avg_cost(0.1, m, sol.tau_star)


def test_optimal_threshold_clamps_to_cap():
    # Tiny rate pushes the continuous minimizer just past the cap.
    sol = optimal_threshold(0.001, CostModel(LINEAR, 5.0))
    assert sol.tau_continuous > 5.0
    assert sol.clamped_to_cap
    assert sol.tau_star <= 5


def test_optimal_threshold_quadratic():
    m = CostModel(QUADRATIC, 100.0)
    sol = optimal_threshold(0.5, m)
    costs = [threshold_avg_cost(0.5, m, t) for t in range(1, cap_threshold(m) + 1)]
    assert sol.cost_at_tau_star == min(costs)
    assert 1.0 <= sol.tau_continuous <= cap_threshold(m) + 1
    # A cost at or below the first age's penalty has its continuous minimizer at 1.
    sol = optimal_threshold(0.5, CostModel(QUADRATIC, 0.1))
    assert (sol.tau_star, sol.tau_continuous) == (1, 1.0)


def test_table_staleness_scan_route():
    m = CostModel(StalenessFn.from_table([0, 0.5, 1.0, 4.0, 9.0]), 3.5)
    sol = optimal_threshold(0.6, m)
    costs = [threshold_avg_cost(0.6, m, t) for t in range(1, cap_threshold(m) + 1)]
    assert sol.cost_at_tau_star == min(costs)


def test_periodic_cost_examples():
    assert periodic_avg_cost(0.5, CostModel(LINEAR, 50.0), 1) == 100.0
    assert periodic_avg_cost(0.4, CostModel(LINEAR, 25.0), 11) == pytest.approx(47.0 / 4.4, abs=1e-12)
    assert periodic_avg_cost(1.0, CostModel(LINEAR, 50.0), 10) == 9.5


def test_optimal_period_reference_points():
    sol = optimal_period(0.4, CostModel(LINEAR, 25.0))
    assert sol.d_continuous == pytest.approx(11.180, abs=1e-3)
    assert sol.d_star == 11
    assert sol.cost_at_d_star == pytest.approx(10.682, abs=1e-3)
    assert optimal_period(1.0, CostModel(LINEAR, 50.0)).d_star == 10


def test_optimal_period_tie_prefers_fewer_updates():
    # d = 1 and d = 2 cost exactly 1.0 each here; the longer period wins.
    m = CostModel(LINEAR, 0.5)
    sol = optimal_period(0.5, m)
    assert periodic_avg_cost(0.5, m, 1) == periodic_avg_cost(0.5, m, 2) == 1.0
    assert sol.d_star == 2
    assert sol.d_continuous == pytest.approx(np.sqrt(2.0))


def test_optimal_period_candidates_are_best():
    for rate in RATES:
        for p in COSTS:
            m = CostModel(LINEAR, p)
            sol = optimal_period(rate, m)
            lo = max(int(np.floor(sol.d_continuous)), 1)
            hi = max(int(np.ceil(sol.d_continuous)), 1)
            best = min(periodic_avg_cost(rate, m, d) for d in {lo, hi})
            assert sol.cost_at_d_star == best


def test_renewal_expectations_examples():
    m = CostModel(LINEAR, 10.0)
    exp = renewal_expectations(0.5, m, 3)
    assert exp.e_requests == 2.0
    assert exp.e_cost == 11.5
    one = renewal_expectations(0.3, m, 1)
    assert one.e_requests == 1.0
    assert one.e_cost == 10.0
    big = renewal_expectations(0.1, CostModel(LINEAR, 100.0), 37)
    assert big.e_cost / big.e_requests == pytest.approx(36.217, abs=1e-3)


def test_closed_forms_take_integer_tau_and_d():
    # 2.5 used to price as 3, and renewal_expectations' ratio then missed
    # threshold_avg_cost (11.5 / 1.75 against 5.75).
    m = CostModel(LINEAR, 10.0)
    for price, name in ((threshold_avg_cost, "tau"), (renewal_expectations, "tau"), (periodic_avg_cost, "d")):
        for bad in (2.5, True, "3"):
            with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {bad!r}$"):
                price(0.5, m, bad)
        assert price(0.5, m, 3.0) == price(0.5, m, np.int64(3)) == price(0.5, m, 3)


def test_ratio_identity():
    table = StalenessFn.from_table([a / 10 for a in range(1001)])
    for rate in RATES:
        for p in COSTS:
            for fn in (LINEAR, QUADRATIC, table):
                m = CostModel(fn, p)
                for tau in (1, 2, 5, 11, 23):
                    exp = renewal_expectations(rate, m, tau)
                    assert exp.e_cost / exp.e_requests == threshold_avg_cost(rate, m, tau)


@st.composite
def penalty_case(draw):
    rate = draw(st.floats(min_value=0.01, max_value=1.0))
    p = draw(st.floats(min_value=0.5, max_value=60.0))
    fn = draw(st.sampled_from(["linear", "quadratic", "table", "piecewise"]))
    if fn in ("linear", "quadratic"):
        return rate, CostModel(getattr(StalenessFn, fn)(), p)
    # Non-integer, non-decreasing values whose last one reaches p; long
    # enough that a pairwise sum and an age-order sum can round apart.
    steps = draw(st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=60))
    values = list(accumulate(steps))
    values[-1] += p
    if fn == "table":
        return rate, CostModel(StalenessFn.from_table([0.0, *values]), p)
    starts = sorted(draw(st.sets(st.integers(min_value=1, max_value=300),
                                 min_size=len(values), max_size=len(values))))
    return rate, CostModel(StalenessFn.piecewise(zip(starts, values)), p)


@settings(max_examples=300, deadline=None)
@given(penalty_case())
def test_every_path_prices_a_policy_identically(case):
    rate, m = case
    ts = optimal_threshold(rate, m)
    assert threshold_avg_cost(rate, m, ts.tau_star) == ts.cost_at_tau_star
    ps = optimal_period(rate, m)
    if ps.d_star is not None:
        assert periodic_avg_cost(rate, m, ps.d_star) == ps.cost_at_d_star
    for tau in {1, ts.tau_star, cap_threshold(m)}:
        exp = renewal_expectations(rate, m, tau)
        assert exp.e_cost / exp.e_requests == threshold_avg_cost(rate, m, tau)


@settings(max_examples=150, deadline=None)
@given(penalty_case())
# h(d) reaches p/rate first at d = 64, the last period of the first window
# of 64, and at d = 65, the first period of the next.
@example((0.1, CostModel(StalenessFn.piecewise([(1, 0.5), (64, 60.0)]), 50.0)))
@example((0.1, CostModel(StalenessFn.piecewise([(1, 0.5), (65, 60.0)]), 50.0)))
def test_optimal_period_matches_scan_oracle(case):
    rate, m = case
    if m.staleness.kind == "linear":
        return  # the linear branch compares floor and ceil of sqrt(2p/rate)
    sol = optimal_period(rate, m)
    # Well past the window the old scan used, max(4 cap, 2 sqrt(2p/rate), 16).
    p = m.update_cost
    hi = 4 * max(4 * cap_threshold(m), math.ceil(2.0 * math.sqrt(2.0 * p / rate)), 16, sol.d_star or 0)
    cost = scan_periods(rate, m, hi)[1]
    if sol.d_star is None:
        # The cost falls toward the held penalty value and never gets below it.
        assert sol.cost_at_d_star == m.staleness(m.staleness.held_from) <= cost * (1 + 1e-12)
        assert sol.d_continuous is None
        return
    # Every shorter period costs more; no longer one costs less, up to the
    # rounding that settles a flat stretch of exactly equal costs.
    assert (sol.d_star, sol.cost_at_d_star) == scan_periods(rate, m, sol.d_star)
    assert sol.cost_at_d_star <= cost * (1 + 1e-12)
    assert sol.d_continuous == sol.d_star


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1.0), st.floats(min_value=0.25, max_value=200.0), st.data())
def test_threshold_margin_never_decreases(rate, p, data):
    # g(k+1) - g(k) = (rate·(k+1) + 1)·(f(k+2) - f(k+1)) >= 0, so the
    # threshold cost falls until g(k) >= p and never falls after.
    model = data.draw(cost_models(p))
    g = threshold_margins(rate, model, 64)
    assert all(a <= b for a, b in zip(g, g[1:]))
    lam = Fraction(rate)
    F = list(accumulate(Fraction(model.staleness(a)) for a in range(65)))
    cost = [(lam * F[k] + Fraction(p)) / (lam * k + 1) for k in range(65)]
    assert [cost[k + 1] < cost[k] for k in range(64)] == [gk < Fraction(p) for gk in g]


def test_optimal_period_without_finite_minimizer():
    # The cost falls toward f_max = 5 forever; a scan window of
    # max(4 cap, 2 sqrt(2p/rate), 16) = 64 periods stopped at a cost of 12.03.
    m = CostModel(StalenessFn.piecewise([(10, 5.0)]), 5.0)
    sol = optimal_period(0.01, m)
    assert (sol.d_star, sol.d_continuous, sol.cost_at_d_star) == (None, None, 5.0)
    assert 5.0 < periodic_avg_cost(0.01, m, 10**6) < periodic_avg_cost(0.01, m, 64)
    # A higher rate makes waiting dearer, and the minimizer is finite again.
    assert optimal_period(0.5, m).d_star == scan_periods(0.5, m, 1000)[0] == 10


def test_optimal_period_long_piecewise_penalty():
    # 24,000 candidate periods; one pass over the prefix curve, not one sum each.
    m = CostModel(StalenessFn.piecewise([(1, 0.01), (6000, 100.0)]), 50.0)
    sol = optimal_period(0.3, m)
    assert sol.d_star == 6000
    assert (sol.d_star, sol.cost_at_d_star) == scan_periods(0.3, m, 4 * 6000)


def test_enumeration_oracle_matches_formulas():
    for rate in (0.2, 0.5, 0.8):
        for tau in (1, 2, 3, 6, 12):
            for fn in (LINEAR, QUADRATIC):
                m = CostModel(fn, 10.0)
                exp = renewal_expectations(rate, m, tau)
                e_req, e_cost = enumerate_renewal(rate, m, tau)
                assert abs(exp.e_requests - e_req) <= 1e-9
                assert abs(exp.e_cost - e_cost) <= 1e-9


def test_linear_closed_expression_identity():
    # For the linear penalty the prefix sum is tau(tau-1)/2.
    for rate in RATES:
        for p in COSTS:
            m = CostModel(LINEAR, p)
            for tau in range(1, 60):
                direct = (rate * tau * (tau - 1) / 2.0 + p) / (rate * (tau - 1) + 1.0)
                assert threshold_avg_cost(rate, m, tau) == pytest.approx(direct, rel=1e-12)


def test_quadratic_closed_expression_identity():
    # Prefix sum of squares: (t-1)^3/3 + (t-1)^2/2 + (t-1)/6 at t = tau.
    for rate in (0.2, 0.7, 1.0):
        for p in (5.0, 80.0):
            m = CostModel(QUADRATIC, p)
            for tau in range(1, 30):
                k = tau - 1.0
                direct = (rate * (k**3 / 3.0 + k**2 / 2.0 + k / 6.0) + p) / (rate * k + 1.0)
                assert threshold_avg_cost(rate, m, tau) == pytest.approx(direct, rel=1e-12)


def test_vanishing_rate_limit():
    # As the rate vanishes every request triggers an update, so the cost per
    # request approaches the update cost. The residual at a fixed small rate
    # scales like rate * (tau - 1) * |tau/2 - p|, so the 1e-3 window is
    # checked over the whole capped threshold range at a moderate p.
    for p in (2.0, 10.0):
        m = CostModel(LINEAR, p)
        for tau in range(1, cap_threshold(m) + 1):
            assert abs(threshold_avg_cost(1e-6, m, tau) - p) < 1e-3
