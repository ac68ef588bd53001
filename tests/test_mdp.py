import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from agecost import (
    CostModel,
    InvalidRate,
    MdpConfig,
    StalenessFn,
    cap_threshold,
    optimal_threshold,
    solve_average,
    solve_discounted,
    threshold_avg_cost,
    write_policy_csv,
)

from agecost import mdp
from agecost.mdp import _evaluate, _scan

from agecost.cli import main

from oracles import alarm, dense_continuation, dense_value_iteration, extract_threshold, folded_transitions

LINEAR = StalenessFn.linear()


def small_config(**kw):
    defaults = dict(rate=0.5, model=CostModel(LINEAR, 2.0), state_cap=64)
    defaults.update(kw)
    return MdpConfig(**defaults)


def test_config_validation():
    with pytest.raises(InvalidRate):
        small_config(rate=1.0)
    with pytest.raises(InvalidRate):
        small_config(rate=0.0)
    with pytest.raises(ValueError):
        small_config(state_cap=2)  # below cap threshold + 1
    # 12.5 used to build and then fail inside numpy's pad.
    for bad in (12.5, True, "64", None):
        with pytest.raises(ValueError, match=rf"^state_cap must be an integer, got {bad!r}$"):
            small_config(state_cap=bad)
    assert small_config(state_cap=64.0).state_cap == 64
    with pytest.raises(ValueError):
        small_config(discount=1.0)


def test_huge_state_cap_is_refused_before_any_array(tmp_path, capsys, monkeypatch):
    # 10^11 ages used to reach numpy, which failed to allocate 93 GiB and
    # the CLI exited 2. A cap past 2^24 is now refused when the config is
    # built, and no solve starts.
    monkeypatch.setattr(mdp, "_solve", lambda config, average: pytest.fail("a solve started"))
    with alarm(2.0):
        with pytest.raises(ValueError, match=r"^state_cap must be <= 2\^24 = 16777216, got 100000000000$"):
            small_config(state_cap=10**11)
        out = tmp_path / "policy.csv"
        argv = ["solve-mdp", "--lambda", "0.1", "--p", "100", "--state-cap", "100000000000", "--out", str(out)]
        assert main(argv) == 1
    assert "state_cap" in capsys.readouterr().err
    assert not out.exists()
    assert small_config(state_cap=mdp.MAX_STATE_CAP).state_cap == 2**24


def test_zero_discount_collapses_to_one_step_cost():
    cfg = small_config(discount=0.0)
    sol = solve_discounted(cfg)
    f = cfg.model.staleness
    p = cfg.model.update_cost
    expect = np.array([min(p, f(s)) for s in range(cfg.state_cap + 1)])
    assert np.allclose(sol.values, expect)


@pytest.mark.parametrize("alpha", [0.9, 0.99, 0.999])
def test_discounted_values_bounded_and_monotone(alpha):
    cfg = small_config(discount=alpha)
    sol = solve_discounted(cfg)
    assert np.all(sol.values <= cfg.model.update_cost / (1.0 - alpha) + 1e-9)
    assert np.all(np.diff(sol.values) >= -1e-12)
    # Policy iteration is exact: only rounding is left in the Bellman residual.
    assert sol.residual <= 1e-14 * cfg.model.update_cost / (1.0 - alpha)


def test_average_gain_small_instance():
    sol = solve_average(small_config())
    assert sol.gain == pytest.approx(5.0 / 3.0, abs=1e-6)
    assert sol.values[1] == 0.0
    assert sol.threshold == 2


def test_average_gain_reference_instance():
    cfg = MdpConfig(rate=0.1, model=CostModel(LINEAR, 100.0), state_cap=1024)
    sol = solve_average(cfg)
    assert sol.gain == pytest.approx(36.217, abs=1e-3)
    assert sol.threshold == 37


def test_average_gain_dense_rate_limit():
    cfg = MdpConfig(rate=0.999, model=CostModel(LINEAR, 50.0), state_cap=256)
    sol = solve_average(cfg)
    assert sol.gain == pytest.approx(9.5, abs=0.05)


def test_extract_threshold_matches_closed_form():
    cfg = small_config()
    sol = solve_average(cfg)
    assert extract_threshold(sol, cfg) == 2

    cfg2 = MdpConfig(rate=0.1, model=CostModel(LINEAR, 100.0), state_cap=1024)
    sol2 = solve_average(cfg2)
    s_star = extract_threshold(sol2, cfg2)
    assert s_star in (36, 37)
    best = optimal_threshold(0.1, cfg2.model).cost_at_tau_star
    assert threshold_avg_cost(0.1, cfg2.model, s_star) == pytest.approx(best, abs=1e-3)


def test_extract_threshold_always_update():
    # Update cost below f(1): refreshing dominates everywhere.
    cfg = MdpConfig(rate=0.5, model=CostModel(LINEAR, 0.5), state_cap=16)
    sol = solve_average(cfg)
    assert extract_threshold(sol, cfg) == 1
    assert sol.threshold == 1


def test_gain_matches_optimal_threshold_cost_grid():
    for rate in (0.1, 0.5, 0.9):
        for p in (2.0, 50.0):
            model = CostModel(LINEAR, p)
            cfg = MdpConfig(rate=rate, model=model, state_cap=512)
            sol = solve_average(cfg)
            best = optimal_threshold(rate, model).cost_at_tau_star
            assert abs(sol.gain - best) <= max(1e-3, 1e-3 * best)


def test_policy_is_threshold_structured():
    for rate in (0.2, 0.7):
        cfg = MdpConfig(rate=rate, model=CostModel(LINEAR, 30.0), state_cap=256)
        sol = solve_average(cfg)
        acts = sol.actions[1:]
        first = int(np.argmax(acts)) + 1
        assert np.all(acts[first - 1:] == 1)
        assert np.all(acts[: first - 1] == 0)
        assert sol.threshold == first <= cap_threshold(cfg.model)


def test_vanishing_discount_approaches_gain():
    model = CostModel(LINEAR, 50.0)
    avg = solve_average(MdpConfig(rate=0.5, model=model, state_cap=512))
    gaps = []
    for alpha in (0.9, 0.99, 0.999):
        dis = solve_discounted(MdpConfig(rate=0.5, model=model, state_cap=512, discount=alpha))
        gaps.append(abs((1.0 - alpha) * dis.values[1] - avg.gain))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.05


def test_truncation_stability():
    # Ages >= delta_star form one lumped state, so the chain is exact and
    # state_cap only sets how many ages are reported.
    model = CostModel(LINEAR, 10.0)
    ds = cap_threshold(model)
    for rate in (0.3, 0.1):
        base = int(4 * ds / min(rate, 0.1))
        for solve in (solve_average, solve_discounted):
            first = None
            for cap in (ds + 1, base, 2 * base):
                sol = solve(MdpConfig(rate=rate, model=model, state_cap=cap))
                assert sol.values.size == sol.actions.size == cap + 1
                assert np.all(sol.values[ds:] == sol.values[ds])
                assert np.all(sol.actions[ds:] == 1)
                first = first or sol
                assert (sol.gain, sol.iterations_used, sol.threshold) == (
                    first.gain, first.iterations_used, first.threshold)
                assert np.array_equal(sol.values[: ds + 1], first.values[: ds + 1])


def test_policy_csv_dump(tmp_path):
    cfg = small_config(state_cap=8)
    sol = solve_average(cfg)
    out = tmp_path / "policy.csv"
    write_policy_csv(sol, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,h,action"
    assert len(lines) == cfg.state_cap + 2
    s, h, a = lines[2].split(",")
    assert (int(s), float(h), int(a)) == (1, 0.0, 0)


def test_gain_matches_closed_form_nonlinear_models():
    # Quadratic and bounded-table staleness: the optimal gain must still
    # match the best closed-form threshold cost.
    cases = [
        (0.3, CostModel(StalenessFn.quadratic(), 60.0)),
        (0.7, CostModel(StalenessFn.quadratic(), 9.0)),
        (0.5, CostModel(StalenessFn.from_table([0, 0.5, 1.5, 4.0, 4.0, 7.0]), 3.0)),
    ]
    for rate, model in cases:
        cfg = MdpConfig(rate=rate, model=model, state_cap=512)
        sol = solve_average(cfg)
        best = optimal_threshold(rate, model).cost_at_tau_star
        assert abs(sol.gain - best) <= max(1e-6, 1e-6 * best)
        s_star = extract_threshold(sol, cfg)
        assert threshold_avg_cost(rate, model, s_star) == pytest.approx(best, abs=1e-6)


def test_skip_continuation_matches_dense_transition_matrix():
    # The evaluation's doubling scan solves the skip continuation
    # K = E[v(next age) | skip] that both Q-values are read from; check it
    # against the folded dense transition matrix applied to the returned
    # values, for random policies at every size, not only powers of two.
    rng = np.random.default_rng(8)
    for rate in (0.05, 0.5, 0.97):
        for size in range(2, 71):
            cfg = MdpConfig(rate=rate, model=CostModel(LINEAR, size - 1.0), state_cap=size)
            f = LINEAR.eval_array(np.arange(size))
            updates = rng.random(size) < 0.5
            updates[-1] = True
            for disc, average in ((1.0, True), (0.9, False)):
                values, _, K = _evaluate(updates, cfg, disc, f, average)
                assert np.allclose(K, dense_continuation(values, rate), rtol=1e-12, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_scan_matches_sequential_backward_loop(data):
    # The policy evaluation solves K[s] = a[s] + m[s]*K[s+1] with per-state
    # multipliers, for several right-hand sides at once.
    size = data.draw(st.integers(min_value=1, max_value=80))
    rows = data.draw(st.integers(min_value=1, max_value=3))
    a = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=rows * size, max_size=rows * size)))
    a = a.reshape(rows, size)
    m = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
    expect = a.copy()
    for s in range(size - 2, -1, -1):
        expect[:, s] += m[s] * expect[:, s + 1]
    assert np.allclose(_scan(a, m), expect, rtol=1e-12, atol=1e-9)
    assert np.allclose(_scan(a[0], m), expect[0], rtol=1e-12, atol=1e-9)


@st.composite
def mdp_case(draw):
    rate = draw(st.floats(min_value=0.05, max_value=0.97))
    kind = draw(st.sampled_from(["linear", "quadratic", "table", "piecewise"]))
    if kind == "linear":
        model = CostModel(LINEAR, draw(st.floats(min_value=0.2, max_value=60.0)))
    elif kind == "quadratic":
        model = CostModel(StalenessFn.quadratic(), draw(st.floats(min_value=0.2, max_value=3000.0)))
    else:
        steps = draw(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=40))
        values = np.cumsum(steps)
        p = draw(st.floats(min_value=0.1, max_value=1.0)) * max(values[-1], 0.1)
        assume(values[-1] >= p)
        if kind == "table":
            model = CostModel(StalenessFn.from_table(np.concatenate(([0.0], values))), p)
        else:
            starts = sorted(draw(st.sets(st.integers(min_value=1, max_value=80),
                                         min_size=values.size, max_size=values.size)))
            model = CostModel(StalenessFn.piecewise(zip(starts, values)), p)
    cap = draw(st.integers(min_value=cap_threshold(model) + 1, max_value=96))
    return MdpConfig(rate=rate, model=model, state_cap=cap, discount=draw(st.floats(0.5, 0.99)))


@settings(max_examples=100, deadline=None)
@given(mdp_case())
def test_solvers_match_dense_value_iteration(cfg):
    # Dense value iteration on every age up to state_cap, with no lumping and
    # no scan. Exact ties between skip and update are settled by rounding,
    # so cases with a near-tie below the cap are skipped.
    ds = cap_threshold(cfg.model)
    for solve, average in ((solve_average, True), (solve_discounted, False)):
        # Discounted value iteration stops up to tolerance * discount /
        # (1 - discount) from its fixed point, so it runs to 1e-12. Relative
        # values of order p carry rounding above 1e-12, so the average-cost
        # sweeps stop at a span of 1e-11, which pins the gain to 5e-12. A
        # slowly mixing chain leaves the relative values about ten spans off:
        # at rate 0.875 with 76 ages, a span of 1e-10 left them 1.05e-9 off.
        values, gain, actions, margins = dense_value_iteration(
            cfg, average, tolerance=1e-11 if average else 1e-12, max_iterations=10**6)
        assume(np.all(np.abs(margins) > 1e-7))
        sol = solve(cfg)
        assert np.array_equal(sol.actions, actions)
        assert sol.threshold == int(np.argmax(actions[1:])) + 1
        # Values near p / (1 - discount) carry rounding relative to their size.
        assert np.allclose(sol.values[: ds + 1], values[: ds + 1], rtol=1e-12, atol=1e-9)
        if average:
            assert abs(sol.gain - gain) <= 1e-9
        else:
            assert sol.gain is None


@settings(max_examples=60, deadline=None)
@given(mdp_case())
def test_any_threshold_start_reaches_the_same_solution(cfg):
    # Policy iteration starts at the closed-form tau*, but that is only a
    # start: from 1, the cap or tau* +- 3 it must reach the same policy.
    # Exact ties could settle either way, so near-ties are skipped.
    ds = cap_threshold(cfg.model)
    tau = optimal_threshold(cfg.rate, cfg.model).tau_star
    f = cfg.model.staleness.eval_array(np.arange(ds))
    for solve, disc in ((solve_average, 1.0), (solve_discounted, cfg.discount)):
        true = solve(cfg)
        K = dense_continuation(true.values[: ds + 1], cfg.rate)
        assume(np.all(np.abs(f + disc * K[:ds] - cfg.model.update_cost - disc * K[0]) > 1e-7))
        for start in {1, ds, max(tau - 3, 1), min(tau + 3, ds)}:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(mdp, "_first_minimizer", lambda rate, model, delta_star: (start, np.nan))
                sol = solve(cfg)
            assert (sol.gain, sol.threshold) == (true.gain, true.threshold)
            assert np.array_equal(sol.actions, true.actions)
            assert np.allclose(sol.values, true.values, rtol=1e-12, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(mdp_case())
def test_every_threshold_policy_evaluates_like_a_dense_linear_solve(cfg):
    # Policy iteration trusts the evaluation of whatever policy it holds, not
    # only of the optimum: for each threshold tau = 1..Delta*, solve the
    # policy's linear equations on the lumped chain with the dense transition
    # matrix and compare values, gain and the skip continuation K.
    ds = cap_threshold(cfg.model)
    p = cfg.model.update_cost
    f = cfg.model.staleness.eval_array(np.arange(ds + 1))
    f[-1] = np.inf
    skip = folded_transitions(ds + 1, cfg.rate)
    eye = np.eye(ds + 1)
    for tau in range(1, ds + 1):
        updates = np.arange(ds + 1) >= tau
        P = np.where(updates[:, None], skip[0], skip)
        cost = np.where(updates, p, f)
        for average in (True, False):
            disc = 1.0 if average else cfg.discount
            if average:  # (I - P) h + g = cost; h(1) = 0 frees column 1 for g
                A = eye - P
                A[:, 1] = 1.0
                want = np.linalg.solve(A, cost)
                want_gain, want[1] = want[1], 0.0
            else:
                want, want_gain = np.linalg.solve(eye - disc * P, cost), 0.0
            values, gain, K = _evaluate(updates, cfg, disc, f, average)
            assert np.allclose(values, want, rtol=1e-12, atol=1e-9)
            assert np.isclose(gain, want_gain, rtol=1e-12, atol=1e-9)
            assert np.allclose(K, skip @ want, rtol=1e-12, atol=1e-9)


def test_each_policy_iteration_step_runs_one_scan(monkeypatch):
    # The evaluation's scan yields both Q-values, so no step scans twice.
    calls = []
    real = mdp._scan
    monkeypatch.setattr(mdp, "_scan", lambda a, m: calls.append(1) or real(a, m))
    steps = set()
    for rate, p, discount in ((0.1, 100.0, 0.5), (0.7, 100.0, 0.9), (0.3, 20.0, 0.99)):
        cfg = MdpConfig(rate=rate, model=CostModel(LINEAR, p), state_cap=256, discount=discount)
        for solve in (solve_average, solve_discounted):
            calls.clear()
            sol = solve(cfg)
            assert len(calls) == sol.iterations_used
            steps.add(sol.iterations_used)
    assert steps == {1, 2, 3}


def test_import_needs_no_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import agecost, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
