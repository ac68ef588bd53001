import numpy as np
import pytest

from agecost import (
    CostModel,
    InvalidRate,
    MdpConfig,
    NoConvergence,
    StalenessFn,
    cap_threshold,
    optimal_threshold,
    solve_average,
    solve_discounted,
    threshold_avg_cost,
    write_policy_csv,
)

from oracles import extract_threshold

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
    with pytest.raises(ValueError):
        small_config(discount=1.0)
    with pytest.raises(ValueError):
        small_config(tolerance=0.0)


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
    assert sol.residual <= cfg.tolerance


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
    cfg = MdpConfig(rate=0.999, model=CostModel(LINEAR, 50.0), state_cap=256, tolerance=1e-6)
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
    # Doubling the state cap leaves the gain unchanged once the cap clears
    # 4 * delta_star / min(rate, 0.1).
    model = CostModel(LINEAR, 10.0)
    for rate in (0.3, 0.1):
        base = int(4 * cap_threshold(model) / min(rate, 0.1))
        g1 = solve_average(MdpConfig(rate=rate, model=model, state_cap=base)).gain
        g2 = solve_average(MdpConfig(rate=rate, model=model, state_cap=2 * base)).gain
        assert abs(g1 - g2) < 1e-6


def test_no_convergence_raises():
    with pytest.raises(NoConvergence) as err:
        solve_average(small_config(max_iterations=2))
    assert err.value.iterations == 2
    with pytest.raises(NoConvergence):
        solve_discounted(small_config(discount=0.99, max_iterations=3))


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
    # The Bellman sweep computes E[v(next age)] through a linear recurrence;
    # check it against an explicit truncated transition matrix with the tail
    # mass folded into the last state, whose rows must be proper
    # distributions.
    from agecost.mdp import _skip_continuation

    rng = np.random.default_rng(8)
    for rate in (0.05, 0.5, 0.97):
        S = 40
        q = 1.0 - rate
        P = np.zeros((S + 1, S + 1))
        for s in range(S):
            for z in range(s + 1, S):
                P[s, z] = q ** (z - s - 1) * rate
            P[s, S] = q ** (S - s - 1)
        P[S, S] = 1.0
        assert np.allclose(P.sum(axis=1), 1.0)
        values = rng.normal(size=S + 1) * 50.0
        dense = P @ values
        fast = _skip_continuation(values, rate)
        assert np.allclose(fast, dense, rtol=1e-12, atol=1e-9)
