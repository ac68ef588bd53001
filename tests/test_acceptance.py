"""End-to-end acceptance checks for the whole toolkit.

Each check prints one [acceptance NN] PASS/FAIL line (run with -s to see
them live). Two checks are marked strict-xfail: their stated tolerances are
unattainable for reasons documented inline (a finite-run estimator bias and
a closed-form arithmetic fact), and they are kept failing on purpose rather
than loosened.
"""

import time

import numpy as np
import pytest

from agecost import (
    BernoulliSource,
    CostModel,
    ExperimentSpec,
    MdpConfig,
    Policy,
    StalenessFn,
    SweepResult,
    brute_force_optimal,
    cap,
    cap_threshold,
    generate_bernoulli,
    offline_optimal,
    optimal_period,
    optimal_threshold,
    reactify,
    renewal_expectations,
    renewal_stats,
    run_policy_comparison,
    run_trace_compare,
    simulate,
    solve_average,
    solve_discounted,
    threshold_avg_cost,
)
from agecost.arrivals import derive_seed

from oracles import bernoulli_path, enumerate_renewal, make_trace, random_instance

LINEAR = StalenessFn.linear()
BASE_SEED = 20260809

MC_RATES = (0.1, 0.3, 0.5, 0.9)
MC_COSTS = (10.0, 50.0, 100.0)


def _report(num, name, ok, detail=""):
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def _mc_grid():
    for li, rate in enumerate(MC_RATES):
        for pi, p in enumerate(MC_COSTS):
            model = CostModel(LINEAR, p)
            tau_c = optimal_threshold(rate, model).tau_continuous
            taus = sorted({1, max(int(np.floor(tau_c)), 1), cap_threshold(model)})
            yield li, pi, rate, model, taus


def test_criterion_01_closed_form_reference_point():
    t0 = time.time()
    model = CostModel(LINEAR, 100.0)
    cost = threshold_avg_cost(0.1, model, 37)
    sol = optimal_threshold(0.1, model)
    ok = (
        abs(cost - 36.217) <= 0.01
        and sol.tau_star == 37
        and 36.71 <= sol.tau_continuous <= 36.73
    )
    _report(1, "closed-form cost and optimal threshold", ok,
            f"cost={cost:.4f} tau*={sol.tau_star} tau'={sol.tau_continuous:.4f} {time.time()-t0:.1f}s")
    assert ok


def _mc_sweeps():
    # The runs of simulate_many(policy, BernoulliSource(rate, seed), 100,
    # 10_000, model), replayed one by one (test_engine pins that the seed
    # scheme matches) so each run's renewal ratio is taken while its replay
    # is alive; only the sweep's averages and the ratios are kept.
    out = []
    for li, pi, rate, model, taus in _mc_grid():
        for tau in taus:
            seed = derive_seed(BASE_SEED, li, pi, tau)
            ratios = []

            def runs():
                for i in range(100):
                    arrivals = generate_bernoulli(BernoulliSource(rate, derive_seed(seed, i)), n_requests=10_000)
                    run = simulate(Policy.threshold(tau), arrivals, model)
                    st = renewal_stats(run)
                    ratios.append(st.mean_cost_per_interval / st.mean_requests_per_interval)
                    yield run

            sweep = SweepResult.of_averages([r.averages for r in runs()])
            analytic = threshold_avg_cost(rate, model, tau)
            out.append((rate, model, tau, sweep, np.asarray(ratios), analytic))
    return out


@pytest.fixture(scope="module")
def mc_sweeps():
    return _mc_sweeps()


@pytest.mark.xfail(strict=True, reason=(
    "The finite-run average C(N)/N under-counts the trailing partial renewal "
    "interval (its closing update is never charged), a downward O(1/N) bias. "
    "At the two long-interval grid points (rate 0.9, tau = cap) that bias is "
    "about 0.1% of the cost, which exceeds the 3*stderr band of 100 runs even "
    "though it is far inside the 1% band. The companion check below shows the "
    "unbiased renewal-ratio estimator passes 3*stderr at every grid point."
))
def test_criterion_02_monte_carlo_vs_closed_form(mc_sweeps):
    t0 = time.time()
    bad = []
    for rate, model, tau, sweep, _, analytic in mc_sweeps:
        diff = abs(sweep.mean_avg_total - analytic)
        if diff > 3.0 * sweep.stderr or diff > 0.01 * analytic:
            bad.append((rate, model.update_cost, tau, diff, sweep.stderr))
    ok = not bad
    _report(2, "monte carlo mean within 3*stderr and 1% of closed form", ok,
            f"{len(bad)}/36 points outside 3*stderr: {[(b[0], b[1], b[2]) for b in bad]} "
            f"{time.time()-t0:.1f}s")
    assert ok


def test_criterion_02_companion_unbiased_estimator(mc_sweeps):
    # Same grid and runs: the 1% clause holds for the finite-run average
    # everywhere, and the renewal-ratio estimator (completed intervals only,
    # which is what the closed form describes) also meets the 3*stderr clause.
    t0 = time.time()
    bad_rel = []
    bad_ratio = []
    for rate, model, tau, sweep, ratios, analytic in mc_sweeps:
        if abs(sweep.mean_avg_total - analytic) > 0.01 * analytic:
            bad_rel.append((rate, model.update_cost, tau))
        stderr = float(ratios.std(ddof=1) / np.sqrt(ratios.size))
        if abs(float(ratios.mean()) - analytic) > max(3.0 * stderr, 1e-12):
            bad_ratio.append((rate, model.update_cost, tau))
    ok = not bad_rel and not bad_ratio
    _report(2, "companion: 1% clause and renewal-ratio estimator at 3*stderr", ok,
            f"rel_violations={bad_rel} ratio_violations={bad_ratio} {time.time()-t0:.1f}s")
    assert ok


def test_criterion_03_dense_rate_limit():
    t0 = time.time()
    model = CostModel(LINEAR, 50.0)
    ts = optimal_threshold(1.0, model)
    ps = optimal_period(1.0, model)
    ok = (
        ts.tau_star == 10
        and ps.d_star == 10
        and ts.cost_at_tau_star == 9.5
        and ps.cost_at_d_star == 9.5
    )
    _report(3, "rate-1 limit: threshold = period = 10, cost exactly 9.5", ok,
            f"tau*={ts.tau_star} d*={ps.d_star} costs=({ts.cost_at_tau_star}, {ps.cost_at_d_star}) "
            f"{time.time()-t0:.1f}s")
    assert ok


def test_criterion_04_mdp_cross_validation():
    t0 = time.time()
    bad = []
    for rate in MC_RATES:
        for p in MC_COSTS:
            model = CostModel(LINEAR, p)
            cfg = MdpConfig(rate=rate, model=model, state_cap=1024)
            sol = solve_average(cfg)
            best = optimal_threshold(rate, model).cost_at_tau_star
            gain_ok = abs(sol.gain - best) <= 1e-3
            acts = sol.actions[1:]
            first = int(np.argmax(acts)) + 1 if acts.any() else len(acts) + 1
            struct_ok = bool(np.all(acts[first - 1:] == 1) and np.all(acts[: first - 1] == 0))
            if not (gain_ok and struct_ok):
                bad.append((rate, p, sol.gain, best, struct_ok))
    ok = not bad
    _report(4, "average-cost gain matches closed form, policy threshold-structured", ok,
            f"violations={bad} {time.time()-t0:.1f}s")
    assert ok


def test_criterion_05_discounted_monotonicity_and_vanishing_discount():
    t0 = time.time()
    ok = True
    details = []
    for rate, p in ((0.5, 50.0), (0.1, 100.0)):
        model = CostModel(LINEAR, p)
        gain = solve_average(MdpConfig(rate=rate, model=model, state_cap=1024)).gain
        gaps = []
        for alpha in (0.9, 0.99, 0.999):
            sol = solve_discounted(MdpConfig(rate=rate, model=model, state_cap=1024, discount=alpha))
            if not np.all(np.diff(sol.values) >= -1e-9):
                ok = False
                details.append(f"non-monotone at alpha={alpha}")
            gaps.append(abs((1.0 - alpha) * sol.values[1] - gain))
        if not gaps[0] > gaps[1] > gaps[2]:
            ok = False
        details.append(f"rate={rate} gaps={[f'{g:.2e}' for g in gaps]}")
    _report(5, "discounted values monotone; discounted gain converges to average gain", ok,
            f"{'; '.join(details)} {time.time()-t0:.1f}s")
    assert ok


def test_criterion_06_offline_oracle():
    t0 = time.time()
    rng = np.random.default_rng(BASE_SEED)
    mismatches = 0
    for _ in range(500):
        arr = random_instance(rng, max_requests=15)
        model = CostModel(LINEAR, float(rng.uniform(0.4, 14.0)))
        dp = offline_optimal(arr, model)
        bf = brute_force_optimal(arr, model)
        if abs(dp.total_cost - bf.total_cost) > 1e-9:
            mismatches += 1
    bound_violations = []
    for li, pi, rate, model, _ in _mc_grid():
        arr = generate_bernoulli(
            BernoulliSource(rate, derive_seed(BASE_SEED, 6, li, pi)), n_requests=10_000
        )
        off = offline_optimal(arr, model).total_cost
        tau = optimal_threshold(rate, model).tau_star
        d = optimal_period(rate, model).d_star
        sched = sorted(np.random.default_rng((li, pi)).choice(arr.slots, size=50, replace=False))
        for pol in (Policy.threshold(tau), Policy.naive(), Policy.periodic(d), Policy.scheduled(sched)):
            online = simulate(pol, arr, model).total
            if off > online + 1e-9:
                bound_violations.append((rate, model.update_cost, pol.label()))
    ok = mismatches == 0 and not bound_violations
    _report(6, "offline DP equals brute force (500 instances); lower-bounds online policies", ok,
            f"mismatches={mismatches} bound_violations={bound_violations} {time.time()-t0:.1f}s")
    assert ok


def test_criterion_07_transform_dominance():
    t0 = time.time()
    rng = np.random.default_rng(BASE_SEED + 7)
    violations = 0
    for _ in range(1000):
        horizon = int(rng.integers(20, 200))
        rate = float(rng.uniform(0.05, 1.0))
        arr = bernoulli_path(rate, int(rng.integers(0, 2**63)), horizon)
        if arr is None:
            continue
        n_sched = int(rng.integers(0, max(horizon // 3, 1)))
        sched = sorted(rng.choice(np.arange(1, horizon + 1), size=n_sched, replace=False))
        model = CostModel(LINEAR, float(rng.uniform(0.5, 25.0)))
        base = simulate(Policy.scheduled(sched), arr, model).total
        r = reactify(sched, arr)
        react = simulate(Policy.scheduled(r), arr, model).total
        capped = simulate(Policy.scheduled(cap(r, arr, model)), arr, model).total
        if react > base + 1e-9 or capped > react + 1e-9:
            violations += 1
    ok = violations == 0
    _report(7, "reactify and cap never increase replayed cost (1000 pairs)", ok,
            f"violations={violations} {time.time()-t0:.1f}s")
    assert ok


def test_criterion_08_renewal_enumeration():
    t0 = time.time()
    worst = 0.0
    for rate in (0.2, 0.5, 0.8):
        for tau in range(1, 13):
            for fn in (LINEAR, StalenessFn.quadratic()):
                model = CostModel(fn, 10.0 if fn is LINEAR else 150.0)
                exp = renewal_expectations(rate, model, tau)
                e_req, e_cost = enumerate_renewal(rate, model, tau)
                worst = max(worst, abs(exp.e_requests - e_req), abs(exp.e_cost - e_cost))
    ok = worst <= 1e-9
    _report(8, "interval expectations match exact pattern enumeration (tau <= 12)", ok,
            f"worst={worst:.2e} {time.time()-t0:.1f}s")
    assert ok


def _comparison_spec(kind, grid, p, include_offline):
    return ExperimentSpec.from_dict({
        "name": f"acceptance-{kind}",
        "kind": kind,
        "model": {"staleness": {"kind": "linear"}, "update_cost": p},
        # A lambda sweep takes its rates from the grid.
        "arrival": {"kind": "bernoulli"} if kind == "lambda_sweep" else {"kind": "bernoulli", "rate": 0.5},
        "grid": grid,
        "n_runs": 20,
        "n_requests": 2000,
        "base_seed": BASE_SEED + 9,
        "include_offline": include_offline,
    })


def test_criterion_09a_naive_grows_faster_than_threshold():
    t0 = time.time()
    table = run_policy_comparison(_comparison_spec("cost_sweep", [50, 200], 50.0, False))
    cost = {}
    for row in table.rows:
        label = row["policy_label"].split("(")[0]
        cost[(row["x_value"], label)] = row["mean_cost"]
    ratio_50 = cost[(50, "naive")] / cost[(50, "threshold")]
    ratio_200 = cost[(200, "naive")] / cost[(200, "threshold")]
    ok = ratio_200 > ratio_50
    _report(9, "cost sweep: naive/threshold ratio grows with update cost", ok,
            f"ratio@50={ratio_50:.3f} ratio@200={ratio_200:.3f} {time.time()-t0:.1f}s")
    assert ok


@pytest.mark.xfail(strict=True, reason=(
    "At rate 0.01 with p = 50 the closed form itself puts the best threshold "
    "cost at 41.57 and the naive cost at 41.78, both about 17% below p: with "
    "interval occupancy rate*(tau-1)+1 = 1.4, one update is shared by more "
    "than one request. Means within 5% of p require rates below about 0.002, "
    "so the 5%-at-0.01 window cannot hold. The simulation faithfully tracks "
    "the closed form here; the check is kept at its stated tolerance."
))
def test_criterion_09b_low_rate_costs_near_update_cost():
    t0 = time.time()
    table = run_policy_comparison(_comparison_spec("lambda_sweep", [0.01], 50.0, False))
    p = 50.0
    outside = {
        row["policy_label"]: row["mean_cost"]
        for row in table.rows
        if row["policy_label"].startswith(("threshold", "naive"))
        and abs(row["mean_cost"] - p) > 0.05 * p
    }
    ok = not outside
    _report(9, "lambda sweep: capped-reactive means within 5% of p at rate 0.01", ok,
            f"outside={ {k: round(v, 2) for k, v in outside.items()} } {time.time()-t0:.1f}s")
    assert ok


def test_criterion_10_trace_experiment(tmp_path):
    t0 = time.time()
    trace = tmp_path / "trace.csv"
    make_trace(trace, n_requests=1000, horizon=2500, seed=11)
    spec = ExperimentSpec.from_dict({
        "name": "acceptance-trace",
        "kind": "trace_compare",
        "model": {"staleness": {"kind": "linear"}, "update_cost": 25.0},
        "arrival": {"kind": "trace", "path": str(trace), "slot_duration": 1.0},
        "n_requests": 1000,
    })
    table = run_trace_compare(spec)
    info = table.meta["auto_policies"]
    finals = {r["policy_label"]: r["mean_cost"] for r in table.rows if r["x_value"] == 1000}
    thr = finals[f"threshold({info['tau_star']})"]
    ordering = (
        finals["offline"] <= thr + 1e-9
        and thr <= finals["naive"] + 1e-9
        and thr <= finals[f"periodic({info['d_star']})"] + 1e-9
    )
    ok = info["d_star"] == 11 and abs(table.meta["lambda_hat"] - 0.4) < 0.02 and ordering
    _report(10, "trace at density 0.4: d* = 11 and offline <= threshold <= others", ok,
            f"d*={info['d_star']} lambda_hat={table.meta['lambda_hat']:.3f} "
            f"finals={ {k: round(v, 3) for k, v in finals.items()} } {time.time()-t0:.1f}s")
    assert ok
