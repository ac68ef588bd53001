import json

import pytest

from agecost import (
    ConfigError,
    CostModel,
    ExperimentSpec,
    StalenessFn,
    emit,
    run_policy_comparison,
    run_threshold_sweep,
    run_trace_compare,
)
from agecost.cli import main
from agecost.experiments import truncate_requests
from agecost import ArrivalSequence

from oracles import make_trace


def sweep_spec(**kw):
    data = {
        "name": "sweep",
        "kind": "threshold_sweep",
        "model": {"staleness": {"kind": "linear"}, "update_cost": 100.0},
        "arrival": {"kind": "bernoulli", "rate": 0.1},
        "grid": list(range(1, 101)),
        "n_runs": 2,
        "n_requests": 400,
        "base_seed": 5,
    }
    data.update(kw)
    return ExperimentSpec.from_dict(data)


def test_threshold_sweep_analytic_minimum():
    table = run_threshold_sweep(sweep_spec())
    assert len(table.rows) == 100
    best = min(table.rows, key=lambda r: r["analytic_cost"])
    assert best["x_value"] == 37
    assert best["analytic_cost"] == pytest.approx(36.217, abs=1e-2)


def test_threshold_sweep_tau_one_is_update_cost():
    table = run_threshold_sweep(sweep_spec(grid=[1], n_runs=3))
    (row,) = table.rows
    assert row["analytic_cost"] == 100.0
    assert row["mean_cost"] == 100.0
    assert row["stderr"] == 0.0


def test_threshold_sweep_consistency_flag():
    table = run_threshold_sweep(sweep_spec(grid=[5, 20, 37], n_runs=30, n_requests=2000))
    assert table.meta["mc_within_3_stderr"], table.meta["mc_outside_taus"]


def test_spec_validation_messages():
    with pytest.raises(ConfigError, match="kind"):
        sweep_spec(kind="nonsense")
    with pytest.raises(ConfigError, match="arrival.rate"):
        ExperimentSpec.from_dict({
            "name": "x", "kind": "cost_sweep",
            "model": {"staleness": {"kind": "linear"}, "update_cost": 5.0},
            "arrival": {"kind": "bernoulli"},
        })
    with pytest.raises(ConfigError, match="policies"):
        sweep_spec(policies=[{"kind": "threshold"}])
    with pytest.raises(ConfigError, match="n_runs"):
        sweep_spec(n_runs=0)
    with pytest.raises(ConfigError, match="unknown"):
        ExperimentSpec.from_dict({"name": "x", "kind": "threshold_sweep", "bogus": 1,
                                  "model": {"staleness": {"kind": "linear"}, "update_cost": 5.0},
                                  "arrival": {"kind": "bernoulli", "rate": 0.5}})


def comparison_spec(kind, grid, **kw):
    data = {
        "name": "cmp",
        "kind": kind,
        "model": {"staleness": {"kind": "linear"}, "update_cost": 50.0},
        "arrival": {"kind": "bernoulli", "rate": 0.5},
        "grid": grid,
        "n_runs": 4,
        "n_requests": 300,
        "base_seed": 1,
    }
    data.update(kw)
    return ExperimentSpec.from_dict(data)


def test_policy_comparison_offline_lower_bounds_each_row():
    table = run_policy_comparison(comparison_spec("lambda_sweep", [0.3, 0.7]))
    by_x = {}
    for row in table.rows:
        by_x.setdefault(row["x_value"], {})[row["policy_label"]] = row["mean_cost"]
    for x, costs in by_x.items():
        off = costs.pop("offline")
        assert off <= min(costs.values()) + 1e-9
    assert table.meta["auto_policies"]


def test_cost_sweep_overrides_update_cost():
    table = run_policy_comparison(comparison_spec("cost_sweep", [10, 40]))
    naive_rows = {r["x_value"]: r for r in table.rows if r["policy_label"] == "naive"}
    assert naive_rows[10]["analytic_cost"] < naive_rows[40]["analytic_cost"]


def test_spec_roundtrip_every_staleness_kind():
    fns = (
        StalenessFn.linear(),
        StalenessFn.quadratic(),
        StalenessFn.from_table([0, 0.5, 2.25, 60.0]),
        StalenessFn.piecewise([(1, 0.5), (3, 2.5), (8, 100.0)]),
    )
    for fn in fns:
        model = CostModel(fn, 40.0)
        spec = comparison_spec("cost_sweep", [10, 40], model=model.to_config())
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()
        assert CostModel.from_config(again.model) == model


def test_cost_sweep_piecewise_penalty():
    model = {"staleness": {"kind": "piecewise", "breakpoints": [[1, 0.5], [3, 2.5], [8, 100.0]]},
             "update_cost": 50.0}
    table = run_policy_comparison(comparison_spec("cost_sweep", [10, 40], model=model, n_runs=2))
    by_x = {}
    for row in table.rows:
        by_x.setdefault(row["x_value"], {})[row["policy_label"]] = row["mean_cost"]
    assert sorted(by_x) == [10, 40]
    for costs in by_x.values():
        off = costs.pop("offline")
        assert off <= min(costs.values()) + 1e-9


def test_truncate_requests():
    seq = ArrivalSequence.from_counts({2: 2, 5: 3, 9: 1})
    cut = truncate_requests(seq, 4)
    assert cut.slots.tolist() == [2, 5]
    assert cut.counts.tolist() == [2, 2]
    assert cut.horizon == 5
    assert truncate_requests(seq, 99) is seq


def test_trace_compare_end_to_end(tmp_path):
    trace = tmp_path / "trace.csv"
    make_trace(trace, n_requests=400, horizon=1000, seed=3)
    spec = ExperimentSpec.from_dict({
        "name": "trace",
        "kind": "trace_compare",
        "model": {"staleness": {"kind": "linear"}, "update_cost": 25.0},
        "arrival": {"kind": "trace", "path": str(trace), "slot_duration": 1.0},
        "n_requests": 400,
        "base_seed": 0,
    })
    table = run_trace_compare(spec)
    assert table.meta["lambda_hat"] == pytest.approx(0.4, abs=1e-9)
    assert table.meta["auto_policies"]["d_star"] == 11
    assert table.meta["auto_policies"]["tau_star"] == 10
    labels = {r["policy_label"] for r in table.rows}
    assert labels == {"threshold(10)", "naive", "periodic(11)", "offline"}
    finals = {r["policy_label"]: r["mean_cost"] for r in table.rows if r["x_value"] == 400}
    assert finals["offline"] <= finals["threshold(10)"] + 1e-9
    # per policy: one row per request index
    counts = {}
    for r in table.rows:
        counts[r["policy_label"]] = counts.get(r["policy_label"], 0) + 1
    assert set(counts.values()) == {400}


def test_emit_roundtrip(tmp_path):
    spec = sweep_spec(grid=[3, 9], n_runs=2, n_requests=200)
    table = run_threshold_sweep(spec)
    out = tmp_path / "out.csv"
    emit(table, out)
    text = out.read_text().splitlines()
    assert len(text) == len(table.rows) + 1
    assert text[0].startswith("x_value,policy_label,mean_cost")
    meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
    assert meta["rng"] == "numpy-pcg64-seedsequence"
    # re-running the spec recovered from the sidecar reproduces the CSV bytes
    spec2 = ExperimentSpec.from_dict(meta["spec"])
    table2 = run_threshold_sweep(spec2)
    out2 = tmp_path / "out2.csv"
    emit(table2, out2)
    assert out.read_bytes() == out2.read_bytes()


def test_emit_refuses_empty(tmp_path):
    from agecost import ResultTable
    with pytest.raises(ValueError):
        emit(ResultTable(columns=("x",), rows=[], meta={}), tmp_path / "never.csv")


def test_cli_optimal_threshold(capsys):
    rc = main(["optimal-threshold", "--lambda", "0.1", "--p", "100"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tau_star"] == 37
    assert out["delta_star"] == 100
    assert out["d_star"] == 45  # ceil-or-floor of sqrt(2*100/0.1) by cost


def test_cli_solve_mdp(tmp_path, capsys):
    dump = tmp_path / "policy.csv"
    rc = main(["solve-mdp", "--lambda", "0.5", "--p", "2", "--state-cap", "64", "--out", str(dump)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gain=1.666666667" in out
    assert dump.read_text().startswith("s,h,action")


def test_cli_sweep_and_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "name": "mini",
        "kind": "threshold_sweep",
        "model": {"staleness": {"kind": "linear"}, "update_cost": 10.0},
        "arrival": {"kind": "bernoulli", "rate": 0.5},
        "grid": [1, 2, 3],
        "n_runs": 2,
        "n_requests": 100,
    }))
    out = tmp_path / "mini.csv"
    rc = main(["sweep-threshold", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert out.exists() and (tmp_path / "mini.csv.meta.json").exists()
    capsys.readouterr()

    # validation failure: malformed config
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sweep-threshold", "--config", str(bad)]) == 1
    # validation failure: unknown flag
    assert main(["sweep-threshold", "--frobnicate"]) == 1
    # runtime failure: missing trace file
    assert main(["trace-compare", "--trace", str(tmp_path / "missing.csv"),
                 "--slot-duration", "1.0", "--p", "25"]) == 2
    capsys.readouterr()


def test_cli_compare_smoke(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    cfg = tmp_path / "cmp.json"
    cfg.write_text(json.dumps({
        "model": {"staleness": {"kind": "linear"}, "update_cost": 20.0},
        "arrival": {"kind": "bernoulli"},
        "grid": [0.4],
        "n_runs": 2,
        "n_requests": 120,
    }))
    rc = main(["compare", "--sweep", "lambda", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 4  # header + threshold/naive/periodic/offline
