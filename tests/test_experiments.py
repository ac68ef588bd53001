import json
import math
import re
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agecost import (
    ConfigError,
    CostModel,
    ExperimentSpec,
    StalenessFn,
    emit,
    run_policy_comparison,
    run_trace_compare,
)
from agecost import (
    ArrivalSequence,
    BernoulliSource,
    Policy,
    ResultTable,
    SweepResult,
    experiments,
    generate_bernoulli,
    offline_optimal,
    simulate,
)
from agecost import engine
from agecost.arrivals import derive_seed
from agecost.cli import main
from agecost.experiments import COLUMNS, Runs, truncate_requests

from oracles import alarm, make_trace, reference_csv


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
    table = run_policy_comparison(sweep_spec())
    assert len(table.rows) == 100
    best = min(table.rows, key=lambda r: r["analytic_cost"])
    assert best["x_value"] == 37
    assert best["analytic_cost"] == pytest.approx(36.217, abs=1e-2)


def test_threshold_sweep_tau_one_is_update_cost():
    table = run_policy_comparison(sweep_spec(grid=[1], n_runs=3))
    (row,) = table.rows
    assert row["analytic_cost"] == 100.0
    assert row["mean_cost"] == 100.0
    assert row["stderr"] == 0.0


def test_threshold_sweep_consistency_flag():
    table = run_policy_comparison(sweep_spec(grid=[5, 20, 37], n_runs=30, n_requests=2000))
    assert table.meta["mc_within_3_stderr"], table.meta["mc_outside_taus"]


def test_spec_validation_messages():
    for kind in ("nonsense", ["threshold_sweep"]):
        with pytest.raises(ConfigError, match=r"^kind: must be one of \("):
            sweep_spec(kind=kind)
    with pytest.raises(ConfigError, match="arrival.rate"):
        ExperimentSpec.from_dict({
            "name": "x", "kind": "cost_sweep",
            "model": {"staleness": {"kind": "linear"}, "update_cost": 5.0},
            "arrival": {"kind": "bernoulli"},
        })
    with pytest.raises(ConfigError, match=r"arrival\.rate: arrival rate"):
        sweep_spec(arrival={"kind": "bernoulli", "rate": 1.5})
    with pytest.raises(ConfigError, match=r"grid\[1\]: threshold policy needs tau >= 1"):
        sweep_spec(grid=[3, 0])
    with pytest.raises(ConfigError, match=r"grid\[2\]: arrival rate"):
        comparison_spec("lambda_sweep", [0.3, 0.7, 0.0])
    with pytest.raises(ConfigError, match=r"grid\[0\]: update_cost must be positive"):
        comparison_spec("cost_sweep", [-3, 10])
    with pytest.raises(ConfigError, match=r"grid\[1\]: staleness tops out"):
        comparison_spec("cost_sweep", [10, 90], model={
            "staleness": {"kind": "table", "values": [0, 5, 60]}, "update_cost": 10.0})
    with pytest.raises(ConfigError, match="policies"):
        comparison_spec("cost_sweep", [10], policies=[{"kind": "threshold"}])
    for policy, message in (
        ({"kind": "threshold", "tau": 2.5}, "tau must be an integer, got 2.5"),
        ({"kind": "periodic", "d": True}, "d must be an integer, got True"),
        ({"kind": "scheduled", "slots": [1.7, 3.2]}, "each slot must be an integer, got 1.7"),
    ):
        with pytest.raises(ConfigError, match=rf"policies\[1\]: {message}"):
            comparison_spec("cost_sweep", [10], policies=[{"kind": "naive"}, policy])
    linear = {"staleness": {"kind": "linear"}}
    for spec, message in (
        (lambda: sweep_spec(model={**linear, "update_cost": True}), r"model: update_cost must be a number, got True"),
        (lambda: sweep_spec(model={**linear, "update_cost": "50"}), r"model: update_cost must be a number, got '50'"),
        (lambda: sweep_spec(model=linear), r"model: update_cost must be a number, got None"),
        (lambda: sweep_spec(arrival={"kind": "bernoulli", "rate": True}),
         r"arrival\.rate: arrival rate must be a number, got True"),
        (lambda: sweep_spec(arrival={"kind": "bernoulli", "rate": "0.5"}),
         r"arrival\.rate: arrival rate must be a number, got '0\.5'"),
        (lambda: comparison_spec("lambda_sweep", [0.3, True]), r"grid\[1\]: arrival rate must be a number, got True"),
        (lambda: comparison_spec("cost_sweep", ["50"]), r"grid\[0\]: update_cost must be a number, got '50'"),
        (lambda: sweep_spec(model={**linear, "update_cost": 1e300}), r"model: update_cost 1e\+300 is too large"),
        # A field no reader reads is refused where its record is read.
        (lambda: sweep_spec(model={**linear, "update_cost": 5.0, "p": 3}), r"model: unknown fields \['p'\]"),
        (lambda: sweep_spec(model={"staleness": {"kind": "linear", "values": [0, 1]}, "update_cost": 5.0}),
         r"model: staleness: unknown fields \['values'\]"),
        (lambda: sweep_spec(model={"staleness": None, "update_cost": 5.0}),
         r"model: staleness: must be an object, got None"),
        (lambda: sweep_spec(model={"staleness": "linear", "update_cost": 5.0}),
         r"model: staleness: must be an object, got 'linear'"),
        (lambda: sweep_spec(model={"staleness": {"values": [0, 1]}, "update_cost": 5.0}),
         r"model: staleness: missing field 'kind', got \{'values': \[0, 1\]\}"),
        (lambda: sweep_spec(model={"update_cost": 5.0}), r"model: staleness: must be an object, got None"),
        (lambda: sweep_spec(arrival={"kind": "bernoulli", "rate": 0.1, "seed": 9}),
         r"arrival: unknown fields \['seed'\]"),
        # A lambda sweep takes its rates from the grid.
        (lambda: comparison_spec("lambda_sweep", [0.3], arrival={"kind": "bernoulli", "rate": 0.3}),
         r"arrival: unknown fields \['rate'\]"),
        (lambda: comparison_spec("cost_sweep", [10], policies=[{"kind": "threshold", "tau": 3, "d": 4}]),
         r"policies\[0\]: unknown fields \['d'\]"),
        (lambda: sweep_spec(arrival={"kind": "trace", "path": "t.csv"}),
         r"arrival\.kind: expected 'bernoulli' for threshold_sweep"),
        (lambda: comparison_spec("cost_sweep", [10], policies="all"),
         r"policies: must be 'auto' or a list of policy records"),
        (lambda: ExperimentSpec.from_dict({"name": "x", "kind": "threshold_sweep"}),
         r"missing 2 required positional arguments: 'model' and 'arrival'"),
        (lambda: run_policy_comparison(ExperimentSpec.from_dict(kind_data("trace_compare"))),
         r"kind: expected threshold_sweep, lambda_sweep or cost_sweep, got trace_compare"),
        (lambda: run_trace_compare(sweep_spec()), r"kind: expected trace_compare, got threshold_sweep"),
    ):
        with pytest.raises(ConfigError, match=message):
            spec()
    with pytest.raises(ConfigError, match="n_runs"):
        sweep_spec(n_runs=0)
    with pytest.raises(ConfigError, match=r"n_runs: must be an integer >= 1, got '3'"):
        sweep_spec(n_runs="3")
    with pytest.raises(ConfigError, match=r"n_runs: must be an integer >= 1, got True"):
        sweep_spec(n_runs=True)
    with pytest.raises(ConfigError, match=r"n_requests: must be an integer >= 1, got 2\.5"):
        sweep_spec(n_requests=2.5)
    with pytest.raises(ConfigError, match=r"offline_request_cap: must be an integer >= 1, got '5'"):
        comparison_spec("cost_sweep", [10], offline_request_cap="5")
    with pytest.raises(ConfigError, match=r"include_offline: must be true or false, got 'false'"):
        comparison_spec("cost_sweep", [10], include_offline="false")
    with pytest.raises(ConfigError, match=r"base_seed: must be an integer, got '1'"):
        sweep_spec(base_seed="1")
    with pytest.raises(ConfigError, match=r"grid: must be a list"):
        sweep_spec(grid=5)
    # The default grid fills in only an empty list, not any false value.
    for grid in (None, 0, False):
        with pytest.raises(ConfigError, match=rf"^grid: must be a list, got {grid}$"):
            sweep_spec(grid=grid)
    for name, message in (("output_path", r"^output_path: must be a string or null, got 5$"),
                          ("name", r"^name: must be a non-empty string, got 5$")):
        with pytest.raises(ConfigError, match=message):
            sweep_spec(**{name: 5})
    for name in (None, ""):
        with pytest.raises(ConfigError, match=rf"^name: must be a non-empty string, got {name!r}$"):
            sweep_spec(name=name)
    assert sweep_spec(output_path=None).output_path is None
    trace = {"name": "t", "kind": "trace_compare",
             "model": {"staleness": {"kind": "linear"}, "update_cost": 5.0}}
    for arrival, message in (
        ({"kind": "trace", "path": "t.csv", "slot_duration": "abc"},
         r"arrival\.slot_duration: slot duration must be a number, got 'abc'"),
        ({"kind": "trace", "path": "t.csv", "slot_duration": None},
         r"arrival\.slot_duration: slot duration must be a number, got None"),
        ({"kind": "trace", "path": "t.csv", "slot_duration": 0},
         r"arrival\.slot_duration: slot duration must be positive, got 0"),
        (["trace"], r"arrival: must be an object, got \['trace'\]"),
        ({"kind": "trace", "slot_duration": 1.0},
         r"arrival: trace_compare needs \{kind: 'trace', path, slot_duration\}"),
        # A missing slot length is named as missing, not read as 0.
        ({"kind": "trace", "path": "t.csv"},
         r"arrival: trace_compare needs \{kind: 'trace', path, slot_duration\}"),
        ({"kind": "trace", "path": "t.csv", "slot_duration": 1.0, "rate": 0.1},
         r"arrival: unknown fields \['rate'\]"),
        # An int path opened that file descriptor: 7 failed with "Bad file
        # descriptor" and 0 read the trace from stdin.
        *(({"kind": "trace", "path": path, "slot_duration": 1.0},
           rf"^arrival\.path: must be a string, got {re.escape(repr(path))}$")
          for path in (7, 0, True, None, ["t.csv"])),
    ):
        with pytest.raises(ConfigError, match=message):
            ExperimentSpec.from_dict({**trace, "arrival": arrival})
    with pytest.raises(ConfigError, match="unknown"):
        ExperimentSpec.from_dict({"name": "x", "kind": "threshold_sweep", "bogus": 1,
                                  "model": {"staleness": {"kind": "linear"}, "update_cost": 5.0},
                                  "arrival": {"kind": "bernoulli", "rate": 0.5}})


def test_threshold_grid_values_must_be_integers():
    for grid, bad in (([2.5], 0), (["3"], 0), ([True], 0), ([3, 4.0], 1)):
        with pytest.raises(ConfigError, match=rf"grid\[{bad}\]: threshold must be an integer"):
            sweep_spec(grid=grid)


def test_wrong_field_types_exit_1(tmp_path, capsys):
    base = {"model": {"staleness": {"kind": "linear"}, "update_cost": 10.0},
            "arrival": {"kind": "bernoulli", "rate": 0.5}, "grid": [2], "n_runs": 2, "n_requests": 50}
    for command, field, value in (
        ("sweep-threshold", "n_runs", "3"),
        ("sweep-threshold", "n_runs", True),
        ("sweep-threshold", "n_requests", 2.5),
        ("sweep-threshold", "grid", [2.5]),
        ("compare", "offline_request_cap", "5"),
        ("compare", "include_offline", "false"),
        ("sweep-threshold", "arrival", {"kind": "bernoulli", "rate": 0.5, "seed": 9}),
        ("sweep-threshold", "model", {"staleness": {"kind": "linear"}, "update_cost": 1e300}),
        # An int past the float range used to exit 2 from float().
        ("sweep-threshold", "model", {"staleness": {"kind": "linear"}, "update_cost": 10**400}),
        ("compare", "policies", [{"kind": "threshold", "tau": 3, "d": 4}]),
        # Penalty values are numbers: true used to load as 1.0, and an int
        # past the float range used to exit 2 from float().
        ("sweep-threshold", "model", {"staleness": {"kind": "table", "values": [0, True, 20]}, "update_cost": 10.0}),
        ("sweep-threshold", "model", {"staleness": {"kind": "table", "values": [0, 10**400]}, "update_cost": 10.0}),
        ("compare", "policies", [{"kind": "scheduled"}]),
        ("compare", "policies", [{"kind": "scheduled", "slots": 5}]),
        ("compare", "policies", [{"kind": "scheduled", "slots": [3, None]}]),
        ("compare", "policies", [{"kind": "scheduled", "slots": ""}]),
        ("compare", "policies", [{"kind": "scheduled", "slots": {}}]),
        ("sweep-threshold", "model", {"staleness": {"kind": "table", "values": None}, "update_cost": 10.0}),
        ("sweep-threshold", "model", {"staleness": {"kind": "piecewise", "breakpoints": [[4]]}, "update_cost": 10.0}),
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**base, field: value}))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "never.csv")]
        if command == "compare":
            argv += ["--sweep", "cost"]
        assert main(argv) == 1, (field, value)
        assert capsys.readouterr().err.startswith(f"configuration error: {field}"), (field, value)
    assert not (tmp_path / "never.csv").exists()


def test_config_that_is_not_an_object_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for text in ("[1, 2]", '"abc"', "null"):
        cfg.write_text(text)
        for argv in (["sweep-threshold"], ["compare", "--sweep", "cost"], ["trace-compare"]):
            assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "never.csv")]) == 1, (text, argv)
            assert capsys.readouterr().err.startswith(f"configuration error: {cfg}: must be a JSON object"), (text, argv)
    assert not (tmp_path / "never.csv").exists()


def test_trace_on_malformed_is_checked(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("1.0\nnot-a-time\n3.0\n")
    arrival = {"kind": "trace", "path": str(trace), "slot_duration": 1.0}
    data = {"name": "t", "kind": "trace_compare", "include_offline": False,
            "model": {"staleness": {"kind": "linear"}, "update_cost": 5.0}}
    with pytest.raises(ConfigError, match=r"arrival\.on_malformed: must be 'error' or 'skip', got 'bogus'"):
        ExperimentSpec.from_dict({**data, "arrival": {**arrival, "on_malformed": "bogus"}})
    spec = ExperimentSpec.from_dict({**data, "arrival": {**arrival, "on_malformed": "skip"}})
    assert {r["x_value"] for r in run_trace_compare(spec).rows} == {1, 2}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**data, "arrival": {**arrival, "on_malformed": "bogus"}}))
    assert main(["trace-compare", "--config", str(cfg), "--out", str(tmp_path / "never.csv")]) == 1
    assert capsys.readouterr().err.startswith("configuration error: arrival.on_malformed")
    # A bad slot length or a non-object arrival is a configuration error
    # naming the field, with or without flags that override its fields.
    for bad, field in (({**arrival, "slot_duration": "abc"}, "arrival.slot_duration"),
                       ({**arrival, "slot_duration": None}, "arrival.slot_duration"),
                       (["trace"], "arrival")):
        cfg.write_text(json.dumps({**data, "arrival": bad}))
        for extra in ([], ["--trace", str(trace)]):
            assert main(["trace-compare", "--config", str(cfg), "--out", str(tmp_path / "never.csv")]
                        + extra) == 1, (bad, extra)
            assert capsys.readouterr().err.startswith(f"configuration error: {field}:"), (bad, extra)
    for path in (7, 0):
        cfg.write_text(json.dumps({**data, "arrival": {**arrival, "path": path}}))
        assert main(["trace-compare", "--config", str(cfg), "--out", str(tmp_path / "never.csv")]) == 1, path
        assert capsys.readouterr().err.startswith(f"configuration error: arrival.path: must be a string, got {path}")
    # open() refuses a NUL with a ValueError of its own, which used to exit 2.
    cfg.write_text(json.dumps({**data, "arrival": {**arrival, "path": "a\u0000b"}}))
    assert main(["trace-compare", "--config", str(cfg), "--out", str(tmp_path / "never.csv")]) == 1
    assert capsys.readouterr().err == "configuration error: arrival.path: must not hold a NUL character, got 'a\\x00b'\n"
    assert not (tmp_path / "never.csv").exists()
    # A trace arrival with no slot length is refused as incomplete; it used
    # to read as slot_duration 0, a value nobody gave.
    assert main(["trace-compare", "--trace", str(trace), "--p", "25", "--out", str(tmp_path / "never.csv")]) == 1
    assert capsys.readouterr().err.startswith("configuration error: arrival: trace_compare needs {kind: 'trace', path, "
                                              "slot_duration}")
    assert not (tmp_path / "never.csv").exists()


def comparison_spec(kind, grid, **kw):
    data = {
        "name": "cmp",
        "kind": kind,
        "model": {"staleness": {"kind": "linear"}, "update_cost": 50.0},
        # A lambda sweep takes its rates from the grid.
        "arrival": {"kind": "bernoulli"} if kind == "lambda_sweep" else {"kind": "bernoulli", "rate": 0.5},
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


def test_each_bernoulli_kind_draws_its_paths_by_its_own_seed_rule():
    # Old sidecars reproduce their CSVs only while each kind keeps its rule.
    # A threshold sweep's row is simulate_many from the row's seed cell, so
    # run r of point i draws at derive_seed(derive_seed(base_seed, i), r),
    # and it has no offline row. Both run the same loop, so the rows are
    # rebuilt here path by path.
    spec = sweep_spec(grid=[3, 8], n_runs=3, n_requests=200)
    rows = run_policy_comparison(spec).rows
    assert [r["policy_label"] for r in rows] == ["threshold(3)", "threshold(8)"]
    for i, row in enumerate(rows):
        assert row["seed"] == derive_seed(spec.base_seed, i)
        paths = [generate_bernoulli(BernoulliSource(0.1, derive_seed(row["seed"], r)), n_requests=200)
                 for r in range(3)]
        sweep = SweepResult.of(simulate(Policy.threshold(row["x_value"]), p, spec._model) for p in paths)
        assert (row["mean_cost"], row["stderr"], row["mean_staleness"], row["mean_update"]) == (
            sweep.mean_avg_total, sweep.stderr, sweep.mean_avg_staleness, sweep.mean_avg_update)
    # A comparison's run r of point i draws at derive_seed(base_seed, i, r).
    configured = [{"kind": "threshold", "tau": 3}, {"kind": "naive"}, {"kind": "periodic", "d": 4}]
    spec = comparison_spec("cost_sweep", [10, 40], policies=configured)
    rows = run_policy_comparison(spec).rows
    for i, (x, rate, model) in enumerate(spec._points):
        paths = [generate_bernoulli(BernoulliSource(rate, derive_seed(spec.base_seed, i, r)), n_requests=300)
                 for r in range(spec.n_runs)]
        schedules = [[Policy.from_config(c)] * len(paths) for c in configured]
        schedules.append([Policy.scheduled(offline_optimal(p, model).update_slots) for p in paths])
        expected = [SweepResult.of(map(simulate, pols, paths, [model] * len(paths))) for pols in schedules]
        got = [r for r in rows if r["x_value"] == x]
        assert [r["policy_label"] for r in got] == ["threshold(3)", "naive", "periodic(4)", "offline"]
        assert [(r["mean_cost"], r["stderr"], r["mean_staleness"], r["mean_update"]) for r in got] == [
            (e.mean_avg_total, e.stderr, e.mean_avg_staleness, e.mean_avg_update) for e in expected]


# Per kind: an arrival it accepts, a grid, and the spec fields it reads
# besides name, kind, model, arrival, n_requests and output_path.
_KIND_INPUTS = {
    "threshold_sweep": ({"kind": "bernoulli", "rate": 0.5}, [3, 5], {"grid", "n_runs", "base_seed"}),
    "lambda_sweep": ({"kind": "bernoulli"}, [0.3, 0.7],
                     {"grid", "n_runs", "base_seed", "policies", "include_offline", "offline_request_cap"}),
    "cost_sweep": ({"kind": "bernoulli", "rate": 0.5}, [10, 40],
                   {"grid", "n_runs", "base_seed", "policies", "include_offline", "offline_request_cap"}),
    "trace_compare": ({"kind": "trace", "path": "t.csv", "slot_duration": 1.0}, [],
                      {"policies", "include_offline", "offline_request_cap"}),
}
_DEFAULTS = {"policies": "auto", "grid": [], "n_runs": 100, "base_seed": 0, "include_offline": True,
             "offline_request_cap": 10_000}
_NOT_DEFAULTS = {"policies": [{"kind": "naive"}], "grid": [5], "n_runs": 7, "base_seed": 3,
                 "include_offline": False, "offline_request_cap": 50}


def kind_data(kind, **kw):
    arrival, grid, _ = _KIND_INPUTS[kind]
    data = {"name": "k", "kind": kind, "model": {"staleness": {"kind": "linear"}, "update_cost": 50.0},
            "arrival": arrival, "n_requests": 100}
    if grid:
        data["grid"] = grid
    return {**data, **kw}


@pytest.mark.parametrize("kind,name", [(kind, name) for kind, (_, _, reads) in _KIND_INPUTS.items()
                                       for name in sorted(set(_DEFAULTS) - reads)])
def test_a_kind_refuses_the_fields_it_does_not_read(kind, name):
    with pytest.raises(ConfigError, match=rf"^{name}: a {kind} does not read this field, got "):
        ExperimentSpec.from_dict(kind_data(kind, **{name: _NOT_DEFAULTS[name]}))
    spec = ExperimentSpec.from_dict(kind_data(kind, **{name: _DEFAULTS[name]}))
    assert name not in spec.to_dict()


@pytest.mark.parametrize("kind", sorted(_KIND_INPUTS))
def test_old_sidecar_specs_of_every_kind_load(kind):
    # Sidecars used to hold all 12 fields; those a kind does not read were
    # always at their defaults.
    old = {**kind_data(kind), **_DEFAULTS, "grid": _KIND_INPUTS[kind][1], "output_path": "out.csv"}
    spec = ExperimentSpec.from_dict(old)
    read = {"name", "kind", "model", "arrival", "n_requests", "output_path"} | _KIND_INPUTS[kind][2]
    assert spec.to_dict() == {name: value for name, value in old.items() if name in read}
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


def test_spec_roundtrip_every_staleness_kind():
    fns = (
        StalenessFn.linear(),
        StalenessFn.quadratic(),
        StalenessFn.from_table([0, 0.5, 2.25, 60.0]),
        StalenessFn.piecewise([(1, 0.5), (3, 2.5), (8, 100.0)]),
    )
    for fn in fns:
        model = CostModel(fn, 40.0)
        for kind in _KIND_INPUTS:
            spec = ExperimentSpec.from_dict(kind_data(kind, model=model.to_config()))
            again = ExperimentSpec.from_dict(spec.to_dict())
            assert again.to_dict() == spec.to_dict()
            assert again == spec
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


def test_auto_and_configured_policies_share_analytic_costs():
    # Summed pairwise, F(18) of a/10 prices threshold(19) at 1.855; summed in
    # age order, at 1.8549999999999998. Both paths must write the same float.
    model = {"staleness": {"kind": "table", "values": [a / 10 for a in range(101)]}, "update_cost": 10.0}
    auto = run_policy_comparison(comparison_spec("cost_sweep", [10], model=model, include_offline=False))
    info = auto.meta["auto_policies"]["10"]
    assert info["tau_star"] == 19
    configured = [{"kind": "threshold", "tau": 19}, {"kind": "naive"}, {"kind": "periodic", "d": info["d_star"]}]
    again = run_policy_comparison(comparison_spec("cost_sweep", [10], model=model, include_offline=False,
                                                  policies=configured))
    assert [r["policy_label"] for r in auto.rows] == [r["policy_label"] for r in again.rows]
    assert auto.rows[0]["policy_label"] == "threshold(19)"
    for a, b in zip(auto.rows, again.rows):
        assert a["analytic_cost"] == b["analytic_cost"], a["policy_label"]


def test_auto_policies_drop_a_period_that_is_never_optimal(tmp_path):
    # At rate 0.01 the periodic cost of this penalty falls toward 5 forever.
    model = {"staleness": {"kind": "piecewise", "breakpoints": [[10, 5.0]]}, "update_cost": 5.0}
    spec = comparison_spec("cost_sweep", [5.0], model=model, include_offline=False,
                           arrival={"kind": "bernoulli", "rate": 0.01})
    table = run_policy_comparison(spec)
    assert [r["policy_label"] for r in table.rows] == ["threshold(10)", "naive"]
    info = table.meta["auto_policies"]["5.0"]
    assert (info["d_star"], info["d_continuous"]) == (None, None)
    assert info["periodic_dropped"] == ("no finite period is optimal: the periodic cost falls "
                                        "toward 5.0 as the period grows")
    emit(table, tmp_path / "out.csv")
    assert json.loads((tmp_path / "out.csv.meta.json").read_text())["auto_policies"] == table.meta["auto_policies"]


def test_repeated_policy_labels_keep_their_own_rows(tmp_path):
    early, late = {"kind": "scheduled", "slots": [5, 9]}, {"kind": "scheduled", "slots": [50, 400]}
    table = run_policy_comparison(comparison_spec("cost_sweep", [20], policies=[early, late]))
    rows = {r["policy_label"]: r for r in table.rows}
    assert sorted(rows) == ["offline", "scheduled[2]", "scheduled[2]#2"]
    assert {r["n_runs"] for r in table.rows} == {4}
    # Each row summarizes only its own policy's runs.
    alone = run_policy_comparison(comparison_spec("cost_sweep", [20], policies=[late]))
    assert rows["scheduled[2]#2"]["mean_cost"] == alone.rows[0]["mean_cost"]
    assert rows["scheduled[2]#2"]["stderr"] == alone.rows[0]["stderr"]

    trace = tmp_path / "trace.csv"
    make_trace(trace, n_requests=100, horizon=300, seed=3)
    spec = ExperimentSpec.from_dict({
        "name": "trace", "kind": "trace_compare",
        "model": {"staleness": {"kind": "linear"}, "update_cost": 25.0},
        "arrival": {"kind": "trace", "path": str(trace), "slot_duration": 1.0},
        "policies": [early, late, early], "include_offline": False, "n_requests": 100,
    })
    labels = [r["policy_label"] for r in run_trace_compare(spec).rows]
    assert sorted(set(labels)) == ["scheduled[2]", "scheduled[2]#2", "scheduled[2]#3"]
    assert len(labels) == 3 * 100


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
    table = run_policy_comparison(spec)
    out = tmp_path / "out.csv"
    emit(table, out)
    text = out.read_text().splitlines()
    assert len(text) == len(table.rows) + 1
    assert text[0].startswith("x_value,policy_label,mean_cost")
    meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
    assert meta["rng"] == "numpy-pcg64-seedsequence"
    # re-running the spec recovered from the sidecar reproduces the CSV bytes
    spec2 = ExperimentSpec.from_dict(meta["spec"])
    table2 = run_policy_comparison(spec2)
    out2 = tmp_path / "out2.csv"
    emit(table2, out2)
    assert out.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("argv,kind_keys", [
    (["sweep-threshold", "--lambda", "0.3", "--tau", "4"], {"rate", "mc_within_3_stderr", "mc_outside_taus"}),
    (["compare", "--sweep", "lambda"], {"auto_policies", "offline_included"}),
    (["compare", "--sweep", "cost", "--lambda", "0.3"], {"auto_policies", "offline_included"}),
])
def test_sidecar_keys_per_kind(argv, kind_keys, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([*argv, "--p", "20", "--runs", "2", "--requests", "100", "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "out.csv.meta.json").read_text())
    assert set(sidecar) == {"artifact_version", "rng", "created_unix", "spec"} | kind_keys


def test_emit_refuses_empty(tmp_path):
    with pytest.raises(ValueError):
        emit(ResultTable({name: [] for name in COLUMNS}, meta={}), tmp_path / "never.csv")


@pytest.mark.parametrize("column", [list, np.array, lambda values: Runs([values[0], "none", *values[1:]],
                                                                   [1, 0, *[1] * (len(values) - 1)])],
                         ids=["list", "array", "runs"])
def test_result_table_checks_its_columns(column):
    columns = {name: column([1, 2]) for name in COLUMNS}
    with pytest.raises(ValueError, match="columns must be exactly"):
        ResultTable({k: v for k, v in columns.items() if k != "seed"}, meta={})
    with pytest.raises(ValueError, match=r"columns differ in length: \[2, 3\]"):
        ResultTable({**columns, "seed": column([0, 1, 2])}, meta={})
    rows = ResultTable({**columns, "mean_cost": np.array([0.5, -0.0])}, meta={}).rows
    assert len(rows) == 2
    assert rows[-1] == {**dict.fromkeys(COLUMNS, 2), "mean_cost": -0.0}
    assert type(rows[1]["mean_cost"]) is float and type(rows[-1]["seed"]) is int
    assert rows[:1] == [{**dict.fromkeys(COLUMNS, 1), "mean_cost": 0.5}]
    with pytest.raises(IndexError):
        rows[2]


@settings(max_examples=200, deadline=None)
@given(runs=st.lists(st.tuples(st.integers(), st.integers(0, 4)), max_size=6),
       start=st.integers(-25, 25), stop=st.integers(-25, 25) | st.none())
def test_runs_index_and_slice_as_the_list_they_stand_for(runs, start, stop):
    column = Runs([v for v, _ in runs], [c for _, c in runs])
    cells = [v for v, c in runs for _ in range(c)]
    assert len(column) == len(cells)
    assert [column[i] for i in range(-len(cells), len(cells))] == cells + cells
    for i in (len(cells), -len(cells) - 1):
        with pytest.raises(IndexError):
            column[i]
    part = column[start:stop]
    assert isinstance(part, Runs) and list(part) == cells[start:stop]
    with pytest.raises(ValueError, match="step 1"):
        column[::2]
    for values, counts in (([1], [1, 2]), ([1, 2], [3, -1])):
        with pytest.raises(ValueError, match="one count >= 0 per value"):
            Runs(values, counts)


_FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1e-7, 1e16, 3.0, 1e10, 123456789012.0]))
_INTS = st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from([0, 7, 10**10, 2**62]))
_CELLS = st.one_of(
    st.none(), st.just(""), _FLOATS, st.integers(), st.integers(10**10, 10**30),
    st.sampled_from(["threshold(10)", "naive", "offline#2", "100%", "%s%d%%", "#"]),
)


_ALIKE = [(0, 0.0, -0.0, False), (1, 1.0, True), (10**16, 1e16)]  # equal values that print differently


def _runs(draw, n, cuts, values):
    """A ``Runs`` of n rows cut at ``cuts`` (any points in [0, n], so runs
    straddle chunk boundaries and some are empty), one drawn value a run."""
    counts = np.diff([0, *sorted(cuts), n])
    return Runs(draw(st.lists(values, min_size=len(counts), max_size=len(counts))), counts)


def _expanded(column):
    """A ``Runs`` as the list of cells it stands for; any other column as it is."""
    if isinstance(column, Runs):
        return [value for value, count in zip(column.values, column.counts) for _ in range(count)]
    return column


@st.composite
def _columns(draw):
    n = draw(st.integers(1, 12))
    columns = {}
    for name in COLUMNS:
        kind = draw(st.sampled_from(("float64", "int64", "cells", "alike", "runs")))
        if kind == "cells":
            columns[name] = draw(st.lists(_CELLS, min_size=n, max_size=n))
        elif kind == "alike":
            group = draw(st.sampled_from(_ALIKE))
            columns[name] = draw(st.lists(st.sampled_from(group), min_size=n, max_size=n))
        elif kind == "runs":
            cuts = draw(st.lists(st.integers(0, n), max_size=6))
            columns[name] = _runs(draw, n, cuts, _CELLS | st.sampled_from(draw(st.sampled_from(_ALIKE))))
        else:
            columns[name] = np.array(draw(st.lists(_FLOATS if kind == "float64" else _INTS,
                                                   min_size=n, max_size=n)), dtype=kind)
    return columns


@settings(max_examples=200, deadline=None)
@given(columns=_columns(), chunk=st.sampled_from([1, 2, 3, 5, 64]))
def test_emit_matches_the_reference_writer(tmp_path_factory, columns, chunk):
    table = ResultTable(columns, meta={})
    cells = ResultTable({name: _expanded(column) for name, column in columns.items()}, meta={})
    out = tmp_path_factory.getbasetemp() / "emit.csv"
    with mock.patch.object(experiments, "_EMIT_CHUNK", chunk):
        emit(table, out)
    assert out.read_bytes() == reference_csv(cells.rows).encode()
    # repr tells 0, 0.0, -0.0 and False apart
    assert [list(map(repr, row.values())) for row in table.rows] == \
        [list(map(repr, row.values())) for row in cells.rows]


def _edge_floats():
    """Floats whose ten significant digits are hardest to place, both signs:
    near-halfway decimals (k + 1/2)·10^-j, each side of every decade edge,
    10-digit carries, both notation switches, zeros, the specials and
    subnormals."""
    k = np.random.default_rng(3).integers(10**9, 10**10, 40)
    halves = ((k[:, None] + 0.5) * 10.0 ** -np.arange(16)).ravel()
    decades = 10.0 ** np.arange(-7, 13)
    edges = np.concatenate([np.nextafter(decades, 0), decades, np.nextafter(decades, np.inf)])
    carries = [9999999999.5, 9999999999.4999, 9.9999999995e-5, 9.99999999949e-5, 0.99999999995, 99999.999995]
    switches = [1e-4, 1.0000000001e-4, 1e-5, 1e10, 9.999999999e9, 1.00000000001e10]
    specials = [0.0, math.nan, math.inf, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308]
    values = np.concatenate([halves, edges, carries, switches, specials])
    return np.concatenate([values, -values])


_EDGE_FLOATS = _edge_floats()
_TEXT_CELLS = st.one_of(_CELLS, st.text(max_size=6), st.sampled_from(["%", "%%d", "a\0b", "\0", "é", "🙂", "naïve(3)"]))


@st.composite
def _long_columns(draw):
    """2,000 to 2,500 rows. A float64 column mixes running means, every
    magnitude with both signs, values of fewer than ten digits, integers,
    the edge floats and hypothesis floats; an integer column spans int64 or
    uint64 with their extremes; a cell column holds runs of the same object,
    text with "%", NUL or non-ASCII among them, and a ``Runs`` column such
    values or an alike group, cut anywhere and at the chunk edges."""
    n = draw(st.integers(2_000, 2_500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for name in COLUMNS:
        kind = draw(st.sampled_from(("float64", "int64", "uint64", "cells", "object", "runs")))
        if kind == "float64":
            pool = np.concatenate([
                np.cumsum(rng.uniform(0, 50, n)) / np.arange(1, n + 1),
                10.0 ** rng.uniform(-6, 11, n) * rng.choice([-1, 1], n),
                np.round(rng.uniform(-1e4, 1e4, n), rng.integers(0, 10)),
                rng.integers(-10**6, 10**6, n).astype(np.float64),
                _EDGE_FLOATS,
                draw(st.lists(st.floats(), max_size=20)),
            ])
            columns[name] = rng.permutation(pool)[:n]
        elif kind in ("int64", "uint64"):
            info = np.iinfo(kind)
            column = rng.integers(info.min, info.max, n, dtype=kind, endpoint=True)
            column[rng.random(n) < 0.5] %= 1000
            column[rng.integers(0, n, 3)] = [info.min, info.max, 0]
            columns[name] = column
        elif kind == "runs":
            edges = [e + d for e in (999, 1998, 2048) for d in (-1, 0, 1) if e + d <= n]
            cuts = [*rng.integers(0, n + 1, rng.integers(0, 8)), *draw(st.lists(st.sampled_from(edges), max_size=3))]
            columns[name] = _runs(draw, n, cuts, _TEXT_CELLS | st.sampled_from(draw(st.sampled_from(_ALIKE))))
        else:
            values = draw(st.lists(_TEXT_CELLS, min_size=1, max_size=5))
            cells = [values[i] for i in np.sort(rng.integers(0, len(values), n))]
            columns[name] = np.array(cells, dtype=object) if kind == "object" else cells
    return columns


@settings(max_examples=30, deadline=None)
@given(columns=_long_columns(), chunk=st.sampled_from([999, 2048, experiments._EMIT_CHUNK]))
def test_emit_matches_the_reference_writer_on_long_columns(tmp_path_factory, columns, chunk):
    table = ResultTable(columns, meta={})
    out = tmp_path_factory.getbasetemp() / "emit-long.csv"
    expected = reference_csv(ResultTable({name: _expanded(column) for name, column in columns.items()},
                                         meta={}).rows)
    with mock.patch.object(experiments, "_EMIT_CHUNK", chunk):
        if "\0" in expected:  # NUL pads the kernel's byte rows, so a cell holding one is refused
            with pytest.raises(ValueError, match="NUL"):
                emit(table, out)
        else:
            emit(table, out)
            assert out.read_bytes() == expected.encode()


def test_emit_places_every_edge_float_and_extreme_integer(tmp_path):
    floats = np.concatenate([_EDGE_FLOATS, _EDGE_FLOATS[::-1]])
    n = len(floats)
    ints = np.resize(np.array([-2**63, 2**63 - 1, -1, 0, 7, 10**18, -10**18], dtype=np.int64), n)
    columns = {name: ["x"] * n for name in COLUMNS}
    columns.update(mean_cost=floats, stderr=floats[::-1].copy(), x_value=ints,
                   n_runs=np.resize(np.array([2**64 - 1, 0, 10**19], dtype=np.uint64), n),
                   policy_label=np.resize(np.array(["100%", "naïve", "é🙂"], dtype=object), n))
    emit(ResultTable(columns, meta={}), tmp_path / "edges.csv")
    rows = [line.split(",") for line in (tmp_path / "edges.csv").read_text(encoding="utf-8").splitlines()[1:]]
    assert n >= 2_000
    assert [r[2] for r in rows] == [format(v, ".10g") for v in floats.tolist()]
    assert [r[3] for r in rows] == [format(v, ".10g") for v in floats[::-1].tolist()]
    assert [r[0] for r in rows] == [str(v) for v in ints.tolist()]
    assert [r[7] for r in rows] == [str(v) for v in columns["n_runs"].tolist()]
    assert [r[1] for r in rows] == columns["policy_label"].tolist()


def test_emit_refuses_a_nul_in_a_text_cell(tmp_path):
    columns = {name: [1, 2] for name in COLUMNS}
    with pytest.raises(ValueError, match="may not hold a NUL character"):
        emit(ResultTable({**columns, "policy_label": ["naive", "a\0b"]}, meta={}), tmp_path / "nul.csv")
    # A run of no rows holds no cell, so its value is neither written nor refused.
    emit(ResultTable({**columns, "policy_label": Runs(["naive", "a\0b", "x"], [1, 0, 1])}, meta={}),
         tmp_path / "empty-run.csv")
    assert (tmp_path / "empty-run.csv").read_text().splitlines()[1:] == ["1,naive,1,1,1,1,1,1,1,1",
                                                                        "2,x,2,2,2,2,2,2,2,2"]


def test_emit_matches_the_reference_writer_on_every_kind(tmp_path):
    trace = tmp_path / "trace.csv"
    make_trace(trace, n_requests=150, horizon=400, seed=19)
    tables = (
        run_policy_comparison(sweep_spec(grid=[1, 3, 8], n_runs=3, n_requests=200)),
        run_policy_comparison(comparison_spec("lambda_sweep", [0.3, 0.7])),
        run_policy_comparison(comparison_spec("cost_sweep", [7.5, 40])),
        run_trace_compare(ExperimentSpec.from_dict({
            "name": "trace", "kind": "trace_compare",
            "model": {"staleness": {"kind": "quadratic"}, "update_cost": 40.0},
            "arrival": {"kind": "trace", "path": str(trace), "slot_duration": 1.0},
            "n_requests": 150,
        })),
    )
    assert len(tables[-1].rows) == 4 * 150
    out = tmp_path / "out.csv"
    for table in tables:
        for chunk in (7, experiments._EMIT_CHUNK):
            with mock.patch.object(experiments, "_EMIT_CHUNK", chunk):
                emit(table, out)
            assert out.read_bytes() == reference_csv(table.rows).encode()


def test_trace_compare_memory_is_columnar(tmp_path):
    # 150,000 rows: with a dict per row the build and write peaked at ~64 MiB
    # of Python allocations; with one array per column, at ~18.5 MiB; with
    # the block-constant columns as runs and the means written in place,
    # at ~9.4 MiB.
    trace = tmp_path / "trace.csv"
    make_trace(trace, n_requests=50_000, horizon=125_000, seed=5)
    spec = ExperimentSpec.from_dict({
        "name": "trace", "kind": "trace_compare",
        "model": {"staleness": {"kind": "linear"}, "update_cost": 25.0},
        "arrival": {"kind": "trace", "path": str(trace), "slot_duration": 1.0},
        "n_requests": 50_000,
    })
    tracemalloc.start()
    try:
        table = run_trace_compare(spec)
        emit(table, tmp_path / "out.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    for name, column in table.columns.items():  # no Python object per row
        assert not isinstance(column, list) and getattr(column, "dtype", None) != object, name


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
    # --tau narrows the sweep to one threshold, and the sidecar spec says so.
    one = tmp_path / "one.csv"
    assert main(["sweep-threshold", "--config", str(cfg), "--tau", "2", "--out", str(one)]) == 0
    assert [line.split(",")[0] for line in one.read_text().splitlines()[1:]] == ["2"]
    assert json.loads((tmp_path / "one.csv.meta.json").read_text())["spec"]["grid"] == [2]
    capsys.readouterr()

    # validation failure: malformed config
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sweep-threshold", "--config", str(bad)]) == 1
    # validation failure: unknown flag
    assert main(["sweep-threshold", "--frobnicate"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("content,message", [
    (None, "No such file or directory"),
    (b'{"n_runs": 3\xff}', "'utf-8' codec can't decode byte 0xff"),
    (b'{"n_runs": ' + b"9" * 5000 + b"}", "Exceeds the limit"),
    (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
], ids=["missing", "not-utf-8", "5000-digit-integer", "nested-too-deep"])
def test_an_unreadable_config_file_exits_1(content, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_bytes(content)
    out = tmp_path / "never.csv"
    assert main(["sweep-threshold", "--lambda", "0.5", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {cfg}: ") and message in err, err
    assert not out.exists()


def test_missing_trace_file_exits_1_naming_the_path(tmp_path, capsys):
    # A trace file that cannot be read is bad input, refused naming
    # arrival.path, whether the path comes from --trace or --config.
    missing = tmp_path / "missing.csv"
    out = tmp_path / "never.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"arrival": {"kind": "trace", "path": str(missing), "slot_duration": 1.0}}))
    for argv in (["--trace", str(missing), "--slot-duration", "1.0", "--p", "25"], ["--config", str(cfg)]):
        assert main(["trace-compare", *argv, "--out", str(out)]) == 1, argv
        assert capsys.readouterr().err == (f"configuration error: arrival.path: cannot read {str(missing)!r}: "
                                           "No such file or directory\n")
        assert not out.exists()


@pytest.mark.parametrize("argv,grid,field", [
    (["sweep-threshold", "--tau", "5"], None, "arrival.rate"),
    (["compare", "--sweep", "cost"], [50], "arrival.rate"),
    # Both points' paths are in one batch; the second's pass the last slot.
    (["compare", "--sweep", "lambda"], [0.5, 1e-16], "grid[1]"),
], ids=["threshold", "cost", "lambda"])
def test_a_rate_whose_paths_pass_the_int64_slots_exits_1(argv, grid, field, tmp_path, capsys):
    # The slots of 1000 requests at rate 1e-16 wrap in int64; they used to
    # be replayed into a mean cost of 4e18 against an analytic cost of 100.
    spec = {"n_runs": 2, "n_requests": 1000, "model": {"staleness": {"kind": "linear"}, "update_cost": 100}}
    if grid is None:
        spec["arrival"] = {"kind": "bernoulli", "rate": 1e-16}
    else:  # a configured policy: the auto period at this rate would be priced over ~1e9 ages
        spec.update(grid=grid, policies=[{"kind": "threshold", "tau": 5}],
                    arrival={"kind": "bernoulli"} if argv[-1] == "lambda" else {"kind": "bernoulli", "rate": 1e-16})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(spec))
    out = tmp_path / "never.csv"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"configuration error: {field}: 1000 requests at rate 1e-16 "
                                       "pass the last int64 slot\n")
    assert not out.exists()


@pytest.mark.parametrize("argv,grid,field", [
    (["optimal-threshold", "--lambda", "1e-320", "--p", "100"], None, ""),
    (["compare", "--sweep", "cost", "--lambda", "1e-320"], None, "arrival.rate: "),
    (["compare", "--sweep", "cost", "--lambda", "1e-300"], None, "arrival.rate: "),
    (["compare", "--sweep", "lambda"], [0.5, 1e-300], "grid[1]: "),
], ids=["optimal-threshold", "cost-subnormal", "cost", "lambda"])
def test_a_rate_too_small_for_the_linear_period_exits_1(argv, grid, field, tmp_path, capsys):
    # sqrt(2p/rate) past 2^50 used to size the period's prefix array: exit 2
    # with "cannot convert float infinity to integer" or "Maximum allowed size
    # exceeded".
    out = tmp_path / "never.csv"
    if argv[0] == "compare":
        argv = argv + ["--p", "50", "--runs", "2", "--requests", "100", "--out", str(out)]
    if grid is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"arrival": {"kind": "bernoulli"}, "grid": grid}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {field}arrival rate 1e-3"), err
    assert "the optimal period sqrt(2p/rate) = " in err and err.endswith(" passes 2^50\n"), err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep-threshold", "--lambda", "0.3", "--p", "20", "--runs", "2", "--requests", "50", "--tau", "3"],
    ["compare", "--sweep", "lambda", "--p", "50", "--runs", "2", "--requests", "200"],
    ["compare", "--sweep", "cost", "--lambda", "0.3", "--runs", "2", "--requests", "50"],
    ["trace-compare", "--slot-duration", "1.0", "--p", "25"],
], ids=["sweep-threshold", "compare-lambda", "compare-cost", "trace-compare"])
def test_an_output_path_that_cannot_be_written_exits_1_before_the_run(argv, tmp_path, monkeypatch, capsys):
    # The run used to go ahead and then fail to write: exit 2 with [Errno 2]
    # or [Errno 21]. Neither a path nor the trace is read now.
    trace = tmp_path / "trace.csv"
    make_trace(trace, n_requests=50, horizon=100, seed=1)
    if argv[0] == "trace-compare":
        argv = argv + ["--trace", str(trace)]
    monkeypatch.setattr(experiments, "generate_bernoulli", None)
    monkeypatch.setattr(experiments, "load_trace", None)
    for out in (tmp_path / "no-such-dir" / "x.csv", tmp_path):
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == ("configuration error: output_path: must name a file in an existing "
                                           f"directory, got {str(out)!r}\n")
    # A spec's output_path is checked the same way; open() would refuse a NUL.
    cfg = tmp_path / "cfg.json"
    for path in (str(tmp_path / "no-such-dir" / "y.csv"), "a\0b.csv"):
        cfg.write_text(json.dumps({"output_path": path}))
        assert main(argv + ["--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("configuration error: output_path: must name a file")
    assert list(tmp_path.rglob("*.csv*")) == [trace]


def test_solve_mdp_out_that_cannot_be_written_exits_1_before_the_solve(tmp_path, capsys):
    for out in (tmp_path / "no-such-dir" / "p.csv", tmp_path):
        assert main(["solve-mdp", "--lambda", "0.1", "--p", "100", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # no solve printed
        assert captured.err == f"configuration error: --out: must name a file in an existing directory, got {str(out)!r}\n"
    assert not list(tmp_path.iterdir())


def test_a_write_that_fails_after_the_run_still_exits_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    (tmp_path / "x.csv.meta.json").mkdir()  # the CSV is written, its sidecar cannot be
    assert main(["sweep-threshold", "--lambda", "0.3", "--p", "20", "--runs", "2", "--requests", "50",
                 "--tau", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("text,slot_duration,message", [
    ("1.0\nabc\n2.0\n", "1.0", "arrival.path: line 2: cannot parse timestamp from 'abc'"),
    ("\n \n\n", "1.0", "arrival.path: no usable timestamps in {path}"),
    ("0\n1\n", "1e-300", "arrival.slot_duration: timestamps span 0.0 to 1.0, which at slot_duration=1e-300 "
                          "needs more slots than int64 holds"),
    ("1.0\n\xff\n", "1.0", "arrival.path: cannot read '{path}': 'utf-8' codec can't decode byte 0xff in "
                           "position 4: invalid start byte"),
], ids=["malformed-line", "blank-lines", "span", "not-utf-8"])
def test_trace_content_errors_exit_1_naming_the_field(text, slot_duration, message, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_bytes(text.encode("latin-1"))  # "\xff" is the one byte 0xff, which is not UTF-8
    out = tmp_path / "never.csv"
    argv = ["trace-compare", "--trace", str(trace), "--slot-duration", slot_duration, "--p", "25", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"configuration error: {message.format(path=trace)}\n"
    assert not out.exists()


def test_non_finite_costs_exit_1(tmp_path, capsys):
    # An infinite update cost used to send the cap scan into an endless loop.
    for argv in (
        ["optimal-threshold", "--lambda", "0.5", "--p", "inf"],
        ["optimal-threshold", "--lambda", "0.5", "--p", "nan"],
        ["sweep-threshold", "--lambda", "0.5", "--p", "inf", "--out", str(tmp_path / "never.csv")],
    ):
        assert main(argv) == 1, argv
        assert "update_cost must be positive and finite" in capsys.readouterr().err, argv
    cfg = tmp_path / "cfg.json"
    for staleness, message in (
        ({"kind": "table", "values": [0, math.nan, 5]}, "table staleness value at age 1 must be finite, got nan"),
        ({"kind": "table", "values": [0, 1, math.inf]}, "table staleness value at age 2 must be finite, got inf"),
        ({"kind": "piecewise", "breakpoints": [[1, 0.5], [3, math.nan]]},
         "piecewise value at age 3 must be finite, got nan"),
        ({"kind": "piecewise", "breakpoints": [[1, 0.5], [math.inf, 5]]},
         "piecewise breakpoint [inf, 5]: age must be an integer, got inf"),
    ):
        cfg.write_text(json.dumps({"model": {"staleness": staleness, "update_cost": 4.0}}))
        argv = ["sweep-threshold", "--lambda", "0.5", "--config", str(cfg), "--out", str(tmp_path / "never.csv")]
        assert main(argv) == 1, staleness
        assert capsys.readouterr().err.startswith(f"configuration error: model: {message}"), staleness
    assert not (tmp_path / "never.csv").exists()


def test_costs_past_the_float_range_exit_1(tmp_path, capsys):
    # Every sum is finite at p = 5; at p = 1e308 the replays overflow to
    # inf, which used to be written as inf and nan rows.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"staleness": {"kind": "table", "values": [0, 1, 1e308]}, "update_cost": 5},
                               "grid": [5, 1e308], "n_runs": 2, "n_requests": 200}))
    out = tmp_path / "never.csv"
    assert main(["compare", "--sweep", "cost", "--lambda", "0.3", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: grid[1]: threshold(2) has mean cost inf and stderr nan"), err
    assert not out.exists()
    # RuntimeWarnings are errors in this suite, so a warning before the
    # refusal would exit 2: np.std warned on these runs' inf averages.
    model = {"staleness": {"kind": "table", "values": [0, 1, 1e308]}, "update_cost": 1e308}
    cfg.write_text(json.dumps({"model": model, "grid": [2, 3], "n_runs": 3, "n_requests": 200}))
    assert main(["sweep-threshold", "--lambda", "0.3", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: grid[0]: threshold(2) has mean cost inf and stderr nan"), err
    assert not out.exists()


def test_trace_costs_past_the_float_range_exit_1(tmp_path, capsys):
    # At p = 1e308 every replay of the trace, the offline one included,
    # overflows to inf, which used to be written as inf rows.
    trace = tmp_path / "trace.csv"
    make_trace(trace, n_requests=300, horizon=900, seed=7)
    cfg = tmp_path / "cfg.json"
    for p in (5, 1e308):
        cfg.write_text(json.dumps({"model": {"staleness": {"kind": "table", "values": [0, 1, 1e308]}, "update_cost": p},
                                   "arrival": {"kind": "trace", "path": str(trace), "slot_duration": 1.0}}))
        out = tmp_path / f"{p}.csv"
        code = main(["trace-compare", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        if p == 5:
            assert code == 0, err
            assert "inf" not in out.read_text()
    assert code == 1
    assert re.match(r"configuration error: model: threshold\(\d+\) has total cost inf over 300 requests: "
                    "the model's costs pass the float range", err), err
    assert not out.exists()


def _spy_on_tasks(monkeypatch, cpus):
    """Force the usable CPU count and record the thread of every task of
    the runners' ``ordered_map``."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
    threads = []

    def spied(fn, items):
        def task(item):
            threads.append(threading.get_ident())
            return fn(item)
        return engine.ordered_map(task, items)

    monkeypatch.setattr(experiments, "ordered_map", spied)
    return threads


@pytest.mark.parametrize("argv", [
    ["sweep-threshold", "--lambda", "0.1", "--p", "100", "--runs", "3", "--requests", "500"],
    # 20 cost points x 2 runs of 2,000 requests: two batches of offline optima.
    ["compare", "--sweep", "cost", "--lambda", "0.3", "--p", "50", "--runs", "2", "--requests", "2000"],
])
def test_csv_bytes_do_not_depend_on_the_thread_count(argv, tmp_path, monkeypatch, capsys):
    start = threading.active_count()
    csv = {}
    for cpus in (1, 4):
        threads = _spy_on_tasks(monkeypatch, cpus)
        out = tmp_path / f"{cpus}.csv"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so that a race between tasks would show
        try:
            assert main(argv + ["--out", str(out)]) == 0, capsys.readouterr().err
        finally:
            sys.setswitchinterval(interval)
        csv[cpus] = out.read_bytes()
        assert len(threads) > 1
        assert (set(threads) == {threading.get_ident()}) == (cpus == 1)
        assert threading.active_count() == start
    assert csv[1] == csv[4]
    if argv[0] == "compare":
        assert b",offline," in csv[1]


def test_a_refusal_leaves_no_worker_thread(tmp_path, monkeypatch, capsys):
    # The refusal is raised at a point's end while later batches are in flight.
    threads = _spy_on_tasks(monkeypatch, 4)
    start = threading.active_count()
    cfg = tmp_path / "cfg.json"
    model = {"staleness": {"kind": "table", "values": [0, 1, 1e308]}, "update_cost": 1e308}
    cfg.write_text(json.dumps({"model": model, "grid": [2, 3, 4, 5], "n_runs": 5, "n_requests": 200}))
    assert main(["sweep-threshold", "--lambda", "0.3", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    assert "grid[0]: threshold(2) has mean cost inf" in capsys.readouterr().err
    assert set(threads) - {threading.get_ident()}
    assert threading.active_count() == start


def test_non_integral_piecewise_age_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for breakpoints, message in (
        ([[2.5, 1.0], [4, 9.0]], "piecewise breakpoint [2.5, 1.0]: age must be an integer, got 2.5"),
        ([[True, 1.0], [4, 9.0]], "piecewise breakpoint [True, 1.0]: age must be an integer, got True"),
    ):
        cfg.write_text(json.dumps({"model": {"staleness": {"kind": "piecewise", "breakpoints": breakpoints},
                                             "update_cost": 4.0}}))
        argv = ["sweep-threshold", "--lambda", "0.5", "--config", str(cfg), "--out", str(tmp_path / "never.csv")]
        assert main(argv) == 1, breakpoints
        assert capsys.readouterr().err.startswith(f"configuration error: model: {message}"), breakpoints
    assert not (tmp_path / "never.csv").exists()


def test_cli_invalid_flag_values_are_config_errors(tmp_path, capsys):
    for argv in (
        ["solve-mdp", "--lambda", "0.5", "--p", "2000"],  # cap threshold above --state-cap
        ["solve-mdp", "--lambda", "1.5", "--p", "10"],
        ["optimal-threshold", "--lambda", "0", "--p", "10"],
        ["optimal-threshold", "--lambda", "0.5", "--p", "-3"],
        ["sweep-threshold", "--lambda", "1.5", "--p", "10", "--out", str(tmp_path / "never.csv")],
        ["solve-mdp", "--lambda", "0.1", "--p", "1e12"],  # found without scanning 10^12 ages
        # A cap threshold past 2^50 is refused before anything is sized by it.
        ["optimal-threshold", "--lambda", "0.1", "--p", "1.7e308"],
        ["solve-mdp", "--lambda", "0.1", "--p", "1.7e308"],
        ["optimal-threshold", "--lambda", "0.1", "--p", "1e16"],
    ):
        with alarm(2.0):
            assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("configuration error: "), argv
    # A flag or config field that the command's experiment kind does not read
    # is a configuration error naming it, and no CSV is written.
    trace = tmp_path / "trace.csv"
    make_trace(trace, n_requests=50, horizon=100, seed=1)
    replay = ["trace-compare", "--trace", str(trace), "--slot-duration", "1.0", "--p", "25"]
    assert main(replay + ["--out", str(tmp_path / "trace-out.csv")]) == 0
    cost = tmp_path / "cost.json"
    cost.write_text(json.dumps({"kind": "cost_sweep", "arrival": {"kind": "bernoulli", "rate": 0.3},
                                "grid": [10], "n_runs": 2, "n_requests": 50}))
    policies = tmp_path / "policies.json"
    policies.write_text(json.dumps({"policies": [{"kind": "naive"}], "grid": [3], "n_runs": 2, "n_requests": 50}))
    for argv, name in (
        (replay + ["--runs", "5"], "--runs 5"),
        (replay + ["--seed", "1"], "--seed 1"),
        (replay + ["--lambda", "0.1"], "--lambda 0.1"),
        (["compare", "--sweep", "lambda", "--lambda", "0.3", "--runs", "2", "--requests", "50"],
         "arrival: unknown fields ['rate']"),
        (["compare", "--sweep", "lambda", "--config", str(cost)], "kind: compare runs a lambda_sweep, got 'cost_sweep'"),
        (["sweep-threshold", "--lambda", "0.3", "--config", str(policies)],
         "policies: a threshold_sweep does not read this field"),
    ):
        assert main(argv + ["--out", str(tmp_path / "never.csv")]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and name in err, (argv, err)
    assert not (tmp_path / "never.csv").exists()


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
