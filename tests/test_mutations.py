"""Bad input found by mutation: every node of a small spec of each kind,
replaced by each of 15 values, and every numeric flag of the solver
commands, set to each of 11 values, run through the CLI.

A run exits 0 or 1, never 2 and never past a 5 s alarm. An exit 1 names the
mutated spec field first and leaves no CSV, and ``ExperimentSpec.from_dict``
raises nothing but a ``ConfigError`` on any mutated spec.
"""

import json
import math

import pytest

from agecost import ConfigError, ExperimentSpec
from agecost.cli import main

from oracles import alarm, make_trace

VALUES = (None, True, False, "x", "", 0, -1, 2.5, 10**400, math.nan, [], {}, [None], [[]], {"a": 1})

# One small sidecar spec per kind, at most 2 runs of 50 requests, with a
# penalty and policies that hold lists and records of their own to mutate.
SPECS = {
    "threshold_sweep": (["sweep-threshold"], {
        "name": "sweep", "kind": "threshold_sweep",
        "model": {"staleness": {"kind": "linear"}, "update_cost": 100.0},
        "arrival": {"kind": "bernoulli", "rate": 0.1},
        "grid": [5, 37], "n_runs": 2, "n_requests": 50, "base_seed": 0, "output_path": None,
    }),
    "lambda_sweep": (["compare", "--sweep", "lambda"], {
        "name": "rates", "kind": "lambda_sweep",
        "model": {"staleness": {"kind": "table", "values": [0.0, 1.0, 4.0, 9.0, 60.0]}, "update_cost": 50.0},
        "arrival": {"kind": "bernoulli"},
        "grid": [0.3, 0.7], "n_runs": 2, "n_requests": 50, "base_seed": 1, "output_path": None,
        "policies": "auto", "include_offline": True, "offline_request_cap": 10_000,
    }),
    "cost_sweep": (["compare", "--sweep", "cost"], {
        "name": "costs", "kind": "cost_sweep",
        "model": {"staleness": {"kind": "piecewise", "breakpoints": [[2, 5.0], [6, 400.0]]}, "update_cost": 50.0},
        "arrival": {"kind": "bernoulli", "rate": 0.3},
        "grid": [10, 40], "n_runs": 2, "n_requests": 50, "base_seed": 2, "output_path": None,
        "policies": [{"kind": "threshold", "tau": 3}, {"kind": "periodic", "d": 4}, {"kind": "naive"}],
        "include_offline": True, "offline_request_cap": 10_000,
    }),
    "trace_compare": (["trace-compare"], {
        "name": "trace", "kind": "trace_compare",
        "model": {"staleness": {"kind": "quadratic"}, "update_cost": 25.0},
        "arrival": {"kind": "trace", "path": "trace.csv", "slot_duration": 1.0, "on_malformed": "error"},
        "n_requests": 50, "output_path": None,
        "policies": [{"kind": "scheduled", "slots": [2, 9]}, {"kind": "threshold", "tau": 4}],
        "include_offline": True, "offline_request_cap": 10_000,
    }),
}


def node_paths(node, path=()):
    """The path of every node under ``node``, ``node`` itself left out."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


def replaced(node, path, value):
    """``node`` with the node at ``path`` replaced by ``value``; ``node`` is not changed."""
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = replaced(node[path[0]], path[1:], value)
    return copy


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_every_mutated_spec_exits_0_or_1_naming_its_field(kind, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the trace spec's path, and a mutated "x", are read here
    make_trace(tmp_path / "trace.csv", n_requests=60, horizon=200, seed=3)
    command, spec = SPECS[kind]
    assert ExperimentSpec.from_dict(spec).to_dict() == spec
    cfg, out = tmp_path / "spec.json", tmp_path / "out.csv"
    for path in node_paths(spec):
        for value in VALUES:
            text = json.dumps(replaced(spec, path, value))
            try:
                ExperimentSpec.from_dict(json.loads(text))
            except ConfigError:
                pass
            cfg.write_text(text)
            with alarm(5):
                code = main(command + ["--config", str(cfg), "--out", str(out)])
            err = capsys.readouterr().err
            case = (path, value, err)
            assert code in (0, 1), case
            if code == 1:
                assert err.startswith("configuration error: "), case
                assert err.removeprefix("configuration error: ").startswith(str(path[0])), case
                assert not out.exists(), case
            else:
                out.unlink()


@pytest.mark.parametrize("command", ["solve-mdp", "optimal-threshold"])
@pytest.mark.parametrize("flag", ["--lambda", "--p", "--state-cap"])
def test_every_mutated_solver_flag_exits_0_or_1(command, flag, capsys):
    base = {"--lambda": "0.1", "--p": "100"}
    for value in ("nan", "inf", "-inf", "0", "-1", "2.5", "1e20", "1e308", "1e-320", "x", ""):
        argv = [command, *(f"{name}={v}" for name, v in {**base, flag: value}.items())]
        with alarm(5):
            code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1), (argv, err)
        assert (code == 1) == err.startswith("configuration error: "), (argv, err)
