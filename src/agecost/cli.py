"""Command-line front end for the experiment runners and solvers.

Subcommands build an ExperimentSpec from an optional JSON config file plus
flag overrides, run it, and emit CSV + sidecar metadata. Exit codes: 0 on
success, 1 on configuration errors, 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .analysis import optimal_period, optimal_threshold, threshold_avg_cost
from .core import CostModel, InvalidRate, cap_threshold
from .experiments import (
    ConfigError,
    ExperimentSpec,
    emit,
    run_policy_comparison,
    run_trace_compare,
)
from .mdp import MdpConfig, solve_average, write_policy_csv


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); flag misuse is a config error
        raise ConfigError(message)


@functools.cache  # a parse changes nothing in the parser, so one serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="agecost", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, requests_help):
        p.add_argument("--config", help="JSON experiment spec; flags override its fields")
        p.add_argument("--p", dest="update_cost", type=float, help="update cost")
        p.add_argument("--requests", type=int, help=requests_help)
        p.add_argument("--out", help="output CSV path")

    def sampled(p, rate_help):  # flags of the Bernoulli sweeps only
        common(p, "requests per run")
        p.add_argument("--lambda", dest="rate", type=float, help=rate_help)
        p.add_argument("--seed", type=int, help="base seed")
        p.add_argument("--runs", type=int, help="simulation runs per grid point")

    p = sub.add_parser("sweep-threshold", help="simulated vs closed-form cost across thresholds")
    sampled(p, "Bernoulli arrival rate")
    p.add_argument("--tau", type=int, help="restrict the sweep to a single threshold")

    p = sub.add_parser("compare", help="compare policies across a rate or cost grid")
    sampled(p, "Bernoulli arrival rate of a cost sweep (a lambda sweep takes its rates from the grid)")
    p.add_argument("--sweep", choices=("lambda", "cost"), required=True)

    p = sub.add_parser("trace-compare", help="replay policies on a timestamp trace")
    common(p, "requests replayed from the trace")
    p.add_argument("--trace", help="trace file, one 'timestamp[,...]' line per request")
    p.add_argument("--slot-duration", dest="slot_duration", type=float, help="slot length in trace time units")

    p = sub.add_parser("solve-mdp", help="exact policy iteration for the optimal average cost")
    p.add_argument("--lambda", dest="rate", type=float, required=True)
    p.add_argument("--p", dest="update_cost", type=float, required=True)
    p.add_argument("--staleness", choices=("linear", "quadratic"), default="linear")
    p.add_argument("--state-cap", dest="state_cap", type=int, default=1024)
    p.add_argument("--out", help="write the s,h,action diagnostic CSV here")

    p = sub.add_parser("optimal-threshold", help="closed-form optimal threshold and period")
    p.add_argument("--lambda", dest="rate", type=float, required=True)
    p.add_argument("--p", dest="update_cost", type=float, required=True)
    p.add_argument("--staleness", choices=("linear", "quadratic"), default="linear")
    return parser


def _spec_from_args(args, kind: str, name: str) -> ExperimentSpec:
    data: dict = {}
    if args.config:
        # a missing file, bytes that are not UTF-8, bad JSON, too deep a nesting or too long an integer
        with (ConfigError.field(f"{args.config}: ", (OSError, ValueError, RecursionError)),
              open(args.config, encoding="utf-8") as fh):
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError(f"{args.config}: must be a JSON object, got {data!r}")
    data.setdefault("name", name)
    if data.setdefault("kind", kind) != kind:
        raise ConfigError(f"kind: {args.command} runs a {kind}, got {data['kind']!r}")
    model = data.setdefault("model", {"staleness": {"kind": "linear"}, "update_cost": 50.0})
    arrival = data.setdefault(
        "arrival", {"kind": "trace"} if kind == "trace_compare" else {"kind": "bernoulli"}
    )
    if getattr(args, "tau", None) is not None:
        data["grid"] = [args.tau]
    for flag, record, key in (("update_cost", model, "update_cost"), ("rate", arrival, "rate"),
                              ("trace", arrival, "path"), ("slot_duration", arrival, "slot_duration"),
                              ("seed", data, "base_seed"), ("runs", data, "n_runs"),
                              ("requests", data, "n_requests"), ("out", data, "output_path")):
        if getattr(args, flag, None) is not None and isinstance(record, dict):  # else the spec refuses it
            record[key] = getattr(args, flag)
    return ExperimentSpec.from_dict(data)


def _writable(path: str, name: str) -> str:
    """``path``; a ConfigError naming ``name`` if it is empty, a directory,
    its directory does not exist or it holds a NUL, found before a run that
    would write it."""
    if not path or "\0" in path or os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"{name}: must name a file in an existing directory, got {path!r}")
    return path


def _run_experiment(args) -> int:
    if args.command == "trace-compare":
        spec = _spec_from_args(args, "trace_compare", "trace-compare")
        run = run_trace_compare
    else:
        sweep = getattr(args, "sweep", None)  # compare's --sweep: lambda or cost
        kind, name = (f"{sweep}_sweep", f"compare-{sweep}") if sweep else ("threshold_sweep", "threshold-sweep")
        spec = _spec_from_args(args, kind, name)
        run = run_policy_comparison
    if spec.output_path is None:  # the default path comes from the name
        out = _writable(f"{spec.name}.csv", "name")
    else:
        out = _writable(spec.output_path, "output_path")
    table = run(spec)
    emit(table, out)
    print(f"wrote {len(table.rows)} rows to {out} (+ {out}.meta.json)")
    return 0


def _cli_model(args) -> CostModel:
    return CostModel.from_config({"staleness": {"kind": args.staleness}, "update_cost": args.update_cost})


def _run_solve_mdp(args) -> int:
    with ConfigError.field():
        config = MdpConfig(rate=args.rate, model=_cli_model(args), state_cap=args.state_cap)
    if args.out is not None:
        _writable(args.out, "--out")
    sol = solve_average(config)
    print(f"gain={sol.gain:.10g} threshold={sol.threshold} "
          f"iterations={sol.iterations_used} residual={sol.residual:.3e}")
    if args.out is not None:
        write_policy_csv(sol, args.out)
        print(f"wrote policy dump to {args.out}")
    return 0


def _run_optimal_threshold(args) -> int:
    with ConfigError.field():
        model = _cli_model(args)
    with ConfigError.field(errors=(InvalidRate,)):  # out of (0, 1], or too small for a linear period
        ts = optimal_threshold(args.rate, model)
        ps = optimal_period(args.rate, model)
    print(json.dumps({
        "tau_star": ts.tau_star,
        "tau_continuous": ts.tau_continuous,
        "cost_at_tau_star": ts.cost_at_tau_star,
        "clamped_to_cap": ts.clamped_to_cap,
        "delta_star": cap_threshold(model),
        "naive_cost": threshold_avg_cost(args.rate, model, cap_threshold(model)),
        "d_star": ps.d_star,
        "cost_at_d_star": ps.cost_at_d_star,
    }))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve-mdp":
            return _run_solve_mdp(args)
        if args.command == "optimal-threshold":
            return _run_optimal_threshold(args)
        return _run_experiment(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
