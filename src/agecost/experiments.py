"""Config-driven experiment runners with CSV output and JSON sidecar metadata.

Every emitted number is a deterministic function of the experiment spec and
its base seed: grid point i derives its seeds from (base_seed, i, run), and
policy comparisons replay all policies on the same sample paths (paired
comparisons via common random numbers).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .analysis import optimal_period, optimal_threshold, periodic_avg_cost, threshold_avg_cost
from .arrivals import (
    RNG_ALGORITHM,
    ArrivalSequence,
    BernoulliSource,
    derive_seed,
    empirical_rate,
    generate_bernoulli,
    load_trace,
)
from .core import CostModel, cap_threshold, check_rate
from .engine import SimResult, SweepResult, simulate, simulate_many
from .offline import OfflineSolution, offline_optimal
from .policies import Policy

COLUMNS = (
    "x_value",
    "policy_label",
    "mean_cost",
    "stderr",
    "mean_staleness",
    "mean_update",
    "analytic_cost",
    "n_runs",
    "n_requests",
    "seed",
)

KINDS = ("threshold_sweep", "lambda_sweep", "cost_sweep", "trace_compare")

_DEFAULT_GRIDS = {
    "threshold_sweep": lambda: list(range(1, 101)),
    "lambda_sweep": lambda: [round(0.1 * k, 1) for k in range(1, 10)],
    "cost_sweep": lambda: list(range(10, 201, 10)),
}


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


@dataclass
class ExperimentSpec:
    """Declarative description of one experiment run."""

    name: str
    kind: str
    model: dict
    arrival: dict
    policies: list | str = "auto"
    grid: list = field(default_factory=list)
    n_runs: int = 100
    n_requests: int = 10_000
    base_seed: int = 0
    output_path: str | None = None
    include_offline: bool = True
    offline_request_cap: int = 10_000

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"kind: must be one of {KINDS}, got {self.kind!r}")
        # type(), not isinstance(): JSON true must not pass as an integer.
        for name in ("n_runs", "n_requests", "offline_request_cap"):
            if type(getattr(self, name)) is not int or getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be an integer >= 1, got {getattr(self, name)!r}")
        if type(self.base_seed) is not int:
            raise ConfigError(f"base_seed: must be an integer, got {self.base_seed!r}")
        if not isinstance(self.include_offline, bool):
            raise ConfigError(f"include_offline: must be true or false, got {self.include_offline!r}")
        if not self.grid and self.kind in _DEFAULT_GRIDS:
            self.grid = _DEFAULT_GRIDS[self.kind]()
        if not isinstance(self.grid, list):
            raise ConfigError(f"grid: must be a list, got {self.grid!r}")
        try:
            model = CostModel.from_config(self.model)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"model: {exc}") from None
        for i, x in enumerate(self.grid):
            try:
                if self.kind == "threshold_sweep":
                    if type(x) is not int:
                        raise TypeError(f"threshold must be an integer, got {x!r}")
                    Policy.threshold(x)
                elif self.kind == "lambda_sweep":
                    check_rate(float(x))
                elif self.kind == "cost_sweep":
                    CostModel(model.staleness, float(x))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"grid[{i}]: {exc}") from None
        if not isinstance(self.arrival, dict):
            raise ConfigError(f"arrival: must be an object, got {self.arrival!r}")
        akind = self.arrival.get("kind", "bernoulli")
        if self.kind == "trace_compare":
            if akind != "trace" or "path" not in self.arrival:
                raise ConfigError("arrival: trace_compare needs {kind: 'trace', path, slot_duration}")
            slot = self.arrival.get("slot_duration", 0)
            if type(slot) not in (int, float) or not slot > 0:
                raise ConfigError(f"arrival.slot_duration: must be a positive number, got {slot!r}")
            if self.arrival.get("on_malformed", "error") not in ("error", "skip"):
                raise ConfigError(f"arrival.on_malformed: must be 'error' or 'skip', "
                                  f"got {self.arrival['on_malformed']!r}")
        else:
            if akind != "bernoulli":
                raise ConfigError(f"arrival.kind: expected 'bernoulli' for {self.kind}")
            if self.kind != "lambda_sweep" and "rate" not in self.arrival:
                raise ConfigError("arrival.rate: required")
            if "rate" in self.arrival:
                try:
                    check_rate(float(self.arrival["rate"]))
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"arrival.rate: {exc}") from None
        if self.policies != "auto":
            if not isinstance(self.policies, list):
                raise ConfigError("policies: must be 'auto' or a list of policy records")
            for i, cfg in enumerate(self.policies):
                try:
                    Policy.from_config(cfg)
                except (KeyError, TypeError, ValueError) as exc:
                    raise ConfigError(f"policies[{i}]: {exc}") from None

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        extra = set(data) - set(cls.__dataclass_fields__)
        if extra:
            raise ConfigError(f"unknown fields: {sorted(extra)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ResultTable:
    """Rows of one experiment plus the metadata that reproduces them."""

    rows: list[dict]
    meta: dict


def run_threshold_sweep(spec: ExperimentSpec) -> ResultTable:
    """Simulated and closed-form average cost for each threshold in the grid."""
    if spec.kind != "threshold_sweep":
        raise ConfigError(f"kind: expected threshold_sweep, got {spec.kind}")
    model = CostModel.from_config(spec.model)
    rate = float(spec.arrival["rate"])
    rows, outside = [], []
    for point, tau in enumerate(spec.grid):
        seed = derive_seed(spec.base_seed, point)
        sweep = simulate_many(
            Policy.threshold(tau), BernoulliSource(rate, seed), spec.n_runs, spec.n_requests, model
        )
        analytic = threshold_avg_cost(rate, model, tau)
        if abs(sweep.mean_avg_total - analytic) > 3.0 * sweep.stderr:
            outside.append(tau)
        rows.append(_summary_row(spec, tau, f"threshold({tau})", sweep, analytic, seed))
    meta = {
        "spec": spec.to_dict(),
        "rate": rate,
        "mc_within_3_stderr": not outside,
        "mc_outside_taus": outside,
    }
    return ResultTable(rows=rows, meta=meta)


def _summary_row(spec: ExperimentSpec, x, label: str, sweep: SweepResult, analytic, seed: int) -> dict:
    """One CSV row summarizing the runs of one policy at one grid point."""
    return {
        "x_value": x,
        "policy_label": label,
        "mean_cost": sweep.mean_avg_total,
        "stderr": sweep.stderr,
        "mean_staleness": sweep.mean_avg_staleness,
        "mean_update": sweep.mean_avg_update,
        "analytic_cost": analytic,
        "n_runs": spec.n_runs,
        "n_requests": spec.n_requests,
        "seed": seed,
    }


def _resolve_policies(spec: ExperimentSpec, rate: float, model: CostModel):
    """Label and price the policies of one grid point. "auto" picks the optimal
    threshold, naive and the optimal period and fills ``info``; every policy is
    then priced by the same call, so one policy gets one number on every path."""
    delta_star = cap_threshold(model)
    info = {}
    if spec.policies == "auto":
        ts = optimal_threshold(rate, model)
        ps = optimal_period(rate, model)
        policies = [Policy.threshold(ts.tau_star), Policy.naive()]
        info = {"tau_star": ts.tau_star, "tau_continuous": ts.tau_continuous,
                "d_star": ps.d_star, "d_continuous": ps.d_continuous, "delta_star": delta_star}
        if ps.d_star is None:
            info["periodic_dropped"] = ("no finite period is optimal: the periodic cost falls "
                                        f"toward {ps.cost_at_d_star!r} as the period grows")
        else:
            policies.append(Policy.periodic(ps.d_star))
    else:
        policies = [Policy.from_config(cfg) for cfg in spec.policies]
    resolved = []
    repeats: dict[str, int] = {}
    for pol in policies:
        # Two schedules of equal length share a label; number the repeats so
        # each policy keeps its own row.
        label = pol.label()
        repeats[label] = repeats.get(label, 0) + 1
        if repeats[label] > 1:
            label = f"{label}#{repeats[label]}"
        if pol.kind == "threshold":
            analytic = threshold_avg_cost(rate, model, pol.tau)
        elif pol.kind == "naive":
            analytic = threshold_avg_cost(rate, model, delta_star)
        elif pol.kind == "periodic":
            analytic = periodic_avg_cost(rate, model, pol.period)
        else:
            analytic = None
        resolved.append((label, pol, analytic))
    return resolved, info


def run_policy_comparison(spec: ExperimentSpec) -> ResultTable:
    """Compare the auto (or configured) policies and the offline optimum on
    shared Bernoulli sample paths across a rate or update-cost grid."""
    if spec.kind not in ("lambda_sweep", "cost_sweep"):
        raise ConfigError(f"kind: expected lambda_sweep or cost_sweep, got {spec.kind}")
    base_model = CostModel.from_config(spec.model)
    rows = []
    resolutions = {}
    offline_on = spec.include_offline and spec.n_requests <= spec.offline_request_cap
    for point, x in enumerate(spec.grid):
        if spec.kind == "lambda_sweep":
            rate = float(x)
            model = base_model
        else:
            rate = float(spec.arrival["rate"])
            model = CostModel(staleness=base_model.staleness, update_cost=float(x))
        policies, info = _resolve_policies(spec, rate, model)
        if info:
            resolutions[str(x)] = info
        analytic = {label: value for label, _, value in policies} | {"offline": None}
        # Per-run averages only: each run's replays are dropped once summarized.
        averages: dict[str, list[tuple[float, float, float]]] = {}
        for run in range(spec.n_runs):
            arrivals = generate_bernoulli(
                BernoulliSource(rate, derive_seed(spec.base_seed, point, run)),
                n_requests=spec.n_requests,
            )
            for label, res in _replay(policies, arrivals, model, offline_on)[0]:
                averages.setdefault(label, []).append((res.avg_total, res.avg_staleness, res.avg_update))
        point_seed = derive_seed(spec.base_seed, point)
        for label, runs in averages.items():
            sweep = SweepResult(*np.array(runs).T)
            rows.append(_summary_row(spec, x, label, sweep, analytic[label], point_seed))
    meta = {"spec": spec.to_dict(), "auto_policies": resolutions, "offline_included": offline_on}
    return ResultTable(rows=rows, meta=meta)


def _replay(
    policies: list[tuple[str, Policy, float | None]], arrivals: ArrivalSequence, model: CostModel, offline: bool
) -> tuple[list[tuple[str, SimResult]], OfflineSolution | None]:
    """Replay every resolved policy on one arrival sequence, in order.

    With ``offline`` the offline-optimal schedule is solved and replayed too,
    labelled "offline", and its DP solution is returned beside the replays.
    """
    replays = [(label, simulate(pol, arrivals, model)) for label, pol, _ in policies]
    sol = None
    if offline:
        sol = offline_optimal(arrivals, model)
        replays.append(("offline", simulate(Policy.scheduled(sol.update_slots), arrivals, model)))
    return replays, sol


def truncate_requests(seq: ArrivalSequence, n_requests: int) -> ArrivalSequence:
    """First n requests of a sequence; a straddling slot keeps the remainder."""
    cum = np.cumsum(seq.counts)
    if n_requests >= cum[-1]:
        return seq
    idx = int(np.searchsorted(cum, n_requests, side="left"))
    counts = seq.counts[: idx + 1].copy()
    counts[idx] -= int(cum[idx]) - n_requests
    return ArrivalSequence(horizon=int(seq.slots[idx]), slots=seq.slots[: idx + 1].copy(), counts=counts)


def _cumulative_rows(label, result, arrivals, model, rows) -> None:
    # Cumulative average cost after each request: staleness of requests so
    # far plus all updates at slots up to and including the request's slot.
    per_req_slot = np.repeat(arrivals.slots, arrivals.counts)
    per_req_stale = np.repeat(result.request_charges, arrivals.counts)
    cum_stale = np.cumsum(per_req_stale)
    n_updates = np.searchsorted(result.update_slots, per_req_slot, side="right")
    cum_update = model.update_cost * n_updates
    denom = np.arange(1, per_req_slot.size + 1, dtype=np.float64)
    avg_total = (cum_stale + cum_update) / denom
    for j in range(per_req_slot.size):
        rows.append({
            "x_value": j + 1,
            "policy_label": label,
            "mean_cost": float(avg_total[j]),
            "stderr": 0.0,
            "mean_staleness": float(cum_stale[j] / denom[j]),
            "mean_update": float(cum_update[j] / denom[j]),
            "analytic_cost": None,
            "n_runs": 1,
            "n_requests": j + 1,
            "seed": "",
        })


def run_trace_compare(spec: ExperimentSpec) -> ResultTable:
    """Replay threshold, naive, periodic, and the offline optimum on a trace.

    The arrival rate is estimated from the replayed portion of the trace and
    feeds the closed-form threshold and period choices. Rows hold the
    cumulative average cost after each of the first n_requests requests.
    """
    if spec.kind != "trace_compare":
        raise ConfigError(f"kind: expected trace_compare, got {spec.kind}")
    model = CostModel.from_config(spec.model)
    seq = load_trace(spec.arrival["path"], float(spec.arrival["slot_duration"]),
                     on_malformed=spec.arrival.get("on_malformed", "error"))
    seq = truncate_requests(seq, spec.n_requests)
    rate_hat = empirical_rate(seq)
    policies, info = _resolve_policies(spec, rate_hat, model)
    offline_on = spec.include_offline and seq.n_requests <= spec.offline_request_cap
    replays, sol = _replay(policies, seq, model, offline_on)
    rows: list[dict] = []
    for label, res in replays:
        _cumulative_rows(label, res, seq, model, rows)
    offline_meta = {} if sol is None else {
        "offline_total_cost": sol.total_cost, "offline_n_updates": len(sol.update_slots)}
    tau_c = info.get("tau_continuous")
    meta = {
        "spec": spec.to_dict(),
        "lambda_hat": rate_hat,
        "auto_policies": info,
        "threshold_candidates": None if tau_c is None else {
            str(t): threshold_avg_cost(rate_hat, model, t)
            for t in sorted({max(int(np.floor(tau_c)), 1), max(int(np.ceil(tau_c)), 1)})
        },
        "cumulative_convention": "rows hold cumulative average cost after each request",
        **offline_meta,
    }
    return ResultTable(rows=rows, meta=meta)


def _format_cell(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def emit(table: ResultTable, path) -> None:
    """Write the table as CSV plus a JSON sidecar holding the artifact version,
    the RNG algorithm, ``created_unix`` and the table's meta (spec and seeds).

    Rerunning the same spec reproduces the CSV byte for byte; ``created_unix``
    is the only non-deterministic field of the sidecar.
    """
    if not table.rows:
        raise ValueError("refusing to emit an empty table")
    path = str(path)
    with open(path, "w") as fh:
        fh.write(",".join(COLUMNS) + "\n")
        for row in table.rows:
            fh.write(",".join(_format_cell(row.get(c)) for c in COLUMNS) + "\n")
    sidecar = {
        "artifact_version": __version__,
        "rng": RNG_ALGORITHM,
        "created_unix": time.time(),
        **table.meta,
    }
    with open(path + ".meta.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
