"""Config-driven experiment runners with CSV output and JSON sidecar metadata.

Every emitted number is a deterministic function of the experiment spec and
its base seed: grid point i derives its seeds from (base_seed, i, run), and
policy comparisons replay all policies on the same sample paths (paired
comparisons via common random numbers).
"""

from __future__ import annotations

import json
import operator
import time
from collections.abc import Sequence
from dataclasses import MISSING, asdict, dataclass, field, fields
from itertools import repeat

import numpy as np

from . import __version__
from .analysis import optimal_period, optimal_threshold, periodic_avg_cost, threshold_avg_cost
from .arrivals import (
    RNG_ALGORITHM,
    ArrivalSequence,
    BernoulliSource,
    check_trace_options,
    derive_seed,
    empirical_rate,
    generate_bernoulli,
    load_trace,
)
from .core import CostModel, cap_threshold, check_fields, check_rate
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

# Rows formatted and written per write call by ``emit``.
_EMIT_CHUNK = 1 << 15


def _threshold_point(tau, rate: float, model: CostModel) -> tuple[float, CostModel]:
    if type(tau) is not int:  # not as_int(): tau is echoed into x_value and the label
        raise TypeError(f"threshold must be an integer, got {tau!r}")
    Policy.threshold(tau)
    return rate, model


# Per kind: the arrival fields it reads, the spec fields it reads besides
# those in ``_READ_BY_ALL``, its default grid, and what a grid value x means:
# a function of (x, arrival rate, model) that gives x's (rate, model) or raises.
_COMPARE = ("grid", "n_runs", "base_seed", "policies", "include_offline", "offline_request_cap")
_READ_BY_ALL = ("name", "kind", "model", "arrival", "n_requests", "output_path")
KINDS = {
    "threshold_sweep": (("kind", "rate"), ("grid", "n_runs", "base_seed"), lambda: list(range(1, 101)),
                        _threshold_point),
    "lambda_sweep": (("kind",), _COMPARE, lambda: [round(0.1 * k, 1) for k in range(1, 10)],
                     lambda x, rate, model: (float(check_rate(x)), model)),
    "cost_sweep": (("kind", "rate"), _COMPARE, lambda: list(range(10, 201, 10)),
                   lambda x, rate, model: (rate, CostModel(model.staleness, x))),
    "trace_compare": (("kind", "path", "slot_duration", "on_malformed"),
                      ("policies", "include_offline", "offline_request_cap"), list, None),
}


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


@dataclass
class ExperimentSpec:
    """Declarative description of one experiment run.

    Every kind reads name, kind, model, arrival, n_requests and output_path.
    Besides those, as ``KINDS`` gives them:

    threshold_sweep  grid, n_runs, base_seed; arrival kind and rate
    lambda_sweep     grid, n_runs, base_seed, policies, include_offline and
                     offline_request_cap; arrival kind (the grid holds the rates)
    cost_sweep       as lambda_sweep; arrival kind and rate
    trace_compare    policies, include_offline, offline_request_cap; arrival
                     kind, path, slot_duration and on_malformed

    A field its kind does not read must hold its default; ``to_dict`` leaves
    it out. The runners replay what the checks build, kept outside the fields
    and so outside ``to_dict``: the ``CostModel`` as ``_model``, one (x, rate,
    model) per grid point as ``_points`` and the configured policies as
    ``_policies`` (None for "auto").
    """

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
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise ConfigError(f"kind: must be one of {tuple(KINDS)}, got {self.kind!r}")
        arrival_fields, read, default_grid, point = KINDS[self.kind]
        for f in fields(self):
            default = f.default if f.default_factory is MISSING else f.default_factory()
            if f.name not in _READ_BY_ALL + read and getattr(self, f.name) != default:
                raise ConfigError(f"{f.name}: a {self.kind} does not read this field, "
                                  f"got {getattr(self, f.name)!r}")
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError(f"name: must be a non-empty string, got {self.name!r}")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ConfigError(f"output_path: must be a string or null, got {self.output_path!r}")
        # type(), not isinstance(): JSON true must not pass as an integer.
        for name in ("n_runs", "n_requests", "offline_request_cap"):
            if type(getattr(self, name)) is not int or getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be an integer >= 1, got {getattr(self, name)!r}")
        if type(self.base_seed) is not int:
            raise ConfigError(f"base_seed: must be an integer, got {self.base_seed!r}")
        if not isinstance(self.include_offline, bool):
            raise ConfigError(f"include_offline: must be true or false, got {self.include_offline!r}")
        if not isinstance(self.grid, list):
            raise ConfigError(f"grid: must be a list, got {self.grid!r}")
        self.grid = self.grid or default_grid()
        try:
            self._model = CostModel.from_config(self.model)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"model: {exc}") from None
        if not isinstance(self.arrival, dict):
            raise ConfigError(f"arrival: must be an object, got {self.arrival!r}")
        akind = self.arrival.get("kind", "bernoulli")
        if self.kind == "trace_compare":
            if akind != "trace" or not {"path", "slot_duration"} <= self.arrival.keys():
                raise ConfigError("arrival: trace_compare needs {kind: 'trace', path, slot_duration}")
        elif akind != "bernoulli":
            raise ConfigError(f"arrival.kind: expected 'bernoulli' for {self.kind}")
        check_fields(self.arrival, arrival_fields, "arrival: ", ConfigError)
        try:
            rate = float(check_rate(self.arrival.get("rate"))) if "rate" in arrival_fields else None
        except ValueError as exc:
            raise ConfigError(f"arrival.rate: {exc}") from None
        if self.kind == "trace_compare":
            # An int would open that file descriptor (0 reads stdin).
            if not isinstance(self.arrival["path"], str):
                raise ConfigError(f"arrival.path: must be a string, got {self.arrival['path']!r}")
            try:  # the options are named as load_trace's parameters
                check_trace_options(**{k: v for k, v in self.arrival.items() if k not in ("kind", "path")})
            except ValueError as exc:
                raise ConfigError(f"arrival.{exc}") from None
        self._points = []
        for i, x in enumerate(self.grid):
            try:
                self._points.append((x, *point(x, rate, self._model)))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"grid[{i}]: {exc}") from None
        self._policies = None
        if self.policies != "auto":
            if not isinstance(self.policies, list):
                raise ConfigError("policies: must be 'auto' or a list of policy records")
            self._policies = []
            for i, cfg in enumerate(self.policies):
                try:
                    self._policies.append(Policy.from_config(cfg))
                except (KeyError, TypeError, ValueError) as exc:
                    raise ConfigError(f"policies[{i}]: {exc}") from None

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        check_fields(data, cls.__dataclass_fields__, error=ConfigError)
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    def to_dict(self) -> dict:
        """The fields this spec's kind reads; ``from_dict`` gives the rest
        their defaults."""
        read = _READ_BY_ALL + KINDS[self.kind][1]
        return {name: value for name, value in asdict(self).items() if name in read}


class _Rows(Sequence):
    """Read-only row view of a ``ResultTable``: one dict per row, built on demand."""

    def __init__(self, columns: dict, n: int):
        self._columns = columns
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(self._n))]
        i = range(self._n)[i]  # negative indices, IndexError past the end
        row = {}
        for name, column in self._columns.items():
            value = column[i]
            row[name] = value.item() if isinstance(value, np.generic) else value
        return row


@dataclass(eq=False)
class ResultTable:
    """One experiment's results, one column per CSV column, plus the metadata
    that reproduces them.

    ``columns`` maps every name in ``COLUMNS`` to a numpy array or a list,
    all of one length. ``emit`` writes a float64 array's values as
    ``format(v, ".10g")`` and an integer array's as ``str(v)``; any other
    column keeps each value's own type, and its cells read empty for ``None``
    or ``""``, ``format(v, ".10g")`` for a Python float and ``str(v)``
    otherwise. ``rows`` is a read-only view with one dict per row, made on
    demand, in which numpy scalars come back as Python numbers.
    """

    columns: dict
    meta: dict

    def __post_init__(self) -> None:
        if set(self.columns) != set(COLUMNS):
            raise ValueError(f"columns must be exactly {COLUMNS}, got {tuple(self.columns)}")
        lengths = {len(self.columns[name]) for name in COLUMNS}
        if len(lengths) != 1:
            raise ValueError(f"columns differ in length: {sorted(lengths)}")
        self.columns = {name: self.columns[name] for name in COLUMNS}

    @property
    def rows(self) -> _Rows:
        return _Rows(self.columns, len(self.columns[COLUMNS[0]]))


def run_threshold_sweep(spec: ExperimentSpec) -> ResultTable:
    """Simulated and closed-form average cost for each threshold in the grid."""
    if spec.kind != "threshold_sweep":
        raise ConfigError(f"kind: expected threshold_sweep, got {spec.kind}")
    columns = {name: [] for name in COLUMNS}
    outside = []
    for point, (tau, rate, model) in enumerate(spec._points):
        seed = derive_seed(spec.base_seed, point)
        sweep = simulate_many(
            Policy.threshold(tau), BernoulliSource(rate, seed), spec.n_runs, spec.n_requests, model
        )
        analytic = threshold_avg_cost(rate, model, tau)
        if abs(sweep.mean_avg_total - analytic) > 3.0 * sweep.stderr:
            outside.append(tau)
        _add_summary_row(columns, spec, tau, f"threshold({tau})", sweep, analytic, seed)
    meta = {
        "spec": spec.to_dict(),
        "rate": rate,
        "mc_within_3_stderr": not outside,
        "mc_outside_taus": outside,
    }
    return ResultTable(columns, meta)


def _add_summary_row(columns: dict, spec: ExperimentSpec, x, label: str, sweep: SweepResult,
                     analytic, seed: int) -> None:
    """Append one row summarizing the runs of one policy at one grid point;
    ``x`` keeps the grid value's own type."""
    row = (x, label, sweep.mean_avg_total, sweep.stderr, sweep.mean_avg_staleness,
           sweep.mean_avg_update, analytic, spec.n_runs, spec.n_requests, seed)
    for cells, value in zip(columns.values(), row):
        cells.append(value)


def _resolve_policies(spec: ExperimentSpec, rate: float, model: CostModel):
    """Label and price the policies of one grid point. "auto" picks the optimal
    threshold, naive and the optimal period and fills ``info``; every policy is
    then priced by the same call, so one policy gets one number on every path."""
    delta_star = cap_threshold(model)
    info = {}
    policies = spec._policies
    if policies is None:
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
    columns = {name: [] for name in COLUMNS}
    resolutions = {}
    offline_on = spec.include_offline and spec.n_requests <= spec.offline_request_cap
    for point, (x, rate, model) in enumerate(spec._points):
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
            _add_summary_row(columns, spec, x, label, sweep, analytic[label], point_seed)
    meta = {"spec": spec.to_dict(), "auto_policies": resolutions, "offline_included": offline_on}
    return ResultTable(columns, meta)


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


def _cumulative_columns(replays: list[tuple[str, SimResult]], arrivals: ArrivalSequence,
                        model: CostModel) -> dict:
    """One block of rows per replay, in order: row j of a block holds the
    average cost over the first j requests, i.e. the staleness charged so far
    plus every update at slots up to and including request j's slot."""
    n, k = arrivals.n_requests, len(replays)
    index = np.arange(1, n + 1, dtype=np.int64)
    denom = index.astype(np.float64)
    total, staleness, update = [], [], []
    for _, res in replays:
        cum_stale = np.cumsum(np.repeat(res.request_charges, arrivals.counts))
        cum_update = model.update_cost * np.repeat(res.updates_through, arrivals.counts)
        total.append((cum_stale + cum_update) / denom)
        staleness.append(cum_stale / denom)
        update.append(cum_update / denom)
    requests = np.tile(index, k)
    return {
        "x_value": requests,
        "policy_label": np.repeat(np.array([label for label, _ in replays], dtype=object), n),
        "mean_cost": np.concatenate(total),
        "stderr": np.zeros(k * n),
        "mean_staleness": np.concatenate(staleness),
        "mean_update": np.concatenate(update),
        "analytic_cost": [None] * (k * n),
        "n_runs": np.ones(k * n, dtype=np.int64),
        "n_requests": requests,
        "seed": [""] * (k * n),
    }


def run_trace_compare(spec: ExperimentSpec) -> ResultTable:
    """Replay threshold, naive, periodic, and the offline optimum on a trace.

    The arrival rate is estimated from the replayed portion of the trace and
    feeds the closed-form threshold and period choices. Rows hold the
    cumulative average cost after each of the first n_requests requests.
    """
    if spec.kind != "trace_compare":
        raise ConfigError(f"kind: expected trace_compare, got {spec.kind}")
    model = spec._model
    seq = truncate_requests(load_trace(**{k: v for k, v in spec.arrival.items() if k != "kind"}), spec.n_requests)
    rate_hat = empirical_rate(seq)
    policies, info = _resolve_policies(spec, rate_hat, model)
    offline_on = spec.include_offline and seq.n_requests <= spec.offline_request_cap
    replays, sol = _replay(policies, seq, model, offline_on)
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
    return ResultTable(_cumulative_columns(replays, seq, model), meta)


def _format_cell(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _column_format(chunk) -> tuple[str, list | None]:
    """A ``%`` conversion for one column's cells in a chunk and the values it
    takes; a column whose cells are all alike gives its text, escaped, and None."""
    if isinstance(chunk, np.ndarray) and chunk.dtype == np.float64:
        bits = chunk.view(np.int64)  # bitwise, so 0.0 and -0.0 stay apart
        if (bits == bits[0]).all():
            return "%.10g" % chunk[0], None
        return "%.10g", chunk.tolist()
    if isinstance(chunk, np.ndarray) and chunk.dtype.kind in "iu":
        if (chunk == chunk[0]).all():
            return str(chunk[0]), None
        return "%d", chunk.tolist()
    cells = list(chunk)
    if all(map(operator.is_, cells, repeat(cells[0]))):
        return _format_cell(cells[0]).replace("%", "%%"), None
    return "%s", [_format_cell(v) for v in cells]


def emit(table: ResultTable, path) -> None:
    """Write the table as CSV plus a JSON sidecar holding the artifact version,
    the RNG algorithm, ``created_unix`` and the table's meta (spec and seeds).

    The CSV is built column by column, ``_EMIT_CHUNK`` rows at a time, and
    each chunk is written with one call; a float prints as ``format(v,
    ".10g")``, an integer as ``str(v)`` and ``None`` or ``""`` as an empty
    cell (see ``ResultTable``). Rerunning the same spec reproduces the CSV
    byte for byte; ``created_unix`` is the only non-deterministic field of
    the sidecar.
    """
    n = len(table.rows)
    if not n:
        raise ValueError("refusing to emit an empty table")
    path = str(path)
    with open(path, "w") as fh:
        fh.write(",".join(COLUMNS) + "\n")
        for lo in range(0, n, _EMIT_CHUNK):
            hi = min(lo + _EMIT_CHUNK, n)
            formats, values = [], []
            for column in table.columns.values():
                fmt, cells = _column_format(column[lo:hi])
                formats.append(fmt)
                if cells is not None:
                    values.append(cells)
            line = ",".join(formats) + "\n"
            fh.write("".join(map(line.__mod__, zip(*values))) if values else (line % ()) * (hi - lo))
    sidecar = {
        "artifact_version": __version__,
        "rng": RNG_ALGORITHM,
        "created_unix": time.time(),
        **table.meta,
    }
    with open(path + ".meta.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
