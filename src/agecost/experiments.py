"""Config-driven experiment runners with CSV output and JSON sidecar metadata.

Every emitted number is a deterministic function of the experiment spec and
its base seed. Run r of grid point i draws its Bernoulli path from
derive_seed(base_seed, i, r) in a rate or update-cost sweep, and from
derive_seed(derive_seed(base_seed, i), r) in a threshold sweep, as
``simulate_many`` would from the row's seed cell. A comparison replays all
its policies on the same sample paths (paired comparisons via common random
numbers). One Monte Carlo loop, ``_monte_carlo``, runs the Bernoulli sweeps,
and ``simulate_many`` is that loop on one point. It replays the runs on up
to min(4, usable CPUs) threads by ``engine.ordered_map`` and takes their
averages back in run order, so the output does not depend on the number of
threads.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import json
import os
import platform
import time
from collections.abc import Sequence
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .analysis import optimal_period, optimal_threshold, periodic_avg_cost, threshold_avg_cost
from .arrivals import (
    RNG_ALGORITHM,
    ArrivalSequence,
    BernoulliSource,
    EmptyTrace,
    ParseError,
    SlotOverflow,
    check_trace_options,
    derive_seed,
    empirical_rate,
    generate_bernoulli,
    load_trace,
)
from .core import CostModel, InvalidRate, as_int, cap_threshold, check_fields, check_rate
from .engine import SimResult, SweepResult, ordered_map, simulate
from .offline import OfflineSolution, offline_optimal, offline_optimal_many
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
_EMIT_CHUNK = 1 << 13
# A batch of ``run_policy_comparison``: at most this many requests and
# paths, whose offline optima are one ``offline_optimal_many`` call. The
# path cap bounds the DP's per-path block arrays when paths are short.
_BATCH_REQUESTS = 1 << 16
_BATCH_PATHS = 64
# The runners refuse a cost past the float range once it reaches a row or a
# total, with no numpy warning before the refusal.
_QUIET_OVERFLOW = np.errstate(over="ignore", invalid="ignore")


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

    @staticmethod
    @contextlib.contextmanager
    def field(prefix: str = "", errors=(KeyError, TypeError, ValueError)):
        """Re-raise any of ``errors`` raised in the body as a ConfigError
        whose message is ``prefix`` (the field's name, where the message
        lacks it) followed by the original message: the one way a record's,
        a flag's or a file's error becomes a configuration error."""
        try:
            yield
        except errors as exc:
            raise ConfigError(f"{prefix}{exc}") from None


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
    it out and the runners ignore it, so a threshold sweep has no offline row
    although ``include_offline`` defaults to true. The three Bernoulli kinds
    run through ``run_policy_comparison``: a threshold sweep replays
    threshold(x) alone at grid point x, on paths seeded from the row's seed
    cell as ``simulate_many`` seeds them. trace_compare runs through
    ``run_trace_compare``. The runners replay what the checks build, kept
    outside the fields and so outside ``to_dict``: the ``CostModel`` as
    ``_model``, one (x, rate, model) per grid point as ``_points`` and the
    configured policies as ``_policies`` (None for "auto").
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
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ConfigError(f"{name}: must be an integer >= 1, got {value!r}")
            with ConfigError.field():
                as_int(value, f"{name}:")
        if type(self.base_seed) is not int:
            raise ConfigError(f"base_seed: must be an integer, got {self.base_seed!r}")
        if not isinstance(self.include_offline, bool):
            raise ConfigError(f"include_offline: must be true or false, got {self.include_offline!r}")
        if not isinstance(self.grid, list):
            raise ConfigError(f"grid: must be a list, got {self.grid!r}")
        self.grid = self.grid or default_grid()
        for name in ("model", "arrival"):
            if not isinstance(getattr(self, name), dict):
                raise ConfigError(f"{name}: must be an object, got {getattr(self, name)!r}")
        with ConfigError.field("model: "):
            self._model = CostModel.from_config(self.model)
        akind = self.arrival.get("kind", "bernoulli")
        if self.kind == "trace_compare":
            if akind != "trace" or not {"path", "slot_duration"} <= self.arrival.keys():
                raise ConfigError("arrival: trace_compare needs {kind: 'trace', path, slot_duration}")
        elif akind != "bernoulli":
            raise ConfigError(f"arrival.kind: expected 'bernoulli' for {self.kind}")
        with ConfigError.field("arrival: "):
            check_fields(self.arrival, arrival_fields)
        with ConfigError.field("arrival.rate: "):
            rate = float(check_rate(self.arrival.get("rate"))) if "rate" in arrival_fields else None
        if self.kind == "trace_compare":
            with ConfigError.field("arrival."):  # the options are named as load_trace's parameters
                check_trace_options(**{k: v for k, v in self.arrival.items() if k != "kind"})
            self.arrival = {**self.arrival, "path": os.fsdecode(self.arrival["path"])}  # JSON holds no PathLike
        self._points = []
        for i, x in enumerate(self.grid):
            with ConfigError.field(f"grid[{i}]: "):
                self._points.append((x, *point(x, rate, self._model)))
        self._policies = None
        if self.policies != "auto":
            if not isinstance(self.policies, list):
                raise ConfigError("policies: must be 'auto' or a list of policy records")
            self._policies = []
            for i, cfg in enumerate(self.policies):
                with ConfigError.field(f"policies[{i}]: "):
                    self._policies.append(Policy.from_config(cfg))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        with ConfigError.field():  # an unknown field, or a missing one that has no default
            check_fields(data, cls.__dataclass_fields__)
            return cls(**data)

    def to_dict(self) -> dict:
        """The fields this spec's kind reads; ``from_dict`` gives the rest
        their defaults."""
        read = _READ_BY_ALL + KINDS[self.kind][1]
        return {name: value for name, value in asdict(self).items() if name in read}


def _per_row(column) -> bool:
    """Whether a block's column holds one value per row; any other value is
    shared by all the block's rows."""
    return isinstance(column, (np.ndarray, list, _MeanColumn))


class _Rows(Sequence):
    """Read-only row view of a ``ResultTable``: one dict per row, built on demand."""

    def __init__(self, blocks: list, ends: list):
        self._blocks = blocks
        self._ends = ends

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        i = range(len(self))[i]  # negative indices, IndexError past the end
        b = bisect.bisect_right(self._ends, i)
        j = i - (self._ends[b - 1] if b else 0)
        row = {}
        for name, column in self._blocks[b].items():
            value = column[j] if _per_row(column) else column
            row[name] = value.item() if isinstance(value, np.generic) else value
        return row


@dataclass(eq=False)
class ResultTable:
    """One experiment's results as a list of row blocks, plus the metadata
    that reproduces them.

    A block maps every name in ``COLUMNS`` to a numpy array or a list with
    one value per row, to a computed per-row column, or to any other value,
    which all the block's rows share; its per-row columns, at least one,
    are of one length, the block's number of rows. A computed column
    (``_MeanColumn``, a trace replay's running mean) holds no rows: a slice
    or an index builds them, a window of rows at a time, and a slice reads
    as a float64 array. The table's rows are its blocks' rows in order.
    In the CSV that ``emit`` writes, a cell of a float64 array reads
    ``format(v, ".10g")`` and one of an integer array ``str(v)``, both made
    by numpy from the array. Any other cell, a shared one included, keeps
    its value's own type: it reads empty for ``None`` or ``""``,
    ``format(v, ".10g")`` for a Python float and ``str(v)`` otherwise, in
    UTF-8, and a cell whose text holds a NUL character is refused. A block
    of no rows writes no cell. ``rows`` is a read-only view with one dict
    per row, made on demand, in which numpy scalars come back as Python
    numbers.
    """

    blocks: list
    meta: dict

    def __post_init__(self) -> None:
        counts = []
        for i, block in enumerate(self.blocks):
            if set(block) != set(COLUMNS):
                raise ValueError(f"block {i}: columns must be exactly {COLUMNS}, got {tuple(block)}")
            lengths = {len(column) for column in block.values() if _per_row(column)}
            if len(lengths) != 1:
                raise ValueError(f"block {i}: per-row columns must be present and of one length, "
                                 f"got lengths {sorted(lengths)}")
            counts.extend(lengths)
        self.blocks = [{name: block[name] for name in COLUMNS} for block in self.blocks]
        self._ends = list(itertools.accumulate(counts))

    @property
    def rows(self) -> _Rows:
        return _Rows(self.blocks, self._ends)


def _resolve_policies(policies: list[Policy] | None, rate: float, model: CostModel):
    """Label and price the policies of one grid point. None ("auto") picks the
    optimal threshold, naive and the optimal period and fills ``info``; every
    policy is then priced by the same call, so one policy gets one number on
    every path."""
    delta_star = cap_threshold(model)
    info = {}
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


def _monte_carlo(points, n_runs: int, n_requests: int, offline_on: bool):
    """Yield (i, {label: SweepResult}) for each point i in order, once its last run is in.

    A point is (rate, model, resolved policies, seed stem): its run r replays
    the policies, and the offline optimum last if ``offline_on``, on the path
    of ``n_requests`` requests drawn at derive_seed(*stem, r). The (point,
    run) pairs go in order, one per batch without the offline row, and with
    it at most ``_BATCH_REQUESTS`` requests and ``_BATCH_PATHS`` paths (one
    at least). A batch is one task of ``ordered_map``: it generates its
    paths, solves their optima by one ``offline_optimal_many`` call and
    returns only each replay's averages, which this thread takes in order,
    so no sweep depends on the number of threads. A ``SlotOverflow`` of a
    path is raised with ``point`` set to its point's index.
    """
    if n_runs < 1:
        raise ValueError("a sweep needs at least one run")

    def path(point, run):
        rate, _, _, stem = points[point]
        try:
            return generate_bernoulli(BernoulliSource(rate, derive_seed(*stem, run)), n_requests=n_requests)
        except SlotOverflow as exc:
            exc.point = point
            raise

    def batch_averages(batch):
        paths = [path(point, run) for point, run in batch]
        models = [points[point][1] for point, _ in batch]
        solutions = offline_optimal_many(paths, models) if offline_on else [None] * len(batch)
        return [(point, run, [(label, res.averages) for label, res in _replay(points[point][2], arrivals, model, sol)])
                for (point, run), arrivals, model, sol in zip(batch, paths, models, solutions)]

    pairs = ((point, run) for point in range(len(points)) for run in range(n_runs))
    per_batch = max(1, min(_BATCH_PATHS, _BATCH_REQUESTS // n_requests)) if offline_on else 1
    batches = iter(lambda: list(itertools.islice(pairs, per_batch)), [])
    # Per-run averages only: each run's replays are dropped once summarized.
    averages: dict[str, list[tuple[float, float, float]]] = {}
    for results in ordered_map(batch_averages, batches):
        for point, run, replays in results:
            for label, avgs in replays:
                averages.setdefault(label, []).append(avgs)
            if run == n_runs - 1:
                yield point, {label: SweepResult.of_averages(runs) for label, runs in averages.items()}
                averages = {}


def simulate_many(
    policy: Policy,
    source: BernoulliSource,
    n_runs: int,
    n_requests_per_run: int,
    model: CostModel,
) -> SweepResult:
    """Independent replays on fresh Bernoulli sample paths: ``_monte_carlo``
    on one point with no offline row, so one run is one task.

    Run i draws its arrivals from a child seed derived from (source.seed, i),
    so the sweep is reproducible, its runs are independent and it does not
    depend on the number of threads. ``n_runs`` and ``n_requests_per_run``
    are read through ``as_int``: 2.5, True or "3" is a ValueError naming it.
    """
    [(_, sweeps)] = _monte_carlo([(source.rate, model, [("", policy, None)], (source.seed,))],
                                 as_int(n_runs, "n_runs"), as_int(n_requests_per_run, "n_requests_per_run"),
                                 offline_on=False)
    return sweeps[""]


@_QUIET_OVERFLOW
def run_policy_comparison(spec: ExperimentSpec) -> ResultTable:
    """Replay policies on shared Bernoulli sample paths across a grid: in a
    threshold sweep, threshold(x) at grid point x, so that each row is
    ``simulate_many`` from the row's seed cell; in a rate or update-cost
    sweep, the auto (or configured) policies and, if ``include_offline``
    holds and the runs fit ``offline_request_cap``, the offline optimum.

    Every grid point is resolved first; ``_monte_carlo`` then replays the
    runs of every point, and a point's rows are added once its sweeps are
    in. A cost past the float range is refused, and so is a rate at which
    a path passes the int64 slots or the linear optimal period passes
    ``MAX_CAP``: ``arrival.rate``, or ``grid[i]`` in a rate sweep.
    """
    if spec.kind not in ("threshold_sweep", "lambda_sweep", "cost_sweep"):
        raise ConfigError(f"kind: expected threshold_sweep, lambda_sweep or cost_sweep, got {spec.kind}")
    threshold_sweep = spec.kind == "threshold_sweep"
    offline_on = ("include_offline" in KINDS[spec.kind][1] and spec.include_offline
                  and spec.n_requests <= spec.offline_request_cap)
    seeds = [derive_seed(spec.base_seed, i) for i in range(len(spec._points))]  # the rows' seed cells
    resolutions = {}
    points = []
    rate_field = "grid[{}]" if spec.kind == "lambda_sweep" else "arrival.rate"  # a lambda sweep's rates are its grid
    for i, (x, rate, model) in enumerate(spec._points):
        with ConfigError.field(f"{rate_field.format(i)}: ", (InvalidRate,)):  # too small for a linear period
            policies, info = _resolve_policies([Policy.threshold(x)] if threshold_sweep else spec._policies,
                                               rate, model)
        if info:
            resolutions[str(x)] = info
        # Run r's path seed is derive_seed(*stem, r): simulate_many's rule from
        # the seed cell in a threshold sweep, derive_seed(base_seed, i, r) else.
        points.append((rate, model, policies, (seeds[i],) if threshold_sweep else (spec.base_seed, i)))
    columns = {name: [] for name in COLUMNS}
    outside = []
    try:
        for i, sweeps in _monte_carlo(points, spec.n_runs, spec.n_requests, offline_on):
            x = spec._points[i][0]
            analytic = {label: value for label, _, value in points[i][2]} | {"offline": None}
            for label, sweep in sweeps.items():
                if not np.isfinite([sweep.mean_avg_total, sweep.stderr]).all():
                    raise ConfigError(f"grid[{i}]: {label} has mean cost {sweep.mean_avg_total!r} and stderr "
                                      f"{sweep.stderr!r}: the model's costs pass the float range")
                if threshold_sweep and abs(sweep.mean_avg_total - analytic[label]) > 3.0 * sweep.stderr:
                    outside.append(x)
                row = (x, label, sweep.mean_avg_total, sweep.stderr, sweep.mean_avg_staleness,
                       sweep.mean_avg_update, analytic[label], spec.n_runs, spec.n_requests, seeds[i])
                for cells, value in zip(columns.values(), row):
                    cells.append(value)
    except SlotOverflow as exc:
        raise ConfigError(f"{rate_field.format(exc.point)}: {exc}") from None
    if threshold_sweep:
        meta = {"rate": spec._points[-1][1], "mc_within_3_stderr": not outside, "mc_outside_taus": outside}
    else:
        meta = {"auto_policies": resolutions, "offline_included": offline_on}
    return ResultTable([columns], {"spec": spec.to_dict(), **meta})


def _replay(policies: list[tuple[str, Policy, float | None]], arrivals: ArrivalSequence, model: CostModel,
            sol: OfflineSolution | None) -> list[tuple[str, SimResult]]:
    """Replay every resolved policy on one arrival sequence, in order, and
    the offline-optimal schedule ``sol`` last, labelled "offline", if given."""
    replays = [(label, simulate(pol, arrivals, model)) for label, pol, _ in policies]
    if sol is not None:
        replays.append(("offline", simulate(Policy.scheduled(sol.update_slots), arrivals, model)))
    return replays


def truncate_requests(seq: ArrivalSequence, n_requests: int) -> ArrivalSequence:
    """First n requests of a sequence; a straddling slot keeps the remainder."""
    cum = np.cumsum(seq.counts)
    if n_requests >= cum[-1]:
        return seq
    idx = int(np.searchsorted(cum, n_requests, side="left"))
    counts = seq.counts[: idx + 1].copy()
    counts[idx] -= int(cum[idx]) - n_requests
    return ArrivalSequence(horizon=int(seq.slots[idx]), slots=seq.slots[: idx + 1], counts=counts)


class _RunningMeans:
    """The running means of one replay, computed a window of rows at a time.

    Row j holds the average cost, staleness and update cost over the first
    j + 1 requests: the staleness charged so far plus every update at slots
    up to and including request j's slot. Window w is rows [w·stride,
    (w + 1)·stride); its three means are built together into reused
    buffers, which hold the last window built. Its staleness sums are a
    cumsum whose first element is the sum before the window plus the
    window's first charge, so they equal one cumsum over all rows bit for
    bit. The sum before window w is stored when window w - 1 is first
    built, so the windows up to the first one asked for are built in order.
    """

    def __init__(self, res: SimResult, ends: np.ndarray | None, n: int, update_cost: float, stride: int):
        self.n, self.stride = n, stride
        self._charges, self._through, self._p = res.request_charges, res.updates_through, update_cost
        self._ends = ends  # the requests through each slot; None for one request per slot
        self._sums = [0.0]  # staleness summed over the rows before each window reached
        self._window = None
        self._buffers = np.empty((4, min(stride, n)))
        self._index = np.arange(1, min(stride, n) + 1, dtype=np.float64)

    def window(self, w: int) -> np.ndarray:
        """Window w's mean cost, staleness and update, one row each, read-only."""
        while len(self._sums) <= w:
            self._build(len(self._sums) - 1)
        if w != self._window:
            self._build(w)
        return self._view

    def _build(self, w: int) -> None:
        lo, hi = w * self.stride, min(self.n, (w + 1) * self.stride)
        cost, stale, update, denom = self._buffers[:, :hi - lo]
        rows = slice(lo, hi) if self._ends is None else np.searchsorted(self._ends, np.arange(lo, hi), side="right")
        stale[:] = self._charges[rows]
        if lo:
            stale[0] += self._sums[w]
        np.cumsum(stale, out=stale)
        if w + 1 == len(self._sums):
            self._sums.append(stale[-1])
        np.multiply(self._through[rows], self._p, out=update)
        np.add(self._index[:hi - lo], lo, out=denom)
        np.add(stale, update, out=cost)
        for column in (cost, stale, update):
            np.divide(column, denom, out=column)
        self._window, self._view = w, self._buffers[:3, :hi - lo]
        self._view.flags.writeable = False


class _MeanColumn:
    """One running mean of a trace replay as a per-row column, built by
    window in the ``_RunningMeans`` that the block's three means share. An
    index gives a numpy float. A slice [lo, hi) gives a float64 array: a
    read-only view of the shared buffers when it lies in one window, which
    holds until another window of the block is built, else a new array."""

    def __init__(self, means: _RunningMeans, k: int):
        self._means, self._k = means, k

    def __len__(self) -> int:
        return self._means.n

    def __getitem__(self, i):
        means, stride = self._means, self._means.stride
        if not isinstance(i, slice):
            i = range(means.n)[i]
            return means.window(i // stride)[self._k, i % stride]
        lo, hi, step = i.indices(means.n)
        if step != 1:
            raise ValueError("a computed column slices with step 1 only")
        if hi <= lo:
            return np.empty(0)
        first, last = lo // stride, (hi - 1) // stride
        if first == last:
            return means.window(first)[self._k, lo - first * stride:hi - first * stride]
        out = np.empty(hi - lo)
        for w in range(first, last + 1):
            a, b = max(lo, w * stride), min(hi, (w + 1) * stride)
            out[a - lo:b - lo] = means.window(w)[self._k, a - w * stride:b - w * stride]
        return out


def _cumulative_blocks(replays: list[tuple[str, SimResult]], arrivals: ArrivalSequence,
                       model: CostModel) -> list[dict]:
    """One block of rows per replay, in order: row j of a block holds the
    average cost over the first j + 1 requests (``_RunningMeans``), and
    x_value and n_requests are one request index that every block shares."""
    n = arrivals.n_requests
    requests = np.arange(1, n + 1, dtype=np.int64)
    ends = None if arrivals.counts.size == n else np.cumsum(arrivals.counts)
    blocks = []
    for label, res in replays:
        means = _RunningMeans(res, ends, n, model.update_cost, _EMIT_CHUNK)
        mean_cost, mean_staleness, mean_update = (_MeanColumn(means, k) for k in range(3))
        blocks.append({
            "x_value": requests, "policy_label": label, "mean_cost": mean_cost,
            "stderr": 0.0, "mean_staleness": mean_staleness, "mean_update": mean_update,
            "analytic_cost": None, "n_runs": 1, "n_requests": requests, "seed": "",
        })
    return blocks


@_QUIET_OVERFLOW
def run_trace_compare(spec: ExperimentSpec) -> ResultTable:
    """Replay threshold, naive, periodic, and the offline optimum on a trace.

    The arrival rate is estimated from the replayed portion of the trace and
    feeds the closed-form threshold and period choices. Rows hold the
    cumulative average cost after each of the first n_requests requests.
    """
    if spec.kind != "trace_compare":
        raise ConfigError(f"kind: expected trace_compare, got {spec.kind}")
    model = spec._model
    try:
        trace = load_trace(**{k: v for k, v in spec.arrival.items() if k != "kind"})
    except OSError as exc:  # a missing or unreadable file is bad input, like a bad field
        raise ConfigError(f"arrival.path: cannot read {spec.arrival['path']!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"arrival.path: cannot read {spec.arrival['path']!r}: {exc}") from None
    except (ParseError, EmptyTrace) as exc:
        raise ConfigError(f"arrival.path: {exc}") from None
    except SlotOverflow as exc:
        raise ConfigError(f"arrival.slot_duration: {exc}") from None
    seq = truncate_requests(trace, spec.n_requests)
    rate_hat = empirical_rate(seq)
    policies, info = _resolve_policies(spec._policies, rate_hat, model)
    offline_on = spec.include_offline and seq.n_requests <= spec.offline_request_cap
    sol = offline_optimal(seq, model) if offline_on else None
    replays = _replay(policies, seq, model, sol)
    for label, res in replays:
        # Every row is a running sum of these totals' terms, so one that
        # overflows would write inf rows.
        if not np.isfinite(res.total):
            raise ConfigError(f"model: {label} has total cost {res.total!r} over {seq.n_requests} requests: "
                              "the model's costs pass the float range")
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
    return ResultTable(_cumulative_blocks(replays, seq, model), meta)


def _format_cell(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


@functools.cache
def _tables():
    """Lookup tables of the numeric cell kernels, built on first use.

    A float cell's field is the first 28 bytes of four 8-byte words: byte 0
    holds the sign, bytes 1-5 the "0.000" that leads a first digit at 1e-1
    to 1e-4, bytes 8-26 the ten digits, each followed by a point slot, and
    byte 27 the separator. For key = (14·negative + X + 4)·11 + trailing
    zeros, with X the decimal exponent in -4..9, ``prefix[key]`` is the
    first word and the word masks ``masks[key]`` keep the digits and the
    point that print; the last key, for a cell formatted in Python, keeps
    nothing, so that cell's text can take bytes 8-24. ``pairs[k]`` holds
    the four digits of k < 10,000, each followed by a point, and ``groups``
    the four digits of k as one 4-byte word in three forms: as they are,
    without leading zeros, and without leading zeros but "0" for k = 0.
    ``pow10`` holds 10^0..10^14.
    """
    k = np.arange(10_000)
    digits = (k[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    zeros = sum(k % 10**t == 0 for t in (1, 2, 3, 4)).astype(np.uint8)
    pairs = np.full((10_000, 8), ord("."), np.uint8)
    pairs[:, ::2] = digits
    lead = digits * (np.arange(4) >= 4 - (k[:, None] >= np.array([1000, 100, 10, 1])).sum(1, keepdims=True))
    low = lead.copy()
    low[0, 3] = ord("0")
    groups = np.vstack([digits, lead, low]).view(np.uint32).ravel()
    neg, x, tz = np.ix_(np.arange(2), np.arange(-4, 10), np.arange(11))
    c = np.arange(32)[:, None, None, None]
    j = (c - 8) // 2  # the digit at or before byte c
    keep = np.select(
        [c == 0, c < 8, c % 2 == 0],
        [neg == 1, (x < 0) & (c < 2 - x), (j <= x) | (j < 10 - tz)],
        (j == x) & (x < 9 - tz),
    ).reshape(32, -1).T
    keep = np.vstack([keep, np.zeros(32, bool)])
    masks = np.ascontiguousarray(keep * np.uint8(255)).view(np.uint64)
    prefix = np.frombuffer(b"-0.000\0\0", np.uint64) & masks[:, 0]
    pow10 = 10.0 ** np.arange(15)  # exact as doubles
    tables = (pow10, pairs.view(np.uint64).ravel(), zeros, groups, prefix,
              *(masks[:, w].copy() for w in (1, 2, 3)))
    for t in tables:  # shared by every call
        t.flags.writeable = False
    return tables


def _float_cells(v: np.ndarray, end: int) -> np.ndarray:
    """Field of float64 cells as ``format(v, ".10g")``.

    With x = floor(log10|v|), s = |v|·10^(9-x) takes one rounding (10^k is
    exact for k <= 22), at most 2^-20 for s < 2^34, so the ten digits
    m = floor(s) + (frac > 0.5) are exact unless frac is within 1e-5 of a
    half; a carry to 10^10 is 10^9 at x + 1. Where log10 rounds across a
    power of ten, m lands on 10^9 or 10^10 and is still right; any other m
    outside [10^9, 10^10] is not trusted. Such a cell, one near a half, one
    not finite or one printed in exponent notation (X outside -4..9) is
    formatted in Python, and its text written into its own row's digit
    bytes, so the field stays at most 28 bytes wide.
    """
    pow10, pairs, zeros, _, prefix, *masks = _tables()
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.floor(np.log10(a))
    fixed = (x >= -5) & (x <= 9)  # False for 0, NaN and inf
    x = np.where(fixed, x, 0).astype(np.int64)
    s = np.where(fixed, a, 0.0) * pow10.take(9 - x)
    m = np.floor(s)
    frac = s - m
    m += frac > 0.5
    ok = fixed & (np.abs(frac - 0.5) > 1e-5) & (m >= 1e9) & (m <= 1e10)
    carry = m == 1e10
    x += carry
    ok = (ok & (x >= -4) & (x <= 9)) | (a == 0)  # 0 is m = 0 at x = 0
    m = np.where(ok, np.where(carry, 1e9, m), 0)
    # m < 2^34, so these quotients are exact
    q = np.floor(m / 100)
    hi = np.floor(q / 1e4)
    lo = (m - 100 * q).astype(np.intp)
    mid = (q - 1e4 * hi).astype(np.intp)
    hi = hi.astype(np.intp)
    tz = zeros.take(lo).clip(max=2) + (lo == 0) * (zeros.take(mid) + (mid == 0) * zeros.take(hi))
    key = np.where(ok, (np.signbit(v) * 14 + x + 4) * 11 + tz, len(prefix) - 1)
    words = np.empty((len(v), 4), np.uint64)
    words[:, 0] = prefix.take(key)
    for w, part in enumerate((hi, mid, 100 * lo)):  # lo's two digits lead its word
        words[:, w + 1] = pairs.take(part) & masks[w].take(key)
    field = words.view(np.uint8)[:, :28]
    field[:, 27] = end
    if not ok.all():  # at most 17 bytes, in the digit bytes the last key zeroes
        rows = np.flatnonzero(~ok)
        texts = [format(c, ".10g").encode() for c in v[rows].tolist()]
        field[rows, 8:25] = np.array(texts, dtype="S17").view(np.uint8).reshape(len(rows), 17)
    if not words[:, 0].any():
        field = field[:, 8:]
    return field


def _int_cells(v: np.ndarray, end: int) -> np.ndarray:
    """Field of integer cells as ``str(v)``, signed down to -2^63 and
    unsigned up to 2^64 - 1: a sign word, then four digits a word."""
    groups = _tables()[3]
    neg = v < 0
    u = v.astype(np.uint64)
    if neg.any():
        u[neg] = -u[neg]  # |v|, in two's complement
    words = np.empty((len(v), 7), np.uint32)
    words[:, 6] = end
    col = 6
    while col == 6 or u.any():
        col -= 1
        q = u // 10_000
        state = (q == 0) * np.uint64(10_000 * (1 + (col == 5)))  # leading zeros go; 0 keeps a "0"
        words[:, col] = groups.take((u - 10_000 * q + state).astype(np.intp))
        u = q
    if neg.any():
        col -= 1
        words[:, col] = neg * np.frombuffer(b"-\0\0\0", np.uint32)[0]
    return words.view(np.uint8)[:, 4 * col:25]


def _cells(column, lo: int, hi: int, end: int) -> np.ndarray:
    """Field of rows [lo, hi) of one column of a block: one row of bytes per
    cell, ending in the byte ``end``, in which NUL bytes are padding, so a
    cell's text may not hold one. A shared value is formatted once and its
    bytes repeated over the rows."""
    if not _per_row(column):
        field = _cells([column], 0, 1, end)
        return np.broadcast_to(field, (hi - lo, field.shape[1]))
    chunk = column[lo:hi]
    if isinstance(chunk, np.ndarray) and chunk.dtype == np.float64:
        return _float_cells(chunk, end)
    if isinstance(chunk, np.ndarray) and chunk.dtype.kind in "iu":
        return _int_cells(chunk, end)
    texts = [_format_cell(value).encode() + bytes([end]) for value in chunk]
    if any(b"\0" in t for t in texts):
        raise ValueError("a CSV cell may not hold a NUL character")
    return np.array(texts, dtype=f"S{max(map(len, texts))}").view(np.uint8).reshape(len(texts), -1)


def emit(table: ResultTable, path) -> None:
    """Write the table as CSV plus a JSON sidecar holding the artifact version,
    the RNG algorithm, ``created_unix``, a ``run`` block and the table's meta
    (spec and seeds). ``run`` names the ``numpy`` and ``python`` versions of
    the run: numpy keeps a ``Generator``'s streams only within one version
    (NEP 19), so a spec's CSV bytes hold for the numpy version that wrote it.

    Cells print as ``ResultTable`` says; text is written as UTF-8, and a
    cell holding a NUL character is refused. Each block is written
    ``_EMIT_CHUNK`` rows at a time, and a computed column builds a chunk's
    rows when the chunk slices it: a trace replay's three means are built
    once per chunk, together, into buffers that their block reuses, so a
    trace table never holds its means whole. ``trace-compare`` on a trace
    of one request per slot then peaks at 41.8, 118.3 and 287.9 MiB max RSS
    at 1e5, 1e6 and 3e6 requests, against 47.9, 201.3 and 538.6 MiB with
    the means as whole arrays (2-core x86 host). A float64 or integer
    column's chunk is turned into bytes by numpy, with no Python object per
    cell: a float cell the kernel cannot place exactly (near a rounding
    tie, not finite, or in exponent notation) is formatted in Python and
    written into its own row of the column's field, which keeps its width.
    A shared value is formatted once per chunk and its bytes repeated over
    the chunk's rows; any other column formats each of its cells. A column
    object that appears under two names of a block is formatted once per
    chunk. Each column gives a byte matrix, one row per cell, padded with
    NUL bytes; a chunk's matrices are joined into one buffer, reused from
    chunk to chunk, the padding dropped, and the chunk written with one
    call. Rerunning the same spec under the same numpy reproduces the CSV
    byte for byte; ``created_unix`` is the only non-deterministic field of
    the sidecar.
    """
    if not len(table.rows):
        raise ValueError("refusing to emit an empty table")
    path = str(path)
    ends = b"," * (len(COLUMNS) - 1) + b"\n"
    with open(path, "wb") as fh:
        fh.write((",".join(COLUMNS) + "\n").encode())
        out = np.empty(0, np.uint8)  # a chunk's rows, reused while large enough
        for block, start, stop in zip(table.blocks, [0, *table._ends], table._ends):
            columns = [(column, id(column), end) for column, end in zip(block.values(), ends)]
            for lo in range(0, stop - start, _EMIT_CHUNK):
                hi = min(lo + _EMIT_CHUNK, stop - start)
                fields = {}  # a column object that appears twice is formatted once
                for column, key, end in columns:
                    if (key, end) not in fields:
                        fields[key, end] = _cells(column, lo, hi, end)
                fields = [fields[key, end] for _, key, end in columns]
                size = (hi - lo) * sum(field.shape[1] for field in fields)
                if out.size < size:
                    out = np.empty(size, np.uint8)
                rows = np.concatenate(fields, axis=1, out=out[:size].reshape(hi - lo, -1))
                del fields  # before the chunk's bytes are made, which lowers the peak
                fh.write(rows.tobytes().translate(None, b"\0"))
    sidecar = {
        "artifact_version": __version__,
        "rng": RNG_ALGORITHM,
        "created_unix": time.time(),
        "run": {"numpy": np.__version__, "python": platform.python_version()},
        **table.meta,
    }
    with open(path + ".meta.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
