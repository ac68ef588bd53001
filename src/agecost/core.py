"""Foundational types: time slots, AoI, staleness functions, and the cost model.

Conventions used throughout the package:
  * time-slots are integers indexed from 1,
  * the AoI (Age-of-Information) is the number of slots since the last
    refresh and drops to 0 at the end of an update slot,
  * a fresh reply costs nothing, a stale reply at age ``a`` costs ``f(a)``,
    and every refresh costs a flat ``update_cost``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

# Slots and ages are plain ints; costs are float64. Horizons up to 1e7 slots
# stay exact in both representations.
Slot = int
Aoi = int

_SCAN_CHUNK = 4096


class NoCapExists(ValueError):
    """The staleness function never reaches the update cost."""


class InvalidRate(ValueError):
    """Arrival rate outside the admissible interval."""


def check_rate(rate: float, *, allow_one: bool = True) -> float:
    """Validate a Bernoulli arrival rate and return it unchanged."""
    hi_ok = rate <= 1.0 if allow_one else rate < 1.0
    if not (0.0 < rate and hi_ok):
        hi = "1]" if allow_one else "1)"
        raise InvalidRate(f"arrival rate must be in (0, {hi}, got {rate}")
    return rate


@dataclass(frozen=True)
class StalenessFn:
    """Non-decreasing penalty of the AoI with f(0) = 0.

    Variants:
      * ``linear``     f(a) = a
      * ``quadratic``  f(a) = a**2
      * ``table``      explicit values indexed by age; the last value is held
                       constant past the end of the table
      * ``piecewise``  step function given as (start_age, value) breakpoints;
                       0 before the first breakpoint, last value held
    """

    kind: str
    table: tuple[float, ...] = ()
    breakpoints: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "quadratic", "table", "piecewise"):
            raise ValueError(f"unknown staleness kind {self.kind!r}")
        if self.kind == "table":
            vals = self.table
            if not vals:
                raise ValueError("table staleness needs at least one value")
            if vals[0] != 0.0:
                raise ValueError("table staleness must have f(0) = 0")
            if any(v < 0 for v in vals):
                raise ValueError("table staleness values must be non-negative")
            if any(a > b for a, b in zip(vals, vals[1:])):
                raise ValueError("table staleness must be non-decreasing")
        if self.kind == "piecewise":
            bps = self.breakpoints
            if not bps:
                raise ValueError("piecewise staleness needs at least one breakpoint")
            starts = [s for s, _ in bps]
            vals = [v for _, v in bps]
            if starts[0] < 1:
                raise ValueError("piecewise breakpoints start at age >= 1 (f(0) = 0 is implicit)")
            if any(a >= b for a, b in zip(starts, starts[1:])):
                raise ValueError("piecewise breakpoints must be strictly increasing")
            if any(v < 0 for v in vals):
                raise ValueError("piecewise values must be non-negative")
            if any(a > b for a, b in zip(vals, vals[1:])):
                raise ValueError("piecewise values must be non-decreasing")

    @classmethod
    def linear(cls) -> "StalenessFn":
        return cls("linear")

    @classmethod
    def quadratic(cls) -> "StalenessFn":
        return cls("quadratic")

    @classmethod
    def from_table(cls, values) -> "StalenessFn":
        return cls("table", table=tuple(float(v) for v in values))

    @classmethod
    def piecewise(cls, breakpoints) -> "StalenessFn":
        return cls("piecewise", breakpoints=tuple((int(s), float(v)) for s, v in breakpoints))

    @property
    def bounded(self) -> bool:
        """True when the function holds a final constant value forever."""
        return self.kind in ("table", "piecewise")

    def __call__(self, aoi: Aoi) -> float:
        if aoi < 0:
            raise ValueError(f"AoI must be non-negative, got {aoi}")
        if self.kind == "linear":
            return float(aoi)
        if self.kind == "quadratic":
            return float(aoi * aoi)
        if self.kind == "table":
            t = self.table
            return t[aoi] if aoi < len(t) else t[-1]
        idx = bisect.bisect_right([s for s, _ in self.breakpoints], aoi) - 1
        return self.breakpoints[idx][1] if idx >= 0 else 0.0

    def eval_array(self, ages: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over an integer age array."""
        ages = np.asarray(ages)
        if self.kind == "linear":
            return ages.astype(np.float64)
        if self.kind == "quadratic":
            return ages.astype(np.float64) ** 2
        if self.kind == "table":
            vals = np.asarray(self.table, dtype=np.float64)
            return vals[np.minimum(ages, len(vals) - 1)]
        starts = np.asarray([s for s, _ in self.breakpoints])
        vals = np.concatenate(([0.0], [v for _, v in self.breakpoints]))
        return vals[np.searchsorted(starts, ages, side="right")]


@dataclass(frozen=True)
class CostModel:
    """Staleness penalty plus the flat cost of one refresh."""

    staleness: StalenessFn
    update_cost: float
    _cap: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        if not self.update_cost > 0:
            raise ValueError(f"update_cost must be positive, got {self.update_cost}")
        # Fails construction with NoCapExists when a bounded staleness
        # function never reaches the update cost.
        object.__setattr__(self, "_cap", _scan_cap(self.staleness, self.update_cost))

    @classmethod
    def from_config(cls, config: dict) -> "CostModel":
        """Build from a plain record as written by ``to_config``:
        {"staleness": {"kind", "values"? | "breakpoints"?}, "update_cost"}."""
        st = config["staleness"]
        kind = st["kind"]
        if kind == "linear":
            fn = StalenessFn.linear()
        elif kind == "quadratic":
            fn = StalenessFn.quadratic()
        elif kind == "table":
            fn = StalenessFn.from_table(st["values"])
        elif kind == "piecewise":
            fn = StalenessFn.piecewise(st["breakpoints"])
        else:
            raise ValueError(f"unknown staleness kind {kind!r}")
        return cls(staleness=fn, update_cost=float(config["update_cost"]))

    def to_config(self) -> dict:
        st: dict = {"kind": self.staleness.kind}
        if self.staleness.kind == "table":
            st["values"] = list(self.staleness.table)
        elif self.staleness.kind == "piecewise":
            st["breakpoints"] = [list(bp) for bp in self.staleness.breakpoints]
        return {"staleness": st, "update_cost": self.update_cost}


@dataclass(frozen=True)
class CostBreakdown:
    """Cost totals of one replay."""

    total_staleness: float
    total_update: float
    n_requests: int
    n_updates: int

    @property
    def total(self) -> float:
        return self.total_staleness + self.total_update


def aoi_step(prev: Aoi, updated: bool) -> Aoi:
    """Advance the AoI by one slot: reset to 0 on update, otherwise age by 1."""
    return 0 if updated else prev + 1


def cap_threshold(model: CostModel) -> int:
    """Smallest age whose staleness penalty reaches the update cost.

    A refresh is never worth skipping at or above this age: the stale reply
    alone would cost at least as much as the refresh.
    """
    return model._cap


def _scan_cap(fn: StalenessFn, update_cost: float) -> int:
    # Linear scan from age 1 upward, chunked for array speed. Bounded
    # variants are checked against their final held value first so the scan
    # terminates with a clear error instead of looping forever.
    if fn.bounded:
        last = len(fn.table) - 1 if fn.kind == "table" else fn.breakpoints[-1][0]
        limit = max(last, 1)
        if fn(limit) < update_cost:
            raise NoCapExists(
                f"staleness tops out at {fn(limit)} below update cost {update_cost}"
            )
    else:
        limit = None
    start = 1
    while True:
        stop = start + _SCAN_CHUNK if limit is None else min(limit + 1, start + _SCAN_CHUNK)
        ages = np.arange(start, stop, dtype=np.int64)
        hits = np.nonzero(fn.eval_array(ages) >= update_cost)[0]
        if hits.size:
            return int(ages[hits[0]])
        if limit is not None and stop > limit:
            raise NoCapExists("staleness never reaches the update cost")
        start = stop
