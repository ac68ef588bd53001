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
import math
import numbers
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np


class NoCapExists(ValueError):
    """The staleness function never reaches the update cost."""


class InvalidRate(ValueError):
    """Arrival rate outside the admissible interval."""


def check_rate(rate: float, *, allow_one: bool = True) -> float:
    """Validate a Bernoulli arrival rate and return it unchanged: ValueError
    if it is not a number (see ``as_float``), InvalidRate if it lies outside
    (0, 1], or outside (0, 1) without ``allow_one``."""
    as_float(rate, "arrival rate")
    hi_ok = rate <= 1.0 if allow_one else rate < 1.0
    if not (0.0 < rate and hi_ok):
        hi = "1]" if allow_one else "1)"
        raise InvalidRate(f"arrival rate must be in (0, {hi}, got {rate}")
    return rate


def as_float(value, what: str) -> float:
    """``value`` as a float, an int past the float range as +-inf. ValueError
    naming ``what`` for a bool, a string or anything else that is not a real
    number."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def as_int(value, what: str) -> int:
    """``value`` as an int. ValueError naming ``what`` for a bool or a value
    int() would change or reject (it reads 2.5 as 2, true as 1, "3" as 3),
    and for an integer outside int64, which no numpy array of slots, ages
    or counts can hold."""
    if type(value) is int:
        n = value
    else:
        try:
            n = int(value)
        except (OverflowError, TypeError, ValueError):  # inf, nan, None, "abc"
            n = None
        if isinstance(value, (bool, np.bool_)) or n is None or n != value:
            raise ValueError(f"{what} must be an integer, got {value!r}")
    if not -(1 << 63) <= n < 1 << 63:
        raise ValueError(f"{what} must fit in int64, got an integer of {n.bit_length()} bits")
    return n


def as_list(value, what: str) -> tuple:
    """``value``'s items as a tuple. ValueError naming ``what`` unless it is
    an iterable other than a string or a mapping (JSON: a list)."""
    if isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Iterable):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return tuple(value)


def as_slots(slots) -> tuple[int, ...]:
    """``slots`` as ints: a list (``as_list``) of integers (``as_int``, naming "each slot")."""
    return tuple(as_int(s, "each slot") for s in as_list(slots, "slots"))


def check_fields(record: dict, known, prefix: str = "") -> None:
    """Raise a ValueError, its message led by ``prefix``, if ``record`` holds
    a key outside ``known``. A spec's records go through
    ``ConfigError.field``, which makes it a configuration error."""
    extra = set(record) - set(known)
    if extra:
        raise ValueError(f"{prefix}unknown fields {sorted(extra)}")


def _read_only(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype)
    arr.flags.writeable = False
    return arr


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

    However it is built, ``table``, ``breakpoints`` and each breakpoint go
    through ``as_list`` (a breakpoint must be an [age, value] pair), values
    through ``as_float`` and breakpoint ages through ``as_int``, their errors
    naming the age. Only the table kind takes ``table`` and only the
    piecewise kind ``breakpoints``; another kind given one is a ValueError.
    """

    kind: str
    table: tuple[float, ...] = ()
    breakpoints: tuple[tuple[int, float], ...] = ()
    # Built once from the tuples, outside eq, hash and repr: the breakpoint
    # ages ``__call__`` bisects, and the read-only arrays ``eval_array``
    # indexes (the table, or 0 and then each breakpoint's value) and searches.
    _ages: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())
    _values: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)
    _starts: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "quadratic", "table", "piecewise"):
            raise ValueError(f"unknown staleness kind {self.kind!r}")
        object.__setattr__(self, "table", tuple(as_float(v, f"table staleness value at age {age}")
                                                for age, v in enumerate(as_list(self.table, "table staleness values"))))
        pairs = tuple(as_list(bp, "each piecewise breakpoint")
                      for bp in as_list(self.breakpoints, "piecewise breakpoints"))
        for pair in pairs:
            if len(pair) != 2:
                raise ValueError(f"each piecewise breakpoint must be an [age, value] pair, got {list(pair)!r}")
        object.__setattr__(self, "breakpoints", tuple(
            (age := as_int(s, f"piecewise breakpoint {[s, v]!r}: age"), as_float(v, f"piecewise value at age {age}"))
            for s, v in pairs))
        for name, owner in (("table", "table"), ("breakpoints", "piecewise")):
            if getattr(self, name) and self.kind != owner:
                raise ValueError(f"a {self.kind} staleness takes no {name}")
        if self.kind in ("table", "piecewise"):
            table = self.kind == "table"
            name = "table staleness" if table else "piecewise"
            pairs = tuple(enumerate(self.table)) if table else self.breakpoints
            if not pairs:
                raise ValueError(f"{self.kind} staleness needs at least one {'value' if table else 'breakpoint'}")
            for age, v in pairs:
                if not math.isfinite(v):
                    raise ValueError(f"{name} value at age {age} must be finite, got {v}")
            ages, vals = zip(*pairs)
            if table and vals[0] != 0.0:
                raise ValueError("table staleness must have f(0) = 0")
            if not table and ages[0] < 1:
                raise ValueError("piecewise breakpoints start at age >= 1 (f(0) = 0 is implicit)")
            if any(a >= b for a, b in zip(ages, ages[1:])):
                raise ValueError("piecewise breakpoints must be strictly increasing")
            if any(v < 0 for v in vals):
                raise ValueError(f"{name} values must be non-negative")
            if any(a > b for a, b in zip(vals, vals[1:])):
                raise ValueError(f"{name} values must be non-decreasing")
            if not table:
                object.__setattr__(self, "_ages", ages)
                object.__setattr__(self, "_starts", _read_only(ages, np.int64))
            object.__setattr__(self, "_values", _read_only(vals if table else (0.0, *vals), np.float64))

    @classmethod
    def linear(cls) -> "StalenessFn":
        return cls("linear")

    @classmethod
    def quadratic(cls) -> "StalenessFn":
        return cls("quadratic")

    @classmethod
    def from_table(cls, values) -> "StalenessFn":
        return cls("table", table=values)

    @classmethod
    def piecewise(cls, breakpoints) -> "StalenessFn":
        return cls("piecewise", breakpoints=breakpoints)

    @property
    def held_from(self) -> int | None:
        """Age from which the final value is held forever; None if unbounded."""
        if self.kind == "table":
            return len(self.table) - 1
        return self.breakpoints[-1][0] if self.kind == "piecewise" else None

    def __call__(self, aoi: int) -> float:
        if aoi < 0:
            raise ValueError(f"AoI must be non-negative, got {aoi}")
        if self.kind == "linear":
            return float(aoi)
        if self.kind == "quadratic":
            return float(aoi * aoi)
        if self.kind == "table":
            t = self.table
            return t[aoi] if aoi < len(t) else t[-1]
        idx = bisect.bisect_right(self._ages, aoi) - 1
        return self.breakpoints[idx][1] if idx >= 0 else 0.0

    def eval_array(self, ages: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over an array of non-negative ages: integers,
        or float64 integral values below 2^53, which the linear kind returns
        as they are."""
        ages = np.asarray(ages)
        if self.kind == "linear":
            return ages.astype(np.float64, copy=False)
        if self.kind == "quadratic":
            return ages.astype(np.float64, copy=False) ** 2
        if self.kind == "table":
            return self._values[np.minimum(ages, self._values.size - 1).astype(np.intp, copy=False)]
        return self._values[np.searchsorted(self._starts, ages, side="right")]

    def first_age(self, level: float, limit: int) -> int | None:
        """Smallest age a in [1, limit] with f(a) >= level, by doubling, then
        bisection: O(log a) calls of f. None if f(limit) < level."""
        lo, hi = 0, 1  # f(lo) < level, or lo = 0
        while self(hi) < level:
            if hi >= limit:
                return None
            lo, hi = hi, min(2 * hi, limit)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if self(mid) < level else (lo, mid)
        return hi


# Largest cap threshold a model may have: the optimizers' rounding bounds
# assume it (see ``optimal_threshold``).
MAX_CAP = 2**50


@dataclass(frozen=True)
class CostModel:
    """Staleness penalty plus the flat cost of one refresh, whose cap
    threshold is at most ``MAX_CAP``. However the model is built,
    ``update_cost`` is stored as a float and a non-number is a ValueError
    naming it (see ``as_float``)."""

    staleness: StalenessFn
    update_cost: float
    _cap: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "update_cost", as_float(self.update_cost, "update_cost"))
        # An infinite cost would never be reached by an unbounded penalty.
        if not 0 < self.update_cost < math.inf:
            raise ValueError(f"update_cost must be positive and finite, got {self.update_cost}")
        held = self.staleness.held_from
        if held is not None and self.staleness(held) < self.update_cost:
            raise NoCapExists(f"staleness tops out at {self.staleness(held)} below update cost {self.update_cost}")
        cap = self.staleness.first_age(self.update_cost, MAX_CAP)
        if cap is None:
            raise ValueError(f"update_cost {self.update_cost} is too large: the penalty "
                             f"stays below it through age 2^50")
        object.__setattr__(self, "_cap", cap)

    @classmethod
    def from_config(cls, config: dict) -> "CostModel":
        """Build from a plain record as written by ``to_config``:
        {"staleness": {"kind", "values"? | "breakpoints"?}, "update_cost"}.
        A field that ``to_config`` would not write is a ValueError, and so is
        a staleness that is not an object holding a kind."""
        st = config.get("staleness")
        if not isinstance(st, dict):
            raise ValueError(f"staleness: must be an object, got {st!r}")
        if "kind" not in st:
            raise ValueError(f"staleness: missing field 'kind', got {st!r}")
        if st["kind"] == "table":
            fn = StalenessFn.from_table(st.get("values"))
        elif st["kind"] == "piecewise":
            fn = StalenessFn.piecewise(st.get("breakpoints"))
        else:
            fn = StalenessFn(st["kind"])  # linear, quadratic or an unknown kind's error
        model = cls(staleness=fn, update_cost=config.get("update_cost"))
        written = model.to_config()
        check_fields(st, written["staleness"], "staleness: ")
        check_fields(config, written)
        return model

    def to_config(self) -> dict:
        st: dict = {"kind": self.staleness.kind}
        if self.staleness.kind == "table":
            st["values"] = list(self.staleness.table)
        elif self.staleness.kind == "piecewise":
            st["breakpoints"] = [list(bp) for bp in self.staleness.breakpoints]
        return {"staleness": st, "update_cost": self.update_cost}


def cap_threshold(model: CostModel) -> int:
    """Smallest age whose staleness penalty reaches the update cost.

    A refresh is never worth skipping at or above this age: the stale reply
    alone would cost at least as much as the refresh. Found once, when the
    model is built, by ``StalenessFn.first_age``: O(log Δ*) calls of f.
    """
    return model._cap
