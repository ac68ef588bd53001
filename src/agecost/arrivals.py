"""Request arrival sequences: seeded Bernoulli streams and trace ingestion."""

from __future__ import annotations

import logging
import math
import numbers
import os
import warnings
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .core import as_float, as_int, as_slots, check_rate

log = logging.getLogger(__name__)

# All randomness in the package comes from PCG64 generators keyed by
# SeedSequence entropy tuples, so derived streams are reproducible and
# independent. The name is recorded in experiment metadata.
RNG_ALGORITHM = "numpy-pcg64-seedsequence"

_SEED_MASK = (1 << 64) - 1


class ParseError(ValueError):
    """A trace line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, line: str):
        super().__init__(f"line {line_no}: cannot parse timestamp from {line!r}")
        self.line_no = line_no


class EmptyTrace(ValueError):
    """The trace file contained no usable timestamps."""


class SlotOverflow(ValueError):
    """A Bernoulli path or a trace needs slots past the int64 range."""


def derive_seed(*entropy: int) -> int:
    """Deterministic 64-bit child seed from a tuple of integers."""
    ss = np.random.SeedSequence([e & _SEED_MASK for e in entropy])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True, eq=False)
class ArrivalSequence:
    """Per-slot request counts over a finite horizon, stored sparsely.

    ``slots`` is the sorted array of occupied slots (1-based) and ``counts``
    the number of requests in each; slots without requests are absent. A
    sequence holds at least one request: a replay or an offline solve
    charges requests, and means nothing without one.

    The constructor is the one check of a sequence, however it is built. It
    reads ``horizon`` through ``as_int`` and requires ``slots`` and
    ``counts`` to be 1-d int64 arrays of one length, each a ValueError
    naming its field. Then the sequence must hold a request, its slots must
    lie in [1, horizon] and strictly increase, and each count must be at
    least 1. It keeps read-only copies of both arrays, so no later write
    undoes these checks. The builders read a caller's slots through ``as_slots`` and
    the counts of ``from_counts`` through ``as_int``, so 1.7, True or 2^63
    is refused naming the slot or count, not cast.
    """

    horizon: int
    slots: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "horizon", as_int(self.horizon, "horizon"))
        for name in ("slots", "counts"):
            arr = getattr(self, name)
            if not (isinstance(arr, np.ndarray) and arr.dtype == np.int64 and arr.ndim == 1):
                raise ValueError(f"{name} must be a 1-d int64 array, got {arr!r}")
            arr = arr.copy()  # the caller's array could be changed after these checks
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.counts.size != self.slots.size:
            raise ValueError(f"counts must hold one count per slot, got {self.counts.size} for {self.slots.size} slots")
        if not self.slots.size:
            raise ValueError("arrival sequence has no requests")
        if self.slots[0] < 1 or self.slots[-1] > self.horizon:
            raise ValueError("occupied slots must lie in [1, horizon]")
        # Compared, not subtracted: a difference could wrap in int64.
        if np.any(self.slots[1:] <= self.slots[:-1]):
            raise ValueError("slots must be strictly increasing")
        if np.any(self.counts < 1):
            raise ValueError("occupied slots need at least one request")

    @property
    def n_requests(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_counts(cls, counts_by_slot: dict[int, int], horizon: int | None = None) -> "ArrivalSequence":
        if not isinstance(counts_by_slot, Mapping):
            raise ValueError(f"counts_by_slot must be a mapping, got {counts_by_slot!r}")
        slots = np.array(sorted(as_slots(counts_by_slot.keys())), dtype=np.int64)
        counts = np.array([as_int(counts_by_slot[s], "each count") for s in slots], dtype=np.int64)
        if horizon is None:
            horizon = int(slots[-1]) if slots.size else 0
        return cls(horizon=horizon, slots=slots, counts=counts)

    @classmethod
    def from_slots(cls, slots, horizon: int | None = None) -> "ArrivalSequence":
        """One request per listed slot, given in any order."""
        arr = np.array(sorted(as_slots(slots)), dtype=np.int64)
        if horizon is None:
            horizon = int(arr[-1]) if arr.size else 0
        return cls(horizon=horizon, slots=arr, counts=np.ones(arr.size, dtype=np.int64))


@dataclass(frozen=True)
class BernoulliSource:
    """Bernoulli(lambda) arrival process with one request per occupied slot.

    rate = 1 is admitted so the dense-arrival limit can be simulated even
    though the analytical results are stated for rates below 1. ``seed`` is
    any integer, stored as an int: a negative one or one past 2^63, as
    ``derive_seed`` returns, is masked to 64 bits when the stream is drawn.
    A bool, a float, a string or None is a ValueError naming it.
    """

    rate: float
    seed: int

    def __post_init__(self) -> None:
        check_rate(self.rate)
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))


def generate_bernoulli(source: BernoulliSource, *, n_requests: int) -> ArrivalSequence:
    """Draw ``n_requests`` Bernoulli arrivals as i.i.d. geometric gaps.

    Identical inputs yield bit-identical sequences. The horizon is the slot
    of the last request; a path whose slots pass the int64 range (a rate
    near 0) raises ``SlotOverflow``. ``n_requests`` is read through
    ``as_int``: 2.5, True or "3" is a ValueError naming it.
    """
    n_requests = as_int(n_requests, "n_requests")
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    gaps = np.random.default_rng(source.seed & _SEED_MASK).geometric(source.rate, size=n_requests)
    # A cumsum past 2^63 - 1 wraps, which the sequence's order check refuses.
    slots = np.cumsum(gaps, dtype=np.int64)
    try:
        return ArrivalSequence(horizon=int(slots[-1]), slots=slots, counts=np.ones(n_requests, dtype=np.int64))
    except ValueError:
        raise SlotOverflow(f"{n_requests} requests at rate {source.rate!r} pass the last int64 slot") from None


def check_trace_options(path, slot_duration, on_malformed: str = "error") -> float:
    """``slot_duration`` as a float, once ``path`` is a str or os.PathLike
    (``open`` would read an int as a file descriptor) that holds no NUL
    character, ``slot_duration`` is a positive number (``as_float``) and
    ``on_malformed`` is "error" or "skip": the rule ``load_trace`` and a
    trace spec share. A ValueError's message starts with the option's name."""
    if not isinstance(path, (str, os.PathLike)):
        raise ValueError(f"path: must be a string or os.PathLike, got {path!r}")
    if "\0" in os.fsdecode(path):  # open() would refuse it with a bare ValueError
        raise ValueError(f"path: must not hold a NUL character, got {path!r}")
    slot = as_float(slot_duration, "slot_duration: slot duration")
    if not slot > 0:
        raise ValueError(f"slot_duration: slot duration must be positive, got {slot_duration!r}")
    if on_malformed not in ("error", "skip"):
        raise ValueError(f"on_malformed: must be 'error' or 'skip', got {on_malformed!r}")
    return slot


def _parse_fast(fh) -> np.ndarray | None:
    """The first column of every line of ``fh`` as float64, in one numpy
    pass; None where only the line-by-line reader can say what the file
    holds: a field numpy refuses (a whitespace-only line, a bad byte or
    text), a stamp that is not finite, or no stamp at all. numpy parses
    with the correctly rounded parser ``float()`` uses and skips empty lines
    as that reader does."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            ts = np.loadtxt(fh, np.float64, comments=None, delimiter=",", usecols=0, ndmin=1)
    except ValueError:  # UnicodeDecodeError too
        return None
    return ts if ts.size and np.isfinite(ts).all() else None


def _parse_lines(fh, path, on_malformed: str) -> list[float]:
    """The stamps of ``fh`` read line by line: a line with no finite stamp
    raises ``ParseError`` or, with ``on_malformed`` "skip", is dropped and
    logged; no stamp at all raises ``EmptyTrace``."""
    stamps = []
    skipped = 0
    for line_no, line in enumerate(fh, start=1):
        # float() strips the whitespace str.strip() does, but for
        # \x1c-\x1f; a line it refuses is read by the stripped rule.
        try:
            stamp = float(line.partition(",")[0])
        except ValueError:
            text = line.strip()
            if not text:
                continue
            try:
                stamp = float(text.partition(",")[0].strip())
            except ValueError:
                stamp = math.nan
        # nan and +-inf parse as floats but cannot be placed in a slot.
        if math.isfinite(stamp):
            stamps.append(stamp)
            continue
        text = line.strip()
        if on_malformed == "error":
            raise ParseError(line_no, text)
        skipped += 1
        log.warning("skipping malformed trace line %d: %r", line_no, text)
    if not stamps:
        raise EmptyTrace(f"no usable timestamps in {path}")
    if skipped:
        log.warning("skipped %d malformed lines in %s", skipped, path)
    return stamps


def load_trace(path, slot_duration: float, on_malformed: str = "error") -> ArrivalSequence:
    """Discretize timestamped request arrivals into slots.

    Each line is ``timestamp[,ignored...]``; timestamps are shifted so the
    earliest lands in slot 1, then floor-divided by ``slot_duration``.
    Multiple requests may share a slot. Whitespace around the timestamp is
    ignored and a blank line is skipped, as ``str.strip`` reads them, whatever
    the line ends (LF, CRLF or CR). A line whose timestamp is not a
    finite number is malformed; ``on_malformed`` is "error" (raise
    ParseError with the line number) or "skip" (drop and log the line).
    The path and both options are checked first (``check_trace_options``).
    A span too long for int64 slot ids at this ``slot_duration`` raises
    ``SlotOverflow``.

    The file is parsed by numpy first, into one float64 array. Only where
    that parse fails (see ``_parse_fast``) is it read again, line by line,
    and only that reader raises ``ParseError`` or ``EmptyTrace`` or logs a
    skipped line; the stamps are the same either way.
    """
    slot_duration = check_trace_options(path, slot_duration, on_malformed)
    with open(path) as fh:
        ts = _parse_fast(fh)
        if ts is None:
            fh.seek(0)
            ts = np.asarray(_parse_lines(fh, path, on_malformed), dtype=np.float64)
    # The first of equal extremes, as min() and max() pick: -0.0 and 0.0
    # print apart in the message below.
    lo, hi = float(ts[ts.argmin()]), float(ts[ts.argmax()])
    # Python floats overflow to inf without a warning, so this check runs
    # before numpy could overflow the subtraction or wrap the int64 cast.
    if not (hi - lo) / slot_duration < 2**63:
        raise SlotOverflow(f"timestamps span {lo!r} to {hi!r}, which at slot_duration={slot_duration!r} "
                           "needs more slots than int64 holds")
    rel = (ts - lo) / slot_duration
    slot_ids = np.floor(rel).astype(np.int64) + 1
    slots, counts = np.unique(slot_ids, return_counts=True)
    return ArrivalSequence(horizon=int(slots[-1]), slots=slots, counts=counts.astype(np.int64))


def empirical_rate(seq: ArrivalSequence) -> float:
    """Fraction of slots with at least one request."""
    return seq.slots.size / seq.horizon
