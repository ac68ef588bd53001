"""Request arrival sequences: seeded Bernoulli streams and trace ingestion."""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import as_float, check_rate

log = logging.getLogger(__name__)

# All randomness in the package comes from PCG64 generators keyed by
# SeedSequence entropy tuples, so derived streams are reproducible and
# independent. The name is recorded in experiment metadata.
RNG_ALGORITHM = "numpy-pcg64-seedsequence"

_SEED_MASK = (1 << 64) - 1
# Slots drawn per array when generating by horizon, so memory stays bounded.
_DRAW_CHUNK = 1 << 20


class ParseError(ValueError):
    """A trace line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, line: str):
        super().__init__(f"line {line_no}: cannot parse timestamp from {line!r}")
        self.line_no = line_no


class EmptyTrace(ValueError):
    """The trace file contained no usable timestamps."""


def make_rng(*entropy: int) -> np.random.Generator:
    """Deterministic generator keyed by a tuple of integers."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([e & _SEED_MASK for e in entropy])))


def derive_seed(*entropy: int) -> int:
    """Deterministic 64-bit child seed from a tuple of integers."""
    ss = np.random.SeedSequence([e & _SEED_MASK for e in entropy])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True, eq=False)
class ArrivalSequence:
    """Per-slot request counts over a finite horizon, stored sparsely.

    ``slots`` is the sorted array of occupied slots (1-based) and ``counts``
    the number of requests in each; slots without requests are absent.
    """

    horizon: int
    slots: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        if self.slots.size:
            if self.slots[0] < 1 or self.slots[-1] > self.horizon:
                raise ValueError("occupied slots must lie in [1, horizon]")
            if np.any(np.diff(self.slots) <= 0):
                raise ValueError("slots must be strictly increasing")
            if np.any(self.counts < 1):
                raise ValueError("occupied slots need at least one request")

    @property
    def n_requests(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_counts(cls, counts_by_slot: dict[int, int], horizon: int | None = None) -> "ArrivalSequence":
        slots = np.array(sorted(counts_by_slot), dtype=np.int64)
        counts = np.array([counts_by_slot[s] for s in slots], dtype=np.int64)
        if horizon is None:
            horizon = int(slots[-1]) if slots.size else 0
        return cls(horizon=horizon, slots=slots, counts=counts)

    @classmethod
    def from_slots(cls, slots, horizon: int | None = None) -> "ArrivalSequence":
        """One request per listed slot."""
        arr = np.asarray(sorted(slots), dtype=np.int64)
        if horizon is None:
            horizon = int(arr[-1]) if arr.size else 0
        return cls(horizon=horizon, slots=arr, counts=np.ones(arr.size, dtype=np.int64))


@dataclass(frozen=True)
class BernoulliSource:
    """Bernoulli(lambda) arrival process with one request per occupied slot.

    rate = 1 is admitted so the dense-arrival limit can be simulated even
    though the analytical results are stated for rates below 1.
    """

    rate: float
    seed: int

    def __post_init__(self) -> None:
        check_rate(self.rate)


def generate_bernoulli(
    source: BernoulliSource,
    *,
    horizon: int | None = None,
    n_requests: int | None = None,
) -> ArrivalSequence:
    """Draw a Bernoulli arrival sequence, stopping by horizon or by count.

    Identical (source, stop) inputs yield bit-identical sequences. With
    ``n_requests`` the horizon is the slot of the last request.
    """
    if (horizon is None) == (n_requests is None):
        raise ValueError("pass exactly one of horizon= or n_requests=")
    rng = make_rng(source.seed)
    if horizon is not None:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        # PCG64 draws each double from one 64-bit output, so chunked draws
        # continue the stream exactly as one draw of the whole horizon would.
        hits = np.concatenate([
            np.nonzero(rng.random(min(_DRAW_CHUNK, horizon - start)) < source.rate)[0] + (start + 1)
            for start in range(0, horizon, _DRAW_CHUNK)
        ])
        return ArrivalSequence(
            horizon=horizon,
            slots=hits.astype(np.int64),
            counts=np.ones(hits.size, dtype=np.int64),
        )
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    gaps = rng.geometric(source.rate, size=n_requests)
    slots = np.cumsum(gaps, dtype=np.int64)
    return ArrivalSequence(
        horizon=int(slots[-1]),
        slots=slots,
        counts=np.ones(n_requests, dtype=np.int64),
    )


def check_trace_options(slot_duration, on_malformed: str = "error") -> float:
    """``slot_duration`` as a float, once it is a positive number (``as_float``)
    and ``on_malformed`` is "error" or "skip": the rule ``load_trace`` and a
    trace spec share. A ValueError's message starts with the option's name."""
    slot = as_float(slot_duration, "slot_duration: slot duration")
    if not slot > 0:
        raise ValueError(f"slot_duration: slot duration must be positive, got {slot_duration!r}")
    if on_malformed not in ("error", "skip"):
        raise ValueError(f"on_malformed: must be 'error' or 'skip', got {on_malformed!r}")
    return slot


def load_trace(path, slot_duration: float, on_malformed: str = "error") -> ArrivalSequence:
    """Discretize timestamped request arrivals into slots.

    Each line is ``timestamp[,ignored...]``; timestamps are shifted so the
    earliest lands in slot 1, then floor-divided by ``slot_duration``.
    Multiple requests may share a slot. Whitespace around the timestamp is
    ignored and a blank line is skipped, as ``str.strip`` reads them, whatever
    the line ends (LF, CRLF or CR). A line whose timestamp is not a
    finite number is malformed; ``on_malformed`` is "error" (raise
    ParseError with the line number) or "skip" (drop and log the line).
    Both options are checked first (``check_trace_options``), and ``path``
    must be a str or os.PathLike: ``open`` would read an int as a file
    descriptor. A span too long for int64 slot ids at this ``slot_duration``
    raises ValueError.
    """
    slot_duration = check_trace_options(slot_duration, on_malformed)
    if not isinstance(path, (str, os.PathLike)):
        raise ValueError(f"path: must be a string or os.PathLike, got {path!r}")
    stamps = []
    skipped = 0
    with open(path) as fh:
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
    lo, hi = min(stamps), max(stamps)
    # Python floats overflow to inf without a warning, so this check runs
    # before numpy could overflow the subtraction or wrap the int64 cast.
    if not (hi - lo) / slot_duration < 2**63:
        raise ValueError(f"timestamps span {lo!r} to {hi!r}, which at slot_duration={slot_duration!r} "
                         "needs more slots than int64 holds")
    ts = np.asarray(stamps, dtype=np.float64)
    rel = (ts - lo) / slot_duration
    slot_ids = np.floor(rel).astype(np.int64) + 1
    slots, counts = np.unique(slot_ids, return_counts=True)
    return ArrivalSequence(horizon=int(slots[-1]), slots=slots, counts=counts.astype(np.int64))


def empirical_rate(seq: ArrivalSequence) -> float:
    """Fraction of slots with at least one request."""
    if seq.horizon < 1:
        raise ValueError("sequence has an empty horizon")
    return seq.slots.size / seq.horizon
