"""Update policies and the sample-path transforms that improve them.

Two transforms underpin the whole policy hierarchy:

  * ``reactify`` postpones every off-request update to the next request
    arrival, which never increases the replayed cost, and
  * ``cap`` inserts the mandatory updates at requests whose age has reached
    the cap threshold, which again never increases the replayed cost.

Together they justify searching only over reactive, capped policies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrivals import ArrivalSequence
from .core import CostModel, cap_threshold


class NotReactive(ValueError):
    """A schedule expected to sit on request slots contains other slots."""


@dataclass(frozen=True)
class Policy:
    """Decision rule for when to refresh.

    Variants: threshold(tau) updates on a request at age >= tau; naive
    updates on a request once the staleness penalty reaches the update cost;
    periodic(d) updates every d-th slot regardless of requests; scheduled
    fires at a fixed list of slots.
    """

    kind: str
    tau: int | None = None
    period: int | None = None
    update_slots: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "threshold":
            if self.tau is None or self.tau < 1:
                raise ValueError("threshold policy needs tau >= 1")
        elif self.kind == "periodic":
            if self.period is None or self.period < 1:
                raise ValueError("periodic policy needs period >= 1")
        elif self.kind == "scheduled":
            if self.update_slots is None:
                raise ValueError("scheduled policy needs update slots")
            if any(a >= b for a, b in zip(self.update_slots, self.update_slots[1:])):
                raise ValueError("scheduled slots must be strictly increasing")
            if self.update_slots and self.update_slots[0] < 1:
                raise ValueError("scheduled slots must be >= 1")
        elif self.kind != "naive":
            raise ValueError(f"unknown policy kind {self.kind!r}")

    @classmethod
    def threshold(cls, tau: int) -> "Policy":
        return cls("threshold", tau=int(tau))

    @classmethod
    def naive(cls) -> "Policy":
        return cls("naive")

    @classmethod
    def periodic(cls, period: int) -> "Policy":
        return cls("periodic", period=int(period))

    @classmethod
    def scheduled(cls, slots) -> "Policy":
        return cls("scheduled", update_slots=tuple(int(s) for s in sorted(slots)))

    @property
    def is_reactive(self) -> bool:
        return self.kind in ("threshold", "naive")

    @classmethod
    def from_config(cls, config: dict) -> "Policy":
        kind = config["kind"]
        if kind == "threshold":
            return cls.threshold(config["tau"])
        if kind == "naive":
            return cls.naive()
        if kind == "periodic":
            return cls.periodic(config["d"])
        if kind == "scheduled":
            return cls.scheduled(config["slots"])
        raise ValueError(f"unknown policy kind {kind!r}")

    def to_config(self) -> dict:
        if self.kind == "threshold":
            return {"kind": "threshold", "tau": self.tau}
        if self.kind == "periodic":
            return {"kind": "periodic", "d": self.period}
        if self.kind == "scheduled":
            return {"kind": "scheduled", "slots": list(self.update_slots)}
        return {"kind": "naive"}

    def label(self) -> str:
        if self.kind == "threshold":
            return f"threshold({self.tau})"
        if self.kind == "periodic":
            return f"periodic({self.period})"
        if self.kind == "scheduled":
            return f"scheduled[{len(self.update_slots)}]"
        return "naive"


def reactify(schedule, arrivals: ArrivalSequence) -> tuple[int, ...]:
    """Move every off-request update forward to the next request slot.

    Updates already on request slots stay; updates that merge onto the same
    request collapse to one; updates with no request left to serve are
    dropped (they could only add cost).
    """
    sched = np.asarray(sorted(int(s) for s in schedule), dtype=np.int64)
    if sched.size and (sched[0] < 1 or sched[-1] > arrivals.horizon):
        raise ValueError("schedule slots must lie in [1, horizon]")
    req = arrivals.slots
    # First request slot at or after each update; index == size means no
    # request is left to serve, so the update is dropped.
    idx = np.searchsorted(req, sched, side="left")
    moved = req[idx[idx < req.size]]
    return tuple(int(s) for s in np.unique(moved))


def cap(schedule, arrivals: ArrivalSequence, model: CostModel) -> tuple[int, ...]:
    """Insert the mandatory updates a reactive schedule is missing.

    Forward replay over request slots with the already-inserted updates in
    effect: whenever the induced age reaches the cap threshold, that request
    becomes an update. Input updates are all kept.
    """
    delta_star = cap_threshold(model)
    req = arrivals.slots.tolist()
    req_set = set(req)
    keep = set(int(s) for s in schedule)
    if not keep <= req_set:
        bad = sorted(keep - req_set)
        raise NotReactive(f"schedule contains request-free slots {bad[:5]}")
    out = []
    last_up = 0
    for r in req:
        if r in keep or r - last_up >= delta_star:
            out.append(r)
            last_up = r
    return tuple(out)
