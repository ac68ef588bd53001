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
from .core import CostModel, as_int, as_slots, cap_threshold, check_fields


class NotReactive(ValueError):
    """A schedule expected to sit on request slots contains other slots."""


# Per kind: the attribute holding its parameter and that parameter's key in
# a config record, which also names it in errors; naive has none.
_PARAMS = {"threshold": ("tau", "tau"), "naive": (None, None), "periodic": ("period", "d"),
           "scheduled": ("update_slots", "slots")}


@dataclass(frozen=True)
class Policy:
    """Decision rule for when to refresh.

    Variants: threshold(tau) updates on a request at age >= tau; naive
    updates on a request once the staleness penalty reaches the update cost;
    periodic(d) updates every d-th slot regardless of requests; scheduled
    fires at a fixed list of slots.

    However it is built, ``tau``, ``period`` and each slot are stored as ints
    (``as_int``: 2.5, True or "3" is a ValueError naming the parameter, as
    are ``slots`` that are not a list, see ``as_slots``), and a kind given
    another kind's parameter is a ValueError, e.g. "a naive policy takes no
    tau".
    """

    kind: str
    tau: int | None = None
    period: int | None = None
    update_slots: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in _PARAMS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        attr, key = _PARAMS[self.kind]
        for name in ("tau", "period", "update_slots"):
            if name != attr and getattr(self, name) is not None:
                raise ValueError(f"a {self.kind} policy takes no {name}")
        if self.kind == "scheduled":
            slots = as_slots(self.update_slots)
            if any(a >= b for a, b in zip(slots, slots[1:])):
                raise ValueError("scheduled slots must be strictly increasing")
            if slots and slots[0] < 1:
                raise ValueError("scheduled slots must be >= 1")
            object.__setattr__(self, attr, slots)
        elif attr is not None:
            value = as_int(getattr(self, attr), key)
            if value < 1:
                raise ValueError(f"{self.kind} policy needs {attr} >= 1")
            object.__setattr__(self, attr, value)

    @classmethod
    def threshold(cls, tau: int) -> "Policy":
        return cls("threshold", tau=tau)

    @classmethod
    def naive(cls) -> "Policy":
        return cls("naive")

    @classmethod
    def periodic(cls, period: int) -> "Policy":
        return cls("periodic", period=period)

    @classmethod
    def scheduled(cls, slots) -> "Policy":
        """A scheduled policy firing at ``slots``, given in any order."""
        return cls("scheduled", update_slots=sorted(as_slots(slots)))

    @classmethod
    def from_config(cls, config: dict) -> "Policy":
        """Build from a record as written by ``to_config``, through the
        classmethod named after its kind; a field that ``to_config`` would not
        write is a ValueError."""
        kind = config["kind"]
        if not isinstance(kind, str) or kind not in _PARAMS:
            raise ValueError(f"unknown policy kind {kind!r}")
        key = _PARAMS[kind][1]
        policy = getattr(cls, kind)(config.get(key)) if key else cls.naive()
        check_fields(config, policy.to_config())
        return policy

    def to_config(self) -> dict:
        attr, key = _PARAMS[self.kind]
        if attr is None:
            return {"kind": self.kind}
        value = getattr(self, attr)
        return {"kind": self.kind, key: list(value) if isinstance(value, tuple) else value}

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
    dropped (they could only add cost). The schedule is read through
    ``as_slots``.
    """
    sched = np.asarray(sorted(as_slots(schedule)), dtype=np.int64)
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
    becomes an update. Input updates, read through ``as_slots``, are all
    kept.
    """
    delta_star = cap_threshold(model)
    req = arrivals.slots.tolist()
    req_set = set(req)
    keep = set(as_slots(schedule))
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
