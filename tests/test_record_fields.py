"""Each record converts and checks its own fields in ``__post_init__``, so a
bad value is refused naming its field however the record is built: by a
direct call, a classmethod or builder, ``from_config`` or an experiment
spec. Trace options follow one rule whether ``load_trace`` or a spec reads
them."""

import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from agecost import (ArrivalSequence, BernoulliSource, ConfigError, CostModel, ExperimentSpec, MdpConfig, Policy,
                     StalenessFn, load_trace)
from agecost.cli import main


def cost_spec(**kw):
    """A cost-sweep spec built by ``from_dict``; ``kw`` replaces its fields."""
    data = {"name": "s", "kind": "cost_sweep", "model": {"staleness": {"kind": "linear"}, "update_cost": 50.0},
            "arrival": {"kind": "bernoulli", "rate": 0.5}, "grid": [10], "n_runs": 1, "n_requests": 10}
    return ExperimentSpec.from_dict({**data, **kw})


def trace_spec(**arrival):
    """A trace_compare spec of ``os.devnull``; ``arrival`` replaces its arrival's fields."""
    data = {"name": "t", "kind": "trace_compare", "model": {"staleness": {"kind": "linear"}, "update_cost": 50.0},
            "arrival": {"kind": "trace", "path": os.devnull, "slot_duration": 1.0, **arrival}}
    return ExperimentSpec.from_dict(data)


def piecewise_model(age, value=9.0):
    return {"staleness": {"kind": "piecewise", "breakpoints": [[age, value]]}, "update_cost": 5.0}


def table_model(value):
    return {"staleness": {"kind": "table", "values": [0, value]}, "update_cost": 5.0}


# Per (record, field): the name its errors give it, what it must be, and per
# entry point a call that builds the record from one value of the field.
_FIELDS = {
    "Policy.tau": ("tau", "an integer", {
        "direct": lambda v: Policy("threshold", tau=v),
        "classmethod": Policy.threshold,
        "from_config": lambda v: Policy.from_config({"kind": "threshold", "tau": v}),
        "spec": lambda v: cost_spec(policies=[{"kind": "threshold", "tau": v}]),
    }),
    "Policy.period": ("d", "an integer", {
        "direct": lambda v: Policy("periodic", period=v),
        "classmethod": Policy.periodic,
        "from_config": lambda v: Policy.from_config({"kind": "periodic", "d": v}),
        "spec": lambda v: cost_spec(policies=[{"kind": "periodic", "d": v}]),
    }),
    "Policy.update_slots": ("each slot", "an integer", {
        "direct": lambda v: Policy("scheduled", update_slots=(v,)),
        "classmethod": lambda v: Policy.scheduled([v]),
        "from_config": lambda v: Policy.from_config({"kind": "scheduled", "slots": [v]}),
        "spec": lambda v: cost_spec(policies=[{"kind": "scheduled", "slots": [v]}]),
    }),
    "Policy.update_slots list": ("slots", "a list", {
        "direct": lambda v: Policy("scheduled", update_slots=v),
        "classmethod": Policy.scheduled,
        "from_config": lambda v: Policy.from_config({"kind": "scheduled", "slots": v}),
        "spec": lambda v: cost_spec(policies=[{"kind": "scheduled", "slots": v}]),
    }),
    "StalenessFn.table list": ("table staleness values", "a list", {
        "direct": lambda v: StalenessFn("table", table=v),
        "classmethod": StalenessFn.from_table,
        "from_config": lambda v: CostModel.from_config(
            {"staleness": {"kind": "table", "values": v}, "update_cost": 5.0}),
        "spec": lambda v: cost_spec(model={"staleness": {"kind": "table", "values": v}, "update_cost": 5.0}),
    }),
    "StalenessFn.breakpoints list": ("piecewise breakpoints", "a list", {
        "direct": lambda v: StalenessFn("piecewise", breakpoints=v),
        "classmethod": StalenessFn.piecewise,
        "from_config": lambda v: CostModel.from_config(
            {"staleness": {"kind": "piecewise", "breakpoints": v}, "update_cost": 5.0}),
        "spec": lambda v: cost_spec(model={"staleness": {"kind": "piecewise", "breakpoints": v}, "update_cost": 5.0}),
    }),
    "StalenessFn.breakpoints pair": ("each piecewise breakpoint", "a list", {
        "direct": lambda v: StalenessFn("piecewise", breakpoints=(v,)),
        "classmethod": lambda v: StalenessFn.piecewise([v]),
        "from_config": lambda v: CostModel.from_config(
            {"staleness": {"kind": "piecewise", "breakpoints": [v]}, "update_cost": 5.0}),
        "spec": lambda v: cost_spec(model={"staleness": {"kind": "piecewise", "breakpoints": [v]}, "update_cost": 5.0}),
    }),
    "StalenessFn.breakpoints": ("age", "an integer", {
        "direct": lambda v: StalenessFn("piecewise", breakpoints=((v, 9.0),)),
        "classmethod": lambda v: StalenessFn.piecewise([(v, 9.0)]),
        "from_config": lambda v: CostModel.from_config(piecewise_model(v)),
        "spec": lambda v: cost_spec(model=piecewise_model(v)),
    }),
    "StalenessFn.breakpoints values": ("piecewise value at age 1", "a finite number", {
        "direct": lambda v: StalenessFn("piecewise", breakpoints=((1, v),)),
        "classmethod": lambda v: StalenessFn.piecewise([(1, v)]),
        "from_config": lambda v: CostModel.from_config(piecewise_model(1, v)),
        "spec": lambda v: cost_spec(model=piecewise_model(1, v)),
    }),
    "StalenessFn.table": ("table staleness value at age 1", "a finite number", {
        "direct": lambda v: StalenessFn("table", table=(0, v)),
        "classmethod": lambda v: StalenessFn.from_table([0, v]),
        "from_config": lambda v: CostModel.from_config(table_model(v)),
        "spec": lambda v: cost_spec(model=table_model(v)),
    }),
    "CostModel.update_cost": ("update_cost", "a number", {
        "direct": lambda v: CostModel(StalenessFn.linear(), v),
        "from_config": lambda v: CostModel.from_config({"staleness": {"kind": "linear"}, "update_cost": v}),
        "spec": lambda v: cost_spec(model={"staleness": {"kind": "linear"}, "update_cost": v}),
        "spec grid": lambda v: cost_spec(grid=[v]),
    }),
    "CostModel.staleness": ("staleness:", "an object", {
        "from_config": lambda v: CostModel.from_config({"staleness": v, "update_cost": 5.0}),
        "spec": lambda v: cost_spec(model={"staleness": v, "update_cost": 5.0}),
    }),
    "BernoulliSource.rate": ("arrival rate", "a number", {
        "direct": lambda v: BernoulliSource(v, 0),
        "spec": lambda v: cost_spec(arrival={"kind": "bernoulli", "rate": v}),
        "spec grid": lambda v: cost_spec(kind="lambda_sweep", arrival={"kind": "bernoulli"}, grid=[v]),
    }),
    "ArrivalSequence.horizon": ("horizon", "an integer", {
        "direct": lambda v: ArrivalSequence(horizon=v, slots=np.array([1]), counts=np.array([1])),
    }),
    "ArrivalSequence.horizon of a builder": ("horizon", "an integer", {
        "from_slots": lambda v: ArrivalSequence.from_slots([1], horizon=v),
        "from_counts": lambda v: ArrivalSequence.from_counts({1: 1}, horizon=v),
    }),
    "ArrivalSequence.slots": ("slots", "a 1-d int64 array", {
        "direct": lambda v: ArrivalSequence(horizon=5, slots=v, counts=np.array([1])),
    }),
    "ArrivalSequence.counts": ("counts", "a 1-d int64 array", {
        "direct": lambda v: ArrivalSequence(horizon=5, slots=np.array([1]), counts=v),
    }),
    "ArrivalSequence.slots list": ("slots", "a list", {"from_slots": ArrivalSequence.from_slots}),
    "ArrivalSequence.slots each": ("each slot", "an integer", {
        "from_slots": lambda v: ArrivalSequence.from_slots([v]),
        "from_counts": lambda v: ArrivalSequence.from_counts({v: 1}),
    }),
    "ArrivalSequence.counts each": ("each count", "an integer", {
        "from_counts": lambda v: ArrivalSequence.from_counts({1: v}),
    }),
    "ArrivalSequence.counts_by_slot": ("counts_by_slot", "a mapping", {"from_counts": ArrivalSequence.from_counts}),
    "BernoulliSource.seed": ("seed", "an integer", {"direct": lambda v: BernoulliSource(0.5, v)}),
    "MdpConfig.discount": ("discount", "a number", {
        "direct": lambda v: MdpConfig(0.5, CostModel(StalenessFn.linear(), 5.0), discount=v),
    }),
    # The path and the options are checked before the file is read.
    "load_trace.slot_duration": ("slot_duration: slot duration", "a positive number", {
        "direct": lambda v: load_trace(os.devnull, v),
        "spec": lambda v: trace_spec(slot_duration=v),
    }),
    "load_trace.on_malformed": ("on_malformed:", "'error' or 'skip'", {
        "direct": lambda v: load_trace(os.devnull, 1.0, on_malformed=v),
        "spec": lambda v: trace_spec(on_malformed=v),
    }),
    # open() reads an int as a file descriptor: 0 is stdin.
    "load_trace.path": ("path:", "a string or os.PathLike", {
        "direct": lambda v: load_trace(v, 1.0),
        "spec": lambda v: trace_spec(path=v),
    }),
}
# 2.5 is a number, so only the integer fields refuse it. An integer past
# int64 is refused too: numpy holds slots, ages and counts as int64.
_BAD = {"an integer": (True, "3", 2.5, None, 2**63, 10**400), "a number": (True, "3", None),
        "a finite number": (True, "3", 10**400),
        "a positive number": (True, "1", 0, None), "a list": (None, 5, "", {}), "a mapping": ([(1, 2)], None, 5, ""),
        "an object": (None, "linear", ["linear"], 5), "'error' or 'skip'": ("bogus",),
        "a string or os.PathLike": (7, 0, True, None, b"t.csv"),
        "a 1-d int64 array": ([1], None, np.array([1.5]), np.array([1.0]), np.array([True]), np.array([1], np.int32),
                              np.array(1), np.array([[1]]))}
# Fields whose valid values differ from their rule's: a builder reads a
# horizon of None as its last slot, and any integer is a seed, 2^63 too,
# but 3.0 is not.
_FIELD_BAD = {"ArrivalSequence.horizon of a builder": (True, "3", 2.5, 2**63, 10**400),
              "BernoulliSource.seed": (True, np.True_, "3", 2.5, 3.0, None)}
# Numbers that a finite or positive number refuses, and how: an int past the
# float range reads as inf. A non-number is refused as not "a number".
_OUT_OF_RANGE = {10**400: "must be finite, got inf", 0: "must be positive, got 0"}


def refusal(rule, value):
    """The end of the message that refuses ``value`` for a field that must be ``rule``."""
    if rule.endswith(" number") and type(value) is int and value in _OUT_OF_RANGE:
        return _OUT_OF_RANGE[value]
    if rule == "an integer" and type(value) is int and value >= 2**63:
        return f"must fit in int64, got an integer of {value.bit_length()} bits"
    return f"must be {'a number' if rule.endswith(' number') else rule}, got {value!r}"


@pytest.mark.parametrize("field,entry,value", [(field, entry, value) for field, (_, rule, entries) in _FIELDS.items()
                                               for entry in entries for value in _FIELD_BAD.get(field, _BAD[rule])],
                         ids=lambda v: ({10**400: "10**400", 2**63: "2**63"}.get(v) if type(v) is int
                                        else repr(v) if isinstance(v, (np.ndarray, np.generic)) else None))
def test_a_bad_value_is_refused_naming_its_field_at_every_entry_point(field, entry, value):
    name, rule, entries = _FIELDS[field]
    with pytest.raises(ValueError, match=rf"\b{name} {re.escape(refusal(rule, value))}$") as exc:
        entries[entry](value)
    assert isinstance(exc.value, ConfigError) == entry.startswith("spec")


# Spec fields and grid values that must fit in int64, per command: the
# fields set and the name the refusal gives. n_runs = 10**20 used to run
# until killed, and 10**400 exited 2 with "Maximum allowed size exceeded".
_PAST_INT64 = {
    "n_runs": ("compare", {"n_runs": 10**20}, "n_runs:"),
    "n_requests": ("compare", {"n_requests": 10**400}, "n_requests:"),
    "offline_request_cap": ("compare", {"offline_request_cap": 2**63}, "offline_request_cap:"),
    "threshold grid": ("sweep-threshold", {"grid": [3, 10**400]}, "grid[1]: tau"),
    "tau": ("compare", {"policies": [{"kind": "threshold", "tau": 10**400}]}, "policies[0]: tau"),
    "d": ("compare", {"policies": [{"kind": "naive"}, {"kind": "periodic", "d": 2**63}]}, "policies[1]: d"),
}


@pytest.mark.parametrize("field", sorted(_PAST_INT64))
def test_an_integer_past_int64_exits_1_naming_its_field(field, tmp_path, capsys):
    command, fields, name = _PAST_INT64[field]
    cfg, out = tmp_path / "spec.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps({"arrival": {"kind": "bernoulli", "rate": 0.3}, **fields}))
    argv = [command, "--config", str(cfg), "--out", str(out)] + (["--sweep", "cost"] if command == "compare" else [])
    assert main(argv) == 1
    assert re.fullmatch(rf"configuration error: {re.escape(name)} must fit in int64, got an integer of \d+ bits\n",
                        capsys.readouterr().err)
    assert not out.exists()


# Per kind: its record, a direct call giving it another kind's payload and
# the field its error names, then a config record holding that payload and
# the payload's key.
_FOREIGN = {
    "threshold": ("policy", lambda: Policy("threshold", tau=3, period=4), "period",
                  {"kind": "threshold", "tau": 3, "d": 4}, "d"),
    "naive": ("policy", lambda: Policy("naive", tau=5), "tau", {"kind": "naive", "tau": 5}, "tau"),
    "periodic": ("policy", lambda: Policy("periodic", period=3, update_slots=(1,)), "update_slots",
                 {"kind": "periodic", "d": 3, "slots": [1]}, "slots"),
    "scheduled": ("policy", lambda: Policy("scheduled", update_slots=(1,), tau=2), "tau",
                  {"kind": "scheduled", "slots": [1], "tau": 2}, "tau"),
    "linear": ("staleness", lambda: StalenessFn("linear", table=(0, 1)), "table",
               {"kind": "linear", "values": [0, 1]}, "values"),
    "quadratic": ("staleness", lambda: StalenessFn("quadratic", breakpoints=((1, 2.0),)), "breakpoints",
                  {"kind": "quadratic", "breakpoints": [[1, 2.0]]}, "breakpoints"),
    "table": ("staleness", lambda: StalenessFn("table", table=(0, 9.0), breakpoints=((1, 2.0),)), "breakpoints",
              {"kind": "table", "values": [0, 9.0], "breakpoints": [[1, 2.0]]}, "breakpoints"),
    "piecewise": ("staleness", lambda: StalenessFn("piecewise", breakpoints=((1, 9.0),), table=(0, 1)), "table",
                  {"kind": "piecewise", "breakpoints": [[1, 9.0]], "values": [0, 1]}, "values"),
}


@pytest.mark.parametrize("kind,entry", [(kind, entry) for kind in _FOREIGN
                                        for entry in ("direct", "from_config", "spec")])
def test_a_kind_refuses_another_kinds_payload_at_every_entry_point(kind, entry):
    record, direct, attribute, config, key = _FOREIGN[kind]
    model = {"staleness": config, "update_cost": 5.0}
    policy = record == "policy"
    build = {
        "direct": direct,
        "from_config": (lambda: Policy.from_config(config)) if policy else (lambda: CostModel.from_config(model)),
        "spec": (lambda: cost_spec(policies=[config])) if policy else (lambda: cost_spec(model=model)),
    }[entry]
    message = rf"^a {kind} {record} takes no {attribute}$" if entry == "direct" else rf"unknown fields \['{key}'\]$"
    with pytest.raises(ValueError, match=message) as exc:
        build()
    assert isinstance(exc.value, ConfigError) == (entry == "spec")


def spellings(n):
    """n as an int, an integral float or a numpy integer."""
    return st.sampled_from([n, float(n), np.int64(n)])


_integral = st.integers(min_value=1, max_value=10**6).flatmap(spellings)


@st.composite
def policies(draw):
    kind = draw(st.sampled_from(["threshold", "naive", "periodic", "scheduled"]))
    if kind == "threshold":
        return Policy("threshold", tau=draw(_integral))
    if kind == "periodic":
        return Policy("periodic", period=draw(_integral))
    if kind == "scheduled":
        slots = sorted(draw(st.sets(st.integers(min_value=1, max_value=10**6), max_size=6)))
        return Policy("scheduled", update_slots=tuple(draw(spellings(s)) for s in slots))
    return Policy("naive")


@st.composite
def cost_models(draw):
    p = draw(_integral)
    kind = draw(st.sampled_from(["linear", "quadratic", "table", "piecewise"]))
    if kind in ("linear", "quadratic"):
        return CostModel(StalenessFn(kind), p)
    steps = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6))
    values = np.cumsum(steps).tolist()
    values[-1] += int(p)  # the last value reaches p, so the model has a cap
    if kind == "table":
        return CostModel(StalenessFn("table", table=[0] + values), p)
    ages = sorted(draw(st.sets(st.integers(min_value=1, max_value=10**6), min_size=len(values), max_size=len(values))))
    ages = [draw(spellings(a)) for a in ages]
    return CostModel(StalenessFn("piecewise", breakpoints=tuple(zip(ages, values))), p)


@given(policies(), cost_models())
def test_a_directly_built_record_reads_back_from_its_json_config(policy, model):
    assert Policy.from_config(json.loads(json.dumps(policy.to_config()))) == policy
    assert CostModel.from_config(json.loads(json.dumps(model.to_config()))) == model
