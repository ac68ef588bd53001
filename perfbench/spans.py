"""In-memory spans recorded by wrapping the module-level names callers look up.

Nothing under ``src/`` is changed: ``install`` replaces attributes such as
``agecost.experiments.simulate`` with timing wrappers and ``uninstall``
puts the originals back.  A span is ``[name, start, end, parent, leaf_s]``
where ``parent`` indexes the enclosing span (-1 at the top) and ``leaf_s``
is the time spent in hot leaf calls made directly inside it.  Hot leaves
(the ~330k ``simulate`` calls of the oracle workload) keep one duration
per call in an array instead of a span record.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array

import numpy as np

perf = time.perf_counter

# (module, attribute, span name, kind).  A name a later version of agecost
# no longer has is listed in ``Tracer.absent`` and its metrics read 0.
WRAPPED = (
    ("agecost.cli", "main", "cli.main", "span"),
    ("agecost.cli", "run_threshold_sweep", "experiments.run", "span"),
    ("agecost.cli", "run_policy_comparison", "experiments.run", "span"),
    ("agecost.cli", "run_trace_compare", "experiments.run", "span"),
    ("agecost.cli", "emit", "experiments.emit", "span"),
    ("agecost.experiments", "run_threshold_sweep", "experiments.run", "span"),
    ("agecost.experiments", "run_policy_comparison", "experiments.run", "span"),
    ("agecost.experiments", "run_trace_compare", "experiments.run", "span"),
    ("agecost.experiments", "emit", "experiments.emit", "span"),
    ("agecost.experiments", "simulate_many", "engine.simulate_many", "span"),
    ("agecost.experiments", "offline_optimal", "offline.offline_optimal", "span"),
    ("agecost.experiments", "load_trace", "arrivals.load_trace", "span"),
    ("agecost.experiments", "simulate", "engine.simulate", "leaf"),
    ("agecost.experiments", "generate_bernoulli", "arrivals.generate_bernoulli", "leaf"),
    ("agecost.experiments", "optimal_threshold", "analysis", "leaf"),
    ("agecost.experiments", "optimal_period", "analysis", "leaf"),
    ("agecost.experiments", "threshold_avg_cost", "analysis", "leaf"),
    ("agecost.experiments", "periodic_avg_cost", "analysis", "leaf"),
    ("agecost.engine", "simulate", "engine.simulate", "leaf"),
    ("agecost.engine", "generate_bernoulli", "arrivals.generate_bernoulli", "leaf"),
    ("agecost.offline", "simulate", "engine.simulate", "leaf"),
    ("agecost.offline", "offline_optimal", "offline.offline_optimal", "span"),
    ("agecost.offline", "brute_force_optimal", "offline.brute_force_optimal", "span"),
    ("agecost.mdp", "solve_average", "mdp.solve_average", "span"),
    ("agecost.mdp", "solve_discounted", "mdp.solve_discounted", "span"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.open: list[int] = []
        self.leaves: dict[str, array] = {}
        self.requests: dict[str, int] = {}
        self.notes: dict[str, float] = {}
        self.absent: list[str] = []
        self._saved: list[tuple] = []
        self._last_arrivals = None
        self._last_n = 0

    def span(self, name, fn):
        spans, stack, note = self.spans, self.open, self._note

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                stack.pop()
            note(name, args, result)
            return result

        return wrapper

    def leaf(self, name, fn):
        durations = self.leaves.setdefault(name, array("d"))
        spans, stack = self.spans, self.open
        count = self._count_requests if name == "engine.simulate" else None

        def wrapper(*args, **kwargs):
            t = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf() - t
                durations.append(d)
                if stack:
                    spans[stack[-1]][4] += d
                if count is not None:
                    count(name, args, kwargs)

        return wrapper

    def _count_requests(self, name, args, kwargs):
        arrivals = kwargs["arrivals"] if "arrivals" in kwargs else args[1]
        if arrivals is not self._last_arrivals:
            self._last_arrivals, self._last_n = arrivals, int(arrivals.counts.sum())
        self.requests[name] = self.requests.get(name, 0) + self._last_n

    def _note(self, name, args, result):
        notes = self.notes
        if name == "experiments.emit":
            notes["emit.rows"] = notes.get("emit.rows", 0) + len(args[0].rows)
            notes["emit.bytes"] = notes.get("emit.bytes", 0) + os.path.getsize(str(args[1]))
        elif name.startswith("mdp."):
            notes[name + ".iterations"] = notes.get(name + ".iterations", 0) + result.iterations_used

    def install(self) -> None:
        for module_name, attr, name, kind in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrap = self.span if kind == "span" else self.leaf
            self._saved.append((module, attr, original))
            setattr(module, attr, wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self) -> np.ndarray:
        """Each span's duration minus its child spans and direct leaf calls."""
        dur = np.array([s[2] - s[1] for s in self.spans], dtype=np.float64)
        own = dur - np.array([s[4] for s in self.spans], dtype=np.float64)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                own[s[3]] -= dur[i]
        return own

    def accounted_s(self) -> float:
        """Sum of all self times, a leaf call's self time being its duration."""
        return float(self.self_times().sum()) + sum(sum(v) for v in self.leaves.values())

    def dump(self) -> dict:
        """Spans, leaf summaries and notes, written once when the child ends."""
        return {
            "spans": self.spans,
            "leaves": {k: {"calls": len(v), "s": sum(v)} for k, v in self.leaves.items()},
            "requests": self.requests,
            "notes": self.notes,
            "absent": self.absent,
        }

    def layer_metrics(self, lines: int | None) -> dict[str, float]:
        """Per-layer metrics named in BENCHMARK.json, 0 where a layer did no work."""
        own = self.self_times()
        names = np.array([s[0] for s in self.spans], dtype=object)
        dur = np.array([s[2] - s[1] for s in self.spans], dtype=np.float64)

        def spans_of(name):
            mask = names == name
            return dur[mask], own[mask]

        def leaf(name):
            return np.frombuffer(self.leaves.get(name, array("d")), dtype=np.float64)

        def pct(values, q, scale):
            return float(np.percentile(values, q)) * scale if values.size else 0.0

        m: dict[str, float] = {}
        gen = leaf("arrivals.generate_bernoulli")
        m["arrivals.generate_bernoulli.calls"] = gen.size
        m["arrivals.generate_bernoulli.s"] = float(gen.sum())
        load, _ = spans_of("arrivals.load_trace")
        m["arrivals.load_trace.s"] = float(load.sum())
        m["arrivals.load_trace.lines_per_s"] = lines / load.sum() if lines and load.size else 0.0
        sim = leaf("engine.simulate")
        requests = self.requests.get("engine.simulate", 0)
        m["engine.simulate.calls"] = sim.size
        m["engine.simulate.s"] = float(sim.sum())
        m["engine.simulate.ns_per_request"] = float(sim.sum()) * 1e9 / requests if requests else 0.0
        m["engine.simulate.p50_us"] = pct(sim, 50, 1e6)
        m["engine.simulate.p99_us"] = pct(sim, 99, 1e6)
        many, many_own = spans_of("engine.simulate_many")
        m["engine.simulate_many.calls"] = many.size
        m["engine.simulate_many.self_s"] = float(many_own.sum())
        off, _ = spans_of("offline.offline_optimal")
        m["offline.offline_optimal.calls"] = off.size
        m["offline.offline_optimal.s"] = float(off.sum())
        m["offline.offline_optimal.p50_ms"] = pct(off, 50, 1e3)
        m["offline.offline_optimal.p90_ms"] = pct(off, 90, 1e3)
        m["offline.brute_force_optimal.self_s"] = float(spans_of("offline.brute_force_optimal")[1].sum())
        ana = leaf("analysis")
        m["analysis.calls"] = ana.size
        m["analysis.s"] = float(ana.sum())
        avg, _ = spans_of("mdp.solve_average")
        disc, _ = spans_of("mdp.solve_discounted")
        avg_it = self.notes.get("mdp.solve_average.iterations", 0)
        disc_it = self.notes.get("mdp.solve_discounted.iterations", 0)
        m["mdp.solve_average.calls"] = avg.size
        m["mdp.solve_average.s"] = float(avg.sum())
        m["mdp.solve_average.iterations"] = avg_it
        m["mdp.solve_discounted.s"] = float(disc.sum())
        m["mdp.solve_discounted.iterations"] = disc_it
        sweeps = avg_it + disc_it
        m["mdp.us_per_sweep"] = (avg.sum() + disc.sum()) * 1e6 / sweeps if sweeps else 0.0
        m["experiments.run.self_s"] = float(spans_of("experiments.run")[1].sum())
        m["experiments.emit.s"] = float(spans_of("experiments.emit")[0].sum())
        m["experiments.emit.bytes"] = self.notes.get("emit.bytes", 0)
        m["experiments.emit.rows"] = self.notes.get("emit.rows", 0)
        m["cli.main.self_s"] = float(spans_of("cli.main")[1].sum())
        return {k: float(v) for k, v in m.items()}
