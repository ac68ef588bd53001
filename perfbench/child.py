"""Set-up and repeated timed passes of one workload, in a fresh process started by run.py.

    python3 perfbench/child.py PLAN_JSON OUTDIR T_SPAWN DEADLINE TRACE

Run from the root of an agecost checkout.  T_SPAWN is the parent's
``time.perf_counter()`` (CLOCK_MONOTONIC, shared by all processes) taken
just before it started this process, so ``setup_s`` runs from process
start through ``import agecost`` to the job's inputs being built in
agecost.  One untimed warm-up pass follows; then timed passes repeat until
the next one would end after DEADLINE (same clock), with at least
MIN_PASSES of them.  ``wall_s`` of a pass runs from the first call into
agecost to the outputs being written; the output checks of every pass,
warm-up included, run after its timer stops.  A fixed reference loop runs
right after set-up and between passes; its times depend on the host's
speed and not on agecost, and let run.py express every timing at the
reference speed.  With TRACE=1 plain and
traced passes alternate.  The result goes to OUTDIR/result.json, and with
TRACE=1 the spans of the last traced pass to OUTDIR/spans.json.
"""

import importlib.abc
import importlib.machinery
import json
import os
import resource
import statistics
import sys
import time

perf = time.perf_counter
MIN_PASSES = 2
# A round figure for the reference loop's time on one vCPU of the 2-vCPU
# Xeon the benchmark was defined on, where it took 21-43 ms as the shared
# host's load changed.
REFERENCE_S = 0.025
# When that host got busier, a pass's time grew as about this power of the
# loop's time: over sets of ten runs, the slope of log(pass time) on
# log(loop time) was 0.66-0.92 by workload.  The loop reacts more than
# agecost does.
REFERENCE_EXPONENT = 0.8


def at_reference_speed(seconds: float, reference_s: float) -> float:
    """A time measured beside a reference-loop time, taken to the reference speed."""
    return seconds * (REFERENCE_S / reference_s) ** REFERENCE_EXPONENT


class _Interval:
    __slots__ = ("requests", "cost")

    def __init__(self, requests, cost):
        self.requests = requests
        self.cost = cost


def reference_loop() -> float:
    """Seconds for a fixed mix of interpreter and small-array numpy work.

    It never changes and calls nothing in agecost, so the ratio of a pass
    to it cancels the host's speed swings but keeps agecost's own speed.
    Its first half follows a replay (list indexing, a closure call, float
    sums, small objects), its second a value-iteration sweep on 1024
    states.  Both halves are small, so it adds nothing to peak memory.
    """
    import numpy as np

    t = perf()
    f = lambda age: 0.5 * age  # noqa: E731
    slots = list(range(1, 5_001))
    for _ in range(30):
        intervals, total, last = [], 0.0, 0
        for i in range(len(slots)):
            age = slots[i] - last
            if age >= 37:
                last = slots[i]
                intervals.append(_Interval(i, total))
            else:
                total += f(age)
    a = np.linspace(0.0, 1.0, 1024)
    b = np.ones(1024)
    for _ in range(2000):
        b = np.minimum(a + 0.5 * b, 0.99 * b + 0.01)
    return perf() - t


class ModuleTimer(importlib.abc.MetaPathFinder):
    """Times one module's body, its own imports included; 0 if never imported."""

    def __init__(self, fullname):
        self.fullname = fullname
        self.seconds = 0.0

    def find_spec(self, fullname, path, target=None):
        if fullname != self.fullname:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def timed_exec(module):
            t = perf()
            try:
                exec_module(module)
            finally:
                self.seconds = perf() - t

        spec.loader.exec_module = timed_exec
        return spec


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def one_pass(job, plan, traced):
    """Run and check one pass; the record of its timings and checks, and its tracer."""
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    cpu0 = _cpu_s()
    t0 = perf()
    outcome = job.run()
    wall_s = perf() - t0
    cpu_s = _cpu_s() - cpu0
    if tracer is not None:
        tracer.uninstall()
    attempted, failed, digest = job.check(outcome)
    record = {"traced": traced, "wall_s": wall_s, "cpu_s": cpu_s,
              "attempted": attempted, "failed": failed, "digest": digest}
    if tracer is not None:
        record["layers"] = tracer.layer_metrics(plan.get("lines"))
        record["accounted_s"] = tracer.accounted_s()
        record["absent"] = tracer.absent
    return record, tracer


def main(argv):
    plan_path, outdir, t_spawn, deadline = argv[0], argv[1], float(argv[2]), float(argv[3])
    trace = argv[4] == "1"
    # numpy is imported before the first reference loop; import_s counts it
    # with agecost, which imports it anyway.
    t = perf()
    import numpy  # noqa: F401
    import_s = perf() - t
    setup_reference_s = [reference_loop()]
    src = os.path.join(os.getcwd(), "src")
    mdp_timer = ModuleTimer("agecost.mdp")
    if trace:
        sys.meta_path.insert(0, mdp_timer)
    t = perf()
    import agecost
    import agecost.cli
    import agecost.mdp
    import agecost.offline
    import_s += perf() - t
    if trace:
        sys.meta_path.remove(mdp_timer)
    if not os.path.abspath(agecost.__file__).startswith(src + os.sep):
        print(f"agecost was imported from {agecost.__file__}, not from {src}", file=sys.stderr)
        return 3

    import workloads

    with open(plan_path) as fh:
        plan = json.load(fh)
    job = workloads.make_job(plan, outdir, agecost)
    setup_reference_s.append(reference_loop())
    # The reference loops on either side of set-up are not part of it.
    setup_s = perf() - t_spawn - sum(setup_reference_s)

    # The warm-up pass fills lazy imports and allocator pools; it is checked
    # but not timed.
    warm, _ = one_pass(job, plan, False)
    passes, cycle_s, last_tracer = [], [], None
    reference_s = reference_loop()
    while True:
        if len(passes) >= MIN_PASSES and perf() + statistics.median(cycle_s) > deadline:
            break
        t = perf()
        record, tracer = one_pass(job, plan, trace and len(passes) % 2 == 1)
        after = reference_loop()
        cycle_s.append(perf() - t)
        record["reference_s"] = (reference_s + after) / 2
        reference_s = after
        passes.append(record)
        last_tracer = tracer or last_tracer

    result = {
        "setup_s": setup_s,
        "setup_reference_s": sum(setup_reference_s) / 2,
        "import_s": import_s,
        "import_mdp_s": mdp_timer.seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "warm_up": warm,
        "passes": passes,
    }
    if last_tracer is not None:
        with open(os.path.join(outdir, "spans.json"), "w") as fh:
            json.dump(last_tracer.dump(), fh)
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
