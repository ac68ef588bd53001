"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

``make_plan`` turns (workload, seed) into a JSON-able plan and writes any
input files the plan names; it needs numpy only, never agecost, so input
generation stays benchmark work.  In the child process ``make_job`` turns
the plan into a job: building it is set-up, ``job.run()`` is the timed
pass, and ``job.check(outcome)`` inspects the outputs after the timer has
stopped and returns ``(attempted, failed, digest)``.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in README.md beside this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import traceback

import numpy as np

WORKLOADS = ("mc_sweep", "policy_compare", "trace_replay", "oracle_small", "mdp_grid")

# Input shapes follow the README commands; grid lengths, run counts and
# instance counts are cut so that one pass takes about a second on a
# 2-core Xeon, and a run holds many passes.
SIZES = {
    # sweep-threshold at lambda=0.1, p=100, 100 runs x 1e4 requests, at
    # tau* = 37 alone.
    "mc_sweep": {"taus": [37], "runs": 100, "requests": 10_000},
    # compare --sweep lambda --p 50 --requests 2000 on the full lambda grid.
    "policy_compare": {"runs": 2, "requests": 2000},
    # trace-compare on a non-Bernoulli trace at slot density 0.4.
    "trace_replay": {"lines": 50_000, "density": 0.4},
    # DP vs brute force on instances of exactly 14 requests in 48 slots.
    "oracle_small": {"instances": 2, "requests": 14, "horizon": 48},
    # solve_average on rates x costs x {linear, quadratic}, plus
    # solve_discounted at each discount for the middle rate and first cost.
    "mdp_grid": {"rates": 9, "costs": [10.0, 100.0], "discounts": [0.9, 0.99, 0.999]},
}

ORACLE_TOLERANCE = 1e-9
MDP_GAIN_TOLERANCE = 1e-3
MONOTONE_SLACK = 1e-9

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def make_plan(name: str, seed: int, workdir: str, sizes: dict | None = None) -> dict:
    """Inputs of one workload at one seed; writes input files into workdir."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    size = {**SIZES[name], **(sizes or {})}
    os.makedirs(workdir, exist_ok=True)
    # Recorded digests hold for the default sizes only.  An operation is
    # one CLI pass, one oracle instance or one MDP solve.
    plan = {"workload": name, "seed": seed, "default_sizes": not sizes, "operations": 1}
    if name == "mc_sweep":
        spec = _write_json(workdir, "spec.json", {"grid": size["taus"]})
        plan["argv"] = ["sweep-threshold", "--config", spec, "--lambda", "0.1", "--p", "100",
                        "--runs", str(size["runs"]), "--requests", str(size["requests"]),
                        "--seed", str(seed)]
        plan["rows"] = len(size["taus"])
        plan["requests"] = len(size["taus"]) * size["runs"] * size["requests"]
    elif name == "policy_compare":
        plan["argv"] = ["compare", "--sweep", "lambda", "--p", "50", "--runs", str(size["runs"]),
                        "--requests", str(size["requests"]), "--seed", str(seed)]
        grid_points, policies = 9, 4  # default lambda grid; threshold*, naive, periodic*, offline
        plan["rows"] = grid_points * policies
        plan["requests"] = grid_points * size["runs"] * size["requests"] * policies
    elif name == "trace_replay":
        lines = size["lines"]
        trace = os.path.join(workdir, "trace.csv")
        write_trace(trace, lines, size["density"], seed)
        # Without the offline bound the work stays the same when the
        # offline request cap goes away.
        spec = _write_json(workdir, "spec.json", {"include_offline": False})
        plan["argv"] = ["trace-compare", "--config", spec, "--trace", trace, "--slot-duration", "1.0",
                        "--p", "25", "--requests", str(lines)]
        plan["lines"] = lines
        plan["rows"] = 3 * lines
        plan["requests"] = 3 * lines
    elif name == "oracle_small":
        rng = np.random.default_rng(seed)
        n = size["requests"]
        plan["instances"] = [
            {"slots": np.sort(rng.choice(np.arange(1, size["horizon"] + 1), size=n, replace=False)).tolist(),
             "update_cost": float(rng.uniform(0.4, 14.0))}
            for _ in range(size["instances"])
        ]
        plan["operations"] = size["instances"]
        # Brute force replays all 2^n schedules; the DP counts as one policy.
        plan["requests"] = size["instances"] * n * ((1 << n) + 1)
    else:
        rng = np.random.default_rng(seed)
        k = size["rates"]
        rates = np.linspace(0.1, 0.9, k) + rng.uniform(-0.04, 0.04, size=k)
        costs = [c * float(rng.uniform(0.9, 1.1)) for c in size["costs"]]
        plan["average"] = [
            {"rate": float(r), "update_cost": c, "staleness": kind}
            for r in rates for c in costs for kind in ("linear", "quadratic")
        ]
        # One jittered point for every discount: its sweep count, most of
        # the pass at 0.999, then varies little from seed to seed.
        plan["discounted"] = [
            {"rate": float(rates[k // 2]), "update_cost": costs[0], "staleness": "linear", "discount": a}
            for a in size["discounts"]
        ]
        plan["operations"] = len(plan["average"]) + len(plan["discounted"])
        # No requests are replayed here; the throughput counts MDP solves.
        plan["requests"] = plan["operations"]
    return plan


def write_trace(path: str, lines: int, density: float, seed: int) -> None:
    """Non-Bernoulli trace with exactly ``lines`` requests at the given slot density.

    Occupied slots are drawn without replacement, one request per slot, and
    each timestamp is jittered inside its slot; the first sits on its slot
    boundary so discretization maps slot k back to slot k.
    """
    rng = np.random.default_rng(seed)
    horizon = int(lines / density)
    middle = rng.choice(np.arange(2, horizon), size=lines - 2, replace=False)
    slots = np.sort(np.concatenate(([1, horizon], middle)))
    jitter = rng.uniform(0.0, 0.9, size=lines)
    jitter[0] = 0.0
    stamps = (slots - 1 + jitter).tolist()
    with open(path, "w") as fh:
        fh.writelines(f"{t:.6f},key{s},get\n" for t, s in zip(stamps, slots.tolist()))


def _write_json(workdir: str, name: str, data: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def load_digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def file_digest(path: str) -> tuple[str, int]:
    """sha256 hex digest and newline count of a file, read in chunks."""
    h = hashlib.sha256()
    newlines = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
            newlines += chunk.count(b"\n")
    return h.hexdigest(), newlines


def _fail(message: str) -> None:
    print(f"check failed: {message}", file=sys.stderr)


class CliJob:
    """One CLI pass writing one CSV, as a user would run it."""

    def __init__(self, plan: dict, outdir: str, agecost_cli):
        self.plan = plan
        self.cli = agecost_cli
        self.out = os.path.join(outdir, "out.csv")
        self.argv = plan["argv"] + ["--out", self.out]

    def run(self):
        return self.cli.main(self.argv)

    def check(self, exit_code) -> tuple[int, int, str | None]:
        if exit_code != 0:
            _fail(f"agecost exited with {exit_code}")
            return 1, 1, None
        digest, newlines = file_digest(self.out)
        expected = None
        if self.plan["default_sizes"]:
            expected = load_digests().get(self.plan["workload"], {}).get(str(self.plan["seed"]))
        ok = True
        if expected is not None and digest != expected:
            _fail(f"sha256 {digest} != recorded {expected}")
            ok = False
        if newlines - 1 != self.plan["rows"]:
            _fail(f"{newlines - 1} rows, expected {self.plan['rows']}")
            ok = False
        if self.plan["workload"] == "policy_compare" and not self._offline_is_lower_bound():
            ok = False
        return 1, int(not ok), digest

    def _offline_is_lower_bound(self) -> bool:
        with open(self.out) as fh:
            header = fh.readline().rstrip("\n").split(",")
            x, label, cost = (header.index(c) for c in ("x_value", "policy_label", "mean_cost"))
            points: dict[str, dict[str, float]] = {}
            for line in fh:
                cells = line.rstrip("\n").split(",")
                points.setdefault(cells[x], {})[cells[label]] = float(cells[cost])
        ok = True
        for xv, costs in points.items():
            offline = costs.pop("offline", None)
            if offline is None or any(offline > c for c in costs.values()):
                _fail(f"offline {offline} is not <= every online policy at x={xv}: {costs}")
                ok = False
        return ok


class OracleJob:
    """Offline DP and brute force on each small instance."""

    def __init__(self, plan: dict, agecost):
        self.offline = agecost.offline
        self.cases = [
            (agecost.ArrivalSequence.from_slots(inst["slots"]),
             agecost.CostModel(agecost.StalenessFn.linear(), inst["update_cost"]))
            for inst in plan["instances"]
        ]

    def run(self):
        out = []
        for arrivals, model in self.cases:
            try:
                dp = self.offline.offline_optimal(arrivals, model).total_cost
                bf = self.offline.brute_force_optimal(arrivals, model).total_cost
                out.append((dp, bf))
            except Exception:  # noqa: BLE001 - one failed instance must not end the pass
                traceback.print_exc()
                out.append(None)
        return out

    def check(self, outcome) -> tuple[int, int, None]:
        failed = 0
        for i, pair in enumerate(outcome):
            if pair is None or abs(pair[0] - pair[1]) > ORACLE_TOLERANCE:
                _fail(f"instance {i}: DP and brute-force totals {pair} differ")
                failed += 1
        return len(outcome), failed, None


class MdpJob:
    """Average-cost and discounted solves over the plan's grid."""

    def __init__(self, plan: dict, agecost):
        self.agecost = agecost
        self.mdp = agecost.mdp

        def config(rec, **extra):
            model = agecost.CostModel(getattr(agecost.StalenessFn, rec["staleness"])(), rec["update_cost"])
            return agecost.MdpConfig(rate=rec["rate"], model=model, state_cap=1024, **extra)

        self.average = [config(rec) for rec in plan["average"]]
        self.discounted = [config(rec, discount=rec["discount"]) for rec in plan["discounted"]]

    def run(self):
        out = {"average": [], "discounted": []}
        for key, solve, configs in (("average", self.mdp.solve_average, self.average),
                                    ("discounted", self.mdp.solve_discounted, self.discounted)):
            for cfg in configs:
                try:
                    out[key].append(solve(cfg))
                except Exception:  # noqa: BLE001 - one failed solve must not end the pass
                    traceback.print_exc()
                    out[key].append(None)
        return out

    def check(self, outcome) -> tuple[int, int, None]:
        failed = 0
        for cfg, sol in zip(self.average, outcome["average"]):
            if sol is None:
                failed += 1
                continue
            best = self.agecost.optimal_threshold(cfg.rate, cfg.model).cost_at_tau_star
            acts = sol.actions[1:]
            first = int(np.argmax(acts)) + 1 if acts.any() else len(acts) + 1
            structured = bool(np.all(acts[first - 1:] == 1) and np.all(acts[: first - 1] == 0))
            if abs(sol.gain - best) > MDP_GAIN_TOLERANCE or not structured:
                _fail(f"average rate={cfg.rate} p={cfg.model.update_cost}: gain {sol.gain} vs "
                      f"closed form {best}, threshold-structured={structured}")
                failed += 1
        for cfg, sol in zip(self.discounted, outcome["discounted"]):
            if sol is None or not np.all(np.diff(sol.values) >= -MONOTONE_SLACK):
                _fail(f"discounted alpha={cfg.discount}: values missing or not monotone")
                failed += 1
        return len(self.average) + len(self.discounted), failed, None


def make_job(plan: dict, outdir: str, agecost):
    """Build the job for a plan; this is the set-up that agecost pays for."""
    if "argv" in plan:
        return CliJob(plan, outdir, agecost.cli)
    if plan["workload"] == "oracle_small":
        return OracleJob(plan, agecost)
    return MdpJob(plan, agecost)
