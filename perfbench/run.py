"""Run one agecost benchmark workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run it from the root of an agecost checkout; it imports agecost from
``src/`` there and fails, printing no result, when that is missing.  The
inputs are made once from ``--seed``.  Three fresh single-threaded child
processes (child.py) then run one after another, each for a third of
``--seconds``: each sets up once, runs one untimed warm-up pass and then
repeats timed passes.  Set-up time and peak memory are medians over the
children, and every pass timing is the median over all timed passes of
the run.  With ``--trace 1`` traced and untraced passes alternate, and the
per-layer metrics come from the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records provenance.  ``fail_ratio`` is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

import child as child_mod
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
# Children per run: each sets up once, so setup_s is a median of this many.
CHILDREN = 3
# Every run ends well inside the 180 s a run may take.
BUDGET_S = 160.0
MEASUREMENT_SCOPE = (
    "Only the benchmark's own processes are measured: the host allows no "
    "system-wide profilers and no dropping of the page cache, so file reads "
    "may be served from a warm cache."
)


def load_metric_units(root: str) -> tuple[dict, dict]:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def provenance(root: str, seed: int) -> dict:
    commit = "unknown: not a git checkout"
    if os.path.exists(os.path.join(root, ".git")):  # else git would look in parent directories
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            commit = "unknown: git is not available"
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "seed": seed,
        "measurement_scope": MEASUREMENT_SCOPE,
    }


def run_child(root: str, plan_path: str, outdir: str, deadline: float, trace: bool,
              timeout: float) -> dict | None:
    """One child's set-up and passes; None if it crashed, timed out or wrote no result."""
    os.makedirs(outdir)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, CHILD, plan_path, outdir, repr(t_spawn), repr(deadline), "1" if trace else "0"],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        err += f"\nchild killed after {timeout:.0f} s\n"
    finally:
        if proc.poll() is None:  # the run itself is being stopped
            proc.kill()
            proc.wait()
    if err:
        sys.stderr.write(err)
    result_path = os.path.join(outdir, "result.json")
    if proc.returncode != 0 or not os.path.exists(result_path):
        print(f"child failed with exit code {proc.returncode}", file=sys.stderr)
        return None
    with open(result_path) as fh:
        return json.load(fh)


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None) -> dict:
    """Make the inputs, run CHILDREN children one after another for ``seconds``, and aggregate.

    Child k may start a pass only if it ends by ``start + seconds * (k + 1) / CHILDREN``.
    """
    start = time.perf_counter()
    work = os.path.join(root, ".perfbench_work", f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan = workloads.make_plan(name, seed, os.path.join(work, "inputs"), sizes)
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        children: list[dict | None] = []
        for k in range(CHILDREN):
            outdir = os.path.join(work, f"child{k}")
            deadline = start + seconds * (k + 1) / CHILDREN
            timeout = BUDGET_S - (time.perf_counter() - start)
            children.append(run_child(root, plan_path, outdir, deadline, trace, timeout))
            if trace and children[-1] is not None:
                keep = os.path.join(root, ".perfbench_work", f"{name}-seed{seed}.spans.json")
                os.replace(os.path.join(outdir, "spans.json"), keep)
            shutil.rmtree(outdir, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return aggregate(plan, children)


def aggregate(plan: dict, children: list) -> dict:
    """Medians over every timed pass of every child; counts over every pass, warm-ups included."""
    good = [c for c in children if c is not None]
    lost = (len(children) - len(good)) * plan["operations"] * (1 + child_mod.MIN_PASSES)
    checked = [p for c in good for p in [c["warm_up"], *c["passes"]]]
    attempted = sum(p["attempted"] for p in checked) + lost
    failed = sum(p["failed"] for p in checked) + lost
    # Every pass of one run has the same inputs, so every CSV must match.
    digests = [p["digest"] for p in checked if p["digest"] is not None]
    if digests:
        common = Counter(digests).most_common(1)[0][0]
        mismatched = sum(d != common for d in digests)
        if mismatched:
            print(f"{mismatched} passes wrote a CSV that differs from the other passes", file=sys.stderr)
        failed += mismatched
    passes = [p for c in good for p in c["passes"]]
    for p in passes:
        p["wall_ref_s"] = child_mod.at_reference_speed(p["wall_s"], p["reference_s"])
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    record = {"workload": plan["workload"], "seed": plan["seed"], "attempted": attempted,
              "failed": failed, "children": len(good), "passes": passes}
    if plain:
        wall = statistics.median(p["wall_ref_s"] for p in plain)
        record["end_to_end"] = {
            "wall_s": wall,
            "requests_per_s": plan["requests"] / wall,
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in good),
            "setup_s": statistics.median(child_mod.at_reference_speed(c["setup_s"], c["setup_reference_s"])
                                         for c in good),
        }
    if plain and traced:
        layers = {k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
        layers["setup.import_s"] = statistics.median(c["import_s"] for c in good)
        layers["setup.import_mdp_s"] = statistics.median(c["import_mdp_s"] for c in good)
        layers["process.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
        layers["host.wall_s"] = statistics.median(p["wall_s"] for p in plain)
        layers["host.reference_ms"] = 1e3 * statistics.median(p["reference_s"] for p in passes)
        layers["tracing.overhead_s"] = (statistics.median(p["wall_ref_s"] for p in traced)
                                        - record["end_to_end"]["wall_s"])
        record["per_layer"] = layers
        record["absent"] = sorted({a for p in traced for a in p["absent"]})
    return record


def describe(record: dict) -> str:
    """Sample counts and quartiles of the untraced timed passes, for standard error."""
    plain = [p for p in record["passes"] if not p["traced"]]

    def quartiles(key):
        values = sorted(p[key] for p in plain)
        q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        return " ".join(f"{v:.4f}" for v in q)

    return (f"{record['workload']}: {len(plain)} untraced timed passes in {record['children']} children; "
            f"wall_s quartiles at the reference speed {quartiles('wall_ref_s')} s, "
            f"as measured {quartiles('wall_s')} s")


def result_line(record: dict, trace: bool, units: dict) -> dict:
    values = record["per_layer" if trace else "end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the running pass is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "agecost", "__init__.py")):
        print("no src/agecost here: run from the root of an agecost checkout", file=sys.stderr)
        return 2
    e2e_units, layer_units = load_metric_units(root)
    units = layer_units if args.trace else e2e_units
    compileall.compile_dir(os.path.join(root, "src", "agecost"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        record = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        if "end_to_end" not in record or (args.trace and "per_layer" not in record):
            print(f"{name}: every pass failed; no metrics", file=sys.stderr)
            return 1
        print(describe(record), file=sys.stderr)
        if record.get("absent"):
            print(f"{name}: wrapped names missing, their metrics read 0: {record['absent']}", file=sys.stderr)
        lines[name] = result_line(record, bool(args.trace), units)
    if args.workload == "all":
        for name, line in lines.items():
            shown = dict(line["metrics"])
            if not args.trace:
                shown["fail_ratio"] = {"value": line["failed"] / line["attempted"], "unit": "ratio"}
            for metric, v in shown.items():
                print(f"{name:15s} {metric:36s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps({"provenance": provenance(root, args.seed)}))
    print(json.dumps(lines if args.workload == "all" else lines[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
