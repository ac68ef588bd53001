"""Tests of the benchmark itself, not of agecost.

    python3 -m pytest -q perfbench/tests

Run from the root of an agecost checkout.  They use small input sizes, so
they check the benchmark's logic, not its timings.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import agecost  # noqa: E402
import agecost.cli  # noqa: E402
import agecost.offline  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "mc_sweep": {"taus": [5, 37], "runs": 3, "requests": 500},
    "policy_compare": {"runs": 2, "requests": 200},
    "trace_replay": {"lines": 2000},
    "oracle_small": {"instances": 3, "requests": 8},
    "mdp_grid": {"rates": 2, "costs": [10.0], "discounts": [0.9]},
}


def _fail_ratio(job, outcome):
    attempted, failed, _ = job.check(outcome)
    return failed / attempted


def _inputs(name, seed, workdir):
    """The plan, with its directory taken out, and the bytes of every input file."""
    plan = workloads.make_plan(name, seed, workdir, SMALL[name])
    files = {f: open(os.path.join(workdir, f), "rb").read() for f in sorted(os.listdir(workdir))}
    return json.dumps(plan).replace(workdir, ""), files


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name, tmp_path):
    first = _inputs(name, 7, str(tmp_path / "a"))
    assert _inputs(name, 7, str(tmp_path / "b")) == first
    assert _inputs(name, 8, str(tmp_path / "c")) != first


def test_corrupted_csv_byte_fails(tmp_path, monkeypatch):
    plan = workloads.make_plan("mc_sweep", 3, str(tmp_path / "in"), SMALL["mc_sweep"])
    job = workloads.make_job(plan, str(tmp_path), agecost)
    outcome = job.run()
    digest, _ = workloads.file_digest(job.out)
    plan["default_sizes"] = True
    monkeypatch.setattr(workloads, "load_digests", lambda: {"mc_sweep": {"3": digest}})
    assert _fail_ratio(job, outcome) == 0
    with open(job.out, "r+b") as fh:
        fh.seek(-3, os.SEEK_END)
        byte = fh.read(1)
        fh.seek(-3, os.SEEK_END)
        fh.write(bytes([byte[0] ^ 1]))
    assert _fail_ratio(job, outcome) > 0


def test_wrong_dp_total_fails(tmp_path, monkeypatch):
    plan = workloads.make_plan("oracle_small", 3, str(tmp_path), SMALL["oracle_small"])
    job = workloads.make_job(plan, str(tmp_path), agecost)
    assert _fail_ratio(job, job.run()) == 0
    right = agecost.offline.offline_optimal

    def wrong(arrivals, model):
        sol = right(arrivals, model)
        return dataclasses.replace(sol, total_cost=sol.total_cost + 1e-6)

    monkeypatch.setattr(agecost.offline, "offline_optimal", wrong)
    assert _fail_ratio(job, job.run()) > 0


def test_policy_compare_offline_bound_is_checked(tmp_path):
    plan = workloads.make_plan("policy_compare", 3, str(tmp_path / "in"), SMALL["policy_compare"])
    job = workloads.make_job(plan, str(tmp_path), agecost)
    outcome = job.run()
    assert _fail_ratio(job, outcome) == 0
    with open(job.out) as fh:
        lines = fh.readlines()
    cells = lines[1].split(",")
    assert cells[1] != "offline"
    cells[2] = "0"  # an online policy now beats the offline bound
    lines[1] = ",".join(cells)
    with open(job.out, "w") as fh:
        fh.writelines(lines)
    assert _fail_ratio(job, outcome) > 0


def test_traced_self_times_sum_to_traced_wall():
    record = run.run_workload(ROOT, "oracle_small", 5, 0.0, True, {"instances": 4, "requests": 11})
    assert record["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(record["per_layer"]) == listed
    overhead = record["per_layer"]["tracing.overhead_s"]
    traced = [p for p in record["passes"] if p["traced"]]
    assert traced
    for p in traced:
        unaccounted = p["wall_s"] - p["accounted_s"]
        assert 0 <= unaccounted <= max(overhead, 0.01 * p["wall_s"]), (unaccounted, overhead)


def test_timings_are_scaled_to_the_reference_speed():
    ref = child.REFERENCE_S
    slower = 2 ** child.REFERENCE_EXPONENT  # how much longer a pass takes when the loop takes twice as long

    def one(wall_s, reference_s):
        return {"traced": False, "wall_s": wall_s, "reference_s": reference_s, "cpu_s": wall_s,
                "attempted": 1, "failed": 0, "digest": None}

    # The same work at the reference speed, on a host twice as busy, and on one half as busy.
    kid = {"setup_s": 3.0 * slower, "setup_reference_s": 2 * ref, "peak_rss_mb": 100.0,
           "warm_up": one(1.0, ref), "passes": [one(1.0, ref), one(slower, 2 * ref), one(1 / slower, ref / 2)]}
    plan = {"workload": "mdp_grid", "seed": 0, "operations": 1, "requests": 10}
    e2e = run.aggregate(plan, [kid])["end_to_end"]
    assert e2e["wall_s"] == pytest.approx(1.0)
    assert e2e["requests_per_s"] == pytest.approx(10.0)
    assert e2e["setup_s"] == pytest.approx(3.0)
    faster = run.aggregate(plan, [{**kid, "passes": [one(0.5, ref), one(0.5 * slower, 2 * ref)] * 2}])
    assert faster["end_to_end"]["wall_s"] == pytest.approx(0.5)


def test_refuses_to_run_without_the_program(tmp_path):
    os.symlink(BENCH, tmp_path / "perfbench")
    with open(tmp_path / "BENCHMARK.json", "w") as fh:
        fh.write(open(os.path.join(ROOT, "BENCHMARK.json")).read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mdp_grid", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
