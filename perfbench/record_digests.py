"""Record the sha256 of each workload's CSV at the given seeds into digests.json.

    python3 perfbench/record_digests.py 0-63 987654

Run from the root of an agecost checkout whose outputs are known to be
right.  Arguments are seeds or inclusive ranges ``a-b``.  Existing entries
for other seeds are kept.  The digests hold for the default sizes in
workloads.SIZES only; change those and every digest must be recorded again.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]

import agecost  # noqa: E402
import agecost.cli  # noqa: E402
import workloads  # noqa: E402


def parse_seeds(args):
    seeds = []
    for arg in args:
        lo, _, hi = arg.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(args):
    digests = workloads.load_digests()
    work = os.path.join(os.getcwd(), ".perfbench_work", "record")
    try:
        for seed in parse_seeds(args):
            for name in workloads.WORKLOADS:
                shutil.rmtree(work, ignore_errors=True)
                plan = workloads.make_plan(name, seed, os.path.join(work, "inputs"))
                if "argv" not in plan:
                    continue
                job = workloads.make_job(plan, work, agecost)
                if job.run() != 0:
                    raise SystemExit(f"{name} seed {seed}: agecost failed")
                digest, _ = workloads.file_digest(job.out)
                digests.setdefault(name, {})[str(seed)] = digest
                print(name, seed, digest, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(workloads.DIGESTS_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
