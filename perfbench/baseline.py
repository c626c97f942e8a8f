"""Record a baseline: ten untraced runs and one traced run per workload.

    python3 perfbench/baseline.py --out perfbench/baseline/seed-commit.json

The untraced runs use seeds 1 to 10 and the traced run seed 1; the file keeps every run's result
line and, per end-to-end metric, the median, the quartiles and the spread
(distance between the quartiles over the median) that the regression
bounds in BENCHMARK.json are judged against.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import HERE, ROOT, run_seconds
from workloads import WORKLOADS

RUNS = 10
FIRST_SEED = 1


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    seconds = run_seconds()
    report = {
        "recorded": time.strftime("%Y-%m-%d %H:%M:%S %Z"),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in args.workload or WORKLOADS:
        seeds = list(range(FIRST_SEED, FIRST_SEED + RUNS))
        runs = [dict(seed=seed, **run_once(workload, seed, seconds, 0)) for seed in seeds]
        metrics = {
            name: spread([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        traced = dict(seed=seeds[0], **run_once(workload, seeds[0], seconds, 1))
        report["workloads"][workload] = {"untraced": runs, "summary": metrics, "traced": traced}
        print(workload, {k: round(v["spread"], 4) for k, v in metrics.items()}, file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(report, out, indent=1)
        out.write("\n")


if __name__ == "__main__":
    main()
