"""Run the benchmark on several seeds and summarise each metric.

    python3 bench/repeat.py --workloads pipeline,ds1-train --seeds 0-9 [--trace 1]

For every workload and metric it prints the median over the runs and the
distance between the first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), the figure the benchmark's bounds
are set against, plus the median of each per-operation figure and, for
traced runs, of the end-to-end figures measured under tracing.  Runs go one
at a time, each in its own process, exactly as ``bench/run.py`` is invoked
on its own, for the ``run_seconds`` that BENCHMARK.json gives.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("nan")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]

    for workload in args.workloads.split(","):
        results, details = [], []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            detail, result = proc.stdout.strip().splitlines()[-2:]
            details.append(json.loads(detail)["detail"])
            results.append(json.loads(result))
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {len(results)} runs, {failed}/{attempted} operations failed, correct={correct}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median, share = spread(values)
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {name:48s} {median:14.6g} {unit:6s} spread {share:7.2%}")
        for name in details[0]["operations"]:
            median, share = spread([d["operations"][name] for d in details])
            print(f"  op {name:45s} {median:14.6g}        spread {share:7.2%}")
        for name in details[0].get("traced", {}):
            median, share = spread([d["traced"][name] for d in details])
            print(f"  traced {name:41s} {median:14.6g}        spread {share:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
