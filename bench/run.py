"""qincident benchmark: four fixed-seed workloads at the program's stable
entry points.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The process and its children stay
on one core.  ``--trace 0`` measures the end-to-end metrics with tracing off,
as wall times adjusted by the host's speed sampled alongside (speed.py);
``--trace 1`` runs one untraced and one
traced set-up and round and reports the per-layer metrics, including the
tracing overhead.  The last line of standard output is the result object;
the line before it holds the per-operation figures and the environment.
See bench/README.md.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"  # pinned before numpy loads; no higher than the core count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from speed import SpeedSampler, pin_to_one_core

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
WORK_ROOT = os.path.join(BENCH_DIR, ".work")

# model-level spans, whose figures are also split by model label
LABELLED = (
    "model.train.self_s", "model.loss_and_gradients.self_s", "model.loss_and_gradients.calls",
    "model.forward.s", "model.build_model.s",
    "nn.dense_forward.s", "nn.dense_backward.s", "nn.adam_step.s", "nn.adam_step.calls",
    "qsim.gradients_batch.s", "qsim.gradients_batch.calls", "qsim.forward_batch.s",
)
UNLABELLED = (
    "scenario.generate.s", "scenario.default_schedule.s",
    "data.aggregate.s", "data.build_features.s", "data.label.s", "data.split.s", "data.normalize.s",
    "data.write_bsm_csv.s", "data.read_bsm_csv.s", "data.write_feature_csv.s",
    "qsim.quantum_forward.s", "qsim.quantum_gradients.s",
    "evaluation.run_experiment.self_s", "evaluation.compare.s",
    "gradcheck.check_forward_oracle.s", "gradcheck.check_parameter_shift.s",
    "gradcheck.check_hybrid_gradients.self_s",
    "cli.main.self_s",
)
MODEL_LABELS = ("classical", "hybrid-4q")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git clone."""
    root = os.path.dirname(BENCH_DIR)
    # the ceiling keeps git from looking above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(nproc: int, core: int) -> dict:
    import numpy
    import qincident

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "qincident": qincident.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": nproc,
        "pinned_core": core,
        "git_commit": git_commit(),
    }


def timed_setup(workload) -> tuple[float, float]:
    """One set-up; its start and end on ``time.perf_counter``."""
    start = time.perf_counter()
    workload.setup()
    return start, time.perf_counter()


class Runner:
    """Runs one workload's rounds, counting operations and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.rounds: list = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def run(self, tracer=None) -> tuple[list, object]:
        """One round's timed operations, inside the traced region if given."""
        if tracer is None:
            return self.workload.run_ops()
        with tracer:
            return self.workload.run_ops()

    def check(self, ops, outputs) -> float:
        """Checks a round's outputs and counts its operations; returns the
        round's timed seconds."""
        index = len(self.rounds)
        self.workload.check(index, ops, outputs)
        self.rounds.append(ops)
        for op in ops:
            self.attempted += 1
            if op.failed:
                self.failed += 1
                if op.error is None:
                    self.wrong += [f"round {index} {op.name}: {p}" for p in op.problems]
                print(f"round {index} {op.name} failed: {op.error or op.problems}", file=sys.stderr)
        return sum(op.seconds for op in ops)


def adjusted(speed, start: float, end: float) -> float:
    return (end - start) * speed.factor(start, end)


def adjusted_round(speed, ops) -> float:
    return sum(adjusted(speed, op.start, op.end) for op in ops)


def measure(workload, seconds: float) -> tuple[Runner, dict, dict]:
    """Set-ups, then whole rounds until ``seconds`` of wall time, with the
    host's speed sampled throughout; each set-up's and operation's wall time
    is adjusted by the speed over its own span (speed.py)."""
    runner = Runner(workload)
    wall = 0.0
    peak = 0.0
    with SpeedSampler() as speed:
        setups = [timed_setup(workload) for _ in range(workload.setup_repeats)]
        while len(runner.rounds) < workload.min_rounds or wall < seconds:
            ops, outputs = runner.run()
            if not runner.rounds:
                peak = peak_rss_mb()  # before the checks allocate anything
            wall += runner.check(ops, outputs)
    setup_s = [adjusted(speed, start, end) for start, end in setups]
    round_s = [adjusted_round(speed, ops) for ops in runner.rounds]
    metrics = {
        "round_s": (statistics.median(round_s), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    extra = {
        "setup_samples_s": setup_s,
        "round_samples_s": round_s,
        "setup_wall_s": [end - start for start, end in setups],
        "round_wall_s": [sum(op.seconds for op in ops) for ops in runner.rounds],
        "speed_samples": len(speed.times),
    }
    return runner, metrics, extra


def measure_traced(workload) -> tuple[Runner, dict, dict]:
    """One untraced set-up and round, then one traced, with the host's speed
    sampled throughout; both rounds are checked only after both peaks are
    read."""
    from spans import Tracer

    runner, tracer = Runner(workload), Tracer()
    with SpeedSampler() as speed:
        plain_setup = timed_setup(workload)
        plain = runner.run()
        plain_peak = peak_rss_mb()
        with tracer:
            traced_setup = timed_setup(workload)
        traced = runner.run(tracer)
        traced_peak = peak_rss_mb()
    runner.check(*plain)
    runner.check(*traced)
    plain_setup, traced_setup = adjusted(speed, *plain_setup), adjusted(speed, *traced_setup)
    plain_round, traced_round = adjusted_round(speed, plain[0]), adjusted_round(speed, traced[0])

    metrics = layer_metrics(tracer)
    metrics["trace.overhead.round_s"] = (traced_round - plain_round, "s")
    metrics["trace.overhead.setup_s"] = (traced_setup - plain_setup, "s")
    metrics["trace.overhead.peak_rss_mb"] = (traced_peak - plain_peak, "MB")
    traced_figures = {"round_s": traced_round, "setup_s": traced_setup, "peak_rss_mb": traced_peak}
    return runner, metrics, {"traced": traced_figures, "absent": tracer.absent}


def layer_metrics(tracer) -> dict:
    metrics = {}

    def value(stat, field):
        if stat is None:
            return 0 if field == "calls" else 0.0
        return getattr(stat, field)

    for name in UNLABELLED + LABELLED:
        span, _, field = name.rpartition(".")
        metrics[name] = (value(tracer.stats.get(span), field), "count" if field == "calls" else "s")
    for name in LABELLED:
        span, _, field = name.rpartition(".")
        for label in MODEL_LABELS:
            stat = tracer.by_label.get((span, label))
            metrics[f"{name}.{label}"] = (value(stat, field), "count" if field == "calls" else "s")
    metrics["scenario.records"] = (tracer.records, "count")
    metrics["data.rows"] = (tracer.rows, "count")
    for layer, seconds in tracer.layer_self_times().items():
        metrics[f"{layer}.self_s"] = (seconds, "s")
    metrics["trace.wall_s"] = (tracer.wall, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_DIR, "qincident", "cli.py")):
        print(f"error: no qincident sources under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    core = pin_to_one_core()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        workload = WORKLOADS[args.workload](args.seed, os.path.join(work_dir, "w"))
        if args.trace:
            runner, metrics, extra = measure_traced(workload)
        else:
            runner, metrics, extra = measure(workload, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "operations": workload.details(runner.rounds),
        "rounds": len(runner.rounds),
        "environment": environment(nproc, core),
        "wrong": runner.wrong,
        **extra,
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
