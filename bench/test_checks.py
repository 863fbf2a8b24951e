"""The benchmark's own tests: every output check passes on real program
output and fails on a deliberately corrupted copy of it, so no check can
pass vacuously.

    python3 -m pytest bench -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import SpeedSampler  # noqa: E402


# -- pipeline ------------------------------------------------------------------

@pytest.fixture(scope="module")
def pipeline_outputs(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("pipeline"))
    gen, feats, paths = workloads.gen_and_features(0, out_dir)
    assert not gen.failed and not feats.failed
    return paths


def _check(paths, features=None, schedule=None):
    return checks.check_pipeline(
        paths["bsm"], schedule or paths["schedule"], features or paths["features"],
        workloads.N_ZONES, workloads.PER_SECOND_S,
    )


def _corrupt_features(paths, tmp_path, pick, column, change):
    """Copy of features.csv with ``column`` changed on the first row ``pick`` accepts."""
    with open(paths["features"], encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if pick(fields):
            fields[column] = change(fields[column])
            lines[i] = ",".join(fields)
            break
    else:
        raise AssertionError("no row to corrupt")
    path = tmp_path / "features.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_pipeline_outputs_pass(pipeline_outputs):
    assert _check(pipeline_outputs) == []


@pytest.mark.parametrize(
    "column, pick, change, expect",
    [
        (8, lambda f: f[8] == "0", lambda v: "1", "label"),
        (3, lambda f: float(f[3]) > 0, lambda v: repr(float(v) + 1), "cnt_z"),
        (2, lambda f: float(f[3]) > 0, lambda v: repr(float(v) + 1e-6), "spd_z"),
        (5, lambda f: f[1] == "3", lambda v: repr(float(v) + 1), "cnt_up"),
        (6, lambda f: f[1] == "40", lambda v: repr(float(v) + 0.5), "spd_dn"),
    ],
)
def test_pipeline_corruption_is_caught(pipeline_outputs, tmp_path, column, pick, change, expect):
    path = _corrupt_features(pipeline_outputs, tmp_path, pick, column, change)
    problems = _check(pipeline_outputs, features=path)
    assert any(p.startswith(expect) for p in problems), problems


def test_pipeline_shifted_schedule_is_caught(pipeline_outputs, tmp_path):
    with open(pipeline_outputs["schedule"], encoding="utf-8") as handle:
        events = json.load(handle)
    events[0]["start_s"] += 1
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(events), encoding="utf-8")
    problems = _check(pipeline_outputs, schedule=str(path))
    assert any(p.startswith("label") for p in problems), problems


def test_neighbours_follow_two_directions():
    up, down = checks.neighbours(6)
    assert up.tolist() == [0, 0, 1, 3, 3, 4]
    assert down.tolist() == [1, 2, 2, 4, 5, 5]


# -- ds1-train -------------------------------------------------------------------

@pytest.fixture(scope="module", params=["classical", "hybrid-4q"])
def saved_model(request, tmp_path_factory):
    from qincident import model

    config = dict(workloads._ds1_configs())[request.param]
    net = model.build_model(config, seed=3)
    path = tmp_path_factory.mktemp("model") / "model.json"
    model.save_model(net, str(path))
    x = np.random.default_rng(0).uniform(0.0, 1.0, size=(64, 6))
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc, x, model.forward(net, x), model.predict(net, x)


def test_probabilities_pass(saved_model):
    assert checks.check_probabilities(*saved_model) == []


def test_perturbed_probability_is_caught(saved_model):
    doc, x, probs, labels = saved_model
    probs = probs.copy()
    probs[5] += 1e-6
    assert any(p.startswith("probability") for p in checks.check_probabilities(doc, x, probs, labels))


def test_flipped_prediction_is_caught(saved_model):
    doc, x, probs, labels = saved_model
    labels = labels.copy()
    labels[0] = 1 - labels[0]
    assert any(p.startswith("predict") for p in checks.check_probabilities(doc, x, probs, labels))


def test_circuit_matches_single_qubit_closed_form():
    # one qubit: <Z> = cos(x + w) after RX(x) then RX(w)
    x = np.array([[0.3], [1.7], [-2.2]])
    got = checks.circuit_expectations(x, np.array([[0.4]]))
    assert np.allclose(got[:, 0], np.cos(x[:, 0] + 0.4), atol=1e-12)


@pytest.mark.parametrize(
    "losses, initial, final, ok",
    [([0.2], 0.7, 0.15, True), ([float("nan")], 0.7, 0.15, False),
     ([0.8], 0.7, 0.15, False), ([0.2], 0.7, 0.9, False)],
)
def test_training_check(losses, initial, final, ok):
    assert (checks.check_training({"loss": losses}, initial, final) == []) == ok


# -- ds3-experiment ---------------------------------------------------------------

@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("exp")
    code, _ = workloads.call_cli([
        "experiment", "--splits", "DS-3", "--models", "classical,hybrid-4q",
        "--runs", "2", "--epochs", "1", "--seed", "0", "--out", str(out_dir),
    ])
    assert code == 0
    return json.loads((out_dir / "report.json").read_text(encoding="utf-8"))


def _experiment_problems(report):
    return checks.check_experiment(report, "DS-3", ["classical", "hybrid-4q"], 2, 1250)


def test_report_passes(small_report):
    assert _experiment_problems(small_report) == []


def _altered(report, change):
    report = copy.deepcopy(report)
    change(report["splits"][0]["models"][1])
    return report


@pytest.mark.parametrize(
    "change, expect",
    [
        # one test row moved from tn to tp: the sum holds, its metrics and the means do not
        (lambda m: (m["per_run"][0]["counts"].update(tp=m["per_run"][0]["counts"]["tp"] + 1,
                                                     tn=m["per_run"][0]["counts"]["tn"] - 1)),
         "mean_counts"),
        (lambda m: m["per_run"][1]["counts"].update(fn=m["per_run"][1]["counts"]["fn"] + 1), "counts"),
        (lambda m: m["mean_metrics"].update(accuracy=m["mean_metrics"]["accuracy"] + 1e-6), "mean_metrics"),
        (lambda m: m["defined_runs"].update(recall=m["defined_runs"]["recall"] - 1), "defined_runs"),
        (lambda m: m["per_run"].pop(), "per-run"),
    ],
)
def test_altered_report_is_caught(small_report, change, expect):
    problems = _experiment_problems(_altered(small_report, change))
    assert any(expect in p for p in problems), problems


def test_ds3_rounds_pass_their_checks(tmp_path, monkeypatch):
    # the second round is held to byte identity with the first
    monkeypatch.setattr(workloads, "DS3_RUNS", 2)
    workload = workloads.Ds3Experiment(0, str(tmp_path))
    workload.setup()
    for index in range(2):
        ops, raw = workload.run_ops()
        workload.check(index, ops, raw)
        assert not ops[0].failed, ops[0].problems


def test_undefined_metric_stays_none():
    assert checks.metrics_from_counts(0, 0, 18, 1232)["precision"] is None
    assert checks.metrics_from_counts(0, 0, 18, 1232)["f2"] is None


# -- verify ------------------------------------------------------------------------

PASSING = "\n".join(f"{s}: PASS  max err 1e-16" for s in checks.GRADCHECK_SUITES)


def test_gradcheck_check():
    assert checks.check_gradcheck(PASSING) == []
    failing = PASSING.replace("hybrid-backprop: PASS", "hybrid-backprop: FAIL")
    assert checks.check_gradcheck(failing) == ["gradcheck: no PASS line for hybrid-backprop"]


@pytest.mark.parametrize("argv", [["features", "--bsm", "/nonexistent/bsm.csv"], ["gen", "--zones", "x"]])
def test_nonzero_exit_fails_the_operation(argv):
    op, _ = workloads.cli_op(argv[0], argv)
    assert op.error is None and op.problems[0].startswith(f"{argv[0]}: exit code")


def test_exception_fails_the_operation():
    op = workloads.Op("train")
    assert op.run(lambda: 1 / 0) is None
    assert op.failed and op.error.startswith("ZeroDivisionError")


# -- tracing ----------------------------------------------------------------------

def test_traced_self_times_cover_the_wall_time():
    from qincident import model

    original = model.forward
    tracer = Tracer()
    x = np.random.default_rng(1).uniform(size=(32, 6))
    for _ in range(2):
        with tracer:
            for config in dict(workloads._ds1_configs()).values():
                net = model.build_model(config, seed=0)
                model.predict(net, x)
    assert model.forward is original
    assert tracer.stats["model.forward"].calls == 4
    assert tracer.by_label[("qsim.forward_batch", "hybrid-4q")].calls == 2
    assert ("qsim.forward_batch", "classical") not in tracer.by_label
    assert abs(sum(tracer.layer_self_times().values()) - tracer.wall) < 1e-9
    assert tracer.absent == []


# -- host speed -----------------------------------------------------------------

def test_speed_factor_averages_each_probe_then_takes_the_geometric_mean():
    speed = SpeedSampler()
    speed.times = [1.0, 2.0, 3.0, 10.0]
    speed.speeds = [np.array(s) for s in ([1.0, 2.0], [0.5, 1.0], [0.6, 1.0], [9.0, 9.0])]
    # window [0.5, 3.5]: probe means 0.7 and 4/3
    assert speed.factor(0.5, 3.5) == pytest.approx((0.7 * 4 / 3) ** 0.5)
    # no sample inside: the nearest one stands for the window
    assert speed.factor(8.0, 8.5) == pytest.approx(9.0)


def test_speed_sampler_samples_while_open():
    with SpeedSampler() as speed:
        start = time.perf_counter()
        while len(speed.times) < 3:
            time.sleep(0.01)
    assert 0 < speed.factor(start, time.perf_counter()) < 10


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
