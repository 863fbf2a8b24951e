"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured margin and runtime.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.  The
training criteria (6, 7) retrain real models and take a few minutes.
"""

import json
import time

import numpy as np
import pytest

from qincident import cli, data, evaluation, gradcheck, model, nn, scenario

N_ZONES = 56
PER_SECOND_DURATION = 1250
PER_MINUTE_DURATION = 1500
BASE_SEED = 0


def announce(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {number}] {status}  {detail}")
    assert passed, f"criterion {number}: {detail}"


def build_rows(seed, duration, bucket):
    config = scenario.ScenarioConfig(n_zones=N_ZONES, seed=seed, duration_s=duration)
    return scenario.synthetic_dataset(config, bucket)


@pytest.fixture(scope="module")
def pipeline_products():
    start = time.perf_counter()
    rows_second = build_rows(BASE_SEED, PER_SECOND_DURATION, 1)
    rows_minute = build_rows(BASE_SEED, PER_MINUTE_DURATION, 60)
    splits = {
        "DS-1": data.split(rows_second, "DS-1"),
        "DS-2": data.split(rows_second, "DS-2"),
        "DS-3": data.split(rows_minute, "DS-3"),
    }
    elapsed = time.perf_counter() - start
    return rows_second, rows_minute, splits, elapsed


def test_criterion_1_quantum_oracle_equivalence():
    start = time.perf_counter()
    result = gradcheck.check_forward_oracle(
        seed=BASE_SEED, cases_per_shape=20, qubit_counts=(2, 3, 4), layer_counts=(1, 2)
    )
    elapsed = time.perf_counter() - start
    announce(
        1,
        result.passed and result.n_cases >= 100 and elapsed < 5.0,
        f"forward vs dense-matrix oracle: max err {result.max_err:.2e} "
        f"(tol 1e-10, {result.n_cases} cases, {elapsed:.1f}s)",
    )


def test_criterion_2_parameter_shift_exactness():
    start = time.perf_counter()
    result = gradcheck.check_parameter_shift(seed=BASE_SEED, n_cases=50, step=1e-5, tol=1e-6)
    elapsed = time.perf_counter() - start
    announce(
        2,
        result.passed and elapsed < 5.0,
        f"parameter shift vs finite differences: max err {result.max_err:.2e} "
        f"(tol 1e-6, {result.n_cases} cases, {elapsed:.1f}s)",
    )


def test_criterion_3_hybrid_end_to_end_gradients():
    start = time.perf_counter()
    result = gradcheck.check_hybrid_gradients(
        seed=BASE_SEED, n_draws=20, step=1e-4, rel_tol=1e-3, grad_floor=1e-6
    )
    elapsed = time.perf_counter() - start
    announce(
        3,
        result.passed and elapsed < 30.0,
        f"hybrid stack loss gradients: max rel err {result.max_err:.2e} "
        f"(tol 1e-3, {result.n_cases} coords, {elapsed:.1f}s)",
    )


# Frozen benchmark rows (30-run averaged confusion counts with their reported
# metric values) used as an oracle for the metric formulas.  Column order:
# model, tp, fp, fn, accuracy, precision, recall, f2.  None encodes an
# undefined (NaN) metric.
REFERENCE_ROWS = {
    30000: [
        ("RF", 557.9, 0.6, 11.1, 0.999, 0.999, 0.980, 0.984),
        ("SVM-RBF", 545, 0, 24, 0.999, 1.0, 0.958, 0.966),
        ("SVM-Poly2", 556, 3, 13, 0.999, 0.994, 0.977, 0.981),
        ("XGBoost", 559, 0, 10, 0.999, 1.0, 0.982, 0.986),
        ("NN", 553, 11.6, 9, 0.999, 0.979, 0.974, 0.977),
        ("Hybrid-2q", 559, 9.8, 6, 0.999, 0.981, 0.979, 0.980),
        ("Hybrid-4q", 563, 8.3, 6, 0.999, 0.984, 0.989, 0.987),
    ],
    55000: [
        ("RF", 913.2, 2.4, 38.8, 0.999, 0.997, 0.959, 0.966),
        ("SVM-RBF", 888, 1, 64, 0.998, 0.998, 0.932, 0.945),
        ("SVM-Poly2", 907, 9, 45, 0.999, 0.990, 0.953, 0.959),
        ("XGBoost", 926, 4, 26, 0.999, 0.996, 0.973, 0.977),
        ("NN", 906.8, 4.4, 45.2, 0.999, 0.995, 0.953, 0.961),
        ("Hybrid-2q", 930.4, 8.8, 21.6, 0.999, 0.991, 0.977, 0.979),
        ("Hybrid-4q", 935.8, 8.6, 16.2, 0.999, 0.991, 0.983, 0.985),
    ],
    1250: [
        ("RF", 14.1, 0, 3.9, 0.996, 1.0, 0.783, 0.817),
        ("SVM-RBF", 1, 0, 17, 0.984, 1.0, 0.055, 0.068),
        ("SVM-Poly2", 18, 11, 0, 0.989, 0.621, 1.0, 0.891),
        ("XGBoost", 0, 0, 18, 0.983, None, 0.0, None),
        ("NN", 18, 12.1, 0, 0.988, 0.599, 1.0, 0.881),
        ("Hybrid-2q", 17.4, 1.8, 0.6, 0.997, 0.908, 0.966, 0.953),
        ("Hybrid-4q", 17.4, 1.1, 0.6, 0.998, 0.941, 0.966, 0.961),
    ],
}

# Cells whose reported value contradicts the row's own counts through a
# metric identity (recall = tp/(tp+fn); accuracy = (tp+tn)/total), so no
# implementation can reproduce them.  Each entry pins the exact value our
# formulas must produce instead, keeping the check sensitive to regressions.
#   (test_size, model, metric) -> (formula value, reported value)
KNOWN_INCONSISTENT = {
    (30000, "NN", "recall"): (553 / 562, 0.974),
    (30000, "NN", "f2"): (0.9830764, 0.977),
    (30000, "Hybrid-2q", "recall"): (559 / 565, 0.979),
    (30000, "Hybrid-2q", "f2"): (0.9880513, 0.980),
    (1250, "SVM-RBF", "accuracy"): (1233 / 1250, 0.984),
    (1250, "SVM-Poly2", "accuracy"): (1239 / 1250, 0.989),
    (1250, "XGBoost", "accuracy"): (1232 / 1250, 0.983),
    (1250, "NN", "accuracy"): (1237.9 / 1250, 0.988),
}


def test_criterion_4_metric_table_reproduction():
    start = time.perf_counter()
    checked, excluded = 0, 0
    for test_size, table in REFERENCE_ROWS.items():
        for name, tp, fp, fn, *reported in table:
            tn = test_size - (tp + fp + fn)
            report = evaluation.metrics(evaluation.ConfusionCounts(tp, fp, fn, tn))
            for metric, want in zip(evaluation.METRIC_NAMES, reported):
                got = report.metric(metric)
                known = KNOWN_INCONSISTENT.get((test_size, name, metric))
                if known is not None:
                    formula_value, reported_value = known
                    assert got == pytest.approx(formula_value, abs=1e-6), (name, metric)
                    assert abs(got - reported_value) > 0.002, (name, metric)
                    excluded += 1
                    continue
                checked += 1
                if want is None:
                    assert got is None, (test_size, name, metric)
                else:
                    assert got == pytest.approx(want, abs=0.002), (test_size, name, metric, got)
    # the named spot checks
    svm_rbf = evaluation.metrics(evaluation.ConfusionCounts(1, 0, 17, 1232))
    assert svm_rbf.precision == 1.0
    assert svm_rbf.recall == pytest.approx(0.055, abs=0.002)
    assert svm_rbf.f2 == pytest.approx(0.068, abs=0.002)
    xgb = evaluation.metrics(evaluation.ConfusionCounts(0, 0, 18, 1232))
    assert xgb.precision is None and xgb.f2 is None
    elapsed = time.perf_counter() - start
    announce(
        4,
        elapsed < 1.0,
        f"metric formulas reproduce {checked} reference cells to within 0.002 "
        f"({excluded} cells are inconsistent with their own counts and are "
        f"pinned to the exact formula value instead; {elapsed:.2f}s)",
    )


def test_criterion_5_pipeline_scale_fidelity(pipeline_products):
    rows_second, rows_minute, splits, elapsed = pipeline_products
    prev_second = rows_second.labels.sum() / len(rows_second)
    prev_minute = rows_minute.labels.sum() / len(rows_minute)
    sizes = {
        name: (len(split.train_y), len(split.test_y))
        for name, split in splits.items()
    }
    ok = (
        len(rows_second) == 70000
        and len(rows_minute) == 1400
        and 0.01 <= prev_second <= 0.03
        and 0.01 <= prev_minute <= 0.03
        and sizes == {"DS-1": (40000, 30000), "DS-2": (15000, 55000), "DS-3": (150, 1250)}
        and elapsed < 30.0
    )
    announce(
        5,
        ok,
        f"{len(rows_second)} per-second rows (prevalence {prev_second:.3f}), "
        f"{len(rows_minute)} per-minute rows (prevalence {prev_minute:.3f}), "
        f"splits {sizes} ({elapsed:.1f}s)",
    )


def test_criterion_6_training_regime(pipeline_products):
    _, _, splits, _ = pipeline_products
    split = splits["DS-1"]
    start = time.perf_counter()
    train_config = nn.TrainConfig(seed=BASE_SEED)
    features, labels = split.train_x, split.train_y
    results = {}
    for kind in ("classical", "hybrid"):
        config = model.HybridModelConfig(kind=kind, n_qubits=4)
        best_accs, recalls = [], []
        for run in range(5):
            seed = BASE_SEED + run
            net = model.build_model(config, seed=seed)
            model.train(net, (features, labels), nn.TrainConfig(seed=seed))
            best_accs.append(max(net.history["train_accuracy"]))
            preds = model.predict(net, split.test_x)
            counts = evaluation.confusion(preds, split.test_y)
            recalls.append(evaluation.metrics(counts).recall)
        results[kind] = (float(np.mean(best_accs)), float(np.mean(recalls)))
    elapsed = time.perf_counter() - start
    ok = all(acc >= 0.95 and rec >= 0.90 for acc, rec in results.values()) and elapsed < 900
    announce(
        6,
        ok,
        "DS-1 over 5 seeds: "
        + ", ".join(
            f"{kind} train-acc {acc:.3f} / test recall {rec:.3f}"
            for kind, (acc, rec) in results.items()
        )
        + f" (gates 0.95 / 0.90, {elapsed:.0f}s)",
    )


@pytest.fixture(scope="module")
def ds3_experiment(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("ds3") / "exp"
    flags = [
        "experiment",
        "--splits", "DS-3",
        "--models", "classical,hybrid-4q",
        "--runs", "30",
        "--seed", str(BASE_SEED),
        "--out", str(out_dir),
    ]
    start = time.perf_counter()
    assert cli.main(flags) == 0
    first = (out_dir / "report.json").read_bytes()
    assert cli.main(flags) == 0
    second = (out_dir / "report.json").read_bytes()
    elapsed = time.perf_counter() - start
    return json.loads(first), first, second, (out_dir / "tables.txt").read_text(), elapsed


def test_criterion_7_scarce_data_direction(ds3_experiment):
    report, _, _, table_text, elapsed = ds3_experiment
    split_doc = report["splits"][0]
    by_kind = {entry["kind"]: entry for entry in split_doc["models"]}
    classical_f2 = by_kind["classical"]["mean_metrics"]["f2"]
    hybrid_f2 = by_kind["hybrid-4q"]["mean_metrics"]["f2"]
    ok = (
        split_doc["split"] == "DS-3"
        and split_doc["n_runs"] == 30
        and hybrid_f2 is not None
        and classical_f2 is not None
        and hybrid_f2 >= classical_f2 - 0.05
        and "DS-3" in table_text
        and elapsed < 1800
    )
    announce(
        7,
        ok,
        f"DS-3 over 30 paired seeds: hybrid-4q mean F2 {hybrid_f2:.3f} vs "
        f"classical {classical_f2:.3f} (soft gate: hybrid >= classical - 0.05; "
        f"defined runs {by_kind['hybrid-4q']['defined_runs']['f2']} vs "
        f"{by_kind['classical']['defined_runs']['f2']}; {elapsed:.0f}s)",
    )


def test_criterion_8_experiment_determinism(ds3_experiment):
    _, first, second, _, elapsed = ds3_experiment
    announce(
        8,
        first == second and elapsed < 1800,
        f"repeated experiment invocation: {len(first)} report bytes identical "
        f"({elapsed:.0f}s for both invocations)",
    )
