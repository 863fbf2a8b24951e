"""Output checks made apart from the program.

Each check recomputes what an output must hold from the inputs the program
was given, or tests a property the method must have, with its own code: it
imports nothing from ``qincident``.  Every check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

FEATURE_HEADER = "bucket_start_s,zone_id,spd_z,cnt_z,spd_up,cnt_up,spd_dn,cnt_dn,label"
BSM_HEADER = "time_s,vehicle_id,zone_id,speed_mps"
SPEED_ATOL = 1e-9
PROB_ATOL = 1e-9
PREVALENCE_BAND = (0.01, 0.03)
BCE_EPS = 1e-7  # the documented clamp of the binary cross-entropy
METRICS = ("accuracy", "precision", "recall", "f2")


def _first_bad(mask: np.ndarray) -> int:
    return int(np.flatnonzero(mask)[0])


# -- pipeline: gen + features ----------------------------------------------------

def read_features(path) -> np.ndarray:
    """The feature CSV as a [rows, 9] float array (every value is exact)."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        if header != FEATURE_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        return np.loadtxt(handle, delimiter=",", ndmin=2)


def _distinct_records(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(time, zone, speed) of the first record of each distinct
    (vehicle, zone, second)."""
    seen: set[tuple[str, str, str]] = set()
    times, zones, speeds = [], [], []
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        if ",".join(next(reader)) != BSM_HEADER:
            raise ValueError(f"{path}: unexpected header")
        for time_s, vehicle, zone, speed in reader:
            key = (vehicle, zone, time_s)
            if key in seen:
                continue
            seen.add(key)
            times.append(int(time_s))
            zones.append(int(zone))
            speeds.append(float(speed))
    return np.array(times, dtype=np.int64), np.array(zones, dtype=np.int64), np.array(speeds)


def neighbours(n_zones: int) -> tuple[np.ndarray, np.ndarray]:
    """(upstream, downstream) zone of each zone under the two-direction
    topology [0, ceil(n/2)) and [ceil(n/2), n); a boundary zone is its own
    neighbour on the missing side."""
    half = (n_zones + 1) // 2
    up, down = np.arange(n_zones), np.arange(n_zones)
    for lo, hi in ((0, half), (half, n_zones)):
        up[lo + 1 : hi] = np.arange(lo, hi - 1)
        down[lo : hi - 1] = np.arange(lo + 1, hi)
    return up, down


def check_pipeline(bsm_path, schedule_path, features_path, n_zones: int, duration: int) -> list[str]:
    """Per-second feature rows against a recomputation from the record CSV
    and the schedule the same ``gen`` call wrote."""
    problems = []
    rows = read_features(features_path)
    n_rows = n_zones * duration
    if rows.shape != (n_rows, 9):
        return [f"features: shape {rows.shape}, expected ({n_rows}, 9)"]
    bucket = np.repeat(np.arange(duration), n_zones)
    zone = np.tile(np.arange(n_zones), duration)
    if not (np.array_equal(rows[:, 0], bucket) and np.array_equal(rows[:, 1], zone)):
        problems.append("features: rows are not ordered by (bucket_start_s, zone_id)")

    with open(schedule_path, encoding="utf-8") as handle:
        events = json.load(handle)
    expected = np.zeros((duration, n_zones), dtype=int)
    for event in events:
        start, end = event["start_s"], event["start_s"] + event["duration_s"]
        expected[max(start, 0) : min(end, duration), event["zone"]] = 1
    labels = rows[:, 8]
    if not np.array_equal(labels, expected.ravel()):
        problems.append(f"label: row {_first_bad(labels != expected.ravel())} disagrees with the schedule")
    prevalence = float(labels.mean())
    if not PREVALENCE_BAND[0] <= prevalence <= PREVALENCE_BAND[1]:
        problems.append(f"label: prevalence {prevalence:.4f} outside {PREVALENCE_BAND}")

    times, zones, speeds = _distinct_records(bsm_path)
    if len(times) and (times.max() >= duration or zones.max() >= n_zones or min(times.min(), zones.min()) < 0):
        return problems + ["records: time or zone outside the scenario"]
    key = times * n_zones + zones
    counts = np.bincount(key, minlength=n_rows).astype(float)
    speed_sum = np.bincount(key, weights=speeds, minlength=n_rows)
    if rows[:, 3].sum() != len(times):
        problems.append(f"cnt_z: total {rows[:, 3].sum():.0f} != {len(times)} distinct records")
    if not np.array_equal(rows[:, 3], counts):
        problems.append(f"cnt_z: row {_first_bad(rows[:, 3] != counts)} disagrees with the records")
    seen = counts > 0
    mean = np.divide(speed_sum, counts, out=np.zeros(n_rows), where=seen)
    bad = seen & ~(np.abs(rows[:, 2] - mean) <= SPEED_ATOL)
    if bad.any():
        problems.append(f"spd_z: row {_first_bad(bad)} is not the mean of its records' speeds")

    up, down = neighbours(n_zones)
    base = bucket * n_zones
    for column, other in ((4, up), (6, down)):
        source = base + other[zone]
        for offset, what in ((0, "spd"), (1, "cnt")):
            got, want = rows[:, column + offset], rows[source, 2 + offset]
            if not np.array_equal(got, want):
                name = FEATURE_HEADER.split(",")[column + offset]
                problems.append(f"{name}: row {_first_bad(got != want)} is not its neighbour's {what}_z")
    return problems


# -- ds1-train: an independent forward pass from the saved model JSON -------------

def _rx(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _cnot(n: int, control: int, target: int) -> np.ndarray:
    """Permutation matrix; qubit 0 is the most significant index bit."""
    dim = 2**n
    out = np.zeros((dim, dim))
    for src in range(dim):
        dst = src ^ (1 << (n - 1 - target)) if (src >> (n - 1 - control)) & 1 else src
        out[dst, src] = 1.0
    return out


def _ring(n: int) -> list[tuple[int, int]]:
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    return [(q, (q + 1) % n) for q in range(n)]


def _entangler(layer_weights) -> np.ndarray:
    """Dense unitary of one layer: RX(w_q) on every qubit, then the CNOT ring."""
    n = len(layer_weights)
    unitary = np.ones((1, 1))
    for angle in layer_weights:
        unitary = np.kron(unitary, _rx(angle))
    for control, target in _ring(n):
        unitary = _cnot(n, control, target) @ unitary
    return unitary


def circuit_expectations(inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """<Z_j> of the embed + entangler circuit for each row of ``inputs``.

    The embedding RX(x_q) on |0> is the product state with amplitudes
    (cos x_q/2, -i sin x_q/2) per qubit; the entangler layers are applied as
    dense matrices.
    """
    rows, n = inputs.shape
    state = np.ones((rows, 1), dtype=complex)
    for q in range(n):
        single = np.stack([np.cos(inputs[:, q] / 2), -1j * np.sin(inputs[:, q] / 2)], axis=1)
        state = (state[:, :, None] * single[:, None, :]).reshape(rows, -1)
    for layer_weights in weights:
        state = state @ _entangler(layer_weights).T
    index = np.arange(2**n)
    signs = np.stack([1.0 - 2.0 * ((index >> (n - 1 - q)) & 1) for q in range(n)], axis=1)
    return np.abs(state) ** 2 @ signs


def model_probabilities(doc: dict, features: np.ndarray) -> np.ndarray:
    """Incident probability of each row from a saved model document."""
    h = np.asarray(features, dtype=float)
    for layer in doc["layers"]:
        if layer["type"] == "dense":
            w = np.array(layer["weights"]).reshape(layer["out_dim"], layer["in_dim"])
            z = h @ w.T + np.array(layer["biases"])
            if layer["activation"] == "relu":
                h = np.maximum(z, 0.0)
            elif layer["activation"] == "sigmoid":
                h = 0.5 * (1.0 + np.tanh(0.5 * z))
            else:
                h = z
        else:
            weights = np.array(layer["weights"]).reshape(layer["n_entangler_layers"], layer["n_qubits"])
            h = circuit_expectations(h, weights)
    return h[:, 0]


def bce(probs: np.ndarray, labels: np.ndarray) -> float:
    p = np.clip(probs, BCE_EPS, 1.0 - BCE_EPS)
    return float(np.mean(-(labels * np.log(p) + (1.0 - labels) * np.log1p(-p))))


def check_probabilities(doc: dict, features, program_probs, program_labels) -> list[str]:
    """The program's probabilities and labels for ``features`` against the
    independent forward pass; rows within the tolerance of the threshold are
    not held to a label."""
    want = model_probabilities(doc, features)
    problems = []
    err = np.abs(np.asarray(program_probs, dtype=float) - want)
    if not np.all(err <= PROB_ATOL):
        problems.append(f"probability: max error {np.nanmax(err):.3e} > {PROB_ATOL:.0e}")
    threshold = doc["config"]["output_threshold"]
    decided = np.abs(want - threshold) > PROB_ATOL
    labels = (want >= threshold).astype(int)
    if not np.array_equal(np.asarray(program_labels)[decided], labels[decided]):
        problems.append("predict: labels differ from thresholded probabilities")
    return problems


def check_training(history: dict, initial_loss: float, final_loss: float) -> list[str]:
    """The epoch losses are finite and training lowered the loss."""
    losses = history.get("loss", [])
    if not losses or not all(math.isfinite(v) for v in losses):
        return [f"train: epoch losses {losses} not finite"]
    problems = []
    if not losses[-1] < initial_loss:
        problems.append(f"train: epoch loss {losses[-1]:.4f} not below the starting {initial_loss:.4f}")
    if not final_loss < initial_loss:
        problems.append(f"train: loss after training {final_loss:.4f} not below {initial_loss:.4f}")
    return problems


# -- ds3-experiment: the report against its own per-run counts -------------------

def metrics_from_counts(tp, fp, fn, tn) -> dict[str, float | None]:
    total = tp + fp + fn + tn
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    f2 = None
    if precision is not None and recall is not None and 4 * precision + recall > 0:
        f2 = 5 * precision * recall / (4 * precision + recall)
    return {
        "accuracy": (tp + tn) / total if total > 0 else None,
        "precision": precision,
        "recall": recall,
        "f2": f2,
    }


def _near(a, b, rel=1e-12) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_experiment(report: dict, split: str, models: list[str], n_runs: int, test_rows: int) -> list[str]:
    """Every aggregate in report.json recomputed from the per-run counts."""
    problems = []
    if len(report.get("splits", [])) != 1:
        return ["report: expected exactly one split"]
    doc = report["splits"][0]
    if (doc["split"], doc["n_runs"], doc["test_rows"]) != (split, n_runs, test_rows):
        problems.append(f"report: split header {doc['split']}/{doc['n_runs']}/{doc['test_rows']}")
    if [m["kind"] for m in doc["models"]] != models:
        problems.append(f"report: models {[m['kind'] for m in doc['models']]} != {models}")
    for entry in doc["models"]:
        kind, runs = entry["kind"], entry["per_run"]
        if len(runs) != n_runs:
            problems.append(f"{kind}: {len(runs)} per-run entries, expected {n_runs}")
            continue
        per_run = []
        for i, run in enumerate(runs):
            c = run["counts"]
            if sum(c[k] for k in ("tp", "fp", "fn", "tn")) != test_rows or min(c.values()) < 0:
                problems.append(f"{kind} run {i}: counts {c} do not sum to {test_rows}")
            own = metrics_from_counts(c["tp"], c["fp"], c["fn"], c["tn"])
            if not all(_near(run["metrics"][m], own[m]) for m in METRICS):
                problems.append(f"{kind} run {i}: metrics disagree with its counts")
            per_run.append(own)
        for k in ("tp", "fp", "fn", "tn"):
            mean = sum(run["counts"][k] for run in runs) / n_runs
            if not _near(entry["mean_counts"][k], mean):
                problems.append(f"{kind}: mean_counts.{k} {entry['mean_counts'][k]} != {mean}")
        for m in METRICS:
            defined = [own[m] for own in per_run if own[m] is not None]
            mean = sum(defined) / len(defined) if defined else None
            if entry["defined_runs"][m] != len(defined):
                problems.append(f"{kind}: defined_runs.{m} {entry['defined_runs'][m]} != {len(defined)}")
            if not _near(entry["mean_metrics"][m], mean):
                problems.append(f"{kind}: mean_metrics.{m} {entry['mean_metrics'][m]} != {mean}")
    return problems


# -- exit codes and the gradcheck suites --------------------------------------------

GRADCHECK_SUITES = ("forward-oracle", "parameter-shift", "hybrid-backprop")


def check_exit(command: str, code: int) -> list[str]:
    return [] if code == 0 else [f"{command}: exit code {code}"]


def check_gradcheck(stdout: str) -> list[str]:
    problems = []
    lines = stdout.splitlines()
    for suite in GRADCHECK_SUITES:
        if not any(line.startswith(f"{suite}: PASS") for line in lines):
            problems.append(f"gradcheck: no PASS line for {suite}")
    return problems
