"""The four workloads.

Each enters the program only through the ``qincident`` command line
(``cli.main``) or through the model calls the acceptance suite makes
(``model.build_model``, ``model.train`` on a ``(features, labels)`` pair,
``model.predict``).  The ds1-train checks also read ``model.forward`` and
``model.save_model`` to compare the program's probabilities with an
independent forward pass over the saved JSON.

A workload has a set-up (``setup``, repeated ``setup_repeats`` times), a
round of timed operations (``run_ops``), and checks on a round's outputs
(``check``), which run outside the timed region.  Set-ups run the program in
child processes, so the measuring process's peak memory belongs to the
rounds.  Modules are looked up at call time, so a traced run sees the
tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import checks

N_ZONES = 56
PER_SECOND_S = 1250
DS1_TRAIN_ROWS = 40000
DS1_TEST_ROWS = 30000
# epochs per model, chosen so that each model's training is about half the round
DS1_EPOCHS = {"classical": 4, "hybrid-4q": 1}
DS3_TEST_ROWS = 1250
DS3_RUNS = 30
DS3_MODELS = ["classical", "hybrid-4q"]
GRADCHECK_SEED = 0  # other seeds trip a known fault in the hybrid-backprop suite
ORACLE_SAMPLE = 256


class Op:
    """One timed operation of a round: its wall time and, if it did not
    complete, why."""

    def __init__(self, name: str):
        self.name = name
        self.start = self.end = 0.0  # time.perf_counter() at both ends
        self.seconds = 0.0
        self.error: str | None = None
        self.problems: list[str] = []

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)

    def run(self, func, *args):
        self.start = time.perf_counter()
        try:
            return func(*args)
        except Exception as exc:  # an operation that raises counts as failed
            self.error = f"{type(exc).__name__}: {exc}"
            return None
        finally:
            self.end = time.perf_counter()
            self.seconds = self.end - self.start


def call_cli(argv: list[str]) -> tuple[int, str]:
    """``qincident <argv>`` in this process: (exit code, standard output)."""
    from qincident import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def run_python(args: list[str]) -> None:
    """A fresh interpreter with the package's sources on its path, as a
    ``qincident`` invocation starts; raises if it exits nonzero."""
    import qincident

    src = os.path.dirname(os.path.dirname(os.path.abspath(qincident.__file__)))
    proc = subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up {args} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def cli_op(name: str, argv: list[str]) -> tuple[Op, str]:
    """One ``qincident`` command as a timed operation; a nonzero exit code
    fails it.  Returns the operation and the command's standard output."""
    op = Op(name)
    result = op.run(call_cli, argv)
    if result is None:
        return op, ""
    op.problems = checks.check_exit(name, result[0])
    return op, result[1]


def gen_and_features(seed: int, out_dir: str) -> tuple[Op, Op, dict]:
    """``qincident gen`` then ``qincident features --bucket 1`` on its output."""
    paths = {
        "bsm": os.path.join(out_dir, "bsm.csv"),
        "schedule": os.path.join(out_dir, "schedule.json"),
        "features": os.path.join(out_dir, "features.csv"),
    }
    gen, _ = cli_op("gen", [
        "gen", "--zones", str(N_ZONES), "--duration", str(PER_SECOND_S),
        "--seed", str(seed), "--out", out_dir,
    ])
    if gen.failed:
        feats = Op("features")
        feats.error = "skipped: gen failed"
        return gen, feats, paths
    feats, _ = cli_op("features", [
        "features", "--bsm", paths["bsm"], "--schedule", paths["schedule"],
        "--bucket", "1", "--out", paths["features"],
    ])
    return gen, feats, paths


class Workload:
    name = ""
    min_rounds = 1
    setup_repeats = 15

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.first: dict = {}
        self.rounds_started = 0

    def setup(self) -> None:
        """Make the inputs the rounds need, from nothing but the seed.  Here
        that is only what every ``qincident`` call pays: a fresh interpreter
        importing the command line."""
        os.makedirs(self.work_dir, exist_ok=True)
        run_python(["-c", "import qincident.cli"])

    def round_dir(self) -> str:
        """A fresh output directory per round, so that every round's outputs
        stay on disk until they are checked."""
        path = os.path.join(self.work_dir, f"round-{self.rounds_started}")
        self.rounds_started += 1
        os.makedirs(path)
        return path

    def run_ops(self) -> tuple[list[Op], object]:
        raise NotImplementedError

    def check(self, index: int, ops: list[Op], outputs) -> None:
        """Record problems on the ops; round 0 is checked against independent
        recomputations, later rounds against round 0 (same inputs, so the
        program must give the same outputs)."""
        raise NotImplementedError

    def details(self, rounds: list[list[Op]]) -> dict:
        return {f"{op.name}_s": float(np.median([r[i].seconds for r in rounds]))
                for i, op in enumerate(rounds[0])}


class Pipeline(Workload):
    name = "pipeline"

    def run_ops(self):
        gen, feats, paths = gen_and_features(self.seed, self.round_dir())
        return [gen, feats], paths

    def check(self, index, ops, paths):
        if any(op.failed for op in ops):
            return
        digest = _digest(paths["bsm"], paths["schedule"], paths["features"])
        if index == 0:
            self.first["digest"] = digest
            ops[1].problems += checks.check_pipeline(
                paths["bsm"], paths["schedule"], paths["features"], N_ZONES, PER_SECOND_S
            )
        elif digest != self.first["digest"]:
            ops[1].problems.append("pipeline: outputs differ from the first round's")


def _ds1_configs():
    from qincident import model

    return (
        ("classical", model.HybridModelConfig(kind="classical")),
        ("hybrid-4q", model.HybridModelConfig(kind="hybrid", n_qubits=4)),
    )


class Ds1Train(Workload):
    """Runs by hand only: BENCHMARK.json leaves it out because its runs
    would not fit in the time limit of a full pass (bench/README.md)."""

    name = "ds1-train"
    min_rounds = 2
    setup_repeats = 3

    def setup(self):
        """The DS-1 split from the feature CSV of ``qincident gen`` and
        ``qincident features``, each run as its own process: the first 40,000
        rows train, the next 30,000 test, min-max scaled on the training
        rows."""
        out_dir = os.path.join(self.work_dir, "setup")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        features = os.path.join(out_dir, "features.csv")
        run_python(["-m", "qincident.cli", "gen", "--zones", str(N_ZONES), "--duration", str(PER_SECOND_S),
                    "--seed", str(self.seed), "--out", out_dir])
        run_python(["-m", "qincident.cli", "features", "--bsm", os.path.join(out_dir, "bsm.csv"),
                    "--schedule", os.path.join(out_dir, "schedule.json"), "--bucket", "1", "--out", features])
        rows = checks.read_features(features)
        if len(rows) != DS1_TRAIN_ROWS + DS1_TEST_ROWS:
            raise RuntimeError(f"set-up: {len(rows)} feature rows")
        x, y = rows[:, 2:8], rows[:, 8]
        lo, hi = x[:DS1_TRAIN_ROWS].min(axis=0), x[:DS1_TRAIN_ROWS].max(axis=0)
        span = hi - lo
        x = np.where(span > 0, (x - lo) / np.where(span > 0, span, 1.0), 0.0)
        self.train = (x[:DS1_TRAIN_ROWS], y[:DS1_TRAIN_ROWS])
        self.test_x = x[DS1_TRAIN_ROWS:]

    def run_ops(self):
        from qincident import model, nn

        ops, nets = [], {}

        def train(label, config):
            net = model.build_model(config, seed=self.seed)
            train_config = nn.TrainConfig(epochs=DS1_EPOCHS[label], batch_size=16,
                                          learning_rate=0.001, seed=self.seed)
            return model.train(net, self.train, train_config)

        for label, config in _ds1_configs():
            op = Op(f"train.{label}")
            nets[label] = op.run(train, label, config)
            ops.append(op)
        preds = {}
        for label, _ in _ds1_configs():
            op = Op(f"predict.{label}")
            if nets[label] is None:
                op.error = "skipped: training failed"
            else:
                preds[label] = op.run(model.predict, nets[label], self.test_x)
            ops.append(op)
        return ops, (nets, preds)

    def check(self, index, ops, outputs):
        from qincident import model

        nets, preds = outputs
        by_name = {op.name: op for op in ops}
        for label, config in _ds1_configs():
            train_op, predict_op = by_name[f"train.{label}"], by_name[f"predict.{label}"]
            if train_op.failed or predict_op.failed:
                continue
            net, pred = nets[label], np.asarray(preds[label])
            if index > 0:
                first_pred, first_loss = self.first[label]
                if not np.array_equal(pred, first_pred):
                    predict_op.problems.append("predict: differs from the first round's at the same seed")
                if net.history["loss"] != first_loss:
                    train_op.problems.append("train: loss history differs from the first round's")
                continue
            self.first[label] = (pred, list(net.history["loss"]))
            initial = self._saved(model.build_model(config, seed=self.seed), f"{label}-initial")
            trained = self._saved(net, label)
            x, y = self.train
            train_op.problems += checks.check_training(
                net.history,
                checks.bce(checks.model_probabilities(initial, x), y),
                checks.bce(checks.model_probabilities(trained, x), y),
            )
            rng = np.random.default_rng([self.seed, 1])
            sample = np.sort(rng.choice(len(self.test_x), ORACLE_SAMPLE, replace=False))
            predict_op.problems += checks.check_probabilities(
                trained, self.test_x[sample], model.forward(net, self.test_x[sample]), pred[sample]
            )

    def _saved(self, net, name: str) -> dict:
        from qincident import model

        path = os.path.join(self.work_dir, f"model-{name}.json")
        model.save_model(net, path)
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def details(self, rounds):
        out = {}
        for i, op in enumerate(rounds[0]):
            seconds = float(np.median([r[i].seconds for r in rounds]))
            kind, label = op.name.split(".")
            if kind == "train":
                out[f"train_samples_per_s.{label}"] = DS1_TRAIN_ROWS * DS1_EPOCHS[label] / seconds
            else:
                out[f"infer_rows_per_s.{label}"] = DS1_TEST_ROWS / seconds
        return out


class Ds3Experiment(Workload):
    name = "ds3-experiment"
    min_rounds = 2

    def run_ops(self):
        # the report records --out, so every round writes to the same place
        # and its bytes are kept for the checks
        out_dir = os.path.join(self.work_dir, "exp")
        op, _ = cli_op("experiment", [
            "experiment", "--splits", "DS-3", "--models", ",".join(DS3_MODELS),
            "--runs", str(DS3_RUNS), "--seed", str(self.seed), "--out", out_dir,
        ])
        if op.failed:
            return [op], b""
        with open(os.path.join(out_dir, "report.json"), "rb") as handle:
            return [op], handle.read()

    def check(self, index, ops, raw):
        op = ops[0]
        if op.failed:
            return
        if index == 0:
            self.first["report"] = raw
            op.problems += checks.check_experiment(json.loads(raw), "DS-3", DS3_MODELS, DS3_RUNS, DS3_TEST_ROWS)
        elif raw != self.first["report"]:
            op.problems.append("experiment: report.json differs from the first round's")


class Verify(Workload):
    name = "verify"
    min_rounds = 2

    def run_ops(self):
        op, stdout = cli_op("gradcheck", ["gradcheck", "--seed", str(GRADCHECK_SEED)])
        return [op], stdout

    def check(self, index, ops, stdout):
        if not ops[0].failed:
            ops[0].problems += checks.check_gradcheck(stdout)


WORKLOADS = {w.name: w for w in (Pipeline, Ds1Train, Ds3Experiment, Verify)}
