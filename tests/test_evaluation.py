"""Confusion counting, metric formulas, run aggregation, comparison output."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qincident import cli, data, evaluation, model, nn

# confusion counts: run averages can be fractional, and zeros make metrics undefined
COUNT = st.one_of(
    st.just(0), st.integers(0, 2000), st.floats(0.0, 2000.0, allow_nan=False)
)


class TestConfusion:
    def test_perfect_predictions(self):
        counts = evaluation.confusion([1, 0, 1, 0], [1, 0, 1, 0])
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (2, 0, 0, 2)

    def test_all_negative_predictions(self):
        labels = [1] * 18 + [0] * 1232
        counts = evaluation.confusion([0] * 1250, labels)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (0, 0, 18, 1232)

    def test_mixed_enumeration(self):
        counts = evaluation.confusion([1, 0, 1, 0], [1, 1, 0, 0])
        assert (counts.tp, counts.fn, counts.fp, counts.tn) == (1, 1, 1, 1)

    def test_total_invariant(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 2, 500)
        labels = rng.integers(0, 2, 500)
        assert evaluation.confusion(preds, labels).total == 500

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluation.confusion([0, 1], [0])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=50))
    def test_counts_are_non_negative_and_sum_to_the_rows(self, pairs):
        preds, labels = [p for p, _ in pairs], [lab for _, lab in pairs]
        counts = evaluation.confusion(preds, labels)
        assert all(getattr(counts, name) >= 0 for name in evaluation.COUNT_NAMES)
        assert counts.total == len(pairs)
        assert counts.tp + counts.fn == sum(labels)


class TestMetrics:
    def test_fractional_averaged_counts(self):
        # 30-run mean counts with 569 test positives out of 30000 rows
        counts = evaluation.ConfusionCounts(tp=563, fp=8.3, fn=6, tn=30000 - 569 - 8.3)
        report = evaluation.metrics(counts)
        assert report.precision == pytest.approx(0.984, abs=2e-3)
        assert report.recall == pytest.approx(0.989, abs=2e-3)
        assert report.f2 == pytest.approx(0.987, abs=2e-3)
        assert report.accuracy == pytest.approx(0.999, abs=2e-3)

    def test_tiny_recall_case(self):
        counts = evaluation.ConfusionCounts(tp=1, fp=0, fn=17, tn=1232)
        report = evaluation.metrics(counts)
        assert report.precision == 1.0
        assert report.recall == pytest.approx(0.055, abs=1e-3)
        assert report.f2 == pytest.approx(0.068, abs=1e-3)

    def test_undefined_precision_and_f2(self):
        counts = evaluation.ConfusionCounts(tp=0, fp=0, fn=18, tn=1232)
        report = evaluation.metrics(counts)
        assert report.precision is None
        assert report.recall == 0.0
        assert report.f2 is None

    def test_f2_weighting_leans_to_recall(self):
        counts = evaluation.ConfusionCounts(tp=80, fp=40, fn=20, tn=860)
        report = evaluation.metrics(counts)
        lo, hi = sorted((report.precision, report.recall))
        assert lo < report.f2 < hi
        assert abs(report.f2 - report.recall) < abs(report.f2 - report.precision)

    def test_recall_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            tp, fp, fn, tn = rng.integers(0, 50, 4)
            if tp + fn == 0:
                continue
            report = evaluation.metrics(evaluation.ConfusionCounts(tp, fp, fn, tn))
            assert report.recall == pytest.approx(tp / (tp + fn))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(COUNT, min_size=4, max_size=4))
    def test_metric_identities(self, values):
        tp, fp, fn, tn = values
        report = evaluation.metrics(evaluation.ConfusionCounts(tp, fp, fn, tn))
        p, r = report.precision, report.recall
        assert (report.accuracy is None) == (tp + fp + fn + tn == 0)
        assert (p is None) == (tp + fp == 0)
        assert (r is None) == (tp + fn == 0)
        assert (report.f2 is None) == (p is None or r is None or 4 * p + r == 0)
        if report.accuracy is not None:
            assert report.accuracy * (tp + fp + fn + tn) == pytest.approx(tp + tn, rel=1e-12)
        if r is not None:
            assert r == tp / (tp + fn)
        if report.f2 is not None:
            assert report.f2 == pytest.approx(5 * p * r / (4 * p + r), rel=1e-12)


def tiny_split(seed=0, n_rows=84):
    """DS-1 of ``n_rows`` separable rows: the first 4/7 (48 of 84) train."""
    rng = np.random.default_rng(seed)
    features, labels = [], []
    for _ in range(n_rows):
        positive = rng.uniform() < 0.3
        base = [0.05, 0.4, 0.2, 0.8, 0.9, 0.1] if positive else [0.9, 0.4, 0.9, 0.4, 0.9, 0.4]
        features.append(rng.normal(base, 0.05))
        labels.append(int(positive))
    table = data.Dataset(
        np.arange(n_rows), np.zeros(n_rows, dtype=np.int64), np.array(features), np.array(labels)
    )
    return data.split(table, "DS-1")


class TestRunExperiment:
    def test_single_run_equals_aggregate(self):
        split = tiny_split()
        config = model.HybridModelConfig(kind="classical")
        tc = nn.TrainConfig(epochs=3, seed=0)
        agg = evaluation.run_experiment(config, split, tc, n_runs=1, base_seed=5)
        report = agg.per_run[0]
        assert agg.mean_counts == report.counts
        for name in evaluation.METRIC_NAMES:
            assert agg.mean_metrics[name] == report.metric(name)

    def test_deterministic(self):
        split = tiny_split()
        config = model.HybridModelConfig(kind="hybrid", n_qubits=2)
        tc = nn.TrainConfig(epochs=2, seed=0)
        a = evaluation.run_experiment(config, split, tc, n_runs=3, base_seed=1)
        b = evaluation.run_experiment(config, split, tc, n_runs=3, base_seed=1)
        assert a == b

    def test_mean_counts_can_be_fractional(self):
        split = tiny_split()
        config = model.HybridModelConfig(kind="classical")
        tc = nn.TrainConfig(epochs=2, seed=0)
        agg = evaluation.run_experiment(config, split, tc, n_runs=4, base_seed=0)
        mean_total = agg.mean_counts.total
        assert mean_total == pytest.approx(len(split.test_y))

    def test_mean_of_counts_equals_pooled_counts(self):
        split = tiny_split()
        config = model.HybridModelConfig(kind="classical")
        tc = nn.TrainConfig(epochs=2, seed=0)
        agg = evaluation.run_experiment(config, split, tc, n_runs=3, base_seed=0)
        pooled_tp = sum(r.counts.tp for r in agg.per_run)
        assert agg.mean_counts.tp == pytest.approx(pooled_tp / 3)

    @pytest.mark.parametrize("budget", [None, 1], ids=["default-groups", "groups-of-one"])
    @pytest.mark.parametrize("kind", ["classical", "hybrid"])
    def test_each_run_matches_its_model_trained_alone(self, monkeypatch, kind, budget):
        if budget is not None:
            monkeypatch.setattr(model, "_FORWARD_BYTES", budget)
        split = tiny_split()
        config = model.HybridModelConfig(kind=kind, n_qubits=2)
        agg = evaluation.run_experiment(config, split, nn.TrainConfig(epochs=2), n_runs=3, base_seed=4)
        assert agg.n_runs == 3
        for run, report in enumerate(agg.per_run):
            net = model.build_model(config, seed=4 + run)
            model.train(net, (split.train_x, split.train_y), nn.TrainConfig(epochs=2, seed=4 + run))
            preds = model.predict(net, split.test_x)
            assert report == evaluation.metrics(evaluation.confusion(preds, split.test_y))

    def test_memory_per_run_holds_no_row_of_predictions(self):
        # few train rows and many test rows: what a run costs beyond its
        # parameters, Adam moments, gradient and report is its predictions
        rng = np.random.default_rng(0)
        n_test = 16384
        split = data.DatasetSplit("DS-1", rng.uniform(0, 1, (8, 6)), np.array([0, 1] * 4),
                                  rng.uniform(0, 1, (n_test, 6)), rng.integers(0, 2, n_test))
        peaks = []
        for n_runs in (64, 256):
            tracemalloc.start()
            try:
                evaluation.run_experiment(model.HybridModelConfig(kind="classical"), split,
                                          nn.TrainConfig(epochs=1), n_runs=n_runs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # about 43 KiB a run measured (89 KiB with a gradient per step plan
        # and Adam's [R, P] work arrays), against one float64 a test row
        # (128 KiB); holding the population's probabilities and int64
        # predictions took 262 KiB a run
        assert (peaks[1] - peaks[0]) / 192 < 8 * n_test


class TestCompare:
    def make_aggs(self, n_models=2):
        split = tiny_split()
        tc = nn.TrainConfig(epochs=2, seed=0)
        configs = [
            model.HybridModelConfig(kind="classical"),
            model.HybridModelConfig(kind="hybrid", n_qubits=2),
            model.HybridModelConfig(kind="hybrid", n_qubits=4),
        ]
        return [
            evaluation.run_experiment(c, split, tc, n_runs=2, base_seed=0)
            for c in configs[:n_models]
        ]

    def test_single_model_table(self):
        doc, table = evaluation.compare(self.make_aggs(1))
        assert len(doc["models"]) == 1
        assert table.count("\n") == 3  # title, header, one row

    def test_column_order(self):
        _, table = evaluation.compare(self.make_aggs(1))
        header = table.splitlines()[1]
        assert header.split()[-7:] == ["TP", "FP", "FN", "Accuracy", "Precision", "Recall", "F2-score"]

    def test_nan_rendering(self):
        report = evaluation.metrics(evaluation.ConfusionCounts(0, 0, 5, 95))
        agg = evaluation.RunAggregate("classical", "DS-3", 10, 100, 0, [report])
        _, table = evaluation.compare([agg])
        row = table.splitlines()[-1]
        assert "NaN" in row

    def test_aggregates_of_one_split_agree_on_what_compare_reports(self):
        # compare reads these from its first aggregate; run_experiment sets them alike
        aggs = self.make_aggs(3)
        shared = [(a.split_name, a.train_size, a.test_size, a.n_runs, a.base_seed) for a in aggs]
        assert shared == [shared[0]] * 3
        doc, _ = evaluation.compare(aggs)
        assert (doc["split"], doc["n_runs"]) == (aggs[0].split_name, 2)

    def test_json_document_shape(self):
        doc, _ = evaluation.compare(self.make_aggs(2))
        assert doc["split"] == "DS-1"
        assert doc["n_runs"] == 2
        model_doc = doc["models"][0]
        assert set(model_doc) == {"kind", "mean_counts", "mean_metrics", "defined_runs", "per_run"}
        assert set(model_doc["mean_counts"]) == {"tp", "fp", "fn", "tn"}


class TestRunAggregate:
    def test_defined_runs_counts_exclusions(self):
        defined = evaluation.metrics(evaluation.ConfusionCounts(5, 2, 1, 92))
        undefined = evaluation.metrics(evaluation.ConfusionCounts(0, 0, 6, 94))
        agg = evaluation.RunAggregate("m", "DS-3", 10, 100, 0, [defined, undefined])
        assert agg.n_runs == 2
        assert agg.defined_runs["precision"] == 1
        assert agg.defined_runs["recall"] == 2
        assert agg.mean_metrics["precision"] == defined.precision


class TestReport:
    """The report ``qincident experiment`` writes, checked against itself: every
    model's means and defined-run counts recomputed from its own per-run entries."""

    def test_means_and_table_rows_follow_the_per_run_entries(self, tmp_path):
        out = tmp_path / "exp"
        args = ["experiment", "--splits", "DS-3", "--models", "classical,hybrid-4q",
                "--runs", "30", "--seed", "0", "--out", str(out)]
        assert cli.main(args) == cli.EXIT_OK
        doc = json.loads((out / "report.json").read_text())["splits"][0]
        table = (out / "tables.txt").read_text().splitlines()[2:]
        rows = {line.split()[0]: line.split()[1:] for line in table}
        assert [entry["kind"] for entry in doc["models"]] == ["classical", "hybrid-4q"]
        count_names, metric_names = ("tp", "fp", "fn", "tn"), evaluation.METRIC_NAMES
        for entry in doc["models"]:
            runs = entry["per_run"]
            assert len(runs) == doc["n_runs"] == 30
            for run in runs:
                report = evaluation.metrics(evaluation.ConfusionCounts(**run["counts"]))
                assert run["metrics"] == {name: report.metric(name) for name in metric_names}
            counts = {k: float(np.mean([run["counts"][k] for run in runs])) for k in count_names}
            defined = {
                name: [run["metrics"][name] for run in runs if run["metrics"][name] is not None]
                for name in metric_names
            }
            means = {name: float(np.mean(v)) if v else None for name, v in defined.items()}
            assert entry["mean_counts"] == counts
            assert entry["defined_runs"] == {name: len(v) for name, v in defined.items()}
            assert entry["mean_metrics"] == means
            shown = [f"{counts[k]:.1f}" if counts[k] % 1 else f"{counts[k]:g}" for k in count_names[:3]]
            shown += ["NaN" if means[name] is None else f"{means[name]:.3f}" for name in metric_names]
            assert rows[entry["kind"]] == shown
        assert doc["models"][1]["defined_runs"]["f2"] == 30 - 19  # 19 hybrid runs predict no positive
