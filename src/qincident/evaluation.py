"""Confusion counting, the incident-detection metric set (accuracy,
precision, recall, F2), and the repeated-run comparison harness.

``RunAggregate`` computes both averaging views from its per-run reports:
counts are averaged as plain means (possibly fractional), while each metric
mean is taken over the runs where it is defined, with the defined-run count
recorded.  ``compare`` renders the aggregates of one split as the JSON
document and the text table in one pass.  An undefined metric (zero
denominator) is kept as ``None`` in reports and rendered as ``NaN`` in tables.

The runs of one (model, split) train as one population
(``model.build_population``): they share every batch, and run r is the
model of seed base_seed + r, bit for bit as if it had trained alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace as dc_replace

import numpy as np

from . import data, model as model_mod, nn

COUNT_NAMES = ("tp", "fp", "fn", "tn")
METRIC_NAMES = ("accuracy", "precision", "recall", "f2")


@dataclass(frozen=True)
class ConfusionCounts:
    """2x2 confusion table; fractional values appear in run averages."""

    tp: float
    fp: float
    fn: float
    tn: float

    def __post_init__(self):
        for name in COUNT_NAMES:
            if (value := getattr(self, name)) < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    @property
    def total(self) -> float:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricsReport:
    counts: ConfusionCounts
    accuracy: float | None
    precision: float | None
    recall: float | None
    f2: float | None

    def metric(self, name: str) -> float | None:
        return getattr(self, name)


def confusion(predictions, labels) -> ConfusionCounts:
    """Standard 2x2 counts from parallel 0/1 sequences."""
    preds = np.asarray(predictions, dtype=int)
    labs = np.asarray(labels, dtype=int)
    if preds.shape != labs.shape:
        raise ValueError(f"length mismatch: {preds.shape} predictions vs {labs.shape} labels")
    tp = int(np.sum((preds == 1) & (labs == 1)))
    fp = int(np.sum((preds == 1) & (labs == 0)))
    fn = int(np.sum((preds == 0) & (labs == 1)))
    tn = int(np.sum((preds == 0) & (labs == 0)))
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def metrics(counts: ConfusionCounts) -> MetricsReport:
    """accuracy, precision, recall and F2 = 5PR/(4P+R); undefined -> None."""
    accuracy = (counts.tp + counts.tn) / counts.total if counts.total > 0 else None
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp > 0 else None
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn > 0 else None
    f2 = None
    if precision is not None and recall is not None and 4 * precision + recall > 0:
        f2 = 5 * precision * recall / (4 * precision + recall)
    return MetricsReport(counts, accuracy, precision, recall, f2)


@dataclass
class RunAggregate:
    """Per-run reports plus both averaging views for one (model, split);
    ``n_runs`` and the views are computed from ``per_run``."""

    model_label: str
    split_name: str
    train_size: int
    test_size: int
    base_seed: int
    per_run: list[MetricsReport]
    n_runs: int = field(init=False)
    mean_counts: ConfusionCounts = field(init=False)
    mean_metrics: dict[str, float | None] = field(init=False)
    defined_runs: dict[str, int] = field(init=False)

    def __post_init__(self):
        if not self.per_run:
            raise ValueError("need at least one run")
        self.n_runs = len(self.per_run)
        self.mean_counts = ConfusionCounts(
            *(float(np.mean([getattr(r.counts, n) for r in self.per_run])) for n in COUNT_NAMES)
        )
        self.mean_metrics, self.defined_runs = {}, {}
        for name in METRIC_NAMES:
            values = [r.metric(name) for r in self.per_run if r.metric(name) is not None]
            self.defined_runs[name] = len(values)
            self.mean_metrics[name] = float(np.mean(values)) if values else None


def run_experiment(
    model_config: model_mod.HybridModelConfig,
    split: data.DatasetSplit,
    train_config: nn.TrainConfig,
    n_runs: int = 30,
    base_seed: int = 0,
) -> RunAggregate:
    """Train/evaluate ``n_runs`` fresh models, seeds base_seed .. base_seed+n-1.

    The runs train as one population, each with its own seed for both
    initialization and training (``train_config.seed`` is replaced), and
    each run's confusion counts come from its row of its group's predictions.
    """
    population = model_mod.build_population(model_config, base_seed, n_runs)
    model_mod.train(
        population, (split.train_x, split.train_y), dc_replace(train_config, seed=base_seed)
    )
    return RunAggregate(
        model_label=model_config.label,
        split_name=split.name,
        train_size=len(split.train_y),
        test_size=len(split.test_y),
        base_seed=base_seed,
        per_run=[metrics(confusion(row, split.test_y))
                 for group in model_mod.run_groups(population, len(split.test_y))
                 for row in model_mod.predict(group, split.test_x)],
    )


# -- comparison output -----------------------------------------------------------

TABLE_COLUMNS = ("TP", "FP", "FN", "Accuracy", "Precision", "Recall", "F2-score")
# the fields every aggregate of one comparison must agree on
SHARED_FIELDS = ("split_name", "train_size", "test_size", "n_runs", "base_seed")


def _format_count(value: float) -> str:
    return f"{value:g}" if float(value) == int(value) else f"{value:.1f}"


def _format_metric(value: float | None) -> str:
    return "NaN" if value is None else f"{value:.3f}"


def compare(aggregates: list[RunAggregate]) -> tuple[dict, str]:
    """Comparison of all models on one split: (JSON document, aligned table)."""
    first = aggregates[0]
    for agg in aggregates[1:]:
        if any(getattr(agg, name) != getattr(first, name) for name in SHARED_FIELDS):
            raise ValueError(
                f"{agg.model_label} and {first.model_label} differ in one of {SHARED_FIELDS}"
            )

    doc = {
        "split": first.split_name,
        "n_runs": first.n_runs,
        "base_seed": first.base_seed,
        "train_rows": first.train_size,
        "test_rows": first.test_size,
        "models": [],
    }
    rows = [("Incident Detection Model",) + TABLE_COLUMNS]
    for agg in aggregates:
        doc["models"].append(
            {
                "kind": agg.model_label,
                "mean_counts": asdict(agg.mean_counts),
                "mean_metrics": agg.mean_metrics,
                "defined_runs": agg.defined_runs,
                "per_run": [
                    {"counts": asdict(r.counts), "metrics": {n: r.metric(n) for n in METRIC_NAMES}}
                    for r in agg.per_run
                ],
            }
        )
        counts = (_format_count(getattr(agg.mean_counts, n)) for n in COUNT_NAMES[:3])
        scores = (_format_metric(agg.mean_metrics[n]) for n in METRIC_NAMES)
        rows.append((agg.model_label, *counts, *scores))
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = [f"Comparison of Model Performance for {first.split_name}"]
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return doc, "\n".join(lines) + "\n"
