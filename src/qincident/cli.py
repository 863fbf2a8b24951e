"""Command-line driver.

Subcommands:

* ``gen``        write a synthetic vehicle-record CSV plus its incident schedule
* ``features``   turn a record CSV + schedule into a labeled feature CSV
* ``experiment`` run the full (splits x models x runs) comparison, write reports
* ``gradcheck``  verify the quantum oracle, parameter-shift and backprop suites

Every command is deterministic given its flags; the seed defaults to the
``QINC_SEED`` environment variable, then 0.  Exit codes: 0 success,
1 verification or run failure, 2 usage error, 3 I/O or parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import asdict, dataclass

from . import data, evaluation, gradcheck, model as model_mod, nn, scenario
from .errors import ConfigError, DataError, FormatError, ParseError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

SPLIT_NAMES = ("DS-1", "DS-2", "DS-3")
MODEL_NAMES = ("classical", "hybrid-2q", "hybrid-4q")


# what each ExperimentConfig annotation accepts (a config file gives lists)
_VALUE_TYPES = {
    "int": int,
    "float": (int, float),
    "str": str,
    "int | None": (int, type(None)),
    "str | None": (str, type(None)),
    "tuple[str, ...]": (tuple, list),
}


@dataclass
class ExperimentConfig:
    zones: int = 56
    duration_s: int = 1250
    ds3_duration_s: int = 1500  # per-minute rows then number zones * 25
    seed: int = 0
    n_incidents: int | None = None
    schedule_path: str | None = None
    splits: tuple[str, ...] = SPLIT_NAMES
    models: tuple[str, ...] = MODEL_NAMES
    n_runs: int = 30
    epochs: int = 20
    batch_size: int = 16
    learning_rate: float = 0.001
    jobs: int = 1
    out_dir: str = "out"

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _VALUE_TYPES[f.type]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        self.splits = tuple(self.splits)
        self.models = tuple(self.models)
        if not self.splits or any(s not in SPLIT_NAMES for s in self.splits):
            raise ConfigError(f"splits must be a non-empty subset of {SPLIT_NAMES}")
        if not self.models or any(m not in MODEL_NAMES for m in self.models):
            raise ConfigError(f"models must be a non-empty subset of {MODEL_NAMES}")
        if self.n_runs < 1 or self.jobs < 1:
            raise ConfigError("n_runs and jobs must be >= 1")


def _model_config(name: str) -> model_mod.HybridModelConfig:
    if name == "classical":
        return model_mod.HybridModelConfig(kind="classical")
    qubits = int(name.split("-")[1].rstrip("q"))
    return model_mod.HybridModelConfig(kind="hybrid", n_qubits=qubits)


def _default_seed() -> int:
    return int(os.environ.get("QINC_SEED", "0"))


# -- subcommands --------------------------------------------------------------

def cmd_gen(args) -> int:
    config = scenario.ScenarioConfig(
        n_zones=args.zones, duration_s=args.duration, seed=args.seed
    )
    events = (
        scenario.default_schedule(config, n_incidents=args.incidents)
        if args.schedule is None
        else scenario.read_schedule_json(args.schedule)
    )
    config = dataclasses.replace(config, incidents=tuple(events))
    records, _ = scenario.generate(config)
    os.makedirs(args.out, exist_ok=True)
    bsm_path = os.path.join(args.out, "bsm.csv")
    schedule_path = os.path.join(args.out, "schedule.json")
    data.write_bsm_csv(records, bsm_path)
    scenario.write_schedule_json(events, schedule_path)
    print(f"wrote {bsm_path} ({len(records)} records) and {schedule_path} ({len(events)} incidents)")
    # the config keeps every incident inside the zones x seconds grid, so
    # the schedule alone gives the labeled rows' count and prevalence
    n_rows = config.n_zones * config.duration_s
    prevalence = scenario._positive_rows(events, config.duration_s, 1) / n_rows
    print(f"feature rows: {n_rows}  positive prevalence: {prevalence:.4f}")
    return EXIT_OK


def cmd_features(args) -> int:
    records = data.read_bsm_csv(args.bsm)
    if args.schedule is None:
        print("warning: no schedule given, all labels will be 0", file=sys.stderr)
        events = []
    else:
        events = scenario.read_schedule_json(args.schedule)
    n_zones = int(records.zone.max()) + 1 if len(records) else 0
    table = data.build_dataset(records, events, n_zones, args.bucket)
    data.write_feature_csv(table, args.out)
    prevalence = table.labels.sum() / len(table) if len(table) else 0.0
    print(f"wrote {args.out}: {len(table)} rows, prevalence {prevalence:.4f}")
    return EXIT_OK


def _experiment_config(args) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except ValueError as exc:
                raise FormatError(f"{args.config}: invalid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise FormatError(f"{args.config}: expected a JSON object")
        known = {f.name for f in dataclasses.fields(ExperimentConfig)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ConfigError(f"{args.config}: unknown config keys {unknown}")
        values.update(doc)
    overrides = {
        "zones": args.zones,
        "duration_s": args.duration,
        "seed": args.seed,
        "n_incidents": args.incidents,
        "splits": tuple(args.splits.split(",")) if args.splits else None,
        "models": tuple(args.models.split(",")) if args.models else None,
        "n_runs": args.runs,
        "epochs": args.epochs,
        "batch_size": args.batch,
        "learning_rate": args.lr,
        "jobs": args.jobs,
        "out_dir": args.out,
    }
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    return ExperimentConfig(**values)


def _build_splits(config: ExperimentConfig) -> dict[str, data.DatasetSplit]:
    schedule = None  # synthetic_dataset then places the default schedule
    if config.schedule_path:
        schedule = tuple(scenario.read_schedule_json(config.schedule_path))

    def dataset(duration_s: int, bucket_seconds: int) -> data.Dataset:
        corridor = scenario.ScenarioConfig(
            n_zones=config.zones, duration_s=duration_s, seed=config.seed, incidents=schedule
        )
        return scenario.synthetic_dataset(corridor, bucket_seconds, n_incidents=config.n_incidents)

    splits: dict[str, data.DatasetSplit] = {}
    if "DS-1" in config.splits or "DS-2" in config.splits:
        per_second = dataset(config.duration_s, bucket_seconds=1)
        for name in ("DS-1", "DS-2"):
            if name in config.splits:
                splits[name] = data.split(per_second, name)
    if "DS-3" in config.splits:
        splits["DS-3"] = data.split(dataset(config.ds3_duration_s, bucket_seconds=60), "DS-3")
    return splits


def cmd_experiment(args) -> int:
    config = _experiment_config(args)
    train_config = nn.TrainConfig(
        epochs=config.epochs,
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
        seed=config.seed,
    )
    os.makedirs(config.out_dir, exist_ok=True)
    report: dict = {"config": asdict(config), "splits": []}
    tables: list[str] = []
    try:
        splits = _build_splits(config)
        for split_name in config.splits:
            split = splits[split_name]
            aggregates = [
                evaluation.run_experiment(
                    _model_config(name),
                    split,
                    train_config,
                    n_runs=config.n_runs,
                    base_seed=config.seed,
                    jobs=config.jobs,
                )
                for name in config.models
            ]
            doc, table = evaluation.compare(aggregates)
            report["splits"].append(doc)
            tables.append(table)
            print(table)
    except Exception as exc:  # flush whatever finished, then re-raise
        report["partial"] = True
        report["error"] = f"{type(exc).__name__}: {exc}"
        _write_report(config.out_dir, report, tables)
        raise
    _write_report(config.out_dir, report, tables)
    print(f"report written to {os.path.join(config.out_dir, 'report.json')}")
    return EXIT_OK


def _write_report(out_dir: str, report: dict, tables: list[str]) -> None:
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    with open(os.path.join(out_dir, "tables.txt"), "w", encoding="utf-8") as handle:
        handle.write("\n".join(tables))


def cmd_gradcheck(args) -> int:
    results = gradcheck.run_all(seed=args.seed, corrupt=args.corrupt)
    for result in results:
        print(result.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


# -- argument parsing -----------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qincident",
        description="Hybrid quantum-classical incident detection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic scenario")
    gen.add_argument("--zones", type=int, default=56)
    gen.add_argument("--duration", type=int, default=1250, help="seconds")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--incidents", type=int, default=None, help="incident count (default: auto)")
    gen.add_argument("--schedule", default=None, help="use this schedule JSON instead")
    gen.add_argument("--out", default="out", help="output directory")
    gen.set_defaults(func=cmd_gen)

    feats = sub.add_parser("features", help="build labeled feature rows from records")
    feats.add_argument("--bsm", required=True, help="vehicle record CSV")
    feats.add_argument("--schedule", default=None, help="incident schedule JSON")
    feats.add_argument("--bucket", type=int, choices=(1, 60), default=1)
    feats.add_argument("--out", default="features.csv")
    feats.set_defaults(func=cmd_features)

    exp = sub.add_parser("experiment", help="run the splits x models comparison")
    exp.add_argument("--config", default=None, help="ExperimentConfig JSON file")
    exp.add_argument("--zones", type=int, default=None)
    exp.add_argument("--duration", type=int, default=None, help="per-second scenario seconds")
    exp.add_argument("--seed", type=int, default=None)
    exp.add_argument("--incidents", type=int, default=None)
    exp.add_argument("--splits", default=None, help="comma list from DS-1,DS-2,DS-3")
    exp.add_argument("--models", default=None, help="comma list from classical,hybrid-2q,hybrid-4q")
    exp.add_argument("--runs", type=int, default=None)
    exp.add_argument("--epochs", type=int, default=None)
    exp.add_argument("--batch", type=int, default=None)
    exp.add_argument("--lr", type=float, default=None)
    exp.add_argument("--jobs", type=int, default=None)
    exp.add_argument("--out", default=None)
    exp.set_defaults(func=cmd_experiment)

    grad = sub.add_parser("gradcheck", help="run the gradient verification suites")
    grad.add_argument("--seed", type=int, default=None)
    grad.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    grad.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is None:
        try:
            args.seed = _default_seed()
        except ValueError:
            parser.error(f"QINC_SEED must be an integer, got {os.environ['QINC_SEED']!r}")
    try:
        return args.func(args)
    except (ParseError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, DataError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
