"""Command-line driver.

Subcommands:

* ``gen``        write a synthetic vehicle-record CSV plus its incident schedule
* ``features``   turn a record CSV + schedule into a labeled feature CSV
* ``experiment`` run the full (splits x models x runs) comparison, write reports
* ``gradcheck``  verify the quantum oracle, parameter-shift and backprop suites

Every command is deterministic given its flags; the seed is ``--seed``,
else (``experiment``) the config file's, else 0.  Exit codes: 0 success,
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
EXIT_IO = 3

SPLIT_NAMES = tuple(data.SPLIT_SIZES)
# the models by their labels: classical, hybrid-2q, hybrid-4q
MODELS = {
    config.label: config
    for config in (model_mod.HybridModelConfig(kind="classical"),
                   model_mod.HybridModelConfig(n_qubits=2), model_mod.HybridModelConfig(n_qubits=4))
}


# what each ExperimentConfig annotation accepts (a config file gives lists)
_VALUE_TYPES = {
    "int": int,
    "float": (int, float),
    "str": str,
    "int | None": (int, type(None)),
    "str | None": (str, type(None)),
    "tuple[str, ...]": (tuple, list),
}


# the least value of each integer field that nn.TrainConfig does not check;
# n_incidents None means auto
_MINIMUMS = {"zones": 1, "duration_s": 1, "ds3_duration_s": 1, "seed": 0, "n_incidents": 0, "n_runs": 1}

# The most runs an experiment may ask for.  A split's runs train as one
# population, so its parameters, two Adam moments, one gradient, step
# buffers and quantum gradients grow linearly with ``n_runs``, and this caps
# them; Adam's work and the predictions go a block or a run group at a time,
# within byte budgets that do not grow with the runs.
MAX_RUNS = 1024


@dataclass
class ExperimentConfig:
    zones: int = 56
    duration_s: int = 1250
    ds3_duration_s: int = 1500  # per-minute rows then number zones * 25
    seed: int = 0
    n_incidents: int | None = None
    schedule_path: str | None = None
    splits: tuple[str, ...] = SPLIT_NAMES
    models: tuple[str, ...] = tuple(MODELS)
    n_runs: int = 30
    epochs: int = 20
    batch_size: int = 16
    learning_rate: float = 0.001
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
        # a name that is not a string could not be looked up in MODELS
        if not self.models or any(not isinstance(m, str) or m not in MODELS for m in self.models):
            raise ConfigError(f"models must be a non-empty subset of {tuple(MODELS)}")
        for name in ("splits", "models"):
            names = getattr(self, name)
            repeated = [n for i, n in enumerate(names) if n in names[:i]]
            if repeated:
                raise ConfigError(f"{name} must not repeat a name, got {repeated[0]!r} twice")
        for name, least in _MINIMUMS.items():
            value = getattr(self, name)
            if value is not None and value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
        if self.n_runs > MAX_RUNS:
            raise ConfigError(f"n_runs must be <= {MAX_RUNS} (cli.MAX_RUNS), got {self.n_runs}")
        if self.schedule_path is not None and self.n_incidents is not None:
            raise ConfigError(
                "schedule_path and n_incidents are exclusive: a schedule file fixes the incidents"
            )


def _seed(text: str) -> int:
    """A seed argument: a non-negative integer, as numpy's generators take."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def _names(text: str) -> tuple[str, ...]:
    """A comma-separated name list argument."""
    return tuple(text.split(","))


# -- subcommands --------------------------------------------------------------

def _corridor(n_zones, duration_s, seed=0, events=None, path=None) -> scenario.ScenarioConfig:
    """The corridor, with the incidents ``events`` read from ``path`` if given;
    one outside the corridor is an error naming the file and the corridor."""
    config = scenario.ScenarioConfig(n_zones=n_zones, duration_s=duration_s, seed=seed)
    try:
        return config if events is None else dataclasses.replace(config, incidents=tuple(events))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc} (the corridor of {n_zones} zones x {duration_s} s)") from None


def cmd_gen(args) -> int:
    config = _corridor(args.zones, args.duration, args.seed)
    events = (
        scenario.default_schedule(config, n_incidents=args.incidents)
        if args.schedule is None
        else scenario.read_schedule_json(args.schedule)
    )
    config = _corridor(args.zones, args.duration, args.seed, events, args.schedule)
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
    prevalence = scenario.positive_rows(events, config.duration_s, 1) / n_rows
    print(f"feature rows: {n_rows}  positive prevalence: {prevalence:.4f}")
    return EXIT_OK


def cmd_features(args) -> int:
    records = data.read_bsm_csv(args.bsm)
    if args.schedule is None:
        print("warning: no schedule given, all labels will be 0", file=sys.stderr)
        events = []
    else:
        events = scenario.read_schedule_json(args.schedule)
    # the corridor is the flags', else the one the records imply (>= 1 zone);
    # records and incidents outside it are errors, not rows or entries to drop
    if not len(records) and (args.zones is None or args.duration is None):
        raise DataError(
            f"{args.bsm}: no records to infer the corridor from; give --zones and --duration"
        )
    n_zones = args.zones if args.zones is not None else max(1, int(records.zone.max()) + 1)
    duration_s = args.duration if args.duration is not None else int(records.time.max()) + 1
    try:
        _corridor(n_zones, duration_s)  # both >= 1, and within the cap
    except ConfigError as exc:
        raise ConfigError(f"{args.bsm}: {exc}") from None
    try:
        grids = data.aggregate(records, n_zones, duration_s)
    except DataError as exc:
        raise DataError(f"{args.bsm}: {exc}") from None
    del records  # not held while the rows are built and written
    _corridor(n_zones, duration_s, events=events, path=args.schedule)
    table = data.grid_dataset(grids, events, args.bucket)
    data.write_feature_csv(table, args.out)
    prevalence = table.labels.sum() / len(table) if len(table) else 0.0
    print(f"wrote {args.out}: {len(table)} rows, prevalence {prevalence:.4f}")
    return EXIT_OK


def _experiment_config(args) -> ExperimentConfig:
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    values: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except ValueError as exc:
                raise FormatError(f"{args.config}: invalid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise FormatError(f"{args.config}: expected a JSON object")
        unknown = sorted(set(doc) - set(fields))
        if unknown:
            raise ConfigError(f"{args.config}: unknown config keys {unknown}")
        values.update(doc)
    # each flag's dest is the field it sets; a flag not given is None
    values.update({name: getattr(args, name) for name in fields if getattr(args, name, None) is not None})
    return ExperimentConfig(**values)


def _build_splits(config: ExperimentConfig) -> dict[str, data.DatasetSplit]:
    schedule = scenario.read_schedule_json(config.schedule_path) if config.schedule_path else None
    buckets = {"DS-1": 1, "DS-2": 1, "DS-3": 60}  # DS-1 and DS-2 share the per-second rows
    durations = {1: config.duration_s, 60: config.ds3_duration_s}
    # every corridor is checked before the first one is generated
    corridors = {
        buckets[name]: _corridor(
            config.zones, durations[buckets[name]], config.seed, schedule, config.schedule_path
        )
        for name in config.splits
    }
    datasets = {
        bucket: scenario.synthetic_dataset(corridor, bucket, n_incidents=config.n_incidents)
        for bucket, corridor in corridors.items()
    }
    return {name: data.split(datasets[buckets[name]], name) for name in config.splits}


def cmd_experiment(args) -> int:
    config = _experiment_config(args)
    # checks epochs, batch_size and learning_rate before any output
    train_config = nn.TrainConfig(
        epochs=config.epochs,
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
        seed=config.seed,
    )
    splits = _build_splits(config)  # a bad schedule fails here, before any output
    os.makedirs(config.out_dir, exist_ok=True)
    report: dict = {"config": asdict(config), "splits": []}
    tables: list[str] = []
    try:
        for split_name in config.splits:
            split = splits[split_name]
            aggregates = [
                evaluation.run_experiment(
                    MODELS[name],
                    split,
                    train_config,
                    n_runs=config.n_runs,
                    base_seed=config.seed,
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
    results = gradcheck.run_all(seed=args.seed)
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
    gen.add_argument("--seed", type=_seed, default=0)
    gen.add_argument("--incidents", type=int, default=None, help="incident count (default: auto)")
    gen.add_argument("--schedule", default=None, help="use this schedule JSON instead")
    gen.add_argument("--out", default="out", help="output directory")
    gen.set_defaults(func=cmd_gen)

    feats = sub.add_parser("features", help="build labeled feature rows from records")
    feats.add_argument("--bsm", required=True, help="vehicle record CSV")
    feats.add_argument("--schedule", default=None, help="incident schedule JSON")
    feats.add_argument("--bucket", type=int, choices=data.BUCKET_SIZES, default=1)
    feats.add_argument("--zones", type=int, default=None, help="zone count (default: max zone id + 1)")
    feats.add_argument("--duration", type=int, default=None, help="seconds (default: max time + 1)")
    feats.add_argument("--out", default="features.csv")
    feats.set_defaults(func=cmd_features)

    exp = sub.add_parser("experiment", help="run the splits x models comparison")
    exp.add_argument("--config", default=None, help="ExperimentConfig JSON file")
    # each flag's dest names the ExperimentConfig field it sets
    exp.add_argument("--zones", type=int)
    exp.add_argument("--duration", type=int, dest="duration_s", help="per-second scenario seconds")
    exp.add_argument("--seed", type=_seed)
    exp.add_argument("--incidents", type=int, dest="n_incidents")
    exp.add_argument("--splits", type=_names, help="comma list from DS-1,DS-2,DS-3")
    exp.add_argument("--models", type=_names, help="comma list from classical,hybrid-2q,hybrid-4q")
    exp.add_argument("--runs", type=int, dest="n_runs")
    exp.add_argument("--epochs", type=int)
    exp.add_argument("--batch", type=int, dest="batch_size")
    exp.add_argument("--lr", type=float, dest="learning_rate")
    exp.add_argument("--out", dest="out_dir")
    exp.set_defaults(func=cmd_experiment)

    grad = sub.add_parser("gradcheck", help="run the gradient verification suites")
    grad.add_argument("--seed", type=_seed, default=0)
    grad.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
