"""Data-scarcity comparison.

Trains the classical baseline and the 4-qubit hybrid on a desk-scale
well-fed per-second regime (a 16-zone corridor) and on the canonical
starved per-minute regime (56 zones, 150 training rows), and prints both
comparison tables.  Takes about two minutes.  The full protocol at 30 runs
per model is the CLI's job:

    qincident experiment --splits DS-1,DS-2,DS-3 --runs 30 --out out/exp
"""

from qincident import data, evaluation, model, nn, scenario

N_RUNS = 3


def build_split(name, n_zones, duration_s, bucket_seconds):
    config = scenario.ScenarioConfig(n_zones=n_zones, duration_s=duration_s, seed=1)
    return data.split(scenario.synthetic_dataset(config, bucket_seconds), name)


train_config = nn.TrainConfig(epochs=20, batch_size=16, seed=0)
configs = [
    model.HybridModelConfig(kind="classical"),
    model.HybridModelConfig(kind="hybrid", n_qubits=4),
]

regimes = (
    ("DS-1", 16, 1250, 1),    # plenty of per-second data, shrunk corridor
    ("DS-3", 56, 1500, 60),   # the canonical scarce regime: 150 train rows
)
for name, n_zones, duration, bucket in regimes:
    split = build_split(name, n_zones, duration, bucket)
    print(
        f"\n{name}: {len(split.train_y)} train rows "
        f"({split.train_y.sum()} positive), "
        f"{len(split.test_y)} test rows"
    )
    aggregates_out = [
        evaluation.run_experiment(c, split, train_config, n_runs=N_RUNS, base_seed=0)
        for c in configs
    ]
    _, table = evaluation.compare(aggregates_out)
    print(table)
