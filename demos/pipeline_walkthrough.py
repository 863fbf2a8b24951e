"""From raw vehicle records to a trained detector, at desk scale.

Generates a small corridor with two incidents and builds its labeled
feature rows (zone aggregation, then the six features and incident labels),
splits them chronologically with normalization fitted on the
training rows, then trains the classical and hybrid models and prints
their test metrics.
"""

import numpy as np

from qincident import data, evaluation, model, nn, scenario

# A 12-zone corridor, 10 minutes, two hand-placed incidents.
events = [
    scenario.IncidentEvent(zone=4, start_s=60, duration_s=80),
    scenario.IncidentEvent(zone=9, start_s=360, duration_s=70),
]
config = scenario.ScenarioConfig(
    n_zones=12, duration_s=600, seed=3, incidents=tuple(events)
)

# Generate the vehicle records, sum them per second and zone, build the
# six-feature rows, attach labels.
records, _ = scenario.generate(config)
grids = data.aggregate(records, config.n_zones, config.duration_s)
table = data.grid_dataset(grids, events, 1)
positives = int(table.labels.sum())
print(f"{len(table)} rows from {config.n_zones} zones x {config.duration_s}s, "
      f"{positives} labeled positive ({positives / len(table):.1%})")

example = table.features[(table.labels == 1) & (table.bucket_start == 100)][0]
print("a positive row (zone, upstream, downstream speed/count):")
print(" ", np.round(example, 2))

# Chronological split, normalization fitted on the training rows only.
split = data.split(table, "DS-1")
print(f"train {len(split.train_y)} rows / test {len(split.test_y)} rows")

# Train both model kinds and compare on the held-out rows.
train_config = nn.TrainConfig(epochs=20, batch_size=16, seed=0)
aggregates_out = []
for kind, qubits in (("classical", 4), ("hybrid", 4)):
    agg = evaluation.run_experiment(
        model.HybridModelConfig(kind=kind, n_qubits=qubits),
        split,
        train_config,
        n_runs=3,
        base_seed=0,
    )
    aggregates_out.append(agg)

_, comparison = evaluation.compare(aggregates_out)
print()
print(comparison)
