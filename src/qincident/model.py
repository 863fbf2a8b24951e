"""Incident-detection models: the classical dense baseline and the hybrid
variant with a quantum layer in the middle of the stack.

Stacks (the input is the six zone features):

* classical: 6 -> dense 48 relu -> dense 32 relu -> dense 1 sigmoid
* hybrid:    6 -> dense 48 relu -> dense 32 relu -> dense n_q relu
             -> quantum layer (n_q qubits) -> dense n_q relu -> dense 1 sigmoid

The 2-qubit hybrid narrows the pre- and post-quantum dense layers to width 2.
Training is plain mini-batch Adam on mean binary cross-entropy; everything is
deterministic for a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import nn, qsim

MODEL_KINDS = ("classical", "hybrid")

# patch point for test harnesses that swap the quantum layer for an identity map
_QUANTUM_FORWARD = qsim.forward_batch
_QUANTUM_GRADIENTS = qsim.gradients_batch


@dataclass
class HybridModelConfig:
    kind: str = "hybrid"
    hidden_widths: tuple[int, int] = (48, 32)
    n_qubits: int = 4
    n_entangler_layers: int = 1
    output_threshold: float = 0.5

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        if len(self.hidden_widths) != 2 or any(w < 1 for w in self.hidden_widths):
            raise ValueError(f"hidden_widths must be two positive ints, got {self.hidden_widths}")
        if self.kind == "hybrid":
            if self.n_qubits < 1:
                raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
            if self.n_entangler_layers < 1:
                raise ValueError("n_entangler_layers must be >= 1")
        if not 0.0 < self.output_threshold < 1.0:
            raise ValueError("output_threshold must lie in (0, 1)")

    @property
    def label(self) -> str:
        return "classical" if self.kind == "classical" else f"hybrid-{self.n_qubits}q"


LayerEntry = Union[nn.DenseLayer, qsim.QuantumLayerParams]


@dataclass
class Model:
    """A (possibly trained) model.

    ``layers`` holds dense layers and, for hybrid models, the quantum layer
    parameters in stack order.  After training the model carries its own
    normalization bounds and per-epoch history, so inference on raw feature
    rows is self-contained.
    """

    config: HybridModelConfig
    layers: list[LayerEntry]
    quantum_spec: qsim.QuantumLayerSpec | None
    seed: int
    normalization: tuple[np.ndarray, np.ndarray] | None = None
    history: dict = field(default_factory=dict)

    def forward(self, features):
        return forward(self, features)

    def predict(self, features):
        return predict(self, features)


N_FEATURES = 6


def build_model(config: HybridModelConfig, seed: int) -> Model:
    """Fresh model with Glorot dense layers and uniform [0, 2*pi) quantum angles."""
    rng = np.random.default_rng(seed)
    w1, w2 = config.hidden_widths
    layers: list[LayerEntry] = [
        nn.init_layer(N_FEATURES, w1, rng, "relu"),
        nn.init_layer(w1, w2, rng, "relu"),
    ]
    quantum_spec = None
    if config.kind == "classical":
        layers.append(nn.init_layer(w2, 1, rng, "sigmoid"))
    else:
        n_q = config.n_qubits
        quantum_spec = qsim.QuantumLayerSpec(n_q, config.n_entangler_layers)
        layers.append(nn.init_layer(w2, n_q, rng, "relu"))
        layers.append(qsim.QuantumLayerParams.random(quantum_spec, rng))
        layers.append(nn.init_layer(n_q, n_q, rng, "relu"))
        layers.append(nn.init_layer(n_q, 1, rng, "sigmoid"))
    return Model(config=config, layers=layers, quantum_spec=quantum_spec, seed=seed)


def parameter_count(model: Model) -> int:
    total = 0
    for entry in model.layers:
        if isinstance(entry, nn.DenseLayer):
            total += entry.weights.size + entry.biases.size
        else:
            total += entry.weights.size
    return total


def forward(model: Model, features) -> float | np.ndarray:
    """Probability of an incident for one row [6] or a batch [B, 6]."""
    x = np.asarray(features, dtype=float)
    single = x.ndim == 1
    if x.shape[-1] != N_FEATURES:
        raise ValueError(f"expected {N_FEATURES} features, got {x.shape[-1]}")
    h = x[np.newaxis] if single else x
    for entry in model.layers:
        if isinstance(entry, nn.DenseLayer):
            _, h = nn.dense_forward(entry, h)
        else:
            h = _QUANTUM_FORWARD(h, entry.weights)
    probs = h[:, 0]
    return float(probs[0]) if single else probs


def predict(model: Model, features) -> int | np.ndarray:
    """1 iff the forward probability reaches the threshold (inclusive)."""
    probs = forward(model, features)
    if isinstance(probs, float):
        return int(probs >= model.config.output_threshold)
    return (probs >= model.config.output_threshold).astype(int)


def get_parameters(model: Model) -> list[np.ndarray]:
    """Trainable arrays in stack order: (weights, biases) per dense layer,
    the rotation angles for the quantum layer."""
    params: list[np.ndarray] = []
    for entry in model.layers:
        if isinstance(entry, nn.DenseLayer):
            params.extend((entry.weights, entry.biases))
        else:
            params.append(entry.weights)
    return params


def set_parameters(model: Model, params: list[np.ndarray]) -> None:
    it = iter(params)
    for entry in model.layers:
        if isinstance(entry, nn.DenseLayer):
            entry.weights = next(it)
            entry.biases = next(it)
        else:
            entry.weights = next(it)


def loss_and_gradients(
    model: Model, features: np.ndarray, labels: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """Mean BCE over the batch plus exact gradients for every parameter.

    Dense segments are backpropagated with cached pre-activations; the
    quantum segment contributes its exact Jacobians.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.ndim != 2:
        raise ValueError("features must be a [batch, 6] array")
    h = x
    caches = []
    for entry in model.layers:
        if isinstance(entry, nn.DenseLayer):
            z, out = nn.dense_forward(entry, h)
            caches.append(("dense", entry, h, z))
            h = out
        else:
            values, d_inputs, d_weights = _QUANTUM_GRADIENTS(h, entry.weights)
            caches.append(("quantum", entry, d_inputs, d_weights))
            h = values
    probs = h[:, 0]
    loss = float(np.mean(nn.bce_loss(probs, y)))

    d_out = (nn.bce_grad(probs, y) / len(y))[:, np.newaxis]
    grads_reversed: list[np.ndarray] = []
    for kind, entry, a, b in reversed(caches):
        if kind == "dense":
            d_w, d_b, d_out = nn.dense_backward(entry, a, b, d_out)
            grads_reversed.extend((d_b, d_w))
        else:
            # a = d_inputs [B, n, n], b = d_weights [B, L, n, n]
            grads_reversed.append(np.einsum("blij,bj->li", b, d_out))
            d_out = np.einsum("bij,bj->bi", a, d_out)
    return loss, grads_reversed[::-1]


def _rows_to_arrays(rows) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(rows, tuple) and len(rows) == 2:
        features, labels = rows
        return np.asarray(features, dtype=float), np.asarray(labels, dtype=float)
    features = np.array([r.features() for r in rows], dtype=float)
    labels = np.array([r.label for r in rows], dtype=float)
    return features, labels


def train(model: Model, rows, config: nn.TrainConfig) -> Model:
    """Mini-batch Adam on mean BCE.

    ``rows`` is a list of (already normalized) feature rows, or a prebuilt
    ``(features, labels)`` pair.  History records the running mean batch
    loss and the full-train-set accuracy after each epoch.
    """
    features, labels = _rows_to_arrays(rows)
    n_rows = len(features)
    if n_rows == 0:
        raise ValueError("training set is empty")
    rng = np.random.default_rng(config.seed)
    params = get_parameters(model)
    adam = nn.AdamState.for_params(params, learning_rate=config.learning_rate)
    base_order = np.arange(n_rows)
    loss_history, accuracy_history = [], []
    threshold = model.config.output_threshold
    for _ in range(config.epochs):
        order = rng.permutation(n_rows) if config.shuffle else base_order
        running = 0.0
        for start in range(0, n_rows, config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grads = loss_and_gradients(model, features[batch], labels[batch])
            params = nn.adam_step(params, grads, adam)
            set_parameters(model, params)
            running += loss * len(batch)
        loss_history.append(running / n_rows)
        probs = forward(model, features)
        accuracy_history.append(float(np.mean((probs >= threshold) == (labels > 0.5))))
    model.history = {
        "loss": loss_history,
        "train_accuracy": accuracy_history,
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "learning_rate": config.learning_rate,
        "shuffle": config.shuffle,
        "seed": config.seed,
    }
    return model


# -- JSON serialization --------------------------------------------------------

def model_to_dict(model: Model) -> dict:
    """JSON-safe document: layer list with shapes, row-major arrays, tags."""
    entries = []
    for entry in model.layers:
        if isinstance(entry, nn.DenseLayer):
            entries.append(
                {
                    "type": "dense",
                    "in_dim": entry.in_dim,
                    "out_dim": entry.out_dim,
                    "activation": entry.activation,
                    "weights": entry.weights.ravel().tolist(),
                    "biases": entry.biases.tolist(),
                }
            )
        else:
            entries.append(
                {
                    "type": "quantum",
                    "n_qubits": model.quantum_spec.n_qubits,
                    "n_entangler_layers": model.quantum_spec.n_entangler_layers,
                    "weights": entry.weights.ravel().tolist(),
                }
            )
    return {
        "config": {
            "kind": model.config.kind,
            "hidden_widths": list(model.config.hidden_widths),
            "n_qubits": model.config.n_qubits,
            "n_entangler_layers": model.config.n_entangler_layers,
            "output_threshold": model.config.output_threshold,
        },
        "layers": entries,
        "seed": model.seed,
        "normalization": None
        if model.normalization is None
        else {
            "mins": model.normalization[0].tolist(),
            "maxs": model.normalization[1].tolist(),
        },
        "history": model.history,
    }


def model_from_dict(doc: dict) -> Model:
    cfg = doc["config"]
    config = HybridModelConfig(
        kind=cfg["kind"],
        hidden_widths=tuple(cfg["hidden_widths"]),
        n_qubits=cfg["n_qubits"],
        n_entangler_layers=cfg["n_entangler_layers"],
        output_threshold=cfg["output_threshold"],
    )
    layers: list[LayerEntry] = []
    quantum_spec = None
    for entry in doc["layers"]:
        if entry["type"] == "dense":
            weights = np.array(entry["weights"], dtype=float).reshape(
                entry["out_dim"], entry["in_dim"]
            )
            layers.append(nn.DenseLayer(weights, np.array(entry["biases"]), entry["activation"]))
        else:
            quantum_spec = qsim.QuantumLayerSpec(
                entry["n_qubits"], entry["n_entangler_layers"]
            )
            weights = np.array(entry["weights"], dtype=float).reshape(quantum_spec.weights_shape)
            layers.append(qsim.QuantumLayerParams(weights))
    normalization = None
    if doc.get("normalization") is not None:
        normalization = (
            np.array(doc["normalization"]["mins"], dtype=float),
            np.array(doc["normalization"]["maxs"], dtype=float),
        )
    return Model(
        config=config,
        layers=layers,
        quantum_spec=quantum_spec,
        seed=doc["seed"],
        normalization=normalization,
        history=doc.get("history", {}),
    )


def save_model(model: Model, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(model), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_dict(json.load(handle))
