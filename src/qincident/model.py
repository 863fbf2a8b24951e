"""Incident-detection models: the classical dense baseline and the hybrid
variant with a quantum layer in the middle of the stack.

Stacks (the input is the six zone features):

* classical: 6 -> dense 48 relu -> dense 32 relu -> dense 1 sigmoid
* hybrid:    6 -> dense 48 relu -> dense 32 relu -> dense n_q relu
             -> quantum layer (n_q qubits) -> dense n_q relu -> dense 1 sigmoid

The 2-qubit hybrid narrows the pre- and post-quantum dense layers to width 2.
Training is plain mini-batch Adam on mean binary cross-entropy; everything is
deterministic for a fixed seed.

Every layer (``nn.DenseLayer``, ``QuantumLayer``) follows one protocol:
``forward(x)``; ``forward_cached(x)`` -> (out, cache) and
``backward(cache, d_out)`` -> (d_in, grads in ``param_names`` order);
``to_dict``/``from_dict``.  A model keeps all trainable numbers in one
float64 vector, ``Model.params``, and the layers' arrays are views into it,
so gradients and Adam work on that one vector.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import nn, qsim
from .errors import DataError

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


@dataclass
class QuantumLayer:
    """The ``qsim`` circuit as a layer: weights [n_entangler_layers, n_qubits].

    Reaches the kernels through ``_QUANTUM_FORWARD`` and
    ``_QUANTUM_GRADIENTS`` at call time, so they can be swapped out.
    """

    weights: np.ndarray
    param_names: ClassVar[tuple[str, ...]] = ("weights",)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 2:
            raise ValueError("weights must be a 2-d [layers, qubits] array")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")

    def forward(self, x: np.ndarray) -> np.ndarray:
        return _QUANTUM_FORWARD(x, self.weights)

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        values, d_inputs, d_weights = _QUANTUM_GRADIENTS(x, self.weights)
        return values, (d_inputs, d_weights)

    def backward(self, cache: tuple, d_out: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Chain rule through the exact Jacobians: d_inputs [B, n, n] and
        d_weights [B, L, n, n]."""
        d_inputs, d_weights = cache
        return (
            np.einsum("bij,bj->bi", d_inputs, d_out),
            (np.einsum("blij,bj->li", d_weights, d_out),),
        )

    def to_dict(self) -> dict:
        n_layers, n_qubits = self.weights.shape
        return {
            "type": "quantum",
            "n_qubits": n_qubits,
            "n_entangler_layers": n_layers,
            "weights": self.weights.ravel().tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "QuantumLayer":
        shape = (doc["n_entangler_layers"], doc["n_qubits"])
        return cls(np.array(doc["weights"], dtype=float).reshape(shape))


_LAYER_TYPES = {"dense": nn.DenseLayer, "quantum": QuantumLayer}


def _flat_views(layers: list) -> np.ndarray:
    """Copy every layer's trainable arrays into one float64 vector, in stack
    order, and rebind them as reshaped views of it."""
    arrays = [(layer, name) for layer in layers for name in layer.param_names]
    params = np.concatenate([getattr(layer, name).ravel() for layer, name in arrays])
    offset = 0
    for layer, name in arrays:
        array = getattr(layer, name)
        setattr(layer, name, params[offset : offset + array.size].reshape(array.shape))
        offset += array.size
    return params


@dataclass
class Model:
    """A (possibly trained) model.

    ``layers`` is the stack, dense and quantum layers alike; every trainable
    number lives in ``params``, of which the layers' arrays are views.
    After training the model carries its per-epoch history.  It takes
    features already scaled by ``data.split``; the bounds stay with the
    split, in ``DatasetSplit.normalization``.
    """

    config: HybridModelConfig
    layers: list
    seed: int
    history: dict = field(default_factory=dict)
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.params = _flat_views(self.layers)

    def __setstate__(self, state: dict):
        # pickle and deepcopy copy views as separate arrays: bind them again
        self.__dict__.update(state)
        self.params = _flat_views(self.layers)


N_FEATURES = 6


def build_model(config: HybridModelConfig, seed: int) -> Model:
    """Fresh model with Glorot dense layers and uniform [0, 2*pi) quantum angles."""
    rng = np.random.default_rng(seed)
    w1, w2 = config.hidden_widths
    layers = [nn.init_layer(N_FEATURES, w1, rng, "relu"), nn.init_layer(w1, w2, rng, "relu")]
    if config.kind == "classical":
        layers.append(nn.init_layer(w2, 1, rng, "sigmoid"))
    else:
        n_q = config.n_qubits
        layers.append(nn.init_layer(w2, n_q, rng, "relu"))
        layers.append(
            QuantumLayer(rng.uniform(0.0, 2.0 * np.pi, size=(config.n_entangler_layers, n_q)))
        )
        layers.append(nn.init_layer(n_q, n_q, rng, "relu"))
        layers.append(nn.init_layer(n_q, 1, rng, "sigmoid"))
    return Model(config=config, layers=layers, seed=seed)


def forward(model: Model, features) -> float | np.ndarray:
    """Probability of an incident for one row [6] or a batch [B, 6]."""
    x = np.asarray(features, dtype=float)
    single = x.ndim == 1
    if x.shape[-1] != N_FEATURES:
        raise ValueError(f"expected {N_FEATURES} features, got {x.shape[-1]}")
    h = x[np.newaxis] if single else x
    for layer in model.layers:
        h = layer.forward(h)
    probs = h[:, 0]
    return float(probs[0]) if single else probs


def predict(model: Model, features) -> int | np.ndarray:
    """1 iff the forward probability reaches the threshold (inclusive)."""
    probs = forward(model, features)
    if isinstance(probs, float):
        return int(probs >= model.config.output_threshold)
    return (probs >= model.config.output_threshold).astype(int)


def loss_and_gradients(
    model: Model, features: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean BCE over the batch plus its exact gradient, laid out like
    ``model.params``.

    Dense layers are backpropagated with cached pre-activations; the
    quantum layer contributes its exact Jacobians.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.ndim != 2:
        raise ValueError("features must be a [batch, 6] array")
    h = x
    caches = []
    for layer in model.layers:
        h, cache = layer.forward_cached(h)
        caches.append(cache)
    probs = h[:, 0]
    loss = float(np.mean(nn.bce_loss(probs, y)))

    d_out = (nn.bce_grad(probs, y) / len(y))[:, np.newaxis]
    grads_reversed = []
    for layer, cache in zip(reversed(model.layers), reversed(caches)):
        d_out, layer_grads = layer.backward(cache, d_out)
        grads_reversed.append(layer_grads)
    return loss, np.concatenate(
        [g.ravel() for layer_grads in reversed(grads_reversed) for g in layer_grads]
    )


def train(model: Model, data, config: nn.TrainConfig) -> Model:
    """Mini-batch Adam on mean BCE, updating ``model.params`` in place.

    ``data`` is a ``(features [N, 6], labels [N])`` pair of already
    normalized rows.  History records the running mean batch loss and the
    full-train-set accuracy after each epoch.  A non-finite batch loss
    raises ``DataError`` naming the epoch, batch and seed.
    """
    features, labels = (np.asarray(a, dtype=float) for a in data)
    n_rows = len(features)
    if n_rows == 0:
        raise ValueError("training set is empty")
    rng = np.random.default_rng(config.seed)
    adam = nn.AdamState.for_params(model.params, learning_rate=config.learning_rate)
    base_order = np.arange(n_rows)
    n_batches = math.ceil(n_rows / config.batch_size)
    loss_history, accuracy_history = [], []
    threshold = model.config.output_threshold
    for epoch in range(config.epochs):
        order = rng.permutation(n_rows) if config.shuffle else base_order
        running = 0.0
        for index in range(n_batches):
            batch = order[index * config.batch_size : (index + 1) * config.batch_size]
            loss, grad = loss_and_gradients(model, features[batch], labels[batch])
            if not math.isfinite(loss):
                raise DataError(
                    f"training diverged: loss {loss} at epoch {epoch + 1}/{config.epochs}, "
                    f"batch {index + 1}/{n_batches} (seed {config.seed})"
                )
            nn.adam_step(model.params, grad, adam)
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
    return {
        "config": {
            "kind": model.config.kind,
            "hidden_widths": list(model.config.hidden_widths),
            "n_qubits": model.config.n_qubits,
            "n_entangler_layers": model.config.n_entangler_layers,
            "output_threshold": model.config.output_threshold,
        },
        "layers": [layer.to_dict() for layer in model.layers],
        "seed": model.seed,
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
    layers = [_LAYER_TYPES[entry["type"]].from_dict(entry) for entry in doc["layers"]]
    return Model(
        config=config,
        layers=layers,
        seed=doc["seed"],
        history=doc.get("history", {}),
    )


def save_model(model: Model, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(model), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_dict(json.load(handle))
