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
``backward(cache, d_out, grads)`` -> d_in, writing the gradients of its
``param_names`` arrays into ``grads``; ``to_dict``, the layer's entry in
the saved-model document.  A model keeps all trainable numbers in one
float64 vector, ``Model.params``.  ``Model.layout``, computed once, places
each layer's arrays in it: they are views of ``params``, and the ``grads``
are views of one gradient vector, so Adam works on flat vectors.  The
hidden widths and the decision threshold are the module constants
``HIDDEN_WIDTHS`` and ``OUTPUT_THRESHOLD``.

A population (``build_population``) is R models of one config that train
together: ``params`` is [R, P], every layer array has a leading run axis,
and each training step is one stacked forward/backward pass and one Adam
update for all runs.  Without shuffling every run sees the same batches in
the same order, so only the initial parameters differ.  Run r is bit for
bit the model ``build_model(config, seed + r)`` trained with seed + r.  A
single model is the same code with no run axis: ``train``,
``loss_and_gradients``, ``forward`` and ``predict`` serve both, and their
per-run results carry the model's run axis, (R, ...) for a population.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import nn, qsim
from .errors import DataError

MODEL_KINDS = ("classical", "hybrid")
HIDDEN_WIDTHS = (48, 32)
OUTPUT_THRESHOLD = 0.5

# patch point for test harnesses that swap the quantum layer for an identity map
_QUANTUM_FORWARD = qsim.forward_batch
_QUANTUM_GRADIENTS = qsim.gradients_batch


@dataclass
class HybridModelConfig:
    kind: str = "hybrid"
    n_qubits: int = 4
    n_entangler_layers: int = 1

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        if self.kind == "hybrid":
            if self.n_qubits < 1:
                raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
            if self.n_entangler_layers < 1:
                raise ValueError("n_entangler_layers must be >= 1")
            qsim.check_circuit(self.n_qubits, self.n_entangler_layers)

    @property
    def label(self) -> str:
        return "classical" if self.kind == "classical" else f"hybrid-{self.n_qubits}q"


@dataclass
class QuantumLayer:
    """The ``qsim`` circuit as a layer: weights [n_entangler_layers, n_qubits],
    with a leading run axis in a population.

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

    def forward_bytes(self) -> int:
        """The bytes ``forward`` holds per row (``qsim.forward_bytes``)."""
        n_layers, n_qubits = self.weights.shape[-2:]
        return qsim.forward_bytes(n_qubits, n_layers)

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        values, d_inputs, d_weights = _QUANTUM_GRADIENTS(x, self.weights)
        return values, (d_inputs, d_weights)

    def backward(self, cache: tuple, d_out: np.ndarray, grads: list) -> np.ndarray:
        """Chain rule through the exact Jacobians: d_inputs [..., B, n, n]
        and d_weights [..., B, L, n, n]."""
        d_inputs, d_weights = cache
        np.einsum("...blij,...bj->...li", d_weights, d_out, out=grads[0])
        return np.einsum("...bij,...bj->...bi", d_inputs, d_out)

    def to_dict(self) -> dict:
        n_layers, n_qubits = self.weights.shape
        return {
            "type": "quantum",
            "n_qubits": n_qubits,
            "n_entangler_layers": n_layers,
            "weights": self.weights.ravel().tolist(),
        }


def _views(flat: np.ndarray, layout: tuple) -> list:
    """Per layer, the views of ``flat`` [..., P] that ``layout`` gives its
    arrays, each leading with the axes of ``flat``."""
    lead = flat.shape[:-1]
    return [[flat[..., part].reshape(lead + shape) for part, shape in entry] for entry in layout]


def _bind(model: "Model", params: np.ndarray) -> list:
    """Shallow copies of ``model.layers`` whose arrays are views of ``params``."""
    bound = []
    for layer, views in zip(model.layers, _views(params, model.layout)):
        part = copy.copy(layer)
        for name, view in zip(layer.param_names, views):
            setattr(part, name, view)
        bound.append(part)
    return bound


@dataclass
class Model:
    """A (possibly trained) model, or a population of R of them.

    ``layers`` is the stack, dense and quantum layers alike; every trainable
    number lives in ``params``, [P] for one model and [R, P] for a
    population, of which the layers' arrays are views.  After training the
    model carries its per-epoch history.  It takes features already scaled
    by ``data.split``; the bounds stay with the split, in
    ``DatasetSplit.normalization``.
    """

    config: HybridModelConfig
    layers: list
    seed: int
    history: dict = field(default_factory=dict)
    params: np.ndarray = field(init=False, repr=False)
    layout: tuple = field(init=False, repr=False)

    def __post_init__(self):
        # per layer, the (slice of ``params``, shape) of each ``param_names`` array
        arrays, layout, offset = [], [], 0
        for layer in self.layers:
            entry = []
            for name in layer.param_names:
                array = getattr(layer, name)
                entry.append((slice(offset, offset + array.size), array.shape))
                arrays.append(array.ravel())
                offset += array.size
            layout.append(tuple(entry))
        self.layout = tuple(layout)
        self.params = np.concatenate(arrays)
        self.layers = _bind(self, self.params)

    def __setstate__(self, state: dict):
        # pickle and deepcopy copy views as separate arrays: bind them again
        self.__dict__.update(state)
        self.layers = _bind(self, self.params)


N_FEATURES = 6


def build_model(config: HybridModelConfig, seed: int) -> Model:
    """Fresh model with Glorot dense layers and uniform [0, 2*pi) quantum angles."""
    rng = np.random.default_rng(seed)
    w1, w2 = HIDDEN_WIDTHS
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


def build_population(config: HybridModelConfig, seed: int, n_runs: int) -> Model:
    """``n_runs`` models to train as one: run r is ``build_model(config,
    seed + r)``, its arrays stacked along a leading run axis.  The
    population's ``seed`` is run 0's."""
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    members = [build_model(config, seed + r) for r in range(n_runs)]
    population = members[0]
    population.params = np.stack([m.params for m in members])
    population.layers = _bind(population, population.params)
    return population


# A stacked forward pass goes one group of runs at a time, so that no layer
# holds more than this for a group (each layer's ``forward_bytes`` a
# run-row).  The dense stacks' widest layer (48 units) makes 768 bytes a
# run-row, so they keep groups of 65,536 run-rows.  At the term cap (n=6,
# L=3) the quantum layer counts 6,600 bytes a run-row (6,790 measured by
# tracemalloc), so a group takes about 7,600 run-rows; a training step's
# gradients, which are not grouped, take about 164 KiB a run-row there,
# 77 MiB for 30 runs at batch 16.
_FORWARD_BYTES = 48 << 20


def _forward_layers(layers: list, h: np.ndarray) -> np.ndarray:
    for layer in layers:
        h = layer.forward(h)
    return h[..., 0]


def forward(model: Model, features) -> np.ndarray:
    """Probability of an incident for each row of a [B, 6] batch: [B] for
    one model, [R, B] for a population."""
    h = np.asarray(features, dtype=float)
    if h.ndim != 2 or h.shape[1] != N_FEATURES:
        raise ValueError(f"expected a [batch, {N_FEATURES}] array, got shape {h.shape}")
    runs = model.params.shape[:-1]
    run_bytes = max(layer.forward_bytes() for layer in model.layers) * max(1, len(h))
    group = max(1, _FORWARD_BYTES // run_bytes)
    if not runs or runs[0] <= group:
        return _forward_layers(model.layers, h)
    return np.concatenate(
        [
            _forward_layers(_bind(model, model.params[start : start + group]), h)
            for start in range(0, runs[0], group)
        ]
    )


def predict(model: Model, features) -> np.ndarray:
    """1 iff the forward probability reaches the threshold (inclusive)."""
    return (forward(model, features) >= OUTPUT_THRESHOLD).astype(int)


def loss_and_gradients(
    model: Model, features: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean BCE over the batch plus its exact gradient, laid out like
    ``model.params``: per run for a population, a loss of [R] and
    gradients of [R, P].

    ``features`` is a [B, 6] batch that every run sees, or a population's
    [R, B, 6] with one batch per run; ``labels`` is [B] or [R, B] to match.
    Dense layers are backpropagated with cached pre-activations; the
    quantum layer contributes its exact Jacobians.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.ndim not in (2, 3) or x.shape[-1] != N_FEATURES:
        raise ValueError("features must be a [batch, 6] or [runs, batch, 6] array")
    h = x
    caches = []
    for layer in model.layers:
        h, cache = layer.forward_cached(h)
        caches.append(cache)
    probs = h[..., 0]
    loss = np.mean(nn.bce_loss(probs, y), axis=-1)

    d_out = (nn.bce_grad(probs, y) / probs.shape[-1])[..., np.newaxis]
    grad = np.empty_like(model.params)
    views = _views(grad, model.layout)
    for layer, cache, grads in zip(reversed(model.layers), reversed(caches), reversed(views)):
        d_out = layer.backward(cache, d_out, grads)
    return loss, grad


# a diverging run overflows before its loss turns non-finite; the loss check
# reports it, so numpy's warnings would only repeat it
@np.errstate(all="ignore")
def train(model: Model, data, config: nn.TrainConfig) -> Model:
    """Mini-batch Adam on mean BCE, updating ``model.params`` in place.

    ``data`` is a ``(features [N, 6], labels [N])`` pair of already
    normalized rows, taken in order: batch i is rows
    [i * batch_size, (i + 1) * batch_size), the same for every run of a
    population.  History records each run's running mean batch loss and
    full-train-set accuracy after each epoch, and its seed (run r of a
    population has ``config.seed + r``); a population's entries are
    per-run lists.  A non-finite batch loss in any run raises ``DataError``
    naming the epoch, the batch and the seed of the first run that diverged.
    """
    features, labels = (np.asarray(a, dtype=float) for a in data)
    n_rows = len(features)
    if n_rows == 0:
        raise ValueError("training set is empty")
    runs = model.params.shape[:-1]
    seeds = config.seed + np.arange(math.prod(runs))
    adam = nn.AdamState.for_params(model.params, learning_rate=config.learning_rate)
    n_batches = math.ceil(n_rows / config.batch_size)
    loss_history, accuracy_history = [], []
    for epoch in range(config.epochs):
        running = np.zeros(runs)
        for index in range(n_batches):
            batch = slice(index * config.batch_size, (index + 1) * config.batch_size)
            loss, grad = loss_and_gradients(model, features[batch], labels[batch])
            if not np.isfinite(loss).all():
                run = np.flatnonzero(~np.isfinite(loss))[0]
                raise DataError(
                    f"training diverged: loss {np.ravel(loss)[run]} at epoch "
                    f"{epoch + 1}/{config.epochs}, batch {index + 1}/{n_batches} "
                    f"(seed {seeds[run]})"
                )
            nn.adam_step(model.params, grad, adam)
            running += loss * len(labels[batch])
        loss_history.append(running / n_rows)
        probs = forward(model, features)
        accuracy_history.append(np.mean((probs >= OUTPUT_THRESHOLD) == (labels > 0.5), axis=-1))
    model.history = {
        "loss": np.stack(loss_history, axis=-1).tolist(),
        "train_accuracy": np.stack(accuracy_history, axis=-1).tolist(),
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "learning_rate": config.learning_rate,
        "shuffle": False,  # batches are taken in order; kept for the document's shape
        "seed": seeds.reshape(runs).tolist(),
    }
    return model


# -- JSON serialization --------------------------------------------------------

def model_to_dict(model: Model) -> dict:
    """JSON-safe document: layer list with shapes, row-major arrays, tags."""
    if model.params.ndim != 1:
        raise ValueError(f"a model document holds one model, not a population of {len(model.params)}")
    return {
        "config": {
            "kind": model.config.kind,
            "hidden_widths": list(HIDDEN_WIDTHS),
            "n_qubits": model.config.n_qubits,
            "n_entangler_layers": model.config.n_entangler_layers,
            "output_threshold": OUTPUT_THRESHOLD,
        },
        "layers": [layer.to_dict() for layer in model.layers],
        "seed": model.seed,
        "history": model.history,
    }


def save_model(model: Model, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(model), handle, indent=2, sort_keys=True)
        handle.write("\n")
