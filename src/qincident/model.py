"""Incident-detection models: the classical dense baseline and the hybrid
variant with a quantum layer in the middle of the stack.

Stacks (the input is the six zone features):

* classical: 6 -> dense 48 relu -> dense 32 relu -> dense 1 sigmoid
* hybrid:    6 -> dense 48 relu -> dense 32 relu -> dense n_q relu
             -> quantum layer (n_q qubits, one entangler layer)
             -> dense n_q relu -> dense 1 sigmoid

The 2-qubit hybrid narrows the pre- and post-quantum dense layers to width 2.
Training is plain mini-batch Adam on mean binary cross-entropy; everything is
deterministic for a fixed seed.

Every layer (``nn.DenseLayer``, ``QuantumLayer``) is a frozen description
that holds no arrays: its ``shapes`` name the arrays it trains, and every
method takes them as ``arrays``.  The protocol: ``forward(arrays, x)``;
``plan(lead, first)`` -> the buffers of a training step over rows of
leading shape ``lead``; ``forward_cached(arrays, x, buffers)`` ->
(out, cache) and ``backward(arrays, cache, d_out, grads)`` -> d_in,
writing the gradients of its arrays into ``grads`` (and free to write
over its own output, which the next layer's backward has already read);
``gates(out)`` -> which of its output units pass their input, for units
with a kink (ReLU), an empty pattern for the others; ``to_dict(arrays)``,
the layer's entry in the saved-model document.  Every trainable number of
a model lives in one float64 vector, ``Model.params``, and only there.
``Model.layout``, computed once from the shapes, places each layer's
arrays in it; ``_views`` cuts a parameter or gradient vector into those
arrays, so Adam works on flat vectors.  The hidden widths, the quantum
layer's depth and the decision threshold are the module constants
``HIDDEN_WIDTHS``, ``ENTANGLER_LAYERS`` and ``OUTPUT_THRESHOLD``.

``train`` checks its rows once and makes one gradient vector, then a step
plan (``_plan``) per batch size, for the full batches and a final partial
one: the views of ``params``, which Adam updates in place, the gradient
vector and its views, and each layer's buffers, which every step of that
size writes into; ``loss_and_gradients`` without a plan makes a one-shot
one.  Every array of a step thus exists once per ``train`` call; Adam's
work arrays go a block at a time within a fixed byte bound, and inference
a run group (``run_groups``) at a time.  ``forward`` refuses non-finite
features and outputs.

A population (``build_population``) is R models of one config that train
together: ``params`` is [R, P], every layer array has a leading run axis,
and each training step is one stacked forward/backward pass and one Adam
update for all runs.  Without shuffling every run sees the same batches in
the same order, so only the initial parameters differ.  Run r is bit for
bit the model ``build_model(config, seed + r)`` trained with seed + r.  A
single model is the same code with no run axis: ``train``,
``loss_and_gradients``, ``forward`` and ``predict`` serve both, and their
per-run results carry the model's run axis, (R, ...) for a population;
``train``'s accuracy pass and ``evaluation.run_experiment`` reduce one run
group (``run_groups``) at a time, so no [R, rows] array outlives its group.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import nn, qsim
from .errors import DataError

MODEL_KINDS = ("classical", "hybrid")
HIDDEN_WIDTHS = (48, 32)
OUTPUT_THRESHOLD = 0.5
ENTANGLER_LAYERS = 1

# patch points: tests swap the quantum kernels out, and bench/spans.py wraps them in spans
_QUANTUM_FORWARD = qsim.forward_batch
_QUANTUM_GRADIENTS = qsim.gradients_batch


@dataclass
class HybridModelConfig:
    kind: str = "hybrid"
    n_qubits: int = 4

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        if self.kind == "hybrid" and self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")

    @property
    def label(self) -> str:
        return "classical" if self.kind == "classical" else f"hybrid-{self.n_qubits}q"


@dataclass(frozen=True)
class QuantumLayer:
    """The ``qsim`` circuit as a layer: its one array is the weights
    [ENTANGLER_LAYERS, n_qubits], with a leading run axis in a population.

    Reaches the kernels through ``_QUANTUM_FORWARD`` and
    ``_QUANTUM_GRADIENTS`` at call time, so they can be swapped out.
    """

    n_qubits: int

    @property
    def shapes(self) -> tuple[tuple[int, int]]:
        return ((ENTANGLER_LAYERS, self.n_qubits),)

    def forward(self, arrays: list, x: np.ndarray) -> np.ndarray:
        return _QUANTUM_FORWARD(x, arrays[0])

    def forward_bytes(self) -> int:
        """The bytes ``forward`` holds per row: its input and what
        ``qsim.forward_bytes`` counts, the kernel's term products included."""
        return 8 * self.n_qubits + qsim.forward_bytes(self.n_qubits, ENTANGLER_LAYERS)

    def plan(self, lead: tuple, first: bool) -> None:
        """No buffers: the kernels make their own arrays."""

    def gates(self, out: np.ndarray) -> np.ndarray:
        """No unit of the circuit is gated: an empty [..., 0] pattern."""
        return out[..., :0] > 0

    def forward_cached(self, arrays: list, x: np.ndarray, buffers: None) -> tuple[np.ndarray, tuple]:
        values, d_inputs, d_weights = _QUANTUM_GRADIENTS(x, arrays[0])
        return values, (d_inputs, d_weights)

    def backward(self, arrays: list, cache: tuple, d_out: np.ndarray, grads: list) -> np.ndarray:
        """Chain rule through the exact Jacobians: d_inputs [..., B, n, n]
        and d_weights [..., B, L, n, n]."""
        d_inputs, d_weights = cache
        np.einsum("...blij,...bj->...li", d_weights, d_out, out=grads[0])
        return np.einsum("...bij,...bj->...bi", d_inputs, d_out)

    def to_dict(self, arrays: list) -> dict:
        return {
            "type": "quantum",
            "n_qubits": self.n_qubits,
            "n_entangler_layers": ENTANGLER_LAYERS,
            "weights": arrays[0].ravel().tolist(),
        }


def _views(flat: np.ndarray, layout: tuple) -> list:
    """Per layer, the views of ``flat`` [..., P] that ``layout`` gives its
    arrays, each leading with the axes of ``flat``."""
    lead = flat.shape[:-1]
    return [[flat[..., part].reshape(lead + shape) for part, shape in entry] for entry in layout]


@dataclass
class Model:
    """A (possibly trained) model, or a population of R of them.

    ``layers`` is the stack, dense and quantum layers alike; every trainable
    number lives in ``params``, [P] for one model and [R, P] for a
    population, where ``layout`` places each layer's arrays.  After
    training the model carries its per-epoch history.  It takes features
    already scaled by ``data.split``.
    """

    config: HybridModelConfig
    layers: list
    params: np.ndarray = field(repr=False)
    seed: int
    history: dict = field(default_factory=dict)
    layout: tuple = field(init=False, repr=False)

    def __post_init__(self):
        # per layer, the (slice of ``params``, shape) of each of its arrays
        layout, offset = [], 0
        for layer in self.layers:
            entry = []
            for shape in layer.shapes:
                entry.append((slice(offset, offset + math.prod(shape)), shape))
                offset += math.prod(shape)
            layout.append(tuple(entry))
        self.layout = tuple(layout)


N_FEATURES = 6


def build_model(config: HybridModelConfig, seed: int) -> Model:
    """Fresh model with Glorot dense layers and uniform [0, 2*pi) quantum angles."""
    rng = np.random.default_rng(seed)
    w1, w2 = HIDDEN_WIDTHS
    stack = [nn.init_layer(N_FEATURES, w1, rng, "relu"), nn.init_layer(w1, w2, rng, "relu")]
    if config.kind == "classical":
        stack.append(nn.init_layer(w2, 1, rng, "sigmoid"))
    else:
        n_q = config.n_qubits
        stack.append(nn.init_layer(w2, n_q, rng, "relu"))
        quantum = QuantumLayer(n_q)
        stack.append((quantum, [rng.uniform(0.0, 2.0 * np.pi, size=quantum.shapes[0])]))
        stack.append(nn.init_layer(n_q, n_q, rng, "relu"))
        stack.append(nn.init_layer(n_q, 1, rng, "sigmoid"))
    params = np.concatenate([array.ravel() for _, arrays in stack for array in arrays])
    return Model(config, [layer for layer, _ in stack], params, seed)


def build_population(config: HybridModelConfig, seed: int, n_runs: int) -> Model:
    """``n_runs`` models to train as one: run r is ``build_model(config,
    seed + r)``, its arrays stacked along a leading run axis.  The
    population's ``seed`` is run 0's."""
    members = [build_model(config, seed + r) for r in range(n_runs)]
    return Model(config, members[0].layers, np.stack([m.params for m in members]), seed)


# The most bytes that any layer holds in one run group's forward pass, at
# ``forward_bytes`` a run-row (``run_groups``).  A group holds at least one
# run and rows are not blocked, so one run whose pass alone exceeds this is
# a group of its own.  A training step is not grouped.
_FORWARD_BYTES = 2 << 20


def run_groups(model: Model, n_rows: int) -> list[Model]:
    """The runs of ``model`` in groups that pass ``n_rows`` rows within
    ``_FORWARD_BYTES``: each a ``Model`` over a view of its runs' ``params``
    with its first run's seed.  A group holds at least one run, so one run
    whose pass over ``n_rows`` exceeds the budget is a group of its own, and
    a single model is its own one group, whatever its rows hold."""
    if model.params.ndim == 1:
        return [model]
    run_bytes = max(layer.forward_bytes() for layer in model.layers) * max(1, n_rows)
    group = max(1, _FORWARD_BYTES // run_bytes)
    return [Model(model.config, model.layers, model.params[start : start + group], model.seed + start)
            for start in range(0, len(model.params), group)]


def _feature_rows(features) -> np.ndarray:
    """``features`` as a float [B, 6] array of finite values; a ValueError
    names the first row that holds a non-finite one."""
    h = np.asarray(features, dtype=float)
    if h.ndim != 2 or h.shape[1] != N_FEATURES:
        raise ValueError(f"expected a [batch, {N_FEATURES}] array, got shape {h.shape}")
    if not np.isfinite(h).all():
        row = int(np.argmin(np.isfinite(h).all(axis=1)))
        raise ValueError(f"feature row {row} holds a non-finite value: {h[row].tolist()}")
    return h


# a model that overflows shows it as a non-finite output, reported below
@np.errstate(all="ignore")
def forward(model: Model, features) -> np.ndarray:
    """Probability of an incident for each row of a [B, 6] batch: [B] for
    one model, [R, B] for a population.  A non-finite output raises
    ``DataError`` naming the row and the seed of the run."""
    h = _feature_rows(features)
    for layer, arrays in zip(model.layers, _views(model.params, model.layout)):
        h = layer.forward(arrays, h)
    probs = h[..., 0]
    bad = np.argwhere(~np.isfinite(probs))
    if len(bad):
        *run, row = bad[0]
        raise DataError(f"the model of seed {model.seed + sum(map(int, run))} gives output "
                        f"{probs[tuple(bad[0])]} for feature row {row}")
    return probs


def predict(model: Model, features) -> np.ndarray:
    """1 iff the forward probability reaches the threshold (inclusive)."""
    return (forward(model, features) >= OUTPUT_THRESHOLD).astype(int)


def _plan(model: Model, lead: tuple, grad: np.ndarray) -> tuple:
    """The state of a training step over rows of leading shape ``lead``
    (the run axis, then the batch) that writes its gradient into ``grad``,
    laid out like ``params``: the per-layer views of ``params``, ``grad``
    and its per-layer views, and each layer's buffers."""
    buffers = [layer.plan(lead, first=i == 0) for i, layer in enumerate(model.layers)]
    return _views(model.params, model.layout), grad, _views(grad, model.layout), buffers


def loss_and_gradients(
    model: Model, features: np.ndarray, labels: np.ndarray, plan: tuple | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Mean BCE over the batch plus its exact gradient, laid out like
    ``model.params``: per run for a population, a loss of [R] and
    gradients of [R, P].

    ``features`` is a [B, 6] batch that every run sees and ``labels`` its
    [B] labels.  Dense layers are backpropagated from their cached outputs; the quantum
    layer contributes its exact Jacobians.  ``plan`` (``_plan``) holds the
    buffers the step writes into, the returned gradient among them, and
    takes float inputs of its shape unchecked; without one, the inputs are
    checked and a one-shot plan is made.
    """
    if plan is None:
        features, labels = _feature_rows(features), np.asarray(labels, dtype=float)
        plan = _plan(model, model.params.shape[:-1] + features.shape[:1], np.empty_like(model.params))
    arrays, grad, grads, buffers = plan
    h, caches = features, []
    for layer, layer_arrays, layer_buffers in zip(model.layers, arrays, buffers):
        h, cache = layer.forward_cached(layer_arrays, h, layer_buffers)
        caches.append(cache)
    probs = h[..., 0]
    loss = np.mean(nn.bce_loss(probs, labels), axis=-1)

    d_out = (nn.bce_grad(probs, labels) / probs.shape[-1])[..., np.newaxis]
    for layer, layer_arrays, cache, layer_grads in zip(
        reversed(model.layers), reversed(arrays), reversed(caches), reversed(grads)
    ):
        d_out = layer.backward(layer_arrays, cache, d_out, layer_grads)
    return loss, grad


# a diverging run overflows before its loss turns non-finite; the loss check
# reports it, so numpy's warnings would only repeat it
@np.errstate(all="ignore")
def train(model: Model, data, config: nn.TrainConfig) -> Model:
    """Mini-batch Adam on mean BCE, updating ``model.params`` in place.

    ``data`` is a ``(features [N, 6], labels [N])`` pair of already
    normalized rows, taken in order: batch i is rows
    [i * batch_size, (i + 1) * batch_size), the same for every run of a
    population.  Mismatched labels or a non-finite feature raise
    ``ValueError`` before the first step.  History records each run's
    running mean batch loss and full-train-set accuracy after each epoch,
    and its seed (run r of a population has ``config.seed + r``); a
    population's entries are per-run lists.  A non-finite batch loss in any
    run raises ``DataError`` naming the epoch, the batch and the seed of
    the first run that diverged; a non-finite output in an epoch's
    accuracy pass names the epoch and the seed.
    """
    features, labels = data
    features, labels = _feature_rows(features), np.asarray(labels, dtype=float)
    n_rows = len(features)
    if labels.shape != (n_rows,):
        raise ValueError(
            f"labels of shape {labels.shape} do not match features of shape {features.shape}: "
            f"expected labels of shape ({n_rows},)"
        )
    if n_rows == 0:
        raise ValueError("training set is empty")
    runs, positive = model.params.shape[:-1], labels > 0.5
    seeds = config.seed + np.arange(math.prod(runs), dtype=object)  # Python ints: no int64 bound
    adam = nn.AdamState.for_params(model.params, learning_rate=config.learning_rate)
    n_batches = math.ceil(n_rows / config.batch_size)
    # one plan for the full batches and one for a final partial batch, both
    # writing into one gradient vector
    sizes = {min(config.batch_size, n_rows), n_rows - (n_batches - 1) * config.batch_size}
    grad = np.empty_like(model.params)
    plans = {size: _plan(model, runs + (size,), grad) for size in sizes}
    loss_history, accuracy_history = [], []
    for epoch in range(config.epochs):
        running = np.zeros(runs)
        for index in range(n_batches):
            batch = slice(index * config.batch_size, (index + 1) * config.batch_size)
            y = labels[batch]
            loss, grad = loss_and_gradients(model, features[batch], y, plans[len(y)])
            if not np.isfinite(loss).all():
                run = np.flatnonzero(~np.isfinite(loss))[0]
                raise DataError(
                    f"training diverged: loss {np.ravel(loss)[run]} at epoch "
                    f"{epoch + 1}/{config.epochs}, batch {index + 1}/{n_batches} "
                    f"(seed {seeds[run]})"
                )
            nn.adam_step(model.params, grad, adam)
            running += loss * len(y)
        loss_history.append(running / n_rows)
        try:
            correct = [np.count_nonzero(predict(group, features) == positive, axis=-1)
                       for group in run_groups(model, n_rows)]
        except DataError as exc:
            raise DataError(f"training diverged by the end of epoch {epoch + 1}/{config.epochs}: "
                            f"{exc}") from None
        accuracy_history.append(np.hstack(correct).reshape(runs) / n_rows)
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
            "n_entangler_layers": ENTANGLER_LAYERS,
            "output_threshold": OUTPUT_THRESHOLD,
        },
        "layers": [
            layer.to_dict(arrays) for layer, arrays in zip(model.layers, _views(model.params, model.layout))
        ],
        "seed": model.seed,
        "history": model.history,
    }


def save_model(model: Model, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(model), handle, indent=2, sort_keys=True)
        handle.write("\n")
