"""Dense-layer building blocks: activations, binary cross-entropy,
Glorot initialization, and Adam.

Layers work on batches stacked along the first axis.  Batch losses are
averaged (not summed), and the final partial batch of an epoch is used at
its natural size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

ACTIVATIONS = ("relu", "sigmoid")
BCE_EPS = 1e-7


def _sigmoid(x: np.ndarray) -> np.ndarray:
    flat = np.ravel(x).astype(float)
    out = np.empty_like(flat)
    pos = flat >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-flat[pos]))
    exp = np.exp(flat[~pos])
    out[~pos] = exp / (1.0 + exp)
    return out.reshape(np.shape(x))


def activate(kind: str, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "sigmoid":
        return _sigmoid(x)
    raise ValueError(f"unknown activation {kind!r}")


def activate_deriv(kind: str, pre_activation) -> np.ndarray:
    """Derivative evaluated at the pre-activation; relu'(0) is defined as 0."""
    z = np.asarray(pre_activation, dtype=float)
    if kind == "relu":
        return np.where(z > 0, 1.0, 0.0)
    if kind == "sigmoid":
        s = _sigmoid(z)
        return s * (1.0 - s)
    raise ValueError(f"unknown activation {kind!r}")


@dataclass
class DenseLayer:
    """Fully connected layer: weights [out, in], biases [out].

    Follows the layer protocol of ``model``: ``forward``,
    ``forward_cached``/``backward``, ``to_dict``/``from_dict``, and
    ``param_names``, the trainable arrays in their flat-vector order.
    """

    weights: np.ndarray
    biases: np.ndarray
    activation: str = "relu"
    param_names: ClassVar[tuple[str, ...]] = ("weights", "biases")

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.biases = np.asarray(self.biases, dtype=float)
        if self.weights.ndim != 2 or self.biases.shape != (self.weights.shape[0],):
            raise ValueError(
                f"inconsistent layer shapes {self.weights.shape} / {self.biases.shape}"
            )
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.biases))):
            raise ValueError("layer parameters must be finite")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        return dense_forward(self, x)[1]

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        z, out = dense_forward(self, x)
        return out, (x, z)

    def backward(self, cache: tuple, d_out: np.ndarray) -> tuple[np.ndarray, tuple]:
        """(d_input, (d_weights, d_biases)) from ``forward_cached``'s cache."""
        d_w, d_b, d_in = dense_backward(self, *cache, d_out)
        return d_in, (d_w, d_b)

    def to_dict(self) -> dict:
        return {
            "type": "dense",
            "in_dim": self.in_dim,
            "out_dim": self.out_dim,
            "activation": self.activation,
            "weights": self.weights.ravel().tolist(),
            "biases": self.biases.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "DenseLayer":
        weights = np.array(doc["weights"], dtype=float).reshape(doc["out_dim"], doc["in_dim"])
        return cls(weights, np.array(doc["biases"]), doc["activation"])


def init_layer(
    in_dim: int, out_dim: int, rng: np.random.Generator, activation: str = "relu"
) -> DenseLayer:
    """Glorot-uniform weights in +/- sqrt(6/(in+out)) drawn from ``rng``
    (a model draws all of its layers from one stream), zero biases."""
    if in_dim < 1 or out_dim < 1:
        raise ValueError("layer dimensions must be >= 1")
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    weights = rng.uniform(-limit, limit, size=(out_dim, in_dim))
    return DenseLayer(weights, np.zeros(out_dim), activation)


def dense_forward(layer: DenseLayer, x) -> tuple[np.ndarray, np.ndarray]:
    """Returns (pre_activation, output) for ``x`` [batch, in]."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != layer.in_dim:
        raise ValueError(f"expected input width {layer.in_dim}, got {x.shape[-1]}")
    z = x @ layer.weights.T + layer.biases
    return z, activate(layer.activation, z)


def dense_backward(
    layer: DenseLayer, x: np.ndarray, z: np.ndarray, d_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chain-rule step for a [batch, in] input: returns (d_weights,
    d_biases, d_input)."""
    dz = d_out * activate_deriv(layer.activation, z)
    return dz.T @ x, dz.sum(axis=0), dz @ layer.weights


def bce_loss(prediction, label) -> np.ndarray:
    """Binary cross-entropy with predictions clamped into [eps, 1-eps]."""
    p = np.clip(np.asarray(prediction, dtype=float), BCE_EPS, 1.0 - BCE_EPS)
    y = np.asarray(label, dtype=float)
    return -(y * np.log(p) + (1.0 - y) * np.log1p(-p))


def bce_grad(prediction, label) -> np.ndarray:
    """d loss / d prediction, evaluated at the clamped prediction."""
    p = np.clip(np.asarray(prediction, dtype=float), BCE_EPS, 1.0 - BCE_EPS)
    y = np.asarray(label, dtype=float)
    return (p - y) / (p * (1.0 - p))


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 16
    learning_rate: float = 0.001
    seed: int = 0
    shuffle: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class AdamState:
    """First/second moments laid out like the flat parameter vector, plus
    the shared step counter."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def for_params(cls, params: np.ndarray, learning_rate: float = 0.001) -> "AdamState":
        return cls(np.zeros_like(params), np.zeros_like(params), learning_rate=learning_rate)


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of the flat ``params``, in place."""
    if params.shape != grad.shape or params.shape != state.first_moment.shape:
        raise ValueError("params, grad and state must have matching shapes")
    state.step_count += 1
    mc = 1.0 - state.beta1**state.step_count
    vc = 1.0 - state.beta2**state.step_count
    m = state.first_moment = state.beta1 * state.first_moment + (1.0 - state.beta1) * grad
    v = state.second_moment = state.beta2 * state.second_moment + (1.0 - state.beta2) * grad * grad
    params -= state.learning_rate * (m / mc) / (np.sqrt(v / vc) + state.epsilon)
