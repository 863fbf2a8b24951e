"""Dense-layer building blocks: activations, binary cross-entropy,
Glorot initialization, and Adam.

Layers work on batches of rows along the second-to-last axis.  A layer of a
population of R models holds its arrays with a leading run axis, weights
[R, out, in] and biases [R, out], and maps an input of [B, in] (one batch
shared by every run) or [R, B, in] to [R, B, out]; each run's slice is the
same arithmetic as one model's.  Batch losses are averaged (not summed),
and the final partial batch of an epoch is used at its natural size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

ACTIVATIONS = ("relu", "sigmoid")
BCE_EPS = 1e-7


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: with e = exp(-|x|) <= 1, it is 1/(1+e) for
    x >= 0 and e/(1+e) below."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def activate(kind: str, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "sigmoid":
        return _sigmoid(x)
    raise ValueError(f"unknown activation {kind!r}")


def activate_deriv(kind: str, pre_activation) -> np.ndarray:
    """Derivative evaluated at the pre-activation; relu'(0) is defined as 0.
    relu's is the boolean mask ``z > 0``, which multiplies as 1.0 and 0.0
    without a float temporary."""
    z = np.asarray(pre_activation, dtype=float)
    if kind == "relu":
        return z > 0
    if kind == "sigmoid":
        s = _sigmoid(z)
        return s * (1.0 - s)
    raise ValueError(f"unknown activation {kind!r}")


@dataclass
class DenseLayer:
    """Fully connected layer: weights [out, in], biases [out], each with a
    leading run axis in a population.

    Follows the layer protocol of ``model`` (``forward``, ``forward_cached``,
    ``backward`` into gradient views, ``to_dict``); ``param_names`` lists
    the trainable arrays in their flat-vector order.
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
        return self.weights.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[-2]

    def forward(self, x: np.ndarray) -> np.ndarray:
        return dense_forward(self, x)[1]

    def forward_bytes(self) -> int:
        """The bytes ``forward`` makes per row: the pre-activation and the
        output."""
        return 2 * 8 * self.out_dim

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        z, out = dense_forward(self, x)
        return out, (x, z)

    def backward(self, cache: tuple, d_out: np.ndarray, grads: list) -> np.ndarray:
        return dense_backward(self, *cache, d_out, grads)

    def to_dict(self) -> dict:
        return {
            "type": "dense",
            "in_dim": self.in_dim,
            "out_dim": self.out_dim,
            "activation": self.activation,
            "weights": self.weights.ravel().tolist(),
            "biases": self.biases.tolist(),
        }


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
    """Returns (pre_activation, output) for ``x`` [..., batch, in]."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != layer.in_dim:
        raise ValueError(f"expected input width {layer.in_dim}, got {x.shape[-1]}")
    z = x @ layer.weights.swapaxes(-1, -2)
    z += layer.biases[..., np.newaxis, :]
    return z, activate(layer.activation, z)


def dense_backward(
    layer: DenseLayer, x: np.ndarray, z: np.ndarray, d_out: np.ndarray, grads: list
) -> np.ndarray:
    """Chain-rule step for a [..., batch, in] input: writes (d_weights,
    d_biases), summed over the batch axis, into ``grads``; returns d_input."""
    dz = d_out * activate_deriv(layer.activation, z)
    d_weights, d_biases = grads
    np.matmul(dz.swapaxes(-1, -2), x, out=d_weights)
    np.add.reduce(dz, axis=-2, out=d_biases)
    return dz @ layer.weights


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

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be a finite number > 0, got {self.learning_rate!r}")


# Adam's moment decays and the denominator's guard, as in Kingma & Ba
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """First/second moments laid out like the flat parameters, plus the
    step counter, which every run of a population shares because all runs
    take every step together.  ``scratch`` holds two work arrays of that
    shape, made on the first step."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    learning_rate: float = 0.001
    scratch: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)

    @classmethod
    def for_params(cls, params: np.ndarray, learning_rate: float = 0.001) -> "AdamState":
        return cls(np.zeros_like(params), np.zeros_like(params), learning_rate=learning_rate)


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of the flat ``params``, in place.

    Element-wise, so a population's [R, P] parameters update as R models.
    The moments update in place too, and the intermediate terms go to the
    two scratch arrays ``state`` keeps, so a step allocates nothing after
    the first.  Each term is computed in the order of the expressions
    ``m = beta1*m + (1-beta1)*g``, ``v = beta2*v + ((1-beta2)*g)*g`` and
    ``params -= lr*(m/mc) / (sqrt(v/vc) + eps)``, which fixes its bits."""
    m, v = state.first_moment, state.second_moment
    if params.shape != grad.shape or params.shape != m.shape:
        raise ValueError("params, grad and state must have matching shapes")
    if state.scratch is None:
        state.scratch = (np.empty_like(params), np.empty_like(params))
    a, b = state.scratch
    state.step_count += 1
    mc = 1.0 - ADAM_BETA1**state.step_count
    vc = 1.0 - ADAM_BETA2**state.step_count
    np.multiply(m, ADAM_BETA1, out=m)
    np.multiply(1.0 - ADAM_BETA1, grad, out=a)
    m += a
    np.multiply(v, ADAM_BETA2, out=v)
    np.multiply(1.0 - ADAM_BETA2, grad, out=a)
    a *= grad
    v += a
    np.divide(m, mc, out=a)
    a *= state.learning_rate
    np.divide(v, vc, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPSILON
    a /= b
    params -= a
