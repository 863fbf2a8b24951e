"""Dense-layer building blocks: activations, binary cross-entropy,
Glorot initialization, and Adam.

Layers work on batches of rows along the second-to-last axis.  A layer of a
population of R models takes its arrays with a leading run axis, weights
[R, out, in] and biases [R, out], and maps an input of [B, in] (one batch
shared by every run) or [R, B, in] to [R, B, out]; each run's slice is the
same arithmetic as one model's.  Batch losses are averaged (not summed),
and the final partial batch of an epoch is used at its natural size.

A dense layer applies its activation in place on the pre-activation, so
its forward pass makes one array, and takes the derivative from that
output.  In training, ``dense_forward`` and ``dense_backward`` write into
the buffers ``DenseLayer.plan`` makes once per ``train`` call and batch size:
the output, over which the backward pass writes d_out * f'(z), and the input
gradient.  ``adam_step`` works a block of elements at a time, so its work
arrays do not grow with the parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BCE_EPS = 1e-7


def _sigmoid(x: np.ndarray, out=None) -> np.ndarray:
    """Overflow-free logistic: with e = exp(-|x|) <= 1, it is 1/(1+e) for
    x >= 0 and e/(1+e) below."""
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=out)


def activate(kind: str, x, out=None) -> np.ndarray:
    """The activation of ``x``, written into ``out`` if given (``out=x``
    applies it in place)."""
    if kind == "relu":
        return np.maximum(x, 0.0, out=out)
    if kind == "sigmoid":
        return _sigmoid(x, out)
    raise ValueError(f"unknown activation {kind!r}")


def activate_deriv(kind: str, output) -> np.ndarray:
    """Derivative at the pre-activation z, taken from the output f(z):
    relu's is the boolean mask ``f(z) > 0``, true exactly where z > 0
    (relu'(0) is 0), which multiplies as 1.0 and 0.0 without a float
    temporary; sigmoid's is s * (1 - s) with s = f(z)."""
    if kind == "relu":
        return output > 0
    return output * (1.0 - output)  # sigmoid, the one other kind ``activate`` takes


@dataclass(frozen=True)
class DenseLayer:
    """Fully connected layer: its arrays, weights [out_dim, in_dim] and
    biases [out_dim] (``shapes``), each with a leading run axis in a
    population, are passed to every method; the layer holds none.

    Follows the layer protocol of ``model`` (``forward``, ``plan``,
    ``forward_cached``, ``backward`` into gradient views, ``to_dict``).
    """

    in_dim: int
    out_dim: int
    activation: str = "relu"

    @property
    def shapes(self) -> tuple[tuple[int, ...], ...]:
        return (self.out_dim, self.in_dim), (self.out_dim,)

    def forward(self, arrays: list, x: np.ndarray) -> np.ndarray:
        return dense_forward(self, arrays, x)

    def forward_bytes(self) -> int:
        """The bytes ``forward`` holds per row: its input and its output,
        activated in place."""
        return 8 * (self.in_dim + self.out_dim)

    def plan(self, lead: tuple, first: bool) -> tuple:
        """A training step's buffers for rows of leading shape ``lead``: the
        output and the input gradient, which the first layer of a stack
        does not make (None), since nothing reads it."""
        return np.empty(lead + (self.out_dim,)), None if first else np.empty(lead + (self.in_dim,))

    def forward_cached(self, arrays: list, x: np.ndarray, buffers: tuple) -> tuple[np.ndarray, tuple]:
        out = dense_forward(self, arrays, x, buffers[0])
        return out, (x,) + buffers

    def backward(self, arrays: list, cache: tuple, d_out: np.ndarray, grads: list) -> np.ndarray | None:
        x, out, d_in = cache
        return dense_backward(self, arrays, x, out, d_out, grads, d_in)

    def gates(self, out: np.ndarray) -> np.ndarray:
        """Which of the units of an output [..., out_dim] pass their input:
        a ReLU's, exactly where z > 0 (relu(z) > 0); a sigmoid gates none,
        an empty [..., 0] pattern."""
        return out > 0 if self.activation == "relu" else out[..., :0] > 0

    def to_dict(self, arrays: list) -> dict:
        weights, biases = arrays
        return {
            "type": "dense",
            "in_dim": self.in_dim,
            "out_dim": self.out_dim,
            "activation": self.activation,
            "weights": weights.ravel().tolist(),
            "biases": biases.tolist(),
        }


def init_layer(
    in_dim: int, out_dim: int, rng: np.random.Generator, activation: str = "relu"
) -> tuple[DenseLayer, list]:
    """A layer and its arrays: Glorot-uniform weights in +/- sqrt(6/(in+out))
    drawn from ``rng`` (a model draws all of its layers from one stream),
    zero biases."""
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    weights = rng.uniform(-limit, limit, size=(out_dim, in_dim))
    return DenseLayer(in_dim, out_dim, activation), [weights, np.zeros(out_dim)]


def dense_forward(layer: DenseLayer, arrays: list, x: np.ndarray, out=None) -> np.ndarray:
    """The output for a float ``x`` [..., batch, in]: the pre-activation,
    written into ``out`` if given, then activated in place."""
    weights, biases = arrays
    z = np.matmul(x, weights.swapaxes(-1, -2), out=out)
    z += biases[..., np.newaxis, :]
    return activate(layer.activation, z, z)


def dense_backward(
    layer: DenseLayer, arrays: list, x: np.ndarray, out: np.ndarray, d_out: np.ndarray,
    grads: list, d_in: np.ndarray | None,
) -> np.ndarray | None:
    """Chain-rule step for a [..., batch, in] input and the layer's output:
    writes dz = d_out * f'(z) over ``out``, which a stack has no further use
    for once the next layer's backward has run, (d_weights, d_biases),
    summed over the batch axis, into ``grads``, and d_input into ``d_in``,
    which it returns; a None ``d_in`` skips d_input."""
    dz = np.multiply(d_out, activate_deriv(layer.activation, out), out=out)
    d_weights, d_biases = grads
    np.matmul(dz.swapaxes(-1, -2), x, out=d_weights)
    np.add.reduce(dz, axis=-2, out=d_biases)
    return None if d_in is None else np.matmul(dz, arrays[0], out=d_in)


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

# the elements ``adam_step`` updates at a time: each of its two work arrays
# holds this many, 128 KiB, however many parameters a population has
_ADAM_BLOCK = 1 << 14


@dataclass
class AdamState:
    """First/second moments laid out like the flat parameters, plus the
    step counter, which every run of a population shares because all runs
    take every step together.  ``scratch`` holds two work arrays of a block
    of elements (``_ADAM_BLOCK``), made on the first step."""

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

    Element-wise, so a population's [R, P] parameters update as R models,
    and so it runs over the elements one block of ``_ADAM_BLOCK`` at a
    time.  The moments update in place too, and the intermediate terms go
    to the two block-sized scratch arrays ``state`` keeps, so a step
    allocates nothing after the first; ``grad`` is only read.  Each term is
    computed in the order of the expressions ``m = beta1*m + (1-beta1)*g``,
    ``v = beta2*v + ((1-beta2)*g)*g`` and
    ``params -= lr*(m/mc) / (sqrt(v/vc) + eps)``, which fixes its bits.
    ``params`` must be C-contiguous (``Model.params`` is), and the moments
    are laid out like it."""
    if params.shape != grad.shape or params.shape != state.first_moment.shape:
        raise ValueError("params, grad and state must have matching shapes")
    if not params.flags.c_contiguous:
        raise ValueError("params must be C-contiguous, so that a step updates it as one vector")
    p, g, m, v = (array.reshape(-1) for array in (params, grad, state.first_moment, state.second_moment))
    if state.scratch is None:
        state.scratch = (np.empty(min(p.size, _ADAM_BLOCK)), np.empty(min(p.size, _ADAM_BLOCK)))
    state.step_count += 1
    mc = 1.0 - ADAM_BETA1**state.step_count
    vc = 1.0 - ADAM_BETA2**state.step_count
    for start in range(0, p.size, _ADAM_BLOCK):
        block = slice(start, start + _ADAM_BLOCK)
        pb, gb, mb, vb = p[block], g[block], m[block], v[block]
        a, b = (work[: len(pb)] for work in state.scratch)
        np.multiply(mb, ADAM_BETA1, out=mb)
        np.multiply(1.0 - ADAM_BETA1, gb, out=a)
        mb += a
        np.multiply(vb, ADAM_BETA2, out=vb)
        np.multiply(1.0 - ADAM_BETA2, gb, out=a)
        a *= gb
        vb += a
        np.divide(mb, mc, out=a)
        a *= state.learning_rate
        np.divide(vb, vc, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPSILON
        a /= b
        pb -= a
