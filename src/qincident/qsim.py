"""Exact statevector simulation of the trainable quantum layer.

The layer circuit is an angle embedding (one RX rotation per qubit, angles
taken from the classical inputs) followed by one or more basic entangler
layers (one trainable RX per qubit, then a ring of CNOTs).  Readout is the
vector of per-qubit Pauli-Z expectations, computed exactly from the 2**n
complex amplitudes.  There is no shot sampling anywhere, so every output is
deterministic and the parameter-shift rule gives analytically exact
derivatives.

Conventions:

* Qubit 0 is the most significant bit of the basis-state index, i.e.
  ``|q0 q1 ... q_{n-1}>`` lives at index ``q0*2**(n-1) + ... + q_{n-1}``.
* All angles are radians; gates are 2*pi periodic in their parameter.
* The CNOT ring for n >= 3 qubits is (0->1), (1->2), ..., (n-1->0).
  Two qubits get a single CNOT (0->1); one qubit gets no entangling gate.

One entangler layer (L=1, the shipped models) has an exact closed form.
The embedding RX(x_i) and the trained RX(w_i) act back to back on qubit i,
so they merge into RX(a_i) with a_i = x_i + w_i, and the register is a
product state whose bits b_i are independent with <(-1)**b_i> = cos(a_i).
The CNOT ring only permutes basis states: output bit j is the XOR of the
input bits in a set S_j (a linear map over GF(2)).  Hence

    <Z_j> = prod_{i in S_j} cos(a_i),
    d<Z_j>/dx_i = d<Z_j>/dw_i = -sin(a_i) * prod_{k in S_j, k != i} cos(a_k)

for i in S_j, and 0 otherwise.  For 4 qubits S = {1,2,3}, {0,1}, {0,1,2},
{0,1,2,3}; for 2 qubits S = {0}, {0,1}; one qubit gives S = {0}.  In the
terms of Schuld, Sweke & Meyer (arXiv:2008.08605) the L=1 layer is a
degree-1 Fourier series in each angle.  ``forward_batch`` and
``gradients_batch`` use this closed form for L=1, which is the training and
inference hot path; deeper circuits (L >= 2) run the statevector and
stacked parameter-shift kernels.  The Kronecker-product oracle in
``gradcheck`` judges both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_ATOL = 1e-10
_HALF_PI = 0.5 * np.pi


@dataclass(frozen=True)
class QuantumLayerSpec:
    """Circuit shape: register width and number of entangler layers."""

    n_qubits: int
    n_entangler_layers: int = 1

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.n_entangler_layers < 1:
            raise ValueError(
                f"n_entangler_layers must be >= 1, got {self.n_entangler_layers}"
            )

    @property
    def weights_shape(self) -> tuple[int, int]:
        return (self.n_entangler_layers, self.n_qubits)


@dataclass
class QuantumLayerParams:
    """Trainable rotation angles, shape [n_entangler_layers, n_qubits]."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 2:
            raise ValueError("weights must be a 2-d [layers, qubits] array")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")

    @classmethod
    def random(cls, spec: QuantumLayerSpec, rng: np.random.Generator) -> "QuantumLayerParams":
        """Angles drawn uniform in [0, 2*pi), the natural domain of the gates."""
        return cls(rng.uniform(0.0, 2.0 * np.pi, size=spec.weights_shape))


@dataclass
class StateVector:
    """An n-qubit register as a flat array of 2**n complex amplitudes."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (2**self.n_qubits,):
            raise ValueError(
                f"expected {2**self.n_qubits} amplitudes for {self.n_qubits} "
                f"qubits, got shape {self.amplitudes.shape}"
            )

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        amps = np.zeros(2**n_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return cls(n_qubits, amps)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def _tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.n_qubits)


@dataclass(frozen=True)
class QuantumGradient:
    """Exact derivatives of all Z expectations.

    ``d_inputs[i, j]`` is the derivative of output j with respect to input
    angle i; ``d_weights[l, i, j]`` the derivative of output j with respect
    to the layer-l rotation on qubit i.
    """

    d_inputs: np.ndarray
    d_weights: np.ndarray


# -- tensor kernels ----------------------------------------------------------
#
# States are handled as arrays of shape batch_shape + (2,)*n so a single code
# path serves the per-register public ops (empty batch) and the batched
# training/gradient evaluations (stacked shifted circuits).

def _rx(psi: np.ndarray, n: int, qubit: int, angle) -> np.ndarray:
    """RX(angle) on one qubit; ``angle`` broadcasts over the batch axes."""
    axis = psi.ndim - n + qubit
    a0 = np.take(psi, 0, axis=axis)
    a1 = np.take(psi, 1, axis=axis)
    half = 0.5 * np.asarray(angle, dtype=float)
    cos = np.cos(half)
    sin = np.sin(half)
    if cos.ndim:
        # pad with singleton qubit axes so the batch-shaped angles broadcast
        pad = cos.shape + (1,) * (n - 1)
        cos = cos.reshape(pad)
        sin = sin.reshape(pad)
    isin = 1j * sin
    return np.stack((cos * a0 - isin * a1, cos * a1 - isin * a0), axis=axis)


def _cnot(psi: np.ndarray, n: int, control: int, target: int) -> np.ndarray:
    """Flip the target qubit on the control=1 half of the state."""
    axis_c = psi.ndim - n + control
    axis_t = psi.ndim - n + target
    c0 = np.take(psi, 0, axis=axis_c)
    c1 = np.take(psi, 1, axis=axis_c)
    t_axis = axis_t - 1 if axis_t > axis_c else axis_t
    return np.stack((c0, np.flip(c1, axis=t_axis)), axis=axis_c)


_Z_SIGNS_CACHE: dict[int, np.ndarray] = {}


def _z_signs(n: int) -> np.ndarray:
    """[2**n, n] matrix of +/-1: column i is the Z_i diagonal."""
    signs = _Z_SIGNS_CACHE.get(n)
    if signs is None:
        idx = np.arange(2**n)
        signs = np.empty((2**n, n), dtype=float)
        for qubit in range(n):
            bits = (idx >> (n - 1 - qubit)) & 1
            signs[:, qubit] = 1.0 - 2.0 * bits
        _Z_SIGNS_CACHE[n] = signs
    return signs


def _expectations(psi: np.ndarray, n: int) -> np.ndarray:
    probs = psi.real**2 + psi.imag**2
    flat = probs.reshape(probs.shape[: psi.ndim - n] + (2**n,))
    return flat @ _z_signs(n)


def _ring(n: int) -> list[tuple[int, int]]:
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]  # a 2-cycle ring would add a redundant second CNOT
    return [(q, (q + 1) % n) for q in range(n)]


# -- public register operations ----------------------------------------------

def apply_rx(state: StateVector, qubit: int, angle: float) -> StateVector:
    """Rotate one qubit by RX(angle) = [[cos a/2, -i sin a/2], [-i sin a/2, cos a/2]]."""
    if not 0 <= qubit < state.n_qubits:
        raise IndexError(f"qubit {qubit} out of range for {state.n_qubits} qubits")
    out = _rx(state._tensor(), state.n_qubits, qubit, float(angle))
    return StateVector(state.n_qubits, out.reshape(-1))


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """CNOT with the given control and target qubits."""
    n = state.n_qubits
    if control == target:
        raise ValueError("control and target must differ")
    if not (0 <= control < n and 0 <= target < n):
        raise IndexError(f"qubit pair ({control}, {target}) out of range for {n} qubits")
    out = _cnot(state._tensor(), n, control, target)
    return StateVector(n, out.reshape(-1))


def angle_embedding(state: StateVector, inputs) -> StateVector:
    """RX(inputs[i]) on qubit i, ascending; encodes classical values as angles."""
    inputs = np.asarray(inputs, dtype=float)
    n = state.n_qubits
    if inputs.shape != (n,):
        raise ValueError(f"expected {n} input angles, got shape {inputs.shape}")
    psi = state._tensor()
    for qubit in range(n):
        psi = _rx(psi, n, qubit, inputs[qubit])
    return StateVector(n, psi.reshape(-1))


def basic_entangler_layer(state: StateVector, layer_weights) -> StateVector:
    """One trainable RX per qubit, then the CNOT ring."""
    layer_weights = np.asarray(layer_weights, dtype=float)
    n = state.n_qubits
    if layer_weights.shape != (n,):
        raise ValueError(f"expected {n} layer weights, got shape {layer_weights.shape}")
    psi = state._tensor()
    for qubit in range(n):
        psi = _rx(psi, n, qubit, layer_weights[qubit])
    for control, target in _ring(n):
        psi = _cnot(psi, n, control, target)
    return StateVector(n, psi.reshape(-1))


def z_expectations(state: StateVector) -> np.ndarray:
    """Per-qubit <Z>: +1 weight where the qubit bit is 0, -1 where it is 1."""
    return _expectations(state._tensor(), state.n_qubits)


def _check_shapes(inputs: np.ndarray, params: QuantumLayerParams, spec: QuantumLayerSpec):
    if inputs.shape != (spec.n_qubits,):
        raise ValueError(
            f"expected {spec.n_qubits} input angles, got shape {inputs.shape}"
        )
    if params.weights.shape != spec.weights_shape:
        raise ValueError(
            f"weights shape {params.weights.shape} does not match spec "
            f"{spec.weights_shape}"
        )


def quantum_forward(inputs, params: QuantumLayerParams, spec: QuantumLayerSpec) -> np.ndarray:
    """Full layer pass: fresh |0..0>, embed, entangle, read out Z expectations."""
    inputs = np.asarray(inputs, dtype=float)
    _check_shapes(inputs, params, spec)
    state = StateVector.zero(spec.n_qubits)
    state = angle_embedding(state, inputs)
    for layer_weights in params.weights:
        state = basic_entangler_layer(state, layer_weights)
    return z_expectations(state)


# -- batched evaluation: closed form for L=1, statevector for L >= 2 ----------

_XOR_SETS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _xor_sets(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The S_j sets of the L=1 closed form (see the module docstring).

    Returns ``sets``, an [n, n] boolean matrix whose row j marks S_j, and
    ``others``, an [n, n, n] mask with ``others[i, j]`` = S_j without i.
    Each bit is tracked as a GF(2) mask over the input bits through the ring.
    """
    cached = _XOR_SETS_CACHE.get(n)
    if cached is None:
        masks = [1 << qubit for qubit in range(n)]
        for control, target in _ring(n):
            masks[target] ^= masks[control]
        sets = np.array([[(mask >> i) & 1 for i in range(n)] for mask in masks], dtype=bool)
        others = sets[np.newaxis] & ~np.eye(n, dtype=bool)[:, np.newaxis, :]
        cached = _XOR_SETS_CACHE[n] = (sets, others)
    return cached


def _one_layer_forward(inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """<Z_j> = prod_{i in S_j} cos(x_i + w_i) for (..., n) inputs, (1, n) weights."""
    sets, _ = _xor_sets(inputs.shape[-1])
    cos = np.cos(inputs + weights[0])
    return np.prod(np.where(sets, cos[..., np.newaxis, :], 1.0), axis=-1)


def _one_layer_gradients(
    inputs: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form values and derivatives for shared (1, n) weights.

    The derivative in angle i is -sin(a_i) times the product over S_j
    without factor i, built from the cosines that remain rather than by
    dividing the full product by cos(a_i), which may be zero.
    """
    sets, others = _xor_sets(inputs.shape[-1])
    angles = inputs + weights[0]
    cos = np.cos(angles)
    values = np.prod(np.where(sets, cos[:, np.newaxis, :], 1.0), axis=-1)
    rest = np.prod(np.where(others, cos[:, np.newaxis, np.newaxis, :], 1.0), axis=-1)
    d_inputs = np.where(sets.T, -np.sin(angles)[:, :, np.newaxis] * rest, 0.0)
    return values, d_inputs, d_inputs[:, np.newaxis].copy()


def _statevector_batch(inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Z expectations by simulating all 2**n amplitudes; any L.

    ``inputs`` has shape (..., n).  ``weights`` is either a shared (L, n)
    array or a (V, L, n) array whose leading axis matches the leading axis
    of ``inputs`` (used for stacked parameter-shift variants).
    """
    n = inputs.shape[-1]
    batch = inputs.shape[:-1]
    psi = np.zeros(batch + (2,) * n, dtype=np.complex128)
    psi[(...,) + (0,) * n] = 1.0
    for qubit in range(n):
        psi = _rx(psi, n, qubit, inputs[..., qubit])
    ring = _ring(n)
    for layer in range(weights.shape[-2]):
        for qubit in range(n):
            angle = weights[..., layer, qubit]
            if angle.ndim:
                # per-variant weights: pad to broadcast over the sample axis
                angle = angle.reshape(angle.shape + (1,) * (len(batch) - angle.ndim))
            psi = _rx(psi, n, qubit, angle)
        for control, target in ring:
            psi = _cnot(psi, n, control, target)
    return _expectations(psi, n)


def _shift_gradients(
    inputs: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values plus exact parameter-shift derivatives on the statevector path.

    Every parameterized gate is a single-parameter rotation, so
    d<Z_j>/d theta = (f_j(theta + pi/2) - f_j(theta - pi/2)) / 2 exactly.
    All shifted circuits are stacked into one leading axis and evaluated in
    a single pass.
    """
    n_samples, n = inputs.shape
    n_layers = weights.shape[0]
    n_coords = n + n_layers * n
    n_variants = 1 + 2 * n_coords

    in_stack = np.broadcast_to(inputs, (n_variants,) + inputs.shape).copy()
    w_stack = np.broadcast_to(weights, (n_variants,) + weights.shape).copy()
    for coord in range(n):
        in_stack[1 + 2 * coord, :, coord] += _HALF_PI
        in_stack[2 + 2 * coord, :, coord] -= _HALF_PI
    for coord in range(n_layers * n):
        layer, qubit = divmod(coord, n)
        variant = 1 + 2 * n + 2 * coord
        w_stack[variant, layer, qubit] += _HALF_PI
        w_stack[variant + 1, layer, qubit] -= _HALF_PI

    results = _statevector_batch(in_stack, w_stack)  # (V, B, n)
    values = results[0]
    diffs = 0.5 * (results[1::2] - results[2::2])  # (n_coords, B, n)
    d_inputs = np.transpose(diffs[:n], (1, 0, 2))
    d_weights = np.transpose(
        diffs[n:].reshape(n_layers, n, n_samples, n), (2, 0, 1, 3)
    )
    return values, d_inputs, d_weights


def forward_batch(inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Z expectations for a batch of embeddings.

    ``inputs`` has shape (..., n) and ``weights`` (L, n).  One entangler
    layer takes the closed form, deeper circuits the statevector simulation.
    """
    inputs = np.asarray(inputs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if weights.shape[0] == 1:
        return _one_layer_forward(inputs, weights)
    return _statevector_batch(inputs, weights)


def gradients_batch(
    inputs: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values plus exact derivatives for a batch.

    One entangler layer takes the closed form; deeper circuits take the
    parameter-shift rule over stacked statevector circuits.

    inputs: (B, n); weights: (L, n).
    Returns (values (B, n), d_inputs (B, n, n), d_weights (B, L, n, n)).
    """
    inputs = np.asarray(inputs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if weights.shape[0] == 1:
        return _one_layer_gradients(inputs, weights)
    return _shift_gradients(inputs, weights)


def quantum_gradients(
    inputs, params: QuantumLayerParams, spec: QuantumLayerSpec
) -> QuantumGradient:
    """Parameter-shift derivatives of every output w.r.t. every angle."""
    inputs = np.asarray(inputs, dtype=float)
    _check_shapes(inputs, params, spec)
    _, d_inputs, d_weights = gradients_batch(inputs[np.newaxis], params.weights)
    return QuantumGradient(d_inputs=d_inputs[0], d_weights=d_weights[0])
