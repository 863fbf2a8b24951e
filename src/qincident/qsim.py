"""Exact simulation of the trainable quantum layer.

The circuit is an angle embedding (RX(x_i) on qubit i) followed by L basic
entangler layers (a trainable RX per qubit, then a ring of CNOTs); the
readout is the vector of per-qubit Pauli-Z expectations, computed exactly
with no shot sampling.  Qubit 0 is the most significant bit of the
basis-state index.  The CNOT ring for n >= 3 qubits is (0->1), (1->2), ...,
(n-1->0); two qubits get a single CNOT (0->1), one qubit none.

One entangler layer (L=1, the shipped models) has a closed form.  RX(x_i)
and RX(w_i) merge into RX(a_i) with a_i = x_i + w_i, the register is a
product state with <(-1)**b_i> = cos(a_i), and the ring only XORs bits:
output bit j is the XOR of the input bits in a set S_j.  Hence

    <Z_j> = prod_{i in S_j} cos(a_i),
    d<Z_j>/dx_i = d<Z_j>/dw_i = -sin(a_i) * prod_{k in S_j, k != i} cos(a_k)

for i in S_j, and 0 otherwise; for 4 qubits S = {1,2,3}, {0,1}, {0,1,2},
{0,1,2,3}.  In the terms of Schuld, Sweke & Meyer (arXiv:2008.08605) the
L=1 layer is a degree-1 Fourier series in each angle.

``forward_batch`` and ``gradients_batch`` are what the models run: the
closed form for L=1, the statevector simulation and stacked parameter-shift
rule for L >= 2.  Both take a population's circuits at once, inputs
(R, B, n) with weights (R, L, n).  ``quantum_forward`` and ``quantum_gradients`` wrap them
for one embedding, for ``gradcheck``.
"""

from __future__ import annotations

import numpy as np

_HALF_PI = 0.5 * np.pi


# -- tensor kernels ----------------------------------------------------------
#
# States are arrays of shape batch_shape + (2,)*n: a batch of embeddings,
# and for parameter shift a leading axis of stacked shifted circuits.

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
    """<Z_j> = prod_{i in S_j} cos(x_i + w_i) for (..., B, n) inputs and
    (..., 1, n) weights."""
    sets, _ = _xor_sets(inputs.shape[-1])
    cos = np.cos(inputs + weights)
    return np.prod(np.where(sets, cos[..., np.newaxis, :], 1.0), axis=-1)


def _one_layer_gradients(
    inputs: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form values and derivatives for (..., B, n) inputs and
    (..., 1, n) weights.

    The derivative in angle i is -sin(a_i) times the product over S_j
    without factor i, built from the cosines that remain rather than by
    dividing the full product by cos(a_i), which may be zero.
    """
    sets, others = _xor_sets(inputs.shape[-1])
    angles = inputs + weights
    cos = np.cos(angles)
    values = np.prod(np.where(sets, cos[..., np.newaxis, :], 1.0), axis=-1)
    rest = np.prod(np.where(others, cos[..., np.newaxis, np.newaxis, :], 1.0), axis=-1)
    d_inputs = np.where(sets.T, -np.sin(angles)[..., np.newaxis] * rest, 0.0)
    return values, d_inputs, d_inputs[..., np.newaxis, :, :].copy()


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

    ``inputs`` has shape (B, n) with ``weights`` (L, n), or (R, B, n) with
    (R, L, n) for a population of R circuits.  One entangler layer takes
    the closed form, deeper circuits the statevector simulation.
    """
    inputs = np.asarray(inputs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if weights.shape[-2] == 1:
        return _one_layer_forward(inputs, weights)
    return _statevector_batch(inputs, weights)


def gradients_batch(
    inputs: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values plus exact derivatives for a batch.

    One entangler layer takes the closed form; deeper circuits take the
    parameter-shift rule over stacked statevector circuits, one run of a
    population at a time.

    inputs: (B, n); weights: (L, n).
    Returns (values (B, n), d_inputs (B, n, n), d_weights (B, L, n, n)).
    A population's (R, B, n) inputs and (R, L, n) weights give the same
    with a leading R axis.
    """
    inputs = np.asarray(inputs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if weights.shape[-2] == 1:
        return _one_layer_gradients(inputs, weights)
    if weights.ndim == 2:
        return _shift_gradients(inputs, weights)
    runs = [_shift_gradients(x, w) for x, w in zip(inputs, weights)]
    return tuple(np.stack(parts) for parts in zip(*runs))


def _one_sample(inputs, weights) -> tuple[np.ndarray, np.ndarray]:
    inputs = np.asarray(inputs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or inputs.shape != (weights.shape[1],):
        raise ValueError(
            f"expected inputs (n,) and weights (L, n), got {inputs.shape} and {weights.shape}"
        )
    return inputs[np.newaxis], weights


def quantum_forward(inputs, weights) -> np.ndarray:
    """Z expectations of one embedding [n] by statevector simulation, any L.

    ``gradcheck`` differentiates this numerically, so its reference never
    goes through the L=1 closed form that ``gradients_batch`` takes.
    """
    return _statevector_batch(*_one_sample(inputs, weights))[0]


def quantum_gradients(inputs, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``gradients_batch`` for one embedding [n]: (values [n], d_inputs
    [n, n], d_weights [L, n, n]); ``d_inputs[i, j]`` is d<Z_j>/dx_i."""
    values, d_inputs, d_weights = gradients_batch(*_one_sample(inputs, weights))
    return values[0], d_inputs[0], d_weights[0]
