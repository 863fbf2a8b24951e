"""Exact simulation of the trainable quantum layer.

The circuit is an angle embedding (RX(x_i) on qubit i) followed by L basic
entangler layers (a trainable RX per qubit, then a ring of CNOTs); the
readout is the vector of per-qubit Pauli-Z expectations, computed exactly
with no shot sampling.  Qubit 0 is the most significant bit of the
basis-state index.  The CNOT ring for n >= 3 qubits is (0->1), (1->2), ...,
(n-1->0); two qubits get a single CNOT (0->1), one qubit none.

Every depth has one closed form.  RX(x_i) and the first layer's RX(w_0i)
merge into angles theta = (x + w_0, w_1, ..., w_{L-1}), rotation k = (layer
l, qubit i) at index l*n + i.  Conjugating by a CNOT maps X-strings to
X-strings and Z-strings to Z-strings, so the rings move past every
rotation: U = C^L prod_k exp(-i theta_k P_k / 2) with commuting X-strings
P_k = C^-l X_i C^l, and Z_j becomes the Z-string C^-L Z_j C^L.  Hence

    <Z_j> = sum_A (-1)**(|A|/2) prod_{k in A} sin(theta_k)
                                prod_{k in anti_j \\ A} cos(theta_k),

with anti_j the rotations whose P_k anticommutes with that Z-string and A
running over the subsets of anti_j whose X-strings multiply to the
identity: the commuting-X (IQP) form of Shepherd & Bremner
(arXiv:0809.0847).  So at every depth the layer is a fixed trigonometric
polynomial of degree at most 1 in each angle (Schuld, Sweke & Meyer,
arXiv:2008.08605).  At L=1, A is empty: <Z_j> = prod_{i in S_j} cos(x_i +
w_i), where the ring XORs the input bits S_j (= anti_j) into bit j; for 4
qubits S = {1,2,3}, {0,1}, {0,1,2}, {0,1,2,3}.  A readout sums
2**(|anti_j| - rank) terms, the GF(2) rank of its X-strings: 1 at L=1, at
most 4 at L=2 and 16 at L=3 for n <= 5, but 2048 for n=6, L=4.  Every model
has L=1 (``model.ENTANGLER_LAYERS``); the deeper circuits serve the tests.

``forward_batch`` and ``gradients_batch`` evaluate every (n, L) circuit,
inputs (B, n) with weights (L, n) or a population's (R, B, n) with
(R, L, n), all rows in one pass.  The one reference they are held to is
the circuit itself, as Kronecker-product gate matrices (I (x) RX (x) I per
rotation, the CNOT ring as one permutation) multiplied in gate order:
``circuit_matrix`` gives the 2**n x 2**n unitaries, and ``quantum_forward``
the Z expectations of the state they make from |0...0>, for stacked
embeddings [..., n] with shared or per-row weights.  ``gradcheck`` compares ``forward_batch`` with it and
differentiates it, one stacked row per finite-difference probe.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np


def _ring(n: int) -> list[tuple[int, int]]:
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]  # a 2-cycle ring would add a redundant second CNOT
    return [(q, (q + 1) % n) for q in range(n)]


# -- the term formula -------------------------------------------------------------

def _anticommuting(n: int, n_layers: int) -> list[tuple[list[int], list[int]]]:
    """For each readout j, anti_j and the X-strings of its rotations, as
    GF(2) bit sets over the qubits.  They are tracked through the ring in
    reverse gate order: CNOT(c, t) sets x_t ^= x_c and z_c ^= z_t."""
    x_masks, layer, z_masks = [], [1 << q for q in range(n)], [1 << q for q in range(n)]
    for _ in range(n_layers):
        x_masks += layer
        for control, target in _ring(n)[::-1]:
            layer = [x ^ ((x >> control & 1) << target) for x in layer]
            z_masks = [z ^ ((z >> target & 1) << control) for z in z_masks]
    antis = [[k for k, x in enumerate(x_masks) if (x & z).bit_count() % 2] for z in z_masks]
    return [(anti, [x_masks[k] for k in anti]) for anti in antis]


def _null_space(masks: list[int]) -> list[int]:
    """A basis of the subsets of ``masks`` (bit sets over their positions)
    whose XOR is zero, by Gaussian elimination over GF(2)."""
    pivots: dict[int, tuple[int, int]] = {}  # leading bit -> (mask, subset)
    basis = []
    for position, mask in enumerate(masks):
        subset = 1 << position
        while mask and mask.bit_length() in pivots:
            pivot, pivot_subset = pivots[mask.bit_length()]
            mask, subset = mask ^ pivot, subset ^ pivot_subset
        if mask:
            pivots[mask.bit_length()] = (mask, subset)
        else:
            basis.append(subset)
    return basis


class _Terms(NamedTuple):
    """Index tables into the slots (cos, sin, -sin) of phi = (theta, 0): K
    angles, then a 0 whose cos and sin are the exact factor 1 and slope 0.
    n readouts of T terms; shorter readouts are padded with terms of sign 0."""

    signs: np.ndarray  # [n, T] (-1)**(|A|/2)
    factors: np.ndarray  # [n, T, K] slot of factor k of a term
    slopes: np.ndarray  # [K, n, T] slot of d factor_k / d theta_k
    rest: np.ndarray  # [K, n, T, K] the factors without factor k


@cache
def _terms(n: int, n_layers: int) -> _Terms:
    width = n * n_layers + 1  # slots per block
    one, zero = width - 1, 2 * width - 1  # cos 0, sin 0
    readouts = [(anti, _null_space(masks)) for anti, masks in _anticommuting(n, n_layers)]
    n_terms = max(2 ** len(basis) for _, basis in readouts)
    signs = np.zeros((n, n_terms))
    factors = np.full((n, n_terms, width - 1), one)
    for j, (anti, basis) in enumerate(readouts):
        subsets = [0]
        for vector in basis:
            subsets += [subset ^ vector for subset in subsets]
        for t, subset in enumerate(subsets):
            sines = [k for position, k in enumerate(anti) if subset >> position & 1]
            signs[j, t] = (-1) ** (len(sines) // 2)
            factors[j, t, anti] = anti
            factors[j, t, sines] = [width + k for k in sines]
    by_angle = np.moveaxis(factors, -1, 0)
    # d cos = -sin, d sin = cos, d 1 = 0
    slopes = np.where(by_angle < width, by_angle + 2 * width, by_angle - width)
    slopes[by_angle == one] = zero
    rest = np.where(np.eye(width - 1, dtype=bool)[:, None, None, :], one, factors)
    rest[slopes == zero] = one  # so that a slope 0 stays +0.0
    return _Terms(signs, factors, slopes, rest)


def _angles(inputs, weights) -> tuple[_Terms, np.ndarray]:
    """The circuit's term tables and phi = (x + w_0, w_1, ..., w_{L-1}, 0)
    for (..., B, n) inputs and (..., L, n) weights."""
    weights = np.asarray(weights, dtype=float)
    n_layers, n = weights.shape[-2:]
    phi = np.zeros(np.shape(inputs)[:-1] + (n_layers * n + 1,))
    phi[..., :-1] = weights.reshape(weights.shape[:-2] + (1, -1))
    phi[..., :n] += inputs  # w_0 + x, the same bits as x + w_0
    return _terms(n, n_layers), phi


def _products(slots: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The products of the slots ``table`` indexes, over its last (factor)
    axis: ``np.multiply.reduce(slots.take(table, axis=-1), axis=-1)``, in
    the same left-to-right order and so with the same bits, one factor at a
    time, so the gather of every factor of every term is never built."""
    out = slots.take(table[..., 0], axis=-1)
    for k in range(1, table.shape[-1]):
        out *= slots.take(table[..., k], axis=-1)
    return out


def forward_bytes(n: int, n_layers: int) -> int:
    """At most the bytes ``forward_batch`` holds at once per input row: the
    angles, their cos and sin and the slots made of them, then two [n, T]
    tables of term products beside the angles and slots."""
    return 8 * (5 * (n * n_layers + 1) + 2 * _terms(n, n_layers).signs.size)


def _values(terms: _Terms, slots: np.ndarray) -> np.ndarray:
    return np.add.reduce(terms.signs * _products(slots, terms.factors), axis=-1)


def forward_batch(inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Z expectations, (B, n) or a population's (R, B, n), in one pass."""
    terms, phi = _angles(inputs, weights)
    # the factors take no -sin slot
    return _values(terms, np.concatenate((np.cos(phi), np.sin(phi)), axis=-1))


def gradients_batch(
    inputs: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values (B, n), d_inputs (B, n, n), d_weights (B, L, n, n)), with a
    leading R axis for a population; ``d_inputs[..., i, j]`` = d<Z_j>/dx_i.

    A term's slope in angle k is the derivative of factor k times the product
    of the other factors, not the full product divided by factor k (maybe 0).
    As theta_i = x_i + w_0i, d/dx_i = d/dw_0i.
    """
    terms, phi = _angles(inputs, weights)
    sin = np.sin(phi)
    slots = np.concatenate((np.cos(phi), sin, -sin), axis=-1)
    slopes = slots.take(terms.slopes, axis=-1)
    slopes *= terms.signs
    slopes *= _products(slots, terms.rest)
    d_angles = np.add.reduce(slopes, axis=-1)  # [..., B, K, n]
    d_weights = d_angles.reshape(slots.shape[:-1] + np.shape(weights)[-2:] + (-1,))
    return _values(terms, slots), d_weights[..., 0, :, :], d_weights


def quantum_gradients(inputs, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``gradients_batch`` for one embedding [n]: (values [n], d_inputs
    [n, n], d_weights [L, n, n]); ``d_inputs[i, j]`` is d<Z_j>/dx_i."""
    inputs, weights = np.asarray(inputs, dtype=float), np.asarray(weights, dtype=float)
    values, d_inputs, d_weights = gradients_batch(inputs[np.newaxis], weights)
    return values[0], d_inputs[0], d_weights[0]


# -- the reference: the circuit as Kronecker-product gate matrices ---------------

def _rx_gates(angles: np.ndarray) -> np.ndarray:
    """The gates I_(2**q) (x) RX(angles[..., q]) (x) I_(2**(n-1-q))
    [..., n, 2**n, 2**n] of angles [..., n]: entry (r, c) of qubit q's gate
    is the identities' entry (1 where r and c agree on every other bit, else
    0) times RX's entry (bit q of r, bit q of c).  Qubit 0 is the most
    significant index bit, so it is the first factor."""
    n = angles.shape[-1]
    # slot 4q + 2k + l holds qubit q's RX entry (k, l); the last slot holds 0
    slots = np.zeros(angles.shape[:-1] + (4 * n + 1,), dtype=np.complex128)
    slots[..., 0:-1:4] = slots[..., 3:-1:4] = np.cos(0.5 * angles)
    slots[..., 1:-1:4] = slots[..., 2:-1:4] = -1j * np.sin(0.5 * angles)
    index = np.arange(2**n)
    bit = 1 << np.arange(n - 1, -1, -1)[:, None, None]  # qubit q's bit of an index
    entry = 4 * np.arange(n)[:, None, None] + 2 * (index[:, None] & bit > 0) + (index & bit > 0)
    return slots.take(np.where((index[:, None] ^ index) | bit == bit, entry, 4 * n), axis=-1)


def circuit_matrix(inputs, weights, columns: int | None = None) -> np.ndarray:
    """The unitaries [..., 2**n, 2**n] of the circuit, for embeddings
    [..., n] with shared (L, n) or per-row [..., L, n] weights, or only
    their first ``columns`` columns: the gates multiplied onto as many
    columns of the identity."""
    inputs, weights = np.asarray(inputs, dtype=float), np.asarray(weights, dtype=float)
    n = inputs.shape[-1]
    # the CNOT ring as one permutation: CNOT(c, t) flips bit t where bit c is set
    ends = np.arange(2**n)
    for control, target in _ring(n):
        ends ^= (ends >> (n - 1 - control) & 1) << (n - 1 - target)
    ring = np.eye(2**n, dtype=np.complex128)[:, ends]
    state = np.eye(2**n, columns, dtype=np.complex128)
    embedding = _rx_gates(inputs)
    for qubit in range(n):
        state = embedding[..., qubit, :, :] @ state
    layers = _rx_gates(weights)
    for layer in range(weights.shape[-2]):
        for qubit in range(n):
            state = layers[..., layer, qubit, :, :] @ state
        state = ring @ state
    return state


def quantum_forward(inputs, weights) -> np.ndarray:
    """Z expectations [..., n] of embeddings [..., n] with shared (L, n) or
    per-row [..., L, n] weights, from the Kronecker-product gates multiplied
    onto |0...0>: the reference that ``gradcheck`` holds the term formula
    to.  Z_j reads +1 on the basis states whose bit j is 0 and -1 on the
    others, one matrix-vector product per row, so a row's values have the
    same bits however many rows are stacked with it."""
    probs = np.abs(circuit_matrix(inputs, weights, 1)) ** 2  # [..., 2**n, 1]
    n = np.shape(inputs)[-1]
    bits = np.arange(2**n) >> np.arange(n - 1, -1, -1)[:, np.newaxis] & 1  # [n, 2**n]
    return ((1.0 - 2.0 * bits) @ probs)[..., 0]
