"""The quantum layer: gate kernels, readout, forward pass, gradients.

Fixed expected values are hand-derived from the 2x2 / 4x4 gate matrices;
random sweeps are pinned against the dense-matrix oracle in gradcheck.
Registers are the (2,)*n amplitude tensors the ``qsim`` kernels act on,
with qubit 0 as the most significant bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qincident import gradcheck, model, qsim

NORM_ATOL = 1e-10


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return (amps / np.linalg.norm(amps)).reshape((2,) * n)


def basis_state(n, index):
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return amps.reshape((2,) * n)


def norm(psi):
    return float(np.sqrt(np.sum(np.abs(psi) ** 2)))


def embed(inputs):
    """RX(inputs[:, q]) on qubit q of a batch of |0..0> registers: the
    embedding step of the statevector path, with per-sample angles."""
    batch, n = inputs.shape
    psi = np.zeros((batch,) + (2,) * n, dtype=complex)
    psi[(slice(None),) + (0,) * n] = 1.0
    for qubit in range(n):
        psi = qsim._rx(psi, n, qubit, inputs[:, qubit])
    return psi.reshape(batch, -1)


def entangle(psi, layer_weights):
    """One basic entangler layer: RX(w_q) on every qubit, then the CNOT ring."""
    n = psi.ndim
    for qubit, angle in enumerate(layer_weights):
        psi = qsim._rx(psi, n, qubit, angle)
    for control, target in qsim._ring(n):
        psi = qsim._cnot(psi, n, control, target)
    return psi


class TestStateVector:
    def test_zero_state(self):
        # the statevector path starts from |000>: zero angles read +1 everywhere
        np.testing.assert_array_equal(
            qsim.quantum_forward(np.zeros((1, 3)), np.zeros((2, 3))), [[1.0, 1.0, 1.0]]
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_rows_with_their_own_weights_match_the_dense_oracle(self, n, layers):
        rng = np.random.default_rng(10 * n + layers)
        inputs = rng.uniform(-np.pi, np.pi, (5, n))
        weights = rng.uniform(-np.pi, np.pi, (5, layers, n))
        got = qsim.quantum_forward(inputs, weights)
        assert got.shape == (5, n)
        for row, x, w in zip(got, inputs, weights):
            np.testing.assert_allclose(row, gradcheck.dense_matrix_forward(x, w), rtol=0, atol=1e-12)

    def test_per_row_weights_must_match_the_rows(self):
        with pytest.raises(ValueError):
            qsim.quantum_forward(np.zeros((5, 3)), np.zeros((4, 1, 3)))


class TestApplyRx:
    def test_zero_angle_is_identity(self):
        s = random_state(3, seed=1)
        np.testing.assert_allclose(qsim._rx(s, 3, 1, 0.0), s, atol=1e-15)

    def test_pi_flips_single_qubit(self):
        # RX(pi)|0> = -i|1>, so <Z> = -1
        out = qsim._rx(basis_state(1, 0), 1, 0, np.pi)
        np.testing.assert_allclose(out, [0.0, -1.0j], atol=1e-15)
        np.testing.assert_allclose(qsim._expectations(out, 1), [-1.0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_norm_preserved(self, seed):
        rng = np.random.default_rng(seed + 100)
        out = qsim._rx(random_state(4, seed), 4, int(rng.integers(4)), rng.uniform(-10, 10))
        assert abs(norm(out) - 1.0) < NORM_ATOL


class TestApplyCnot:
    def test_control_zero_unchanged(self):
        s = basis_state(2, 0)  # |00>
        np.testing.assert_allclose(qsim._cnot(s, 2, 0, 1), s)

    def test_control_one_flips_target(self):
        # |10> (qubit 0 set, index 2) -> |11> (index 3)
        np.testing.assert_allclose(qsim._cnot(basis_state(2, 2), 2, 0, 1), basis_state(2, 3))

    def test_permutes_amplitudes(self):
        # 4x4 CNOT(0->1) permutation swaps indices 2 and 3
        amps = np.array([0.1, 0.2, 0.3, 0.4], dtype=complex)
        amps /= np.linalg.norm(amps)
        out = qsim._cnot(amps.reshape(2, 2), 2, 0, 1)
        np.testing.assert_allclose(out.reshape(-1), amps[[0, 1, 3, 2]])
        assert abs(norm(out) - 1.0) < NORM_ATOL


class TestAngleEmbedding:
    def test_all_zero_inputs_identity(self):
        np.testing.assert_allclose(embed(np.zeros((2, 4))), basis_state(4, 0).reshape(1, -1).repeat(2, 0))

    def test_pi_on_first_qubit(self):
        # flips qubit 0 up to the global -i phase: amplitude lands at index 8
        out = embed(np.array([[np.pi, 0, 0, 0], [0, 0, 0, 0]]))
        assert abs(abs(out[0, 8]) - 1.0) < 1e-12
        np.testing.assert_allclose(out[0, 8], -1.0j, atol=1e-12)
        np.testing.assert_allclose(out[1, 0], 1.0, atol=1e-12)  # per-sample angles

    def test_norm_one(self):
        rng = np.random.default_rng(7)
        out = embed(rng.uniform(-5, 5, (3, 4)))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=NORM_ATOL)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            qsim.quantum_forward([0.0, 0.0], np.zeros((1, 4)))


class TestBasicEntanglerLayer:
    def test_zero_weights_on_zero_state(self):
        s = basis_state(4, 0)
        np.testing.assert_allclose(entangle(s, np.zeros(4)), s)

    def test_cnot_ring_cascade(self):
        # |1000> -> |1100> -> |1110> -> |1111> -> |0111>: index 8 to index 7
        np.testing.assert_allclose(entangle(basis_state(4, 8), np.zeros(4)), basis_state(4, 7))

    def test_two_qubits_single_cnot(self):
        # |10> with zero weights: one CNOT (0->1) gives |11>
        assert qsim._ring(2) == [(0, 1)]
        out = entangle(basis_state(2, 2), np.zeros(2))
        assert abs(out.reshape(-1)[3]) == pytest.approx(1.0)

    def test_random_weights_norm(self):
        rng = np.random.default_rng(3)
        out = entangle(random_state(4, 3), rng.uniform(-7, 7, 4))
        assert abs(norm(out) - 1.0) < NORM_ATOL

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            qsim.quantum_forward(np.zeros(3), np.zeros((1, 4)))


class TestZExpectations:
    def test_zero_state(self):
        np.testing.assert_allclose(qsim._expectations(basis_state(4, 0), 4), [1, 1, 1, 1])

    def test_first_qubit_set(self):
        # |1000>
        np.testing.assert_allclose(qsim._expectations(basis_state(4, 8), 4), [-1, 1, 1, 1])

    def test_uniform_superposition(self):
        amps = np.full((2, 2), 0.5, dtype=complex)
        np.testing.assert_allclose(qsim._expectations(amps, 2), [0, 0], atol=1e-15)

    def test_range_bounds(self):
        for seed in range(10):
            exps = qsim._expectations(random_state(3, seed), 3)
            assert np.all(exps <= 1.0 + 1e-12) and np.all(exps >= -1.0 - 1e-12)


class TestQuantumForward:
    def test_all_zeros(self):
        np.testing.assert_allclose(qsim.quantum_forward(np.zeros(4), np.zeros((1, 4))), [1, 1, 1, 1])

    def test_pi_embedding_traces_ring(self):
        # embedding flips qubit 0; the ring then cascades it through 1..3 and clears it
        out = qsim.quantum_forward([np.pi, 0, 0, 0], np.zeros((1, 4)))
        np.testing.assert_allclose(out, [1, -1, -1, -1], atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            qsim.quantum_forward(np.zeros(3), np.zeros((1, 4)))
        with pytest.raises(ValueError):
            qsim.quantum_forward(np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError):
            qsim.quantum_gradients(np.zeros((2, 4)), np.zeros((1, 4)))

    def test_matches_dense_matrix_oracle(self):
        result = gradcheck.check_forward_oracle(seed=11, cases_per_shape=20)
        assert result.passed, result.line()

    @pytest.mark.parametrize("n,layers", [(2, 1), (3, 2), (4, 2)])
    def test_two_pi_periodicity(self, n, layers):
        rng = np.random.default_rng(n * 10 + layers)
        inputs = rng.uniform(-np.pi, np.pi, n)
        weights = rng.uniform(0, 2 * np.pi, (layers, n))
        base = qsim.quantum_forward(inputs, weights)
        shifted = qsim.quantum_forward(inputs + 2 * np.pi, weights)
        np.testing.assert_allclose(shifted, base, atol=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        inputs = rng.uniform(-2, 2, 3)
        weights = rng.uniform(0, 6, (2, 3))
        assert np.array_equal(qsim.quantum_forward(inputs, weights), qsim.quantum_forward(inputs, weights))

    def test_outputs_within_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            out = qsim.quantum_forward(rng.uniform(-9, 9, 4), rng.uniform(-9, 9, (2, 4)))
            assert np.all(np.abs(out) <= 1.0 + 1e-12)


class TestQuantumGradients:
    def test_single_qubit_analytic(self):
        # circuit RX(theta) then RX(0): <Z> = cos(theta), slope -1 at pi/2
        _, d_inputs, d_weights = qsim.quantum_gradients([np.pi / 2], np.zeros((1, 1)))
        np.testing.assert_allclose(d_inputs, [[-1.0]], atol=1e-12)
        np.testing.assert_allclose(d_weights, [[[-1.0]]], atol=1e-12)

    def test_zero_angles_extremum(self):
        _, d_inputs, _ = qsim.quantum_gradients(np.zeros(4), np.zeros((1, 4)))
        for i in range(4):
            assert abs(d_inputs[i, i]) < 1e-12

    def test_matches_finite_differences(self):
        result = gradcheck.check_parameter_shift(seed=12, n_cases=50)
        assert result.passed, result.line()

    def test_entries_bounded_and_finite(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            _, d_inputs, d_weights = qsim.quantum_gradients(
                rng.uniform(-6, 6, 4), rng.uniform(-6, 6, (2, 4))
            )
            for arr in (d_inputs, d_weights):
                assert np.all(np.isfinite(arr))
                assert np.all(np.abs(arr) <= 1.0 + 1e-12)


class TestBatchedPath:
    def test_batch_matches_single(self):
        rng = np.random.default_rng(21)
        weights = rng.uniform(0, 2 * np.pi, (2, 4))
        inputs = rng.uniform(-3, 3, (9, 4))
        batch = qsim.forward_batch(inputs, weights)
        for i, row in enumerate(inputs):
            np.testing.assert_allclose(batch[i], qsim.quantum_forward(row, weights), atol=1e-12)

    def test_gradients_batch_matches_single(self):
        rng = np.random.default_rng(22)
        weights = rng.uniform(0, 2 * np.pi, (1, 3))
        inputs = rng.uniform(-3, 3, (5, 3))
        values, d_in, d_w = qsim.gradients_batch(inputs, weights)
        for i, row in enumerate(inputs):
            single = qsim.quantum_gradients(row, weights)
            np.testing.assert_allclose(values[i], qsim.quantum_forward(row, weights), atol=1e-12)
            np.testing.assert_allclose(values[i], single[0], atol=1e-12)
            np.testing.assert_allclose(d_in[i], single[1], atol=1e-12)
            np.testing.assert_allclose(d_w[i], single[2], atol=1e-12)


class TestSpecValidation:
    """The circuit shape a model accepts and the angles it starts from."""

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            model.HybridModelConfig(kind="hybrid", n_qubits=0)
        with pytest.raises(ValueError):
            model.HybridModelConfig(kind="hybrid", n_qubits=2, n_entangler_layers=0)

    def test_shapes_above_the_term_cap(self):
        with pytest.raises(ValueError, match=f"2048 terms .* cap of {qsim.MAX_TERMS}"):
            model.HybridModelConfig(kind="hybrid", n_qubits=6, n_entangler_layers=4)
        # 64 terms: at the cap
        model.build_model(model.HybridModelConfig(kind="hybrid", n_qubits=6, n_entangler_layers=3), 0)

    def test_random_params_shape_and_range(self):
        config = model.HybridModelConfig(kind="hybrid", n_qubits=4, n_entangler_layers=3)
        weights = model.build_model(config, seed=0).layers[3].weights
        assert weights.shape == (3, 4)
        assert np.all((weights >= 0) & (weights < 2 * np.pi))


@st.composite
def circuits(draw, layers=st.integers(1, 3), runs=False):
    """A batch of 1-3 embeddings and shared weights: n = 1..5, L = 1..3.
    With ``runs`` a population of R = 1..3 circuits: (R, B, n) inputs with
    (R, L, n) weights."""
    n = draw(st.integers(1, 5))
    depth = draw(layers)
    batch = draw(st.integers(1, 3))
    lead = (draw(st.integers(1, 3)),) if runs else ()
    angles = st.floats(-2 * np.pi, 2 * np.pi)
    return draw(arrays(float, lead + (batch, n), elements=angles)), draw(
        arrays(float, lead + (depth, n), elements=angles)
    )


def oracle_gradients(inputs, weights):
    """Parameter shift applied to the Kronecker-product oracle, per row."""
    n = inputs.shape[1]
    d_inputs = np.empty((len(inputs), n, n))
    d_weights = np.empty((len(inputs),) + weights.shape + (n,))
    for row, x in enumerate(inputs):
        for i in range(n):
            shift = np.eye(n)[i] * np.pi / 2
            d_inputs[row, i] = 0.5 * (
                gradcheck.dense_matrix_forward(x + shift, weights)
                - gradcheck.dense_matrix_forward(x - shift, weights)
            )
        for layer in range(weights.shape[0]):
            for i in range(n):
                shift = np.zeros(weights.shape)
                shift[layer, i] = np.pi / 2
                d_weights[row, layer, i] = 0.5 * (
                    gradcheck.dense_matrix_forward(x, weights + shift)
                    - gradcheck.dense_matrix_forward(x, weights - shift)
                )
    return d_inputs, d_weights


class TestHotKernelAgainstOracles:
    """forward_batch and gradients_batch (the term formula) against the
    Kronecker oracle and the statevector path, to 1e-10."""

    def test_term_tables(self):
        # at L=1 each readout is one term, the product of the cosines of S_j:
        # factor k takes the slot of cos(theta_k) for k in S_j, else the
        # slot n of cos 0 = 1
        tables = {n: qsim._terms(n, 1) for n in (1, 2, 4)}
        for n, terms in tables.items():
            assert terms.signs.tolist() == [[1.0]] * n
            assert np.all((terms.factors == np.arange(n)) | (terms.factors == n))
        sets = {n: [set(np.flatnonzero(row < n)) for row in t.factors[:, 0]] for n, t in tables.items()}
        assert sets[4] == [{1, 2, 3}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3}]
        assert sets[2] == [{0}, {0, 1}]
        assert sets[1] == [{0}]

    def test_term_counts_come_from_ranks(self):
        counts = {(n, layers): qsim._term_count(n, layers) for n, layers in ((4, 1), (4, 2), (4, 3), (6, 4))}
        assert counts == {(4, 1): 1, (4, 2): 4, (4, 3): 16, (6, 4): 2048}
        with pytest.raises(ValueError, match=f"2048 terms .* cap of {qsim.MAX_TERMS}"):
            qsim.forward_batch(np.zeros((1, 6)), np.zeros((4, 6)))
        assert (6, 4) not in qsim._TERMS_CACHE

    @settings(max_examples=60, deadline=None)
    @given(circuits())
    def test_values(self, circuit):
        inputs, weights = circuit
        got = qsim.forward_batch(inputs, weights)
        oracle = np.array([gradcheck.dense_matrix_forward(x, weights) for x in inputs])
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-10)
        np.testing.assert_allclose(got, qsim.quantum_forward(inputs, weights), rtol=0, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(circuits())
    def test_gradients(self, circuit):
        inputs, weights = circuit
        values, d_inputs, d_weights = qsim.gradients_batch(inputs, weights)
        assert d_inputs.shape == (len(inputs),) + (inputs.shape[1],) * 2
        assert d_weights.shape == (len(inputs),) + weights.shape + (inputs.shape[1],)
        np.testing.assert_allclose(values, qsim.forward_batch(inputs, weights), rtol=0, atol=1e-10)
        want_inputs, want_weights = oracle_gradients(inputs, weights)
        np.testing.assert_allclose(d_inputs, want_inputs, rtol=0, atol=1e-10)
        np.testing.assert_allclose(d_weights, want_weights, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_population_matches_its_runs_bit_for_bit(self, layers, data):
        inputs, weights = data.draw(circuits(layers=st.just(layers), runs=True))
        stacked = (qsim.forward_batch(inputs, weights),) + qsim.gradients_batch(inputs, weights)
        for run in range(len(inputs)):
            alone = (qsim.forward_batch(inputs[run], weights[run]),) + qsim.gradients_batch(
                inputs[run], weights[run]
            )
            for got, want in zip(stacked, alone):
                assert got[run].shape == want.shape
                assert got[run].tobytes() == want.tobytes()
