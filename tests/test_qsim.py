"""Statevector layer: gate semantics, readout, forward pass, gradients.

Fixed expected values are hand-derived from the 2x2 / 4x4 gate matrices;
random sweeps are pinned against the dense-matrix oracle in gradcheck.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qincident import gradcheck, qsim


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return qsim.StateVector(n, amps / np.linalg.norm(amps))


class TestStateVector:
    def test_zero_state(self):
        s = qsim.StateVector.zero(3)
        assert s.amplitudes[0] == 1.0
        assert np.all(s.amplitudes[1:] == 0)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            qsim.StateVector(2, np.ones(3))


class TestApplyRx:
    def test_zero_angle_is_identity(self):
        s = random_state(3, seed=1)
        out = qsim.apply_rx(s, 1, 0.0)
        np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-15)

    def test_pi_flips_single_qubit(self):
        # RX(pi)|0> = -i|1>, so <Z> = -1
        s = qsim.StateVector.zero(1)
        out = qsim.apply_rx(s, 0, np.pi)
        np.testing.assert_allclose(out.amplitudes, [0.0, -1.0j], atol=1e-15)
        np.testing.assert_allclose(qsim.z_expectations(out), [-1.0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_norm_preserved(self, seed):
        rng = np.random.default_rng(seed + 100)
        s = random_state(4, seed)
        out = qsim.apply_rx(s, int(rng.integers(4)), rng.uniform(-10, 10))
        assert abs(out.norm() - 1.0) < qsim.NORM_ATOL

    def test_qubit_out_of_range(self):
        with pytest.raises(IndexError):
            qsim.apply_rx(qsim.StateVector.zero(2), 2, 0.1)


class TestApplyCnot:
    def test_control_zero_unchanged(self):
        s = qsim.StateVector.zero(2)  # |00>
        out = qsim.apply_cnot(s, 0, 1)
        np.testing.assert_allclose(out.amplitudes, s.amplitudes)

    def test_control_one_flips_target(self):
        # |10> (qubit 0 set, index 2) -> |11> (index 3)
        amps = np.zeros(4, dtype=complex)
        amps[2] = 1.0
        out = qsim.apply_cnot(qsim.StateVector(2, amps), 0, 1)
        expected = np.zeros(4, dtype=complex)
        expected[3] = 1.0
        np.testing.assert_allclose(out.amplitudes, expected)

    def test_permutes_amplitudes(self):
        # 4x4 CNOT(0->1) permutation swaps indices 2 and 3
        amps = np.array([0.1, 0.2, 0.3, 0.4], dtype=complex)
        amps /= np.linalg.norm(amps)
        out = qsim.apply_cnot(qsim.StateVector(2, amps), 0, 1)
        np.testing.assert_allclose(out.amplitudes, amps[[0, 1, 3, 2]])
        assert abs(out.norm() - 1.0) < qsim.NORM_ATOL

    def test_control_equals_target(self):
        with pytest.raises(ValueError):
            qsim.apply_cnot(qsim.StateVector.zero(2), 1, 1)


class TestAngleEmbedding:
    def test_all_zero_inputs_identity(self):
        s = qsim.StateVector.zero(4)
        out = qsim.angle_embedding(s, np.zeros(4))
        np.testing.assert_allclose(out.amplitudes, s.amplitudes)

    def test_pi_on_first_qubit(self):
        # flips qubit 0 up to the global -i phase: amplitude lands at index 8
        out = qsim.angle_embedding(qsim.StateVector.zero(4), [np.pi, 0, 0, 0])
        assert abs(abs(out.amplitudes[8]) - 1.0) < 1e-12
        np.testing.assert_allclose(out.amplitudes[8], -1.0j, atol=1e-12)

    def test_norm_one(self):
        rng = np.random.default_rng(7)
        out = qsim.angle_embedding(qsim.StateVector.zero(4), rng.uniform(-5, 5, 4))
        assert abs(out.norm() - 1.0) < qsim.NORM_ATOL

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            qsim.angle_embedding(qsim.StateVector.zero(4), [0.0, 0.0])


class TestBasicEntanglerLayer:
    def test_zero_weights_on_zero_state(self):
        s = qsim.StateVector.zero(4)
        out = qsim.basic_entangler_layer(s, np.zeros(4))
        np.testing.assert_allclose(out.amplitudes, s.amplitudes)

    def test_cnot_ring_cascade(self):
        # |1000> -> |1100> -> |1110> -> |1111> -> |0111>: index 8 to index 7
        amps = np.zeros(16, dtype=complex)
        amps[8] = 1.0
        out = qsim.basic_entangler_layer(qsim.StateVector(4, amps), np.zeros(4))
        expected = np.zeros(16, dtype=complex)
        expected[7] = 1.0
        np.testing.assert_allclose(out.amplitudes, expected)

    def test_two_qubits_single_cnot(self):
        # |10> with zero weights: one CNOT (0->1) gives |11>
        amps = np.zeros(4, dtype=complex)
        amps[2] = 1.0
        out = qsim.basic_entangler_layer(qsim.StateVector(2, amps), np.zeros(2))
        assert abs(out.amplitudes[3]) == pytest.approx(1.0)

    def test_random_weights_norm(self):
        rng = np.random.default_rng(3)
        out = qsim.basic_entangler_layer(random_state(4, 3), rng.uniform(-7, 7, 4))
        assert abs(out.norm() - 1.0) < qsim.NORM_ATOL

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            qsim.basic_entangler_layer(qsim.StateVector.zero(3), np.zeros(4))


class TestZExpectations:
    def test_zero_state(self):
        np.testing.assert_allclose(
            qsim.z_expectations(qsim.StateVector.zero(4)), [1, 1, 1, 1]
        )

    def test_first_qubit_set(self):
        amps = np.zeros(16, dtype=complex)
        amps[8] = 1.0  # |1000>
        np.testing.assert_allclose(
            qsim.z_expectations(qsim.StateVector(4, amps)), [-1, 1, 1, 1]
        )

    def test_uniform_superposition(self):
        amps = np.full(4, 0.5, dtype=complex)
        np.testing.assert_allclose(
            qsim.z_expectations(qsim.StateVector(2, amps)), [0, 0], atol=1e-15
        )

    def test_range_bounds(self):
        for seed in range(10):
            exps = qsim.z_expectations(random_state(3, seed))
            assert np.all(exps <= 1.0 + 1e-12) and np.all(exps >= -1.0 - 1e-12)


class TestQuantumForward:
    def test_all_zeros(self):
        spec = qsim.QuantumLayerSpec(4, 1)
        params = qsim.QuantumLayerParams(np.zeros((1, 4)))
        np.testing.assert_allclose(
            qsim.quantum_forward(np.zeros(4), params, spec), [1, 1, 1, 1]
        )

    def test_pi_embedding_traces_ring(self):
        # embedding flips qubit 0; the ring then cascades it through 1..3 and clears it
        spec = qsim.QuantumLayerSpec(4, 1)
        params = qsim.QuantumLayerParams(np.zeros((1, 4)))
        out = qsim.quantum_forward([np.pi, 0, 0, 0], params, spec)
        np.testing.assert_allclose(out, [1, -1, -1, -1], atol=1e-12)

    def test_shape_mismatch(self):
        spec = qsim.QuantumLayerSpec(4, 1)
        params = qsim.QuantumLayerParams(np.zeros((1, 4)))
        with pytest.raises(ValueError):
            qsim.quantum_forward(np.zeros(3), params, spec)
        with pytest.raises(ValueError):
            qsim.quantum_forward(np.zeros(4), qsim.QuantumLayerParams(np.zeros((2, 4))), spec)

    def test_matches_dense_matrix_oracle(self):
        result = gradcheck.check_forward_oracle(seed=11, cases_per_shape=20)
        assert result.passed, result.line()

    @pytest.mark.parametrize("n,layers", [(2, 1), (3, 2), (4, 2)])
    def test_two_pi_periodicity(self, n, layers):
        rng = np.random.default_rng(n * 10 + layers)
        spec = qsim.QuantumLayerSpec(n, layers)
        inputs = rng.uniform(-np.pi, np.pi, n)
        params = qsim.QuantumLayerParams(rng.uniform(0, 2 * np.pi, (layers, n)))
        base = qsim.quantum_forward(inputs, params, spec)
        shifted = qsim.quantum_forward(inputs + 2 * np.pi, params, spec)
        np.testing.assert_allclose(shifted, base, atol=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        spec = qsim.QuantumLayerSpec(3, 2)
        inputs = rng.uniform(-2, 2, 3)
        params = qsim.QuantumLayerParams(rng.uniform(0, 6, (2, 3)))
        first = qsim.quantum_forward(inputs, params, spec)
        second = qsim.quantum_forward(inputs, params, spec)
        assert np.array_equal(first, second)

    def test_outputs_within_unit_interval(self):
        rng = np.random.default_rng(6)
        spec = qsim.QuantumLayerSpec(4, 2)
        for _ in range(20):
            out = qsim.quantum_forward(
                rng.uniform(-9, 9, 4),
                qsim.QuantumLayerParams(rng.uniform(-9, 9, (2, 4))),
                spec,
            )
            assert np.all(np.abs(out) <= 1.0 + 1e-12)


class TestQuantumGradients:
    def test_single_qubit_analytic(self):
        # circuit RX(theta) then RX(0): <Z> = cos(theta), slope -1 at pi/2
        spec = qsim.QuantumLayerSpec(1, 1)
        params = qsim.QuantumLayerParams(np.zeros((1, 1)))
        grad = qsim.quantum_gradients([np.pi / 2], params, spec)
        np.testing.assert_allclose(grad.d_inputs, [[-1.0]], atol=1e-12)
        np.testing.assert_allclose(grad.d_weights, [[[-1.0]]], atol=1e-12)

    def test_zero_angles_extremum(self):
        spec = qsim.QuantumLayerSpec(4, 1)
        params = qsim.QuantumLayerParams(np.zeros((1, 4)))
        grad = qsim.quantum_gradients(np.zeros(4), params, spec)
        for i in range(4):
            assert abs(grad.d_inputs[i, i]) < 1e-12

    def test_matches_finite_differences(self):
        result = gradcheck.check_parameter_shift(seed=12, n_cases=50)
        assert result.passed, result.line()

    def test_entries_bounded_and_finite(self):
        rng = np.random.default_rng(13)
        spec = qsim.QuantumLayerSpec(4, 2)
        for _ in range(10):
            grad = qsim.quantum_gradients(
                rng.uniform(-6, 6, 4),
                qsim.QuantumLayerParams(rng.uniform(-6, 6, (2, 4))),
                spec,
            )
            for arr in (grad.d_inputs, grad.d_weights):
                assert np.all(np.isfinite(arr))
                assert np.all(np.abs(arr) <= 1.0 + 1e-12)


class TestBatchedPath:
    def test_batch_matches_single(self):
        rng = np.random.default_rng(21)
        weights = rng.uniform(0, 2 * np.pi, (2, 4))
        inputs = rng.uniform(-3, 3, (9, 4))
        spec = qsim.QuantumLayerSpec(4, 2)
        params = qsim.QuantumLayerParams(weights)
        batch = qsim.forward_batch(inputs, weights)
        for i, row in enumerate(inputs):
            np.testing.assert_allclose(
                batch[i], qsim.quantum_forward(row, params, spec), atol=1e-12
            )

    def test_gradients_batch_matches_single(self):
        rng = np.random.default_rng(22)
        weights = rng.uniform(0, 2 * np.pi, (1, 3))
        inputs = rng.uniform(-3, 3, (5, 3))
        spec = qsim.QuantumLayerSpec(3, 1)
        params = qsim.QuantumLayerParams(weights)
        values, d_in, d_w = qsim.gradients_batch(inputs, weights)
        for i, row in enumerate(inputs):
            single = qsim.quantum_gradients(row, params, spec)
            np.testing.assert_allclose(values[i], qsim.quantum_forward(row, params, spec), atol=1e-12)
            np.testing.assert_allclose(d_in[i], single.d_inputs, atol=1e-12)
            np.testing.assert_allclose(d_w[i], single.d_weights, atol=1e-12)


class TestSpecValidation:
    def test_bad_spec(self):
        with pytest.raises(ValueError):
            qsim.QuantumLayerSpec(0, 1)
        with pytest.raises(ValueError):
            qsim.QuantumLayerSpec(2, 0)

    def test_random_params_shape_and_range(self):
        spec = qsim.QuantumLayerSpec(4, 3)
        params = qsim.QuantumLayerParams.random(spec, np.random.default_rng(0))
        assert params.weights.shape == (3, 4)
        assert np.all((params.weights >= 0) & (params.weights < 2 * np.pi))


@st.composite
def circuits(draw):
    """A batch of 1-3 embeddings and shared weights: n = 1..5, L = 1..3."""
    n = draw(st.integers(1, 5))
    layers = draw(st.integers(1, 3))
    batch = draw(st.integers(1, 3))
    angles = st.floats(-2 * np.pi, 2 * np.pi)
    return draw(arrays(float, (batch, n), elements=angles)), draw(
        arrays(float, (layers, n), elements=angles)
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
    """forward_batch and gradients_batch (closed form for L=1) against the
    Kronecker oracle and the statevector path, to 1e-10."""

    def test_xor_sets(self):
        sets = {n: [set(np.flatnonzero(row)) for row in qsim._xor_sets(n)[0]] for n in (1, 2, 4)}
        assert sets[4] == [{1, 2, 3}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3}]
        assert sets[2] == [{0}, {0, 1}]
        assert sets[1] == [{0}]

    @settings(max_examples=60, deadline=None)
    @given(circuits())
    def test_values(self, circuit):
        inputs, weights = circuit
        got = qsim.forward_batch(inputs, weights)
        oracle = np.array([gradcheck.dense_matrix_forward(x, weights) for x in inputs])
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-10)
        np.testing.assert_allclose(got, qsim._statevector_batch(inputs, weights), rtol=0, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(circuits())
    def test_gradients(self, circuit):
        inputs, weights = circuit
        values, d_inputs, d_weights = qsim.gradients_batch(inputs, weights)
        assert d_inputs.shape == (len(inputs),) + (inputs.shape[1],) * 2
        assert d_weights.shape == (len(inputs),) + weights.shape + (inputs.shape[1],)
        np.testing.assert_allclose(values, qsim.forward_batch(inputs, weights), rtol=0, atol=1e-10)
        for want_inputs, want_weights in (
            oracle_gradients(inputs, weights),
            qsim._shift_gradients(inputs, weights)[1:],
        ):
            np.testing.assert_allclose(d_inputs, want_inputs, rtol=0, atol=1e-10)
            np.testing.assert_allclose(d_weights, want_weights, rtol=0, atol=1e-10)
