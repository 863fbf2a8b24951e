"""The quantum layer: the reference circuit, forward pass, gradients.

Fixed expected values are hand-derived from the 2x2 / 4x4 gate matrices on
basis states, with qubit 0 as the most significant bit; random sweeps are
pinned against the Kronecker-product reference ``qsim.quantum_forward``,
which ``tests/test_gradcheck.py`` pins gate by gate.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qincident import gradcheck, model, qsim


class TestQuantumForward:
    def test_zero_state(self):
        # the circuit starts from |000>: zero angles read +1 everywhere
        np.testing.assert_array_equal(
            qsim.quantum_forward(np.zeros((1, 3)), np.zeros((2, 3))), [[1.0, 1.0, 1.0]]
        )

    def test_pi_flips_a_single_qubit(self):
        # RX(pi)|0> = -i|1>, so <Z> = -1, whether the embedding or a weight turns it
        np.testing.assert_allclose(qsim.quantum_forward([np.pi], np.zeros((1, 1))), [-1.0], atol=1e-15)
        np.testing.assert_allclose(qsim.quantum_forward([0.0], [[np.pi]]), [-1.0], atol=1e-15)

    @pytest.mark.parametrize(
        "inputs, want",
        [
            # two qubits get one CNOT (0->1): |10> -> |11>, while |01> stays
            ([np.pi, 0], [-1, -1]),
            ([0, np.pi], [1, -1]),
            # |1000> -> |1100> -> |1110> -> |1111> -> |0111>: the ring
            # cascades qubit 0's bit through 1..3 and clears it
            ([np.pi, 0, 0, 0], [1, -1, -1, -1]),
            # |0001>: only the closing CNOT (3->0) fires, giving |1001>
            ([0, 0, 0, np.pi], [-1, 1, 1, -1]),
        ],
    )
    def test_basis_states_trace_the_ring(self, inputs, want):
        out = qsim.quantum_forward(inputs, np.zeros((1, len(inputs))))
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_uniform_superposition_reads_zero(self):
        # RX(pi/2) on both qubits gives four equal magnitudes, which the CNOT permutes
        out = qsim.quantum_forward([np.pi / 2, np.pi / 2], np.zeros((1, 2)))
        np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-15)

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
        net = model.build_model(config, seed=0)
        (weights,) = model._views(net.params, net.layout)[3]
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
    """Parameter shift applied to the Kronecker-product reference: every
    row's circuits shifted by +-pi/2 in each of its K = (L + 1) n angles,
    as one stacked call with per-row weights."""
    (batch, n), layers = inputs.shape, len(weights)
    k = (layers + 1) * n
    angles = np.concatenate(
        (inputs[:, None], np.broadcast_to(weights, (batch,) + weights.shape)), axis=1
    )  # [B, L + 1, n]: the embedding, then the weights
    shifts = np.pi / 2 * np.eye(k).reshape(k, layers + 1, n)
    rows = np.stack((angles[:, None] + shifts, angles[:, None] - shifts))  # [2, B, K, L + 1, n]
    values = qsim.quantum_forward(rows[..., 0, :], rows[..., 1:, :])  # [2, B, K, n]
    slopes = 0.5 * (values[0] - values[1])
    return slopes[:, :n], slopes[:, n:].reshape(batch, layers, n, n)


class TestHotKernelAgainstOracles:
    """forward_batch and gradients_batch (the term formula) against the
    Kronecker-product reference, to 1e-10."""

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
        # the refused circuit left no entry: a second call checks it again
        misses = qsim._terms.cache_info().misses
        with pytest.raises(ValueError):
            qsim._terms(6, 4)
        assert qsim._terms.cache_info().misses == misses + 1

    def test_tables_are_built_once_per_circuit(self):
        assert qsim._terms(3, 2) is qsim._terms(3, 2)
        hits = qsim._terms.cache_info().hits
        qsim.forward_batch(np.zeros((2, 3)), np.zeros((2, 3)))
        assert qsim._terms.cache_info().hits == hits + 1

    @settings(max_examples=60, deadline=None)
    @given(circuits())
    def test_values(self, circuit):
        inputs, weights = circuit
        got = qsim.forward_batch(inputs, weights)
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


# every circuit shape check_circuit allows up to 8 qubits and 8 layers
ALLOWED_SHAPES = [
    (n, layers)
    for n in range(1, 9)
    for layers in range(1, 9)
    if qsim._term_count(n, layers) <= qsim.MAX_TERMS
]


def gathered_kernels(inputs, weights):
    """forward_batch and gradients_batch with each product over a term's
    factors taken from one gather of all of them,
    ``np.multiply.reduce(slots.take(table, axis=-1), axis=-1)``: the form
    the kernels had before they took their products one factor at a time."""
    terms, phi = qsim._angles(inputs, weights)
    sin = np.sin(phi)
    slots = np.concatenate((np.cos(phi), sin, -sin), axis=-1)

    def products(table):
        return np.multiply.reduce(slots.take(table, axis=-1), axis=-1)

    values = np.add.reduce(terms.signs * products(terms.factors), axis=-1)
    slopes = terms.signs * slots.take(terms.slopes, axis=-1) * products(terms.rest)
    d_angles = np.add.reduce(slopes, axis=-1)
    d_weights = d_angles.reshape(d_angles.shape[:-2] + np.shape(weights)[-2:] + (-1,))
    return values, d_weights[..., 0, :, :], d_weights


class TestKernelsBitForBit:
    """The kernels' factor-by-factor products against the one-gather form,
    bit for bit: compared as int64 bit patterns, so that even a 0.0 whose
    sign flips fails."""

    def test_the_layer_range_does_not_cut_the_shapes(self):
        # every n's deepest allowed circuit is shallower than 8 layers
        assert max(layers for _, layers in ALLOWED_SHAPES) < 8
        assert (6, 3) in ALLOWED_SHAPES and (6, 4) not in ALLOWED_SHAPES

    @pytest.mark.parametrize("n, layers", ALLOWED_SHAPES)
    @pytest.mark.parametrize("runs", [(), (3,)])
    def test_matches_the_gathered_products(self, n, layers, runs):
        rng = np.random.default_rng(n * 100 + layers)
        inputs = rng.uniform(-2 * np.pi, 2 * np.pi, runs + (5, n))
        weights = rng.uniform(-2 * np.pi, 2 * np.pi, runs + (layers, n))
        # angles of exactly 0, whose sin is 0.0 and -sin -0.0: the last
        # layer's weights, and x + w_0 in the first row
        weights[..., -1, :] = 0.0
        inputs[..., 0, :] = -weights[..., 0, :]
        got = (qsim.forward_batch(inputs, weights),) + qsim.gradients_batch(inputs, weights)
        want = gathered_kernels(inputs, weights)
        for got_array, want_array in zip(got, (want[0],) + want):
            assert got_array.shape == want_array.shape
            np.testing.assert_array_equal(got_array.view(np.int64), want_array.view(np.int64))

    def test_gradients_at_the_term_cap_stay_small(self):
        # n=6, L=3 sums 64 terms over 18 angles: gathering every factor of
        # every term's slopes took 50.5 MB here, for R=3 runs of batch 16
        rng = np.random.default_rng(0)
        inputs, weights = rng.uniform(0, 6, (3, 16, 6)), rng.uniform(0, 6, (3, 3, 6))
        qsim.gradients_batch(inputs, weights)  # the term tables are built once per shape
        tracemalloc.start()
        try:
            qsim.gradients_batch(inputs, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestRowBlocks:
    """``forward_batch`` and ``gradients_batch`` hold their term products a
    block of run-rows at a time; each row's arithmetic is the same in any
    block."""

    @pytest.mark.parametrize("n, layers", [(6, 3), (4, 1)], ids=["term-cap", "4q-1l"])
    @pytest.mark.parametrize("runs", [(), (3,)], ids=["model", "population"])
    @pytest.mark.parametrize("rows_per_block", [1, 4])  # 4 divides neither 10 nor 30 run-rows
    def test_blocks_match_one_unblocked_pass(self, monkeypatch, n, layers, runs, rows_per_block):
        rng = np.random.default_rng(n * 10 + layers)
        inputs = rng.uniform(-2 * np.pi, 2 * np.pi, runs + (10, n))
        weights = rng.uniform(-2 * np.pi, 2 * np.pi, runs + (layers, n))
        monkeypatch.setattr(qsim, "_BLOCK_BYTES", 1 << 40)
        whole = qsim.forward_batch(inputs, weights)
        # a block's two products, [rows, n, T] each
        row_bytes = 16 * qsim._terms(n, layers).signs.size
        monkeypatch.setattr(qsim, "_BLOCK_BYTES", rows_per_block * row_bytes + row_bytes - 1)
        blocks, values = [], qsim._values

        def counted(terms, slots):
            blocks.append(slots.shape[-2])
            return values(terms, slots)

        monkeypatch.setattr(qsim, "_values", counted)
        got = qsim.forward_batch(inputs, weights)
        n_rows = 10 * math.prod(runs)
        assert blocks == {1: [1] * n_rows, 4: [4] * (n_rows // 4) + [2]}[rows_per_block]
        assert got.shape == whole.shape
        np.testing.assert_array_equal(got.view(np.int64), whole.view(np.int64))

    @pytest.mark.parametrize("n, layers", [(6, 3), (4, 1)], ids=["term-cap", "4q-1l"])
    @pytest.mark.parametrize("runs", [(), (3,)], ids=["model", "population"])
    @pytest.mark.parametrize("rows_per_block", [1, 4])
    def test_gradient_blocks_match_one_unblocked_pass(self, monkeypatch, n, layers, runs, rows_per_block):
        rng = np.random.default_rng(n * 10 + layers + 1)
        inputs = rng.uniform(-2 * np.pi, 2 * np.pi, runs + (10, n))
        weights = rng.uniform(-2 * np.pi, 2 * np.pi, runs + (layers, n))
        monkeypatch.setattr(qsim, "_BLOCK_BYTES", 1 << 40)
        whole = qsim.gradients_batch(inputs, weights)
        # a block's slopes, products and gathered factor, [rows, K, n, T] each
        row_bytes = 24 * qsim._terms(n, layers).slopes.size
        monkeypatch.setattr(qsim, "_BLOCK_BYTES", rows_per_block * row_bytes + row_bytes - 1)
        blocks, values = [], qsim._values

        def counted(terms, slots):
            blocks.append(slots.shape[-2])
            return values(terms, slots)

        monkeypatch.setattr(qsim, "_values", counted)
        got = qsim.gradients_batch(inputs, weights)
        n_rows = 10 * math.prod(runs)
        assert blocks == {1: [1] * n_rows, 4: [4] * (n_rows // 4) + [2]}[rows_per_block]
        for got_array, whole_array in zip(got, whole):
            assert got_array.shape == whole_array.shape
            np.testing.assert_array_equal(got_array.view(np.int64), whole_array.view(np.int64))
