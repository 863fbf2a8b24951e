"""The verification suites themselves: oracle pinning and negative controls."""

import tracemalloc
from functools import reduce

import numpy as np
import pytest

from qincident import gradcheck, model, nn, qsim


def kron_circuit(inputs, weights):
    """One embedding's unitary, each gate a ``reduce(np.kron, ...)`` over the
    qubits (qubit 0 first) multiplied in on the left."""
    n = len(inputs)
    eye, x = np.eye(2), np.array([[0, 1], [1, 0]])
    zero, one = np.diag([1, 0]), np.diag([0, 1])

    def rx(qubit, angle):
        c, s = np.cos(angle / 2), np.sin(angle / 2)
        gate = np.array([[c, -1j * s], [-1j * s, c]])
        return reduce(np.kron, [gate if k == qubit else eye for k in range(n)])

    def cnot(control, target):
        flip = [one if k == control else x if k == target else eye for k in range(n)]
        keep = [zero if k == control else eye for k in range(n)]
        return reduce(np.kron, keep) + reduce(np.kron, flip)

    ring = [] if n == 1 else [(0, 1)] if n == 2 else [(q, (q + 1) % n) for q in range(n)]
    unitary = np.eye(2**n, dtype=complex)
    for qubit, angle in enumerate(inputs):
        unitary = rx(qubit, angle) @ unitary
    for layer in weights:
        for qubit, angle in enumerate(layer):
            unitary = rx(qubit, angle) @ unitary
        for control, target in ring:
            unitary = cnot(control, target) @ unitary
    return unitary


def central_differences(probe, base, coords, step):
    """``gradcheck._central_differences`` given the pattern ``probe``
    returns at ``base`` itself."""
    return gradcheck._central_differences(probe, base, coords, step, probe(base[np.newaxis])[1])


class TestDenseMatrixOracle:
    """A gate-by-gate Kronecker reference that pins the oracle,
    ``qsim.circuit_matrix`` and ``qsim.quantum_forward``, independently of
    the term formula it checks; ``tests/test_qsim.py`` holds its
    hand-derived fixed points."""

    def test_single_qubit_cosine(self):
        for theta in (0.3, 1.2, 2.5):
            out = qsim.quantum_forward(np.array([theta]), np.zeros((1, 1)))
            np.testing.assert_allclose(out, [np.cos(theta)], atol=1e-12)

    def test_circuit_matrix_unitary(self):
        rng = np.random.default_rng(0)
        mat = qsim.circuit_matrix(rng.uniform(-3, 3, 3), rng.uniform(-3, 3, (2, 3)))
        np.testing.assert_allclose(mat @ mat.conj().T, np.eye(8), atol=1e-12)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_stacked_unitaries_match_the_kronecker_reference(self, n, layers):
        rng = np.random.default_rng(10 * n + layers)
        inputs = rng.uniform(-2 * np.pi, 2 * np.pi, (6, n))
        weights = rng.uniform(-2 * np.pi, 2 * np.pi, (6, layers, n))
        want = np.array([kron_circuit(x, w) for x, w in zip(inputs, weights)])
        stacked = qsim.circuit_matrix(inputs, weights)
        assert stacked.shape == (6, 2**n, 2**n)
        np.testing.assert_allclose(stacked, want, rtol=0, atol=1e-13)
        one = qsim.circuit_matrix(inputs[0], weights[0])
        assert one.shape == (2**n, 2**n)
        np.testing.assert_allclose(one, want[0], rtol=0, atol=1e-13)
        # shared weights broadcast over the stacked embeddings
        want_shared = np.array([kron_circuit(x, weights[0]) for x in inputs])
        np.testing.assert_allclose(qsim.circuit_matrix(inputs, weights[0]), want_shared, rtol=0, atol=1e-13)
        # the readout: <Z_j> of the state the unitary makes from |0...0>
        z = np.array([[1 - 2 * (s >> (n - 1 - j) & 1) for j in range(n)] for s in range(2**n)])
        values = qsim.quantum_forward(inputs, weights)
        assert values.shape == (6, n)
        np.testing.assert_allclose(values, np.abs(want[..., 0]) ** 2 @ z, rtol=0, atol=1e-13)
        shared = qsim.quantum_forward(inputs, weights[0])
        np.testing.assert_allclose(shared, np.abs(want_shared[..., 0]) ** 2 @ z, rtol=0, atol=1e-13)
        # a row's bits do not depend on the rows stacked with it
        for row in range(6):
            for rows in (row, slice(row, row + 2)):
                alone = qsim.quantum_forward(inputs[rows], weights[rows])
                assert alone.tobytes() == values[rows].tobytes()
                assert qsim.quantum_forward(inputs[rows], weights[0]).tobytes() == shared[rows].tobytes()


class TestSuites:
    @pytest.mark.parametrize("cases_per_shape", [1, 20])
    def test_stacked_forward_oracle_matches_one_case_per_call(self, cases_per_shape):
        # the suite's draws, in its order, each run as its own call of the
        # kernel and the oracle
        rng = np.random.default_rng(5)
        max_err, worst = 0.0, ""
        for n in (2, 3, 4):
            for layers in (1, 2):
                for _ in range(cases_per_shape):
                    x = rng.uniform(-2 * np.pi, 2 * np.pi, size=n)
                    w = rng.uniform(-2 * np.pi, 2 * np.pi, size=(layers, n))
                    got = qsim.forward_batch(x[np.newaxis], w)[0]
                    err = float(np.max(np.abs(got - qsim.quantum_forward(x, w))))
                    if err > max_err:
                        max_err, worst = err, f"n={n} layers={layers}"
        want = gradcheck.SuiteResult(
            "forward-oracle", max_err <= 1e-10, max_err, 1e-10, 6 * cases_per_shape, worst
        )
        assert gradcheck.check_forward_oracle(seed=5, cases_per_shape=cases_per_shape) == want

    def test_forward_oracle_passes(self):
        result = gradcheck.check_forward_oracle(seed=3, cases_per_shape=5)
        assert result.passed

    def test_parameter_shift_passes(self):
        result = gradcheck.check_parameter_shift(seed=3, n_cases=10)
        assert result.passed

    def test_corrupted_gradient_detected(self, monkeypatch):
        exact = qsim.quantum_gradients

        def corrupted(inputs, weights):
            values, d_inputs, d_weights = exact(inputs, weights)
            d_inputs = d_inputs.copy()
            d_inputs[0, 0] += 1e-3
            return values, d_inputs, d_weights

        monkeypatch.setattr(qsim, "quantum_gradients", corrupted)
        result = gradcheck.check_parameter_shift(seed=3, n_cases=3)
        assert not result.passed
        assert result.max_err >= 1e-4

    def test_parameter_shift_step_below_min_step_fails(self):
        # no probe runs below MIN_STEP: an unresolved coordinate is a failure
        result = gradcheck.check_parameter_shift(seed=3, n_cases=2, step=1e-9)
        assert not result.passed and result.max_err == np.inf

    @pytest.mark.parametrize(
        "seed, n_cases, step", [(0, 50, 1e-5), (3, 10, 1e-5), (12, 50, 1e-5), (3, 2, 1e-9)]
    )
    def test_parameter_shift_matches_one_case_per_call(self, seed, n_cases, step):
        # the suite's draws, in its order, each coordinate's difference
        # taken from two ``quantum_forward`` rows of a call of its own
        rng = np.random.default_rng(seed)
        max_err, worst = 0.0, ""
        for case in range(n_cases):
            n = int(rng.integers(1, 5))
            layers = int(rng.integers(1, 3))
            inputs = rng.uniform(-np.pi, np.pi, size=n)
            weights = rng.uniform(-np.pi, np.pi, size=(layers, n))
            _, d_inputs, d_weights = qsim.quantum_gradients(inputs, weights)
            base = np.concatenate((inputs, weights.ravel()))
            fd = np.full((len(base), n), np.nan)
            for k in range(len(base)):
                if step < gradcheck.MIN_STEP:
                    break  # no probe runs: every difference stays NaN
                rows = np.array([base, base])
                rows[0, k] += step
                rows[1, k] -= step
                plus, minus = qsim.quantum_forward(rows[:, :n], rows[:, n:].reshape(-1, layers, n))
                fd[k] = (plus - minus) / (2 * step)
            err = np.max(np.abs(np.concatenate((d_inputs, d_weights.reshape(-1, n))) - fd), axis=1)
            err[np.isnan(err)] = np.inf
            if err.max() > max_err:
                k = int(np.argmax(err))
                max_err, (layer, qubit) = float(err[k]), divmod(k - n, n)
                worst = f"case {case} " + (f"input {k}" if k < n else f"weight ({layer},{qubit})")
        want = gradcheck.SuiteResult("parameter-shift", max_err <= 1e-6, max_err, 1e-6, n_cases, worst)
        assert gradcheck.check_parameter_shift(seed=seed, n_cases=n_cases, step=step) == want

    def test_parameter_shift_calls_the_oracle_per_shape_within_the_row_bound(self, monkeypatch):
        # 50 cases in 8 shapes: 36 calls at seed 0, where one call per case
        # and a base-point call for each made 100
        oracle, rows = qsim.quantum_forward, []

        def recording(inputs, weights):
            rows.append(len(inputs))
            return oracle(inputs, weights)

        monkeypatch.setattr(qsim, "quantum_forward", recording)
        assert gradcheck.check_parameter_shift(seed=0).passed
        assert max(rows) <= gradcheck.SHIFT_ROWS == 24
        assert len(rows) <= 40

    def test_hybrid_step_below_min_step_fails_as_unresolved(self):
        # no probe runs below MIN_STEP, so no kink is to blame
        result = gradcheck.check_hybrid_gradients(seed=0, n_draws=1, step=1e-9)
        assert not result.passed and result.max_err == np.inf
        assert result.worst == (
            "draw 0 coord 0 (unresolved: no probe pair of step >= MIN_STEP kept the base pattern)"
        )

    def test_hybrid_gradients_pass(self):
        result = gradcheck.check_hybrid_gradients(seed=3, n_draws=2)
        assert result.passed

    @pytest.mark.parametrize("seed", [1, 2, 12])
    def test_hybrid_gradients_pass_where_probes_cross_relu_kinks(self, seed):
        # at step 1e-4 some probe pairs of these seeds straddle a ReLU kink
        result = gradcheck.check_hybrid_gradients(seed=seed)
        assert result.passed, result.line()

    def test_run_all_reports_three_suites(self):
        results = gradcheck.run_all(seed=4)
        assert [r.name for r in results] == [
            "forward-oracle",
            "parameter-shift",
            "hybrid-backprop",
        ]
        assert all(r.passed for r in results)
        for r in results:
            assert "max err" in r.line()


class TestCentralDifference:
    @staticmethod
    def relu_probe(rows):
        # loss sum(relu(v)) and pattern v > 0 for each row v
        return np.maximum(rows, 0.0).sum(axis=1), rows > 0

    def test_step_halved_until_probes_keep_the_base_pattern(self):
        # at step 1e-4 the minus probe lands on the flat piece: slope 0.65
        fd = central_differences(self.relu_probe, np.array([3e-5]), np.array([0]), 1e-4)
        assert fd[0] == pytest.approx(1.0, rel=1e-9)

    def test_base_point_on_a_kink_is_unresolved(self):
        fd = central_differences(self.relu_probe, np.array([0.0]), np.array([0]), 1e-4)
        assert np.isnan(fd[0])

    def test_no_probe_when_the_first_step_is_below_min_step(self):
        fd = central_differences(self.relu_probe, np.array([1.0]), np.array([0]), 1e-9)
        assert np.isnan(fd[0])

    def test_each_coordinate_halves_its_own_step(self):
        # coordinate 0 resolves at the full step, 1 after two halvings
        # (step 2.5e-5 < 3e-5), and 2 sits on a kink until the step falls
        # below MIN_STEP: 1e-4 / 2**13 is the last step tried
        base = np.array([0.5, 3e-5, 0.0])
        passes = []

        def probe(rows):
            if len(rows) > 1:
                m = len(rows) // 2
                passes.append([int(k) for k in np.nonzero(rows[:m] != base)[1]])
            return self.relu_probe(rows)

        fd = central_differences(probe, base, np.arange(3), 1e-4)
        assert passes == [[0, 1, 2], [1, 2], [1, 2]] + [[2]] * 11
        assert fd.shape == (3,)
        assert fd[:2] == pytest.approx([1.0, 1.0], rel=1e-9)
        assert np.isnan(fd[2])

    def test_each_pass_steps_only_its_own_coordinates(self, monkeypatch):
        # chunks of 2: coordinate 1 retries alone before the second chunk
        # probes two coordinates again and the third retries 13 times, so an
        # entry a pass left stepped would show in a later pass's rows
        monkeypatch.setattr(gradcheck, "PROBE_CHUNK", 2)
        base = np.array([0.5, 3e-5, -0.25, 2.0, 0.0])
        passes, addresses = [], set()

        def probe(rows):
            if len(rows) > 1:
                m = len(rows) // 2
                stepped = rows != base
                # one coordinate per row, the same in plus row i and minus row m + i
                assert stepped.sum(axis=1).tolist() == [1] * (2 * m)
                assert np.array_equal(stepped[:m], stepped[m:])
                coords = np.nonzero(stepped[:m])[1]
                assert np.all(rows[:m][stepped[:m]] > base[coords])
                assert np.all(rows[m:][stepped[m:]] < base[coords])
                passes.append(coords.tolist())
                addresses.add(rows.__array_interface__["data"][0])
            return self.relu_probe(rows)

        fd = central_differences(probe, base, np.arange(5), 1e-4)
        assert passes == [[0, 1], [1], [1], [2, 3]] + [[4]] * 14
        # every pass probes the leading rows of one buffer
        assert len(addresses) == 1
        np.testing.assert_allclose(fd[:4], [1.0, 1.0, 0.0, 1.0], rtol=1e-9)
        assert np.isnan(fd[4])

    @pytest.mark.parametrize("seed", [3, 1])  # seed 1's second draw retries kinks
    def test_neither_the_chunk_size_nor_the_shared_buffer_changes_the_suite(self, monkeypatch, seed):
        want = gradcheck.check_hybrid_gradients(seed=seed, n_draws=2)
        # every pass probes rows of its own
        central = gradcheck._central_differences
        monkeypatch.setattr(
            gradcheck, "_central_differences",
            lambda probe, *args: central(lambda rows: probe(rows.copy()), *args),
        )
        assert gradcheck.check_hybrid_gradients(seed=seed, n_draws=2) == want
        monkeypatch.setattr(gradcheck, "PROBE_CHUNK", 1)
        assert gradcheck.check_hybrid_gradients(seed=seed, n_draws=2) == want


def hybrid_draws(seed, n_draws):
    """The hybrid suite's draws, in its order: each model, feature row,
    label and the coordinates whose analytic gradient it checks."""
    rng = np.random.default_rng(seed)
    config = model.HybridModelConfig(kind="hybrid", n_qubits=4)
    for draw in range(n_draws):
        net = model.build_model(config, seed=seed * 1000 + draw)
        features = rng.uniform(0.0, 1.0, size=(1, 6))
        label = np.array([float(rng.integers(0, 2))])
        _, grad = model.loss_and_gradients(net, features, label)
        yield net, features, label, np.flatnonzero(np.abs(grad) > 1e-6)


def whole_stack_differences(net, features, label, coords, step):
    """The hybrid suite's differences with every probe row holding all of
    the parameters and the whole stack run over the layout's views of them,
    one product per row and layer."""

    def probe(rows):
        h, active = features, []
        for layer, arrays in zip(net.layers, model._views(rows, net.layout)):
            h = layer.forward(arrays, h)
            active.append(layer.gates(h[:, 0]))
        return np.mean(nn.bce_loss(h[..., 0], label), axis=-1), np.concatenate(active, axis=-1)

    return central_differences(probe, net.params, coords, step)


class TestLayerDifferences:
    """``_layer_differences`` probes one layer's parameters at a time; the
    whole-stack probe it replaced is the reference."""

    @pytest.mark.parametrize("step", [1e-4, 1e-2, 1e-9])  # 1e-2 retries many kinks
    @pytest.mark.parametrize("seed", [0, 1])
    def test_each_difference_matches_the_whole_stack_probe(self, seed, step):
        # a later layer's [rows, in] product moves the loss in its last bits:
        # at step 1e-4 that moves a difference by up to about 1e-11, 1e-6 of
        # one near the 1e-6 gradient floor, so each difference is held to
        # 1e-9 of the draw's largest
        n_cases = 0
        for net, features, label, coords in hybrid_draws(seed, 3):
            n_cases += len(coords)
            want = whole_stack_differences(net, features, label, coords, step)
            got = gradcheck._layer_differences(net, features, label, coords, step)
            np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
            if step >= gradcheck.MIN_STEP:
                scale = np.abs(want).max()
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * scale)
        assert gradcheck.check_hybrid_gradients(seed=seed, n_draws=3, step=step).n_cases == n_cases

    def test_a_unit_on_its_kink_leaves_the_same_coordinates_unresolved(self):
        # the first layer's unit 0 gets pre-activation exactly 0: a step of
        # its bias or of a weight on a positive feature turns it on, however
        # small, so those 7 coordinates stay unresolved on both routes
        net, features, label, _ = next(hybrid_draws(0, 1))
        weights, biases = model._views(net.params, net.layout)[0]
        biases[0] = -(features @ weights.T)[0, 0]
        coords = np.arange(len(net.params))
        want = whole_stack_differences(net, features, label, coords, 1e-4)
        got = gradcheck._layer_differences(net, features, label, coords, 1e-4)
        unresolved = np.flatnonzero(np.isnan(want))
        assert unresolved.tolist() == [0, 1, 2, 3, 4, 5, 288]
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        resolved = ~np.isnan(want)
        np.testing.assert_allclose(got[resolved], want[resolved], rtol=1e-9,
                                   atol=1e-9 * np.abs(want[resolved]).max())

    def test_the_base_point_is_not_probed(self, monkeypatch):
        # the base forward gives each layer's base pattern, so every probe
        # is a pass of stepped rows, two a coordinate
        passes, central = [], gradcheck._central_differences

        def recording(probe, base, coords, step, base_pattern):
            def counted(rows):
                passes.append(len(rows))
                return probe(rows)

            return central(counted, base, coords, step, base_pattern)

        monkeypatch.setattr(gradcheck, "_central_differences", recording)
        net, features, label, coords = next(hybrid_draws(0, 1))
        gradcheck._layer_differences(net, features, label, coords, 1e-4)
        assert passes and all(rows % 2 == 0 for rows in passes)
        assert max(passes) == 2 * gradcheck.PROBE_CHUNK

    def test_the_suite_peaks_below_the_whole_stack_probe(self):
        # warm: numpy's first calls allocate what a later call does not; the
        # whole-stack probe's 64 rows of 2,065 parameters peaked at 1.16 MiB
        gradcheck.check_hybrid_gradients(seed=0, n_draws=1)
        tracemalloc.start()
        try:
            gradcheck.check_hybrid_gradients(seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.16 * 2**20
