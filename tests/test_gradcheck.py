"""The verification suites themselves: oracle pinning and negative controls."""

import numpy as np
import pytest

from qincident import gradcheck


class TestDenseMatrixOracle:
    """Hand-derived fixed points that pin the oracle independently of the
    statevector path it is used to check."""

    def test_identity_circuit(self):
        out = gradcheck.dense_matrix_forward(np.zeros(3), np.zeros((1, 3)))
        np.testing.assert_allclose(out, [1, 1, 1], atol=1e-12)

    def test_cnot_ring_trace(self):
        out = gradcheck.dense_matrix_forward(np.array([np.pi, 0, 0, 0]), np.zeros((1, 4)))
        np.testing.assert_allclose(out, [1, -1, -1, -1], atol=1e-12)

    def test_single_qubit_cosine(self):
        for theta in (0.3, 1.2, 2.5):
            out = gradcheck.dense_matrix_forward(np.array([theta]), np.zeros((1, 1)))
            np.testing.assert_allclose(out, [np.cos(theta)], atol=1e-12)

    def test_circuit_matrix_unitary(self):
        rng = np.random.default_rng(0)
        mat = gradcheck.circuit_matrix(rng.uniform(-3, 3, 3), rng.uniform(-3, 3, (2, 3)))
        np.testing.assert_allclose(mat @ mat.conj().T, np.eye(8), atol=1e-12)


class TestSuites:
    def test_forward_oracle_passes(self):
        result = gradcheck.check_forward_oracle(seed=3, cases_per_shape=5)
        assert result.passed

    def test_parameter_shift_passes(self):
        result = gradcheck.check_parameter_shift(seed=3, n_cases=10)
        assert result.passed

    def test_corrupted_gradient_detected(self):
        result = gradcheck.check_parameter_shift(seed=3, n_cases=3, corrupt=True)
        assert not result.passed
        assert result.max_err >= 1e-4

    def test_parameter_shift_step_below_min_step_fails(self):
        # no probe runs below MIN_STEP: an unresolved coordinate is a failure
        result = gradcheck.check_parameter_shift(seed=3, n_cases=2, step=1e-9)
        assert not result.passed and result.max_err == np.inf

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
        fd = gradcheck._central_differences(self.relu_probe, np.array([3e-5]), np.array([0]), 1e-4)
        assert fd[0] == pytest.approx(1.0, rel=1e-9)

    def test_base_point_on_a_kink_is_unresolved(self):
        fd = gradcheck._central_differences(self.relu_probe, np.array([0.0]), np.array([0]), 1e-4)
        assert np.isnan(fd[0])

    def test_no_probe_when_the_first_step_is_below_min_step(self):
        fd = gradcheck._central_differences(self.relu_probe, np.array([1.0]), np.array([0]), 1e-9)
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

        fd = gradcheck._central_differences(probe, base, np.arange(3), 1e-4)
        assert passes == [[0, 1, 2], [1, 2], [1, 2]] + [[2]] * 11
        assert fd[:2] == pytest.approx([1.0, 1.0], rel=1e-9)
        assert np.isnan(fd[2])

    def test_vector_values_give_one_row_per_coordinate(self):
        # values (relu(v).sum(), 2 v.sum()) [R, 2]: coordinate 1 halves its
        # step twice at the kink and 2 stays unresolved, as for a scalar loss
        base = np.array([0.5, 3e-5, 0.0])
        passes = []

        def probe(rows):
            if len(rows) > 1:
                m = len(rows) // 2
                passes.append([int(k) for k in np.nonzero(rows[:m] != base)[1]])
            loss, pattern = self.relu_probe(rows)
            return np.stack((loss, 2 * rows.sum(axis=1)), axis=1), pattern

        fd = gradcheck._central_differences(probe, base, np.arange(3), 1e-4)
        assert passes == [[0, 1, 2], [1, 2], [1, 2]] + [[2]] * 11
        assert fd.shape == (3, 2)
        np.testing.assert_allclose(fd[:2], [[1.0, 2.0], [1.0, 2.0]], rtol=1e-9)
        assert np.isnan(fd[2]).all()

    def test_chunk_size_does_not_change_the_suite(self, monkeypatch):
        want = gradcheck.check_hybrid_gradients(seed=3, n_draws=2)
        monkeypatch.setattr(gradcheck, "PROBE_CHUNK", 1)
        assert gradcheck.check_hybrid_gradients(seed=3, n_draws=2) == want
