"""Dense layer primitives, loss, initialization, Adam."""

import numpy as np
import pytest

from qincident import nn


class TestActivations:
    def test_relu_values(self):
        assert nn.activate("relu", -3.0) == 0.0
        assert nn.activate("relu", 3.0) == 3.0

    def test_sigmoid_at_zero(self):
        assert nn.activate("sigmoid", 0.0) == pytest.approx(0.5)

    def test_sigmoid_derivative_at_zero(self):
        assert nn.activate_deriv("sigmoid", 0.0) == pytest.approx(0.25)

    def test_relu_derivative_zero_at_origin(self):
        d = nn.activate_deriv("relu", np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_allclose(d, [0.0, 0.0, 1.0])

    def test_sigmoid_extreme_inputs_stable(self):
        out = nn.activate("sigmoid", np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            nn.activate("tanh", 0.0)


class TestDenseForward:
    def test_zero_layer_relu(self):
        layer = nn.DenseLayer(np.zeros((3, 2)), np.zeros(3), "relu")
        _, out = nn.dense_forward(layer, np.array([[1.0, -2.0]]))
        np.testing.assert_allclose(out, np.zeros((1, 3)))

    def test_identity_layer(self):
        # identity weights: relu passes the non-negative entries through
        layer = nn.DenseLayer(np.eye(4), np.zeros(4), "relu")
        x = np.array([[1.0, -2.0, 3.0, 0.5]])
        z, out = nn.dense_forward(layer, x)
        np.testing.assert_allclose(z, x)
        np.testing.assert_allclose(out, [[1.0, 0.0, 3.0, 0.5]])

    def test_hand_computed_case(self):
        layer = nn.DenseLayer(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2), "relu")
        z, out = nn.dense_forward(layer, np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(z, [[3.0, 7.0]])
        np.testing.assert_allclose(out, [[3.0, 7.0]])

    def test_dimension_mismatch(self):
        layer = nn.DenseLayer(np.zeros((3, 2)), np.zeros(3), "relu")
        with pytest.raises(ValueError):
            nn.dense_forward(layer, np.zeros((1, 4)))

    def test_batched_matches_rows(self):
        rng = np.random.default_rng(0)
        layer = nn.DenseLayer(rng.normal(size=(5, 3)), rng.normal(size=5), "relu")
        batch = rng.normal(size=(7, 3))
        _, out = nn.dense_forward(layer, batch)
        for i, row in enumerate(batch):
            _, single = nn.dense_forward(layer, row[np.newaxis])
            np.testing.assert_allclose(out[i], single[0], atol=1e-12)


class TestBceLoss:
    def test_half_prediction(self):
        assert nn.bce_loss(0.5, 1) == pytest.approx(np.log(2.0))

    def test_near_perfect(self):
        assert nn.bce_loss(1.0 - nn.BCE_EPS, 1) == pytest.approx(nn.BCE_EPS, rel=1e-3)

    def test_confident_wrong(self):
        assert nn.bce_loss(0.9, 0) == pytest.approx(-np.log(0.1))

    def test_non_negative(self):
        rng = np.random.default_rng(1)
        preds = rng.uniform(0, 1, 100)
        labels = rng.integers(0, 2, 100)
        assert np.all(nn.bce_loss(preds, labels) >= 0)

    def test_gradient_formula(self):
        # (p - y) / (p (1 - p)) at the clamped prediction
        assert nn.bce_grad(0.5, 1) == pytest.approx(-2.0)
        assert nn.bce_grad(0.5, 0) == pytest.approx(2.0)

    def test_gradient_matches_finite_difference(self):
        h = 1e-7
        for p in (0.2, 0.5, 0.9):
            for y in (0, 1):
                fd = (nn.bce_loss(p + h, y) - nn.bce_loss(p - h, y)) / (2 * h)
                assert nn.bce_grad(p, y) == pytest.approx(fd, rel=1e-5)


class TestDenseBackward:
    def test_zero_upstream_gradient(self):
        rng = np.random.default_rng(2)
        layer = nn.DenseLayer(rng.normal(size=(3, 4)), rng.normal(size=3), "relu")
        x = rng.normal(size=(1, 4))
        z, _ = nn.dense_forward(layer, x)
        d_w, d_b, d_x = nn.dense_backward(layer, x, z, np.zeros((1, 3)))
        assert not np.any(d_w) and not np.any(d_b) and not np.any(d_x)

    @pytest.mark.parametrize("activation", ["sigmoid", "relu"])
    def test_single_layer_finite_difference(self, activation):
        rng = np.random.default_rng(3)
        layer = nn.DenseLayer(rng.normal(size=(1, 4)), rng.normal(size=1), activation)
        x = rng.normal(size=(1, 4)) + 0.1  # keep relu units away from the kink
        label = 1.0

        def loss():
            _, out = nn.dense_forward(layer, x)
            prob = out[0, 0] if activation == "sigmoid" else nn.activate("sigmoid", out[0, 0])
            return float(nn.bce_loss(prob, label))

        z, out = nn.dense_forward(layer, x)
        prob = out[0, 0] if activation == "sigmoid" else float(nn.activate("sigmoid", out[0, 0]))
        d_prob = nn.bce_grad(prob, label)
        if activation == "sigmoid":
            d_out = np.array([[d_prob]])
        else:
            d_out = np.array([[d_prob * prob * (1 - prob)]])
        d_w, d_b, _ = nn.dense_backward(layer, x, z, d_out)

        h = 1e-6
        for idx in np.ndindex(layer.weights.shape):
            layer.weights[idx] += h
            up = loss()
            layer.weights[idx] -= 2 * h
            down = loss()
            layer.weights[idx] += h
            fd = (up - down) / (2 * h)
            assert d_w[idx] == pytest.approx(fd, rel=1e-4, abs=1e-9)


class TestInitLayer:
    def test_deterministic(self):
        a = nn.init_layer(6, 48, np.random.default_rng(9))
        b = nn.init_layer(6, 48, np.random.default_rng(9))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    def test_bound_and_zero_bias(self):
        layer = nn.init_layer(10, 20, np.random.default_rng(0))
        limit = np.sqrt(6.0 / 30.0)
        assert np.all(np.abs(layer.weights) <= limit)
        assert not np.any(layer.biases)

    def test_mean_near_zero(self):
        layer = nn.init_layer(100, 100, np.random.default_rng(4))  # 10^4 draws
        limit = np.sqrt(6.0 / 200.0)
        sigma = limit / np.sqrt(3.0)
        assert abs(layer.weights.mean()) <= 3 * sigma / 100.0

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            nn.init_layer(0, 5, np.random.default_rng(0))


class TestAdam:
    def test_zero_gradient_no_move(self):
        params = np.array([1.0, -2.0])
        state = nn.AdamState.for_params(params)
        nn.adam_step(params, np.zeros(2), state)
        np.testing.assert_allclose(params, [1.0, -2.0])

    def test_first_step_hand_value(self):
        # g = 1: bias correction gives mhat = vhat = 1, update = -lr
        params = np.array([0.0])
        state = nn.AdamState.for_params(params, learning_rate=0.001)
        nn.adam_step(params, np.array([1.0]), state)
        assert params[0] == pytest.approx(-0.001, rel=1e-6)

    def test_step_count_increments(self):
        params = np.zeros(3)
        state = nn.AdamState.for_params(params)
        nn.adam_step(params, np.ones(3), state)
        assert state.step_count == 1
        nn.adam_step(params, np.ones(3), state)
        assert state.step_count == 2

    def test_length_mismatch(self):
        params = np.zeros(3)
        state = nn.AdamState.for_params(params)
        with pytest.raises(ValueError):
            nn.adam_step(params, np.ones(5), state)

    def test_updates_views_of_the_vector(self):
        params = np.zeros(5)
        weights, biases = params[:3].reshape(3, 1), params[3:]
        nn.adam_step(params, np.ones(5), nn.AdamState.for_params(params))
        np.testing.assert_allclose(weights, np.full((3, 1), -0.001))
        np.testing.assert_allclose(biases, [-0.001, -0.001])


class TestTrainConfig:
    def test_defaults(self):
        config = nn.TrainConfig()
        assert config.epochs == 20 and config.batch_size == 16
        assert config.learning_rate == 0.001

    def test_validation(self):
        with pytest.raises(ValueError):
            nn.TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            nn.TrainConfig(batch_size=0)
