"""Dense layer primitives, loss, initialization, Adam."""

import math

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
        # the derivative is taken from the output: sigmoid(0) = 0.5
        assert nn.activate_deriv("sigmoid", nn.activate("sigmoid", 0.0)) == pytest.approx(0.25)

    def test_relu_derivative_zero_at_origin(self):
        d = nn.activate_deriv("relu", nn.activate("relu", np.array([-1.0, 0.0, 1.0])))
        np.testing.assert_allclose(d, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("kind", ["relu", "sigmoid"])
    def test_in_place_activation_keeps_the_bits(self, kind):
        x = np.random.default_rng(5).normal(0.0, 40.0, (30, 16, 8))
        want = nn.activate(kind, x)
        assert nn.activate(kind, x, x) is x
        assert x.tobytes() == want.tobytes()

    def test_sigmoid_extreme_inputs_stable(self):
        out = nn.activate("sigmoid", np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 100.0, 800.0])
    def test_sigmoid_matches_the_masked_two_branch_form_bit_for_bit(self, scale):
        def masked(x):
            flat = np.ravel(x).astype(float)
            out = np.empty_like(flat)
            pos = flat >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-flat[pos]))
            exp = np.exp(flat[~pos])
            out[~pos] = exp / (1.0 + exp)
            return out.reshape(np.shape(x))

        edges = [0.0, -0.0, np.inf, -np.inf, 709.0, -709.0, 745.0, -745.0, 1e-300, -1e-300]
        draws = np.random.default_rng(0).normal(0.0, scale, 48_000)
        for x in (np.array(edges), draws, draws[:480].reshape(30, 16, 1), np.array(scale)):
            out = nn.activate("sigmoid", x)
            assert np.shape(out) == x.shape
            assert np.asarray(out).tobytes() == masked(x).tobytes()
        assert np.isnan(nn.activate("sigmoid", np.nan))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            nn.activate("tanh", 0.0)


def dense(weights, biases, activation="relu"):
    """A dense layer and its arrays [weights, biases]."""
    weights, biases = np.asarray(weights, dtype=float), np.asarray(biases, dtype=float)
    return nn.DenseLayer(weights.shape[-1], weights.shape[-2], activation), [weights, biases]


class TestDenseForward:
    def test_zero_layer_relu(self):
        layer, arrays = dense(np.zeros((3, 2)), np.zeros(3))
        out = nn.dense_forward(layer, arrays, np.array([[1.0, -2.0]]))
        np.testing.assert_allclose(out, np.zeros((1, 3)))

    def test_identity_layer(self):
        # identity weights: relu passes the non-negative entries through
        layer, arrays = dense(np.eye(4), np.zeros(4))
        x = np.array([[1.0, -2.0, 3.0, 0.5]])
        out = nn.dense_forward(layer, arrays, x)
        np.testing.assert_allclose(out, [[1.0, 0.0, 3.0, 0.5]])

    def test_hand_computed_case(self):
        layer, arrays = dense(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2))
        out = nn.dense_forward(layer, arrays, np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(out, [[3.0, 7.0]])

    def test_writes_into_the_buffer_it_is_given(self):
        layer, arrays = dense(np.array([[1.0, 2.0], [-3.0, 4.0]]), np.zeros(2))
        buffer = np.full((1, 2), np.nan)
        assert nn.dense_forward(layer, arrays, np.array([[1.0, 0.0]]), buffer) is buffer
        np.testing.assert_array_equal(buffer, [[1.0, 0.0]])

    def test_dimension_mismatch(self):
        layer, arrays = dense(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            nn.dense_forward(layer, arrays, np.zeros((1, 4)))

    def test_batched_matches_rows(self):
        rng = np.random.default_rng(0)
        layer, arrays = dense(rng.normal(size=(5, 3)), rng.normal(size=5))
        batch = rng.normal(size=(7, 3))
        out = nn.dense_forward(layer, arrays, batch)
        for i, row in enumerate(batch):
            single = nn.dense_forward(layer, arrays, row[np.newaxis])
            np.testing.assert_allclose(out[i], single[0], atol=1e-12)

    def test_the_layer_is_a_description_of_its_arrays(self):
        layer = nn.DenseLayer(4, 3, "sigmoid")
        assert layer.shapes == ((3, 4), (3,))
        assert layer.forward_bytes() == 8 * (4 + 3)  # the input and the output
        with pytest.raises(AttributeError):
            layer.out_dim = 5  # frozen


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


def gradient_arrays(arrays):
    """(d_weights, d_biases) buffers for ``dense_backward``, filled with NaN
    so that an entry it leaves unwritten shows."""
    return tuple(np.full(array.shape, np.nan) for array in arrays)


def input_gradient(out, x):
    """``dense_backward``'s d_input buffer, filled with NaN."""
    return np.full(out.shape[:-1] + x.shape[-1:], np.nan)


class TestDenseBackward:
    def test_zero_upstream_gradient(self):
        rng = np.random.default_rng(2)
        layer, arrays = dense(rng.normal(size=(3, 4)), rng.normal(size=3))
        x = rng.normal(size=(1, 4))
        out = nn.dense_forward(layer, arrays, x)
        d_w, d_b = gradient_arrays(arrays)
        d_x = nn.dense_backward(layer, arrays, x, out, np.zeros((1, 3)), (d_w, d_b), input_gradient(out, x))
        assert not np.any(d_w) and not np.any(d_b) and not np.any(d_x)

    def test_a_first_layer_makes_no_input_gradient(self):
        rng = np.random.default_rng(4)  # 4 of the 6 units active
        layer, arrays = dense(rng.normal(size=(3, 4)), rng.normal(size=3))
        x = rng.normal(size=(2, 4))
        out = nn.dense_forward(layer, arrays, x)
        d_w, d_b = gradient_arrays(arrays)
        active = out > 0
        assert nn.dense_backward(layer, arrays, x, out, np.ones((2, 3)), (d_w, d_b), None) is None
        np.testing.assert_array_equal(out, active)  # dz, written over the output
        assert not np.isnan(d_w).any() and not np.isnan(d_b).any()

    def test_writes_into_strided_views_of_a_population_gradient(self):
        # two runs' [3, 4] weights and [3] biases as views of a [2, 15] vector
        rng = np.random.default_rng(4)
        layer, arrays = dense(rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3)))
        x = rng.normal(size=(5, 4))
        out = nn.dense_forward(layer, arrays, x)
        d_out = rng.normal(size=(2, 5, 3))
        flat = np.full((2, 15), np.nan)
        d_w, d_b = flat[:, :12].reshape(2, 3, 4), flat[:, 12:]
        dz = d_out * (out > 0)
        d_x = nn.dense_backward(layer, arrays, x, out, d_out, (d_w, d_b), input_gradient(out, x))
        np.testing.assert_array_equal(out, dz)  # written over the output, the step's one dz
        np.testing.assert_array_equal(d_w, dz.swapaxes(-1, -2) @ x)
        np.testing.assert_array_equal(d_b, dz.sum(axis=-2))
        np.testing.assert_array_equal(d_x, dz @ arrays[0])
        assert np.shares_memory(d_w, flat) and not np.isnan(flat).any()

    @pytest.mark.parametrize("activation", ["sigmoid", "relu"])
    def test_single_layer_finite_difference(self, activation):
        rng = np.random.default_rng(3)
        layer, arrays = dense(rng.normal(size=(1, 4)), rng.normal(size=1), activation)
        weights = arrays[0]
        x = rng.normal(size=(1, 4)) + 0.1  # keep relu units away from the kink
        label = 1.0

        def loss():
            out = nn.dense_forward(layer, arrays, x)
            prob = out[0, 0] if activation == "sigmoid" else nn.activate("sigmoid", out[0, 0])
            return float(nn.bce_loss(prob, label))

        out = nn.dense_forward(layer, arrays, x)
        prob = out[0, 0] if activation == "sigmoid" else float(nn.activate("sigmoid", out[0, 0]))
        d_prob = nn.bce_grad(prob, label)
        if activation == "sigmoid":
            d_out = np.array([[d_prob]])
        else:
            d_out = np.array([[d_prob * prob * (1 - prob)]])
        d_w, d_b = gradient_arrays(arrays)
        nn.dense_backward(layer, arrays, x, out, d_out, (d_w, d_b), input_gradient(out, x))

        h = 1e-6
        for idx in np.ndindex(weights.shape):
            weights[idx] += h
            up = loss()
            weights[idx] -= 2 * h
            down = loss()
            weights[idx] += h
            fd = (up - down) / (2 * h)
            assert d_w[idx] == pytest.approx(fd, rel=1e-4, abs=1e-9)


class TestInitLayer:
    def test_deterministic(self):
        layer_a, (w_a, b_a) = nn.init_layer(6, 48, np.random.default_rng(9))
        layer_b, (w_b, b_b) = nn.init_layer(6, 48, np.random.default_rng(9))
        assert layer_a == layer_b == nn.DenseLayer(6, 48, "relu")
        assert np.array_equal(w_a, w_b)
        assert np.array_equal(b_a, b_b)

    def test_bound_and_zero_bias(self):
        layer, (weights, biases) = nn.init_layer(10, 20, np.random.default_rng(0))
        limit = np.sqrt(6.0 / 30.0)
        assert (weights.shape, biases.shape) == layer.shapes == ((20, 10), (20,))
        assert np.all(np.abs(weights) <= limit)
        assert not np.any(biases)

    def test_mean_near_zero(self):
        _, (weights, _) = nn.init_layer(100, 100, np.random.default_rng(4))  # 10^4 draws
        limit = np.sqrt(6.0 / 200.0)
        sigma = limit / np.sqrt(3.0)
        assert abs(weights.mean()) <= 3 * sigma / 100.0


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


def expression_adam(params, grad, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Kingma & Ba's update written as whole-array expressions, each term in
    the order ``nn.adam_step`` computes it."""
    mc, vc = 1.0 - beta1**step, 1.0 - beta2**step
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    return params - lr * (m / mc) / (np.sqrt(v / vc) + eps), m, v


class TestAdamInPlace:
    @pytest.mark.parametrize("shape", [(23,), (4, 23)])
    @pytest.mark.parametrize("block", [None, 7], ids=["one-block", "blocks-of-7"])
    def test_matches_the_expression_form_bit_for_bit(self, monkeypatch, shape, block):
        if block is not None:  # 7 divides neither 23 nor 92 elements
            monkeypatch.setattr(nn, "_ADAM_BLOCK", block)
        rng = np.random.default_rng(11)
        params = rng.normal(size=shape)
        lr = 0.003
        state = nn.AdamState.for_params(params, learning_rate=lr)
        expected, m, v = params.copy(), np.zeros(shape), np.zeros(shape)
        for step in range(1, 51):
            # gradients over many magnitudes, exact zeros included
            grad = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 3, size=shape)
            grad[rng.random(shape) < 0.1] = 0.0
            grad.flags.writeable = False  # a write to grad would raise
            nn.adam_step(params, grad, state)
            expected, m, v = expression_adam(expected, grad, m, v, step, lr)
            assert state.step_count == step
            np.testing.assert_array_equal(params, expected)
            np.testing.assert_array_equal(state.first_moment, m)
            np.testing.assert_array_equal(state.second_moment, v)
        assert all(len(work) == min(math.prod(shape), nn._ADAM_BLOCK) for work in state.scratch)

    def test_params_that_are_not_one_vector_raise(self):
        params = np.zeros((3, 8))[:, ::2]  # a strided view
        with pytest.raises(ValueError, match="contiguous"):
            nn.adam_step(params, np.ones((3, 4)), nn.AdamState.for_params(params))

    def test_layer_views_of_a_population_see_each_step(self):
        params = np.zeros((3, 5))
        weights, biases = params[:, :3].reshape(3, 3, 1), params[:, 3:]
        assert np.shares_memory(weights, params)
        state = nn.AdamState.for_params(params)
        expected, m, v = params.copy(), np.zeros((3, 5)), np.zeros((3, 5))
        grad = np.arange(15.0).reshape(3, 5) - 7.0
        for step in (1, 2):
            nn.adam_step(params, grad, state)
            expected, m, v = expression_adam(expected, grad, m, v, step, 0.001)
            np.testing.assert_array_equal(weights, expected[:, :3].reshape(3, 3, 1))
            np.testing.assert_array_equal(biases, expected[:, 3:])

    def test_mixed_shapes_raise_after_the_first_step(self):
        params = np.zeros(4)
        state = nn.AdamState.for_params(params)
        nn.adam_step(params, np.ones(4), state)
        with pytest.raises(ValueError):
            nn.adam_step(np.zeros((2, 4)), np.ones((2, 4)), state)
        with pytest.raises(ValueError):
            nn.adam_step(params, np.ones((2, 4)), state)
        assert state.step_count == 1


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

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -1.0])
    def test_learning_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="learning_rate must be a finite number > 0, got "):
            nn.TrainConfig(learning_rate=rate)
