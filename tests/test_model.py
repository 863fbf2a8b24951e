"""Model assembly, forward/predict semantics, training, serialization."""

import copy
import json
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qincident import model, nn, qsim
from qincident.errors import DataError


def zeroed(net):
    net.params[:] = 0.0
    return net


def separable_rows(n_rows=200, seed=0):
    """Two tight clusters: slow congested positives vs free-flow negatives,
    as a (features [n, 6], labels [n]) pair."""
    rng = np.random.default_rng(seed)
    features, labels = [], []
    for i in range(n_rows):
        positive = i % 2 == 0
        if positive:
            features.append(rng.normal([0.05, 0.3, 0.15, 0.8, 0.9, 0.05], 0.03))
        else:
            features.append(rng.normal([0.85, 0.3, 0.85, 0.3, 0.85, 0.3], 0.03))
        labels.append(1.0 if positive else 0.0)
    return np.array(features), np.array(labels)


class TestBuildModel:
    def test_hybrid_parameter_count(self):
        net = model.build_model(model.HybridModelConfig(kind="hybrid", n_qubits=4), seed=0)
        # (6*48+48)+(48*32+32)+(32*4+4)+(1*4)+(4*4+4)+(4*1+1)
        assert net.params.size == 2065

    def test_classical_parameter_count(self):
        net = model.build_model(model.HybridModelConfig(kind="classical"), seed=0)
        assert net.params.size == 1937  # 336 + 1568 + 33

    def test_two_qubit_parameter_count(self):
        net = model.build_model(model.HybridModelConfig(kind="hybrid", n_qubits=2), seed=0)
        assert net.params.size == 336 + 1568 + 66 + 2 + 6 + 3

    def test_same_seed_identical(self):
        a = model.build_model(model.HybridModelConfig(kind="hybrid"), seed=3)
        b = model.build_model(model.HybridModelConfig(kind="hybrid"), seed=3)
        assert np.array_equal(a.params, b.params)

    def test_quantum_weights_in_natural_domain(self):
        net = model.build_model(model.HybridModelConfig(kind="hybrid"), seed=1)
        quantum = net.layers[3]
        assert quantum.to_dict()["type"] == "quantum"
        assert np.all((quantum.weights >= 0) & (quantum.weights < 2 * np.pi))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            model.HybridModelConfig(kind="quantumish")
        with pytest.raises(ValueError):
            model.HybridModelConfig(kind="hybrid", n_qubits=0)


class TestForward:
    def test_zero_parameter_hybrid_gives_half(self):
        # zeros -> quantum sees zero angles -> all-one expectations -> zero head -> sigmoid(0)
        net = zeroed(model.build_model(model.HybridModelConfig(kind="hybrid"), seed=0))
        assert model.forward(net, np.zeros((1, 6))) == pytest.approx([0.5])

    def test_zero_parameter_classical_gives_half(self):
        net = zeroed(model.build_model(model.HybridModelConfig(kind="classical"), seed=0))
        assert model.forward(net, np.zeros((1, 6))) == pytest.approx([0.5])

    def test_output_in_open_unit_interval(self):
        rng = np.random.default_rng(2)
        net = model.build_model(model.HybridModelConfig(kind="hybrid"), seed=2)
        probs = model.forward(net, rng.uniform(0, 1, (50, 6)))
        assert np.all((probs > 0) & (probs < 1))

    def test_wrong_feature_length(self):
        net = model.build_model(model.HybridModelConfig(kind="classical"), seed=0)
        with pytest.raises(ValueError):
            model.forward(net, np.zeros((1, 5)))

    @pytest.mark.parametrize("call", [model.forward, model.predict])
    def test_single_row_rejected(self, call):
        net = model.build_model(model.HybridModelConfig(kind="classical"), seed=0)
        with pytest.raises(ValueError, match=r"got shape \(6,\)"):
            call(net, np.zeros(6))


class TestPredict:
    def test_threshold_inclusive(self):
        net = zeroed(model.build_model(model.HybridModelConfig(kind="classical"), seed=0))
        # zero parameters give exactly 0.5, the inclusive boundary
        assert model.predict(net, np.zeros((1, 6))).tolist() == [1]

    def test_monotone_in_probability(self):
        net = model.build_model(model.HybridModelConfig(kind="classical"), seed=4)
        rng = np.random.default_rng(4)
        feats = rng.uniform(0, 1, (100, 6))
        probs = model.forward(net, feats)
        preds = model.predict(net, feats)
        # raising the probability never flips a predicted 1 to 0
        order = np.argsort(probs)
        assert np.all(np.diff(preds[order]) >= 0)


class TestTrain:
    @pytest.mark.parametrize("kind", ["classical", "hybrid"])
    def test_separable_set_reaches_95_percent(self, kind):
        rows = separable_rows()
        net = model.build_model(model.HybridModelConfig(kind=kind, n_qubits=4), seed=0)
        model.train(net, rows, nn.TrainConfig(epochs=20, batch_size=16, seed=0))
        assert max(net.history["train_accuracy"]) >= 0.95

    def test_loss_history_finite(self):
        rows = separable_rows(60)
        net = model.build_model(model.HybridModelConfig(kind="classical"), seed=1)
        model.train(net, rows, nn.TrainConfig(epochs=5, batch_size=16, seed=1))
        assert len(net.history["loss"]) == 5
        assert all(np.isfinite(v) for v in net.history["loss"])

    def test_deterministic_training(self):
        rows = separable_rows(80)
        nets = []
        for _ in range(2):
            net = model.build_model(model.HybridModelConfig(kind="hybrid", n_qubits=2), seed=5)
            model.train(net, rows, nn.TrainConfig(epochs=3, batch_size=16, seed=5))
            nets.append(net)
        assert np.array_equal(nets[0].params, nets[1].params)
        assert nets[0].history == nets[1].history

    def test_empty_training_set(self):
        net = model.build_model(model.HybridModelConfig(kind="classical"), seed=0)
        with pytest.raises(ValueError):
            model.train(net, (np.empty((0, 6)), np.empty(0)), nn.TrainConfig())

    def test_non_finite_loss_names_epoch_batch_and_seed(self):
        features, labels = separable_rows(40)
        features[21, 2] = np.nan  # rows 16..31 are the second batch of 16
        net = model.build_model(model.HybridModelConfig(kind="classical"), seed=1)
        with pytest.raises(DataError, match=r"epoch 1/3, batch 2/3 \(seed 4\)"):
            model.train(net, (features, labels), nn.TrainConfig(epochs=3, seed=4))

    @pytest.mark.parametrize("kind", ["classical", "hybrid"])
    def test_layers_stay_views_of_params(self, kind):
        net = model.build_model(model.HybridModelConfig(kind=kind), seed=2)
        model.train(net, separable_rows(40), nn.TrainConfig(epochs=2, seed=2))
        arrays = [getattr(layer, name) for layer in net.layers for name in layer.param_names]
        assert all(np.shares_memory(a, net.params) for a in arrays)
        assert sum(a.size for a in arrays) == net.params.size
        assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), net.params)


@st.composite
def population_cases(draw):
    """A model config, a population size, and a training set and schedule
    whose last batch is partial."""
    kind = draw(st.sampled_from(["classical", "hybrid"]))
    config = model.HybridModelConfig(
        kind=kind,
        n_qubits=draw(st.integers(1, 4)) if kind == "hybrid" else 4,
        n_entangler_layers=draw(st.integers(1, 2)) if kind == "hybrid" else 1,
    )
    batch_size = draw(st.integers(2, 12))
    n_rows = batch_size * draw(st.integers(0, 3)) + draw(st.integers(1, batch_size - 1))
    train_config = nn.TrainConfig(
        epochs=draw(st.integers(1, 2)),
        batch_size=batch_size,
        seed=draw(st.integers(0, 2**16)),
    )
    return config, draw(st.integers(1, 5)), n_rows, train_config, draw(st.integers(0, 2**16))


class TestPopulation:
    @settings(max_examples=40, deadline=None)
    @given(case=population_cases())
    def test_each_run_is_its_model_trained_alone(self, case):
        config, n_runs, n_rows, train_config, seed = case
        rng = np.random.default_rng(seed)
        rows = (rng.uniform(0, 1, (n_rows, 6)), rng.integers(0, 2, n_rows).astype(float))
        test_x = rng.uniform(0, 1, (7, 6))
        population = model.build_population(config, seed, n_runs)
        model.train(population, rows, train_config)
        probs = model.forward(population, test_x)
        preds = model.predict(population, test_x)
        assert population.params.shape[0] == probs.shape[0] == preds.shape[0] == n_runs
        for run in range(n_runs):
            alone = model.build_model(config, seed + run)
            model.train(alone, rows, replace(train_config, seed=train_config.seed + run))
            assert population.params[run].tobytes() == alone.params.tobytes()
            for key in ("loss", "train_accuracy", "seed"):
                assert population.history[key][run] == alone.history[key]
            assert probs[run].tobytes() == model.forward(alone, test_x).tobytes()
            assert np.array_equal(preds[run], model.predict(alone, test_x))

    @pytest.mark.parametrize("nan_runs, seed", [([2], 12), ([3, 1], 11)])
    def test_divergence_names_the_seed_of_the_first_run_that_diverged(
        self, monkeypatch, nan_runs, seed
    ):
        def nan_in_some_runs(x, weights):
            values, d_inputs, d_weights = qsim.gradients_batch(x, weights)
            values = values.copy()
            values[nan_runs] = np.nan
            return values, d_inputs, d_weights

        monkeypatch.setattr(model, "_QUANTUM_GRADIENTS", nan_in_some_runs)
        population = model.build_population(model.HybridModelConfig(kind="hybrid"), 3, n_runs=4)
        with pytest.raises(DataError, match=rf"epoch 1/2, batch 1/3 \(seed {seed}\)$"):
            model.train(population, separable_rows(40), nn.TrainConfig(epochs=2, seed=10))

    def test_forward_in_run_groups_matches_one_stacked_pass(self, monkeypatch):
        population = model.build_population(model.HybridModelConfig(kind="hybrid"), 0, n_runs=5)
        features = np.random.default_rng(0).uniform(0, 1, (9, 6))
        whole = model.forward(population, features)
        # the widest dense layer makes 768 bytes a run-row: two runs of 9 rows per pass
        monkeypatch.setattr(model, "_FORWARD_BYTES", 2 * 9 * 768)
        assert model.forward(population, features).tobytes() == whole.tobytes()

    def test_forward_at_the_term_cap_in_run_groups_matches_one_stacked_pass(self, monkeypatch):
        config = model.HybridModelConfig(kind="hybrid", n_qubits=6, n_entangler_layers=3)
        population = model.build_population(config, 0, n_runs=30)
        features = np.random.default_rng(1).uniform(0, 1, (384, 6))
        grouped = model.forward(population, features)
        assert model._FORWARD_BYTES < 30 * 384 * qsim.forward_bytes(6, 3)  # more than one group
        monkeypatch.setattr(model, "_FORWARD_BYTES", 7 * 384 * qsim.forward_bytes(6, 3))
        assert model.forward(population, features).tobytes() == grouped.tobytes()
        monkeypatch.setattr(model, "_FORWARD_BYTES", 1 << 40)  # one pass
        assert model.forward(population, features).tobytes() == grouped.tobytes()

    def test_forward_at_the_term_cap_stays_within_the_byte_budget(self):
        config = model.HybridModelConfig(kind="hybrid", n_qubits=6, n_entangler_layers=3)
        population = model.build_population(config, 0, n_runs=30)
        features = np.random.default_rng(2).uniform(0, 1, (2048, 6))
        tracemalloc.start()
        try:
            model.forward(population, features)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 39 MiB measured for the 48 MiB budget; one stacked pass peaks at 390 MiB
        assert peak < 1.25 * model._FORWARD_BYTES

    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))])
    def test_copy_keeps_the_run_axis_and_the_views(self, copier):
        population = model.build_population(model.HybridModelConfig(kind="hybrid"), 0, n_runs=3)
        twin = copier(population)
        assert twin.params.shape == population.params.shape == (3, 2065)
        arrays = [getattr(layer, name) for layer in twin.layers for name in layer.param_names]
        assert all(a.shape[0] == 3 and np.shares_memory(a, twin.params) for a in arrays)
        features = np.ones((2, 6))
        assert model.forward(twin, features).tobytes() == model.forward(population, features).tobytes()

    def test_a_population_has_no_single_model_document(self):
        population = model.build_population(model.HybridModelConfig(kind="classical"), 0, n_runs=2)
        with pytest.raises(ValueError, match="population"):
            model.model_to_dict(population)


def tuple_form_loss_and_gradients(net, features, labels):
    """The step in its earlier form, kept as the reference: each layer's
    backward returns its gradient arrays, and the flat gradient is their
    concatenation in stack order."""
    h, caches = features, []
    for layer in net.layers:
        h, cache = layer.forward_cached(h)
        caches.append(cache)
    probs = h[..., 0]
    loss = np.mean(nn.bce_loss(probs, labels), axis=-1)
    d_out = (nn.bce_grad(probs, labels) / probs.shape[-1])[..., np.newaxis]
    grads_reversed = []
    for layer, cache in zip(reversed(net.layers), reversed(caches)):
        if isinstance(layer, nn.DenseLayer):
            x, z = cache
            dz = d_out * nn.activate_deriv(layer.activation, z)
            grads = (dz.swapaxes(-1, -2) @ x, dz.sum(axis=-2))
            d_out = dz @ layer.weights
        else:
            d_inputs, d_weights = cache
            grads = (np.einsum("...blij,...bj->...li", d_weights, d_out),)
            d_out = np.einsum("...bij,...bj->...bi", d_inputs, d_out)
        grads_reversed.append(grads)
    runs = net.params.shape[:-1]
    return loss, np.concatenate(
        [g.reshape(runs + (-1,)) for grads in reversed(grads_reversed) for g in grads], axis=-1
    )


def bits(array):
    return np.asarray(array, dtype=np.float64).view(np.int64)


class TestGradients:
    @pytest.mark.parametrize(
        "config",
        [
            model.HybridModelConfig(kind="classical"),
            model.HybridModelConfig(kind="hybrid", n_qubits=2),
            model.HybridModelConfig(kind="hybrid", n_qubits=4),
        ],
        ids=lambda config: config.label,
    )
    @pytest.mark.parametrize("n_runs", [None, 3], ids=["model", "population"])
    def test_step_matches_the_tuple_form_bit_for_bit(self, config, n_runs):
        """250 Adam steps at batch 16: every loss, gradient and update is
        the tuple-and-concatenate form's, bit for bit."""
        rng = np.random.default_rng(3)
        features = rng.uniform(0.0, 1.0, (4000, 6))
        labels = rng.integers(0, 2, 4000).astype(float)
        if n_runs is None:
            net = model.build_model(config, seed=3)
        else:
            net = model.build_population(config, seed=3, n_runs=n_runs)
        twin = copy.deepcopy(net)
        adam, twin_adam = nn.AdamState.for_params(net.params), nn.AdamState.for_params(twin.params)
        for start in range(0, len(features), 16):
            batch = slice(start, start + 16)
            loss, grad = model.loss_and_gradients(net, features[batch], labels[batch])
            want_loss, want_grad = tuple_form_loss_and_gradients(twin, features[batch], labels[batch])
            np.testing.assert_array_equal(bits(loss), bits(want_loss))
            np.testing.assert_array_equal(bits(grad), bits(want_grad))
            nn.adam_step(net.params, grad, adam)
            nn.adam_step(twin.params, want_grad, twin_adam)
        np.testing.assert_array_equal(bits(net.params), bits(twin.params))

    def test_batch_mean_permutation_invariant(self):
        rng = np.random.default_rng(7)
        net = model.build_model(model.HybridModelConfig(kind="hybrid"), seed=7)
        feats = rng.uniform(0, 1, (16, 6))
        labels = rng.integers(0, 2, 16).astype(float)
        _, grad = model.loss_and_gradients(net, feats, labels)
        assert grad.shape == net.params.shape
        perm = rng.permutation(16)
        _, grad_perm = model.loss_and_gradients(net, feats[perm], labels[perm])
        np.testing.assert_allclose(grad, grad_perm, atol=1e-12)

    def test_quantum_identity_parity(self, monkeypatch):
        """With the quantum layer patched to a pass-through, the hybrid stack
        must equal the plain dense composition of the same weights."""
        net = model.build_model(model.HybridModelConfig(kind="hybrid", n_qubits=4), seed=8)
        monkeypatch.setattr(model, "_QUANTUM_FORWARD", lambda x, w: x)
        rng = np.random.default_rng(8)
        feats = rng.uniform(0, 1, (5, 6))
        got = model.forward(net, feats)
        h = feats
        for layer in net.layers[:3] + net.layers[4:]:  # the dense layers
            _, h = nn.dense_forward(layer, h)
        np.testing.assert_allclose(got, h[:, 0], atol=1e-12)


def read_document(path):
    """A saved model document and the parameter vector its layers hold, in
    stack order (a dense layer's weights, then its biases)."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    values = [v for layer in doc["layers"] for key in ("weights", "biases") for v in layer.get(key, [])]
    return doc, np.array(values, dtype=float)


class TestSerialization:
    @pytest.mark.parametrize("kind", ["classical", "hybrid"])
    def test_document_holds_the_trained_model(self, tmp_path, kind):
        rows = separable_rows(40)
        net = model.build_model(model.HybridModelConfig(kind=kind), seed=9)
        model.train(net, rows, nn.TrainConfig(epochs=2, seed=9))
        path = tmp_path / "model.json"
        model.save_model(net, path)
        doc, params = read_document(path)
        assert params.tobytes() == net.params.tobytes()
        assert doc["history"] == net.history
        assert doc["seed"] == 9
        assert doc["config"] == {
            "kind": kind, "hidden_widths": [48, 32], "n_qubits": 4, "n_entangler_layers": 1,
            "output_threshold": 0.5,
        }

    def test_identical_seeds_serialize_identically(self, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            net = model.build_model(model.HybridModelConfig(kind="hybrid"), seed=11)
            path = tmp_path / name
            model.save_model(net, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]


class TestCopies:
    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))])
    def test_copy_keeps_layers_as_views_of_its_params(self, copier):
        net = model.build_model(model.HybridModelConfig(kind="hybrid", n_qubits=2), seed=3)
        twin = copier(net)
        assert np.array_equal(twin.params, net.params)
        twin.params[:] = 0.0
        assert model.forward(twin, np.ones((1, 6))) == pytest.approx([0.5])
        assert np.any(net.params != 0.0)


class TestJsonDocument:
    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["classical", "hybrid"]),
        n_qubits=st.integers(1, 4),
        n_layers=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_layers_hold_the_params_and_their_shapes(self, tmp_path_factory, kind, n_qubits, n_layers, seed):
        config = model.HybridModelConfig(kind=kind, n_qubits=n_qubits, n_entangler_layers=n_layers)
        net = model.build_model(config, seed=seed)
        net.params += np.random.default_rng(seed).normal(0.0, 1e-3, net.params.size)
        path = tmp_path_factory.mktemp("doc") / "model.json"
        model.save_model(net, path)
        doc, params = read_document(path)
        assert params.tobytes() == net.params.tobytes()
        for entry, layer in zip(doc["layers"], net.layers, strict=True):
            if entry["type"] == "dense":
                assert (entry["out_dim"], entry["in_dim"]) == layer.weights.shape
                assert entry["activation"] == layer.activation
            else:
                assert (entry["n_entangler_layers"], entry["n_qubits"]) == layer.weights.shape
        assert doc["config"]["kind"] == kind
