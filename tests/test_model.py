"""Model assembly, forward/predict semantics, training, serialization."""

import copy
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qincident import model, nn
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
        with pytest.raises(ValueError):
            model.HybridModelConfig(hidden_widths=(48,))


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
        features[21, 2] = np.nan  # second batch of 16 in the unshuffled order
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

    def test_shuffle_changes_trajectory_but_stays_deterministic(self):
        rows = separable_rows(80)
        outs = []
        for _ in range(2):
            net = model.build_model(model.HybridModelConfig(kind="classical"), seed=6)
            model.train(net, rows, nn.TrainConfig(epochs=2, seed=6, shuffle=True))
            outs.append(net.params)
        assert np.array_equal(outs[0], outs[1])


class TestGradients:
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


class TestSerialization:
    @pytest.mark.parametrize("kind", ["classical", "hybrid"])
    def test_round_trip(self, tmp_path, kind):
        rows = separable_rows(40)
        net = model.build_model(model.HybridModelConfig(kind=kind), seed=9)
        model.train(net, rows, nn.TrainConfig(epochs=2, seed=9))
        path = tmp_path / "model.json"
        model.save_model(net, path)
        loaded = model.load_model(path)
        np.testing.assert_array_equal(loaded.params, net.params)
        assert loaded.history == net.history
        assert loaded.config == net.config
        rng = np.random.default_rng(10)
        feats = rng.uniform(0, 1, (8, 6))
        np.testing.assert_array_equal(model.forward(net, feats), model.forward(loaded, feats))

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


class TestJsonRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["classical", "hybrid"]),
        n_qubits=st.integers(1, 4),
        n_layers=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_params_outputs_and_bytes_survive(self, tmp_path_factory, kind, n_qubits, n_layers, seed):
        config = model.HybridModelConfig(kind=kind, n_qubits=n_qubits, n_entangler_layers=n_layers)
        net = model.build_model(config, seed=seed)
        net.params += np.random.default_rng(seed).normal(0.0, 1e-3, net.params.size)
        first = tmp_path_factory.mktemp("rt") / "model.json"
        model.save_model(net, first)
        loaded = model.load_model(first)
        assert loaded.params.tobytes() == net.params.tobytes()
        feats = np.random.default_rng(seed).uniform(0, 1, (8, 6))
        np.testing.assert_array_equal(model.forward(loaded, feats), model.forward(net, feats))
        second = first.with_name("again.json")
        model.save_model(loaded, second)
        assert second.read_bytes() == first.read_bytes()
        assert json.loads(first.read_text())["config"]["kind"] == kind
