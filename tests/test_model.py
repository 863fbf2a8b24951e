"""Model assembly, forward/predict semantics, training, serialization."""

import copy
import dataclasses
import json
import pickle
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qincident import model, nn, qsim
from qincident.errors import DataError


def views_of(net):
    """Per layer, its arrays as views of ``net.params``."""
    return model._views(net.params, net.layout)


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
        quantum, (weights,) = net.layers[3], views_of(net)[3]
        assert quantum.to_dict([weights])["type"] == "quantum"
        assert np.all((weights >= 0) & (weights < 2 * np.pi))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            model.HybridModelConfig(kind="quantumish")
        with pytest.raises(ValueError):
            model.HybridModelConfig(kind="hybrid", n_qubits=0)

    @pytest.mark.parametrize("n_qubits", [0, -1])
    def test_no_qubits_refused_before_a_layer_is_built(self, n_qubits):
        # the config is the only check between a qubit count and nn.init_layer
        with pytest.raises(ValueError, match=rf"^n_qubits must be >= 1, got {n_qubits}$"):
            model.HybridModelConfig(kind="hybrid", n_qubits=n_qubits)


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

    @pytest.mark.parametrize("call", [model.forward, model.predict])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_its_row(self, call, value):
        net = model.build_model(model.HybridModelConfig(kind="hybrid"), seed=0)
        features = np.zeros((4, 6))
        features[2, 5] = features[3, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^feature row 2 holds a non-finite value"):
                call(net, features)

    def test_non_finite_output_names_the_seed_and_row(self):
        # runs 1 and 2 (seeds 6 and 7) overflow to inf - inf; run 0 stays finite
        population = model.build_population(model.HybridModelConfig(kind="classical"), 5, n_runs=3)
        population.params[1:] *= 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"^the model of seed 6 gives output nan for feature row 0$"):
                model.predict(population, np.full((4, 6), 0.5))

    @pytest.mark.parametrize("relu", [True, False], ids=["relu", "sigmoid"])
    @pytest.mark.parametrize("runs", [(), (3,)], ids=["model", "population"])
    def test_dense_layer_activates_in_place_with_the_two_array_bits(self, relu, runs):
        rng = np.random.default_rng(6)
        layer = nn.DenseLayer(4, 5, "relu" if relu else "sigmoid")
        arrays = [rng.normal(0, 30, runs + (5, 4)), rng.normal(0, 30, runs + (5,))]
        x = rng.normal(size=(9, 4))
        got = layer.forward(arrays, x)
        assert got.tobytes() == nn.dense_forward(layer, arrays, x).tobytes()
        assert got.tobytes() == reference_dense_forward(layer, arrays, x)[1].tobytes()
        assert np.isclose(got, 0.0).any() and (got > 0).any()  # both branches taken


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
        # the first step takes every parameter to about 1e300, so the second
        # batch's products overflow and its loss is NaN
        net = model.build_model(model.HybridModelConfig(kind="classical"), seed=1)
        with pytest.raises(DataError, match=r"epoch 1/3, batch 2/3 \(seed 4\)"):
            model.train(net, separable_rows(40), nn.TrainConfig(epochs=3, seed=4, learning_rate=1e300))

    def test_divergence_after_the_last_loss_check_names_the_epoch_and_seed(self):
        # one batch an epoch: its step overflows the model after its loss was checked
        population = model.build_population(model.HybridModelConfig(kind="classical"), 4, n_runs=3)
        with pytest.raises(DataError, match=r"^training diverged by the end of epoch 1/2: the model of seed 4 "):
            model.train(population, separable_rows(10), nn.TrainConfig(epochs=2, learning_rate=1e300, seed=4))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_feature_fails_before_the_first_step(self, value):
        features, labels = separable_rows(40)
        features[21, 2] = value
        net = model.build_model(model.HybridModelConfig(kind="classical"), seed=1)
        before = net.params.copy()
        with pytest.raises(ValueError, match=r"^feature row 21 holds a non-finite value"):
            model.train(net, (features, labels), nn.TrainConfig(epochs=3, seed=4))
        assert net.params.tobytes() == before.tobytes()

    @pytest.mark.parametrize("shape", [(35,), (40, 1), (1, 40), ()])
    def test_mismatched_labels_fail_before_the_first_step(self, shape):
        features, labels = separable_rows(40)
        net = model.build_model(model.HybridModelConfig(kind="classical"), seed=1)
        before = net.params.copy()
        with pytest.raises(ValueError, match=rf"labels of shape {re.escape(str(shape))} do not "
                                             r"match features of shape \(40, 6\)"):
            model.train(net, (features, np.resize(labels, shape)), nn.TrainConfig(seed=4))
        assert net.params.tobytes() == before.tobytes()

    @pytest.mark.parametrize("kind", ["classical", "hybrid"])
    def test_params_is_the_one_owner_of_the_trainable_numbers(self, kind):
        net = model.build_model(model.HybridModelConfig(kind=kind), seed=2)
        model.train(net, separable_rows(40), nn.TrainConfig(epochs=2, seed=2))
        # no layer holds an array, and params is the only array the model holds
        for layer in net.layers:
            fields = [getattr(layer, f.name) for f in dataclasses.fields(layer)]
            assert not any(isinstance(value, np.ndarray) for value in fields)
        assert [name for name, value in vars(net).items() if isinstance(value, np.ndarray)] == ["params"]
        # the layout cuts params into the layers' arrays, in stack order
        arrays = [a for entry in views_of(net) for a in entry]
        assert [a.shape for a in arrays] == [shape for layer in net.layers for shape in layer.shapes]
        assert all(np.shares_memory(a, net.params) for a in arrays)
        assert sum(a.size for a in arrays) == net.params.size
        assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), net.params)


@st.composite
def population_cases(draw):
    """A model config, a population size, and a training set and schedule
    whose last batch is partial."""
    kind = draw(st.sampled_from(["classical", "hybrid"]))
    config = model.HybridModelConfig(kind=kind, n_qubits=draw(st.integers(1, 4)) if kind == "hybrid" else 4)
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

    def test_a_later_groups_divergence_names_its_own_seed(self, monkeypatch):
        # groups of one run; only run 2 (seed 12) goes non-finite, and only
        # in the accuracy pass, which alone calls the quantum forward
        population = model.build_population(model.HybridModelConfig(kind="hybrid"), 10, n_runs=4)

        def nan_in_run_2(x, weights):
            values = qsim.forward_batch(x, weights)
            for run, run_weights in enumerate(weights):
                if np.shares_memory(run_weights, population.params[2]):
                    values[run] = np.nan
            return values

        monkeypatch.setattr(model, "_FORWARD_BYTES", 1)
        monkeypatch.setattr(model, "_QUANTUM_FORWARD", nan_in_run_2)
        with pytest.raises(DataError, match=r"^training diverged by the end of epoch 1/2: "
                                            r"the model of seed 12 gives output nan for feature row 0$"):
            model.train(population, separable_rows(40), nn.TrainConfig(epochs=2, seed=10))

    def test_a_population_has_no_single_model_document(self):
        population = model.build_population(model.HybridModelConfig(kind="classical"), 0, n_runs=2)
        with pytest.raises(ValueError, match="population"):
            model.model_to_dict(population)


# (kind, n_qubits) of the classical, hybrid-2q and hybrid-4q models
SHIPPED_MODELS = [("classical", 4), ("hybrid", 2), ("hybrid", 4)]


class TestRunGroups:
    def test_groups_are_views_of_the_runs_and_match_one_stacked_pass(self, monkeypatch):
        population = model.build_population(model.HybridModelConfig(kind="hybrid"), 7, n_runs=5)
        features = np.random.default_rng(0).uniform(0, 1, (9, 6))
        whole = model.forward(population, features)
        # the widest pass (48 -> 32 units) holds its input and its output,
        # 640 bytes a run-row: two runs of 9 rows per group
        assert max(layer.forward_bytes() for layer in population.layers) == 640
        monkeypatch.setattr(model, "_FORWARD_BYTES", 2 * 9 * 640)
        groups = model.run_groups(population, len(features))
        assert [len(group.params) for group in groups] == [2, 2, 1]
        assert [group.seed for group in groups] == [7, 9, 11]
        for start, group in zip([0, 2, 4], groups):
            runs = slice(start, start + len(group.params))
            assert group.layers == population.layers
            assert np.shares_memory(group.params, population.params)
            assert group.params.tobytes() == population.params[runs].tobytes()
            assert model.forward(group, features).tobytes() == whole[runs].tobytes()

    def test_a_single_model_is_its_own_one_group(self, monkeypatch):
        net = model.build_model(model.HybridModelConfig(kind="classical"), seed=3)
        monkeypatch.setattr(model, "_FORWARD_BYTES", 1)
        groups = model.run_groups(net, 1000)
        assert len(groups) == 1 and groups[0] is net

    @pytest.mark.parametrize("kind, n_qubits", SHIPPED_MODELS)
    def test_every_group_size_matches_one_stacked_pass(self, monkeypatch, kind, n_qubits):
        config = model.HybridModelConfig(kind=kind, n_qubits=n_qubits)
        population = model.build_population(config, 0, n_runs=7)
        features = np.random.default_rng(1).uniform(0, 1, (33, 6))
        whole = model.forward(population, features)
        run_bytes = 33 * max(layer.forward_bytes() for layer in population.layers)
        for size in range(1, 8):
            monkeypatch.setattr(model, "_FORWARD_BYTES", size * run_bytes)
            groups = model.run_groups(population, len(features))
            assert [len(group.params) for group in groups[:-1]] == [size] * (len(groups) - 1)
            grouped = b"".join(model.forward(group, features).tobytes() for group in groups)
            assert grouped == whole.tobytes()

    @pytest.mark.parametrize("kind", ["classical", "hybrid"])
    def test_the_30_run_ds3_prediction_goes_in_groups_within_the_budget(self, kind):
        population = model.build_population(model.HybridModelConfig(kind=kind), 0, n_runs=30)
        features = np.random.default_rng(3).uniform(0, 1, (1250, 6))  # the DS-3 test rows
        one_pass = 30 * 1250 * max(layer.forward_bytes() for layer in population.layers)
        assert model._FORWARD_BYTES < one_pass  # more than one group
        tracemalloc.start()
        try:
            for group in model.run_groups(population, len(features)):
                model.predict(group, features)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1.9 MiB measured for the 2 MiB budget, in 15 groups of 2 runs; one
        # pass of all 30 runs peaked at 23.0 MiB
        assert peak < 1.1 * model._FORWARD_BYTES


class TestStepMemory:
    """Every array of a training step exists once per ``train`` call, and
    Adam's work goes a block at a time."""

    @pytest.mark.parametrize("kind", ["classical", "hybrid"])
    def test_a_30_run_ds3_train_stays_within_5_mib(self, kind):
        config = model.HybridModelConfig(kind=kind)
        rng = np.random.default_rng(4)
        rows = (rng.uniform(0, 1, (150, 6)), rng.integers(0, 2, 150).astype(float))  # the DS-3 train rows
        # a first training also counts numpy's lazy imports; make them beforehand
        model.train(model.build_model(config, 0), (rows[0][:20], rows[1][:20]), nn.TrainConfig(epochs=1))
        population = model.build_population(config, 0, n_runs=30)
        tracemalloc.start()
        try:
            model.train(population, rows, nn.TrainConfig(epochs=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 4.4 / 4.5 MiB measured (classical / hybrid-4q), with one gradient,
        # dz over each output, Adam's work in blocks and 2 MiB run groups;
        # 6.7 / 7.0 MiB with a gradient per plan, a dz beside every output,
        # two [R, P] work arrays and 4 MiB groups
        assert peak <= 5 << 20

    @pytest.mark.parametrize("kind, n_qubits", SHIPPED_MODELS)
    def test_a_30_run_step_stays_within_2_mib(self, kind, n_qubits):
        config = model.HybridModelConfig(kind=kind, n_qubits=n_qubits)
        rng = np.random.default_rng(5)
        features, labels = rng.uniform(0, 1, (16, 6)), rng.integers(0, 2, 16).astype(float)
        # the term tables, built once per shape, and numpy's lazy imports beforehand
        model.loss_and_gradients(model.build_model(config, 0), features[:1], labels[:1])
        population = model.build_population(config, 0, n_runs=30)
        tracemalloc.start()
        try:
            model.loss_and_gradients(population, features, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1.1 / 1.2 / 1.5 MiB measured (classical / hybrid-2q / hybrid-4q)
        assert peak <= 2 << 20


def reference_dense_forward(layer, arrays, x):
    """(pre-activation, output) of a dense layer in the earlier two-array
    form, which the in-place activation must match bit for bit."""
    weights, biases = arrays
    z = x @ weights.swapaxes(-1, -2)
    z += biases[..., np.newaxis, :]
    if layer.activation == "relu":
        return z, np.maximum(z, 0.0)
    e = np.exp(-np.abs(z))
    return z, np.where(z >= 0, 1.0, e) / (1.0 + e)


def reference_forward(net, features):
    """The forward pass in that form, one stacked pass."""
    h = features
    for layer, arrays in zip(net.layers, views_of(net)):
        if isinstance(layer, nn.DenseLayer):
            h = reference_dense_forward(layer, arrays, h)[1]
        else:
            h = qsim.forward_batch(h, arrays[0])
    return h[..., 0]


def reference_loss_and_gradients(net, features, labels):
    """The step in its earlier form, kept as the reference: every array is
    made anew, each layer's gradient arrays are returned, the flat gradient
    is their concatenation in stack order, and every layer, the first too,
    makes its input gradient."""
    h, caches, views = features, [], views_of(net)
    for layer, arrays in zip(net.layers, views):
        if isinstance(layer, nn.DenseLayer):
            z, out = reference_dense_forward(layer, arrays, h)
            caches.append((h, z))
        else:
            out, d_inputs, d_weights = qsim.gradients_batch(h, arrays[0])
            caches.append((d_inputs, d_weights))
        h = out
    probs = h[..., 0]
    loss = np.mean(nn.bce_loss(probs, labels), axis=-1)
    d_out = (nn.bce_grad(probs, labels) / probs.shape[-1])[..., np.newaxis]
    grads_reversed = []
    for layer, arrays, cache in zip(reversed(net.layers), reversed(views), reversed(caches)):
        if isinstance(layer, nn.DenseLayer):
            x, z = cache
            if layer.activation == "relu":
                dz = d_out * (z > 0)
            else:
                s = reference_dense_forward(layer, arrays, x)[1]
                dz = d_out * (s * (1.0 - s))
            grads = (dz.swapaxes(-1, -2) @ x, dz.sum(axis=-2))
            d_out = dz @ arrays[0]
        else:
            d_inputs, d_weights = cache
            grads = (np.einsum("...blij,...bj->...li", d_weights, d_out),)
            d_out = np.einsum("...bij,...bj->...bi", d_inputs, d_out)
        grads_reversed.append(grads)
    runs = net.params.shape[:-1]
    return loss, np.concatenate(
        [g.reshape(runs + (-1,)) for grads in reversed(grads_reversed) for g in grads], axis=-1
    )


def reference_train(net, features, labels, config):
    """``model.train`` as an unplanned loop of the reference step and
    ``nn.adam_step``: (loss history, accuracy history), epochs last."""
    adam = nn.AdamState.for_params(net.params, learning_rate=config.learning_rate)
    losses, accuracies = [], []
    for _ in range(config.epochs):
        running = np.zeros(net.params.shape[:-1])
        for start in range(0, len(labels), config.batch_size):
            batch = slice(start, start + config.batch_size)
            loss, grad = reference_loss_and_gradients(net, features[batch], labels[batch])
            nn.adam_step(net.params, grad, adam)
            running += loss * len(labels[batch])
        losses.append(running / len(labels))
        probs = reference_forward(net, features)
        accuracies.append(np.mean((probs >= model.OUTPUT_THRESHOLD) == (labels > 0.5), axis=-1))
    return np.stack(losses, axis=-1), np.stack(accuracies, axis=-1)


def bits(array):
    return np.asarray(array, dtype=np.float64).view(np.int64)


CONFIGS = [
    model.HybridModelConfig(kind="classical"),
    model.HybridModelConfig(kind="hybrid", n_qubits=2),
    model.HybridModelConfig(kind="hybrid", n_qubits=4),
]


class TestPlannedTraining:
    @pytest.mark.parametrize("config", [CONFIGS[0], CONFIGS[2]], ids=lambda config: config.label)
    @pytest.mark.parametrize("n_runs", [None, 3], ids=["model", "population"])
    def test_train_matches_the_unplanned_loop_bit_for_bit(self, config, n_runs):
        """Two epochs of 250 planned steps and a final partial batch of 6
        rows (4,006 rows at batch 16): the parameters, losses and accuracy
        history are the reference loop's, bit for bit."""
        rng = np.random.default_rng(3)
        features = rng.uniform(0.0, 1.0, (4006, 6))
        labels = rng.integers(0, 2, 4006).astype(float)
        if n_runs is None:
            net = model.build_model(config, seed=3)
        else:
            net = model.build_population(config, seed=3, n_runs=n_runs)
        twin = copy.deepcopy(net)
        train_config = nn.TrainConfig(epochs=2, batch_size=16, seed=3)
        model.train(net, (features, labels), train_config)
        want_loss, want_accuracy = reference_train(twin, features, labels, train_config)
        np.testing.assert_array_equal(bits(net.params), bits(twin.params))
        np.testing.assert_array_equal(bits(net.history["loss"]), bits(want_loss))
        np.testing.assert_array_equal(bits(net.history["train_accuracy"]), bits(want_accuracy))
        assert 0.4 < np.min(want_accuracy) and np.max(want_accuracy) < 0.6  # not all one class

    def test_a_plan_is_reused_across_steps_and_made_per_batch_size(self, monkeypatch):
        made, gradients = [], []

        def plan(net, lead, grad):
            made.append(lead)
            planned = planner(net, lead, grad)
            gradients.append(planned[1])
            return planned

        planner = model._plan
        monkeypatch.setattr(model, "_plan", plan)
        population = model.build_population(CONFIGS[2], seed=1, n_runs=2)
        rng = np.random.default_rng(1)
        rows = (rng.uniform(0, 1, (38, 6)), rng.integers(0, 2, 38).astype(float))
        model.train(population, rows, nn.TrainConfig(epochs=3, batch_size=16))
        assert sorted(made) == [(2, 6), (2, 16)]
        # both plans write into one gradient vector, laid out like params
        assert gradients[0] is gradients[1] and gradients[0].shape == population.params.shape
        made.clear()
        model.train(population, (rows[0][:32], rows[1][:32]), nn.TrainConfig(epochs=2, batch_size=16))
        assert made == [(2, 16)]

    def test_the_first_layer_makes_no_input_gradient(self):
        net = model.build_model(CONFIGS[2], seed=0)
        buffers = model._plan(net, (16,), np.empty_like(net.params))[-1]
        for i, (layer, layer_buffers) in enumerate(zip(net.layers, buffers)):
            if layer_buffers is not None:  # a dense layer: its output, which dz is written over, and d_in
                out, d_in = layer_buffers
                assert out.shape == (16, layer.out_dim)
                assert d_in is None if i == 0 else d_in.shape == (16, layer.in_dim)


class TestGradients:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.label)
    @pytest.mark.parametrize("n_runs", [None, 3], ids=["model", "population"])
    def test_step_matches_the_tuple_form_bit_for_bit(self, config, n_runs):
        """250 Adam steps at batch 16 through one-shot plans: every loss,
        gradient and update is the tuple-and-concatenate form's, bit for
        bit."""
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
            want_loss, want_grad = reference_loss_and_gradients(twin, features[batch], labels[batch])
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
        h, views = feats, views_of(net)
        for i in (0, 1, 2, 4, 5):  # the dense layers
            h = nn.dense_forward(net.layers[i], views[i], h)
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
    @pytest.mark.parametrize("n_runs", [None, 3], ids=["model", "population"])
    def test_a_copy_is_a_twin_that_owns_its_params(self, copier, n_runs):
        config = model.HybridModelConfig(kind="hybrid", n_qubits=2)
        net = model.build_model(config, 3) if n_runs is None else model.build_population(config, 3, n_runs)
        twin = copier(net)
        assert twin.params.shape == net.params.shape and not np.shares_memory(twin.params, net.params)
        features = np.random.default_rng(3).uniform(0, 1, (9, 6))
        assert model.forward(twin, features).tobytes() == model.forward(net, features).tobytes()
        before = net.params.copy()
        model.train(twin, separable_rows(20), nn.TrainConfig(epochs=1, seed=3))
        assert twin.params.tobytes() != before.tobytes()
        assert net.params.tobytes() == before.tobytes()
        twin.params[:] = 0.0
        assert model.forward(twin, np.ones((1, 6))) == pytest.approx(0.5)


class TestJsonDocument:
    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["classical", "hybrid"]),
        n_qubits=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_layers_hold_the_params_and_their_shapes(self, tmp_path_factory, kind, n_qubits, seed):
        config = model.HybridModelConfig(kind=kind, n_qubits=n_qubits)
        net = model.build_model(config, seed=seed)
        net.params += np.random.default_rng(seed).normal(0.0, 1e-3, net.params.size)
        path = tmp_path_factory.mktemp("doc") / "model.json"
        model.save_model(net, path)
        doc, params = read_document(path)
        assert params.tobytes() == net.params.tobytes()
        for entry, layer in zip(doc["layers"], net.layers, strict=True):
            if entry["type"] == "dense":
                assert (entry["out_dim"], entry["in_dim"]) == layer.shapes[0]
                assert entry["activation"] == layer.activation
            else:
                assert (entry["n_entangler_layers"], entry["n_qubits"]) == layer.shapes[0]
        assert doc["config"]["kind"] == kind
