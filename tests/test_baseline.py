"""Logistic baseline: training behaviour, prediction identity, checkpoints."""

import inspect
import json
from types import SimpleNamespace

import numpy as np
import pytest

from kancredit.baseline import (
    LogisticModel,
    load_logistic,
    logistic_predict,
    logistic_probabilities,
    save_logistic,
    train_logistic,
)
from kancredit.metrics import roc_auc
from kancredit.training import TrainConfig


def manual_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def checkpoint_text(**entries):
    """A logistic checkpoint's JSON with ``entries`` replaced; None drops one."""
    payload = {"kind": "logistic-model", "version": 1, "weights": [0.5, -1.0], "bias": 0.25}
    payload |= entries
    return json.dumps({k: v for k, v in payload.items() if v is not None})


class TestTrainLogistic:
    def test_separable_toy_converges(self, toy_dataset):
        model, history, seconds = train_logistic(toy_dataset, steps=500)
        assert history[-1] < 0.05
        assert history[0] == pytest.approx(np.log(2.0), abs=1e-12)  # zero start
        assert seconds >= 0

    def test_loss_decreases_overall(self, toy_dataset):
        _, history, _ = train_logistic(toy_dataset, steps=300)
        assert history[-1] < history[0]

    def test_deterministic(self, toy_dataset):
        model_a, hist_a, _ = train_logistic(toy_dataset, steps=50)
        model_b, hist_b, _ = train_logistic(toy_dataset, steps=50)
        np.testing.assert_array_equal(model_a.weights, model_b.weights)
        assert model_a.bias == model_b.bias
        np.testing.assert_array_equal(hist_a, hist_b)

    def test_beats_chance_on_toy(self, toy_dataset):
        model, _, _ = train_logistic(toy_dataset, steps=500)
        probs = logistic_probabilities(model, toy_dataset.features)
        assert roc_auc(probs, toy_dataset.labels) > 0.95

    def test_empty_dataset_rejected(self, toy_dataset):
        empty = SimpleNamespace(features=np.zeros((0, 2)), labels=np.zeros(0))
        with pytest.raises(ValueError, match="empty-batch"):
            train_logistic(empty)

    def test_one_dimensional_features_rejected(self):
        ds = SimpleNamespace(features=np.zeros(4), labels=np.array([0, 1, 0, 1]))
        with pytest.raises(ValueError, match=r"^dimension-mismatch: expected \(n, d\) features, got \(4,\)$"):
            train_logistic(ds)

    def test_fit_settings_default_to_the_networks(self):
        # the baseline is trained like the networks unless told otherwise
        defaults = inspect.signature(train_logistic).parameters
        assert defaults["learning_rate"].default == TrainConfig().learning_rate
        assert defaults["steps"].default == TrainConfig().steps

    def test_non_finite_input_diverges_at_step_one(self, toy_dataset, tmp_path):
        features = toy_dataset.features.copy()
        features[3, 1] = np.nan
        ds = SimpleNamespace(features=features, labels=toy_dataset.labels)
        path = tmp_path / "baseline.json"
        with pytest.raises(ValueError, match=r"^diverged: step 1$"):
            model, _, _ = train_logistic(ds)
            save_logistic(model, path)
        assert not path.exists()

    def test_labels_other_than_0_and_1_rejected(self, toy_dataset):
        labels = toy_dataset.labels * 2
        with pytest.raises(ValueError, match=r"^invalid-label: "):
            train_logistic(SimpleNamespace(features=toy_dataset.features, labels=labels))

    def test_single_class_warns_but_trains(self, toy_dataset):
        ds = SimpleNamespace(features=toy_dataset.features, labels=np.zeros(len(toy_dataset.labels)))
        with pytest.warns(UserWarning, match="degenerate-dataset"):
            _, history, _ = train_logistic(ds, steps=5)
        assert np.isfinite(history).all()


class TestPredict:
    def test_zero_model_outputs_half(self):
        model = LogisticModel(weights=np.zeros(4), bias=0.0)
        assert logistic_predict(model, np.ones(4)) == 0.5
        probs = logistic_probabilities(model, np.random.default_rng(0).normal(size=(9, 4)))
        np.testing.assert_array_equal(probs, np.full(9, 0.5))

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        model = LogisticModel(weights=rng.normal(size=6), bias=float(rng.normal()))
        feats = rng.uniform(-2, 2, (40, 6))
        expected = manual_sigmoid(feats @ model.weights + model.bias)
        np.testing.assert_allclose(
            logistic_probabilities(model, feats), expected, atol=1e-12
        )
        assert logistic_predict(model, feats[0]) == pytest.approx(expected[0], abs=1e-12)

    def test_single_sample_is_a_batch_of_one(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            d = int(rng.integers(1, 41))
            scale = 10.0 ** int(rng.integers(-3, 3))
            model = LogisticModel(weights=rng.normal(size=d) * scale, bias=float(rng.normal() * scale))
            x = rng.normal(size=d) * scale
            p = logistic_predict(model, x)
            assert type(p) is float
            assert p == logistic_probabilities(model, x[None, :])[0]

    def test_dimension_mismatch(self):
        model = LogisticModel(weights=np.zeros(3), bias=0.0)
        with pytest.raises(ValueError, match="dimension-mismatch"):
            logistic_predict(model, np.zeros(4))
        with pytest.raises(ValueError, match="dimension-mismatch"):
            logistic_probabilities(model, np.zeros((5, 2)))


class TestCheckpoint:
    def test_round_trip(self, tmp_path, toy_dataset):
        model, _, _ = train_logistic(toy_dataset, steps=80)
        path = tmp_path / "baseline.json"
        save_logistic(model, path)
        loaded = load_logistic(path)
        np.testing.assert_array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias

    def test_json_integers_load_as_floats(self, tmp_path):
        path = tmp_path / "ints.json"
        path.write_text(checkpoint_text(weights=[1, -2], bias=3))
        loaded = load_logistic(path)
        assert loaded.weights.dtype == np.float64
        np.testing.assert_array_equal(loaded.weights, [1.0, -2.0])
        assert type(loaded.bias) is float and loaded.bias == 3.0

    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text('{"kind": "kan-network", "version": 1}')
        with pytest.raises(ValueError, match="checkpoint-mismatch"):
            load_logistic(path)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param('{"kind": "logistic', id="not-json"),
            pytest.param("[1, 2]", id="list"),
            pytest.param(checkpoint_text(weights=None), id="no-weights"),
            pytest.param(checkpoint_text(bias="a"), id="text-bias"),
            pytest.param(checkpoint_text(version=7), id="version-7"),
            pytest.param(checkpoint_text(weights=[[0.5], [-1.0]]), id="2d-weights"),
            pytest.param(checkpoint_text(weights=[0.5, float("nan")]), id="nan-weight"),
            pytest.param(checkpoint_text(bias=float("inf")), id="inf-bias"),
            pytest.param(checkpoint_text(bias="0.25"), id="numeric-text-bias"),
            pytest.param(checkpoint_text(bias=True), id="bool-bias"),
            pytest.param(checkpoint_text(weights=["1", True, 2]), id="text-and-bool-weights"),
            pytest.param(checkpoint_text(weights=0.5), id="scalar-weights"),
            pytest.param(checkpoint_text(bias=10**400), id="huge-int-bias"),
        ],
    )
    def test_broken_checkpoint_is_coded(self, text, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="^checkpoint-mismatch: "):
            load_logistic(path)
