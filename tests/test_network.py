"""Forward-pass semantics: edges, layers, composition, checkpoints."""

import json
import os
import re
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import kancredit.network as knet
import kancredit.training as ktrain
from kancredit.baseline import LogisticModel, load_logistic, save_logistic
from kancredit.explain import edge_scores
from kancredit.network import (
    init_network,
    silu,
    sigmoid,
    edge_forward,
    layer_forward,
    network_forward,
    network_logits,
    network_probabilities,
    predict_proba,
    parameter_count,
    flatten_params,
    set_params,
    save_network,
    load_network,
)
from kancredit.splines import make_knot_vector, SplineParams
from kancredit.training import backward
from kancredit.network import CHUNK_VALUES, ActivationEdge, _chunk_rows, _layer_batch

from test_splines import fancy_band_dot
from conftest import patch_chunk_rows
from test_training import _chunked_problem, _shared_with_the_helper


def zeroed(net):
    set_params(net, np.zeros(parameter_count(net)))
    return net


class TestSilu:
    def test_zero(self):
        assert silu(0.0) == 0.0

    def test_large_positive_asymptote(self):
        assert silu(100.0) == pytest.approx(100.0, abs=1e-10)

    def test_minus_one(self):
        assert silu(-1.0) == pytest.approx(-0.2689414213699951, abs=1e-15)

    def test_extreme_inputs_stay_finite(self):
        vals = silu(np.array([-1000.0, -50.0, 0.0, 50.0, 1000.0]))
        assert np.all(np.isfinite(vals))
        assert vals[0] == pytest.approx(0.0, abs=1e-12)

    def test_sigmoid_known_point(self):
        assert sigmoid(1.3862944) == pytest.approx(0.8, abs=1e-7)
        assert sigmoid(0.0) == 0.5

    def test_sigmoid_equals_two_branch_definition_bit_for_bit(self):
        x = np.concatenate([
            np.random.default_rng(0).normal(0.0, 20.0, 4096),
            [0.0, -0.0, np.inf, -np.inf, np.nan, -800.0, 800.0],
        ])
        ref = np.empty_like(x)
        pos = x >= 0
        ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        ref[~pos] = ex / (1.0 + ex)
        np.testing.assert_array_equal(sigmoid(x).view(np.uint64), ref.view(np.uint64))


class TestEdgeForward:
    def setup_method(self):
        self.kv = make_knot_vector(-1.0, 1.0, 6, 3)

    def test_zero_weights(self):
        edge = ActivationEdge(0.0, 0.0, SplineParams(np.ones(self.kv.n_basis)))
        for x in (-0.7, 0.0, 0.3, 2.0):
            assert edge_forward(edge, self.kv, x) == 0.0

    def test_silu_only(self):
        edge = ActivationEdge(1.0, 0.0, SplineParams(np.zeros(self.kv.n_basis)))
        assert edge_forward(edge, self.kv, 0.0) == 0.0

    def test_unit_coefficients_give_constant_spline(self):
        edge = ActivationEdge(1.0, 2.0, SplineParams(np.ones(self.kv.n_basis)))
        for x in (-0.9, -0.1, 0.55):
            assert edge_forward(edge, self.kv, x) == pytest.approx(silu(x) + 2.0, abs=1e-12)

    def test_array_equals_scalar_calls(self):
        rng = np.random.default_rng(4)
        edge = ActivationEdge(0.7, -1.3, SplineParams(rng.normal(size=self.kv.n_basis)))
        xs = np.concatenate([np.linspace(-1.5, 1.5, 31), [-1.0, 1.0, 0.0]])
        phi = edge_forward(edge, self.kv, xs)
        assert phi.shape == xs.shape
        assert phi.tolist() == [edge_forward(edge, self.kv, float(x)) for x in xs]
        assert isinstance(edge_forward(edge, self.kv, 0.2), float)


class TestLayerForward:
    def test_zeroed_layer(self):
        net = zeroed(init_network([3, 2, 1], 5, 3, seed=0))
        y, phi = layer_forward(net.layers[0], np.array([0.1, -0.4, 0.9]))
        np.testing.assert_array_equal(y, 0.0)
        np.testing.assert_array_equal(phi, 0.0)

    def test_degenerate_one_by_one(self):
        net = init_network([1, 1], 5, 3, seed=1)
        layer = net.layers[0]
        y, _ = layer_forward(layer, np.array([0.37]))
        want = edge_forward(layer.edge(0, 0), layer.knots, 0.37)
        assert y[0] == pytest.approx(want, abs=1e-12)

    def test_two_inputs_sum_of_edges(self):
        net = init_network([2, 1], 8, 3, seed=5)
        layer = net.layers[0]
        x = np.array([0.25, -0.8])
        y, phi = layer_forward(layer, x)
        want = edge_forward(layer.edge(0, 0), layer.knots, x[0]) + edge_forward(
            layer.edge(0, 1), layer.knots, x[1]
        )
        assert abs(y[0] - want) < 1e-12
        assert abs(y[0] - phi.sum()) < 1e-12

    def test_dimension_mismatch(self):
        net = init_network([3, 1], 5, 3, seed=0)
        with pytest.raises(ValueError, match="dimension-mismatch"):
            layer_forward(net.layers[0], np.array([0.1, 0.2]))


class TestNetworkForward:
    def test_all_zero_single_layer(self):
        net = zeroed(init_network([10, 1], 5, 3, seed=0))
        trace = network_forward(net, np.zeros(10))
        assert trace.logit == 0.0

    def test_matches_manual_composition(self):
        net = init_network([10, 4, 1], 6, 3, seed=42)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 10)
        y0, _ = layer_forward(net.layers[0], x)
        y1, _ = layer_forward(net.layers[1], y0)
        trace = network_forward(net, x)
        assert abs(trace.logit - y1[0]) < 1e-12

    def test_trace_node_sums_match_edge_sums(self):
        net = init_network([4, 3, 1], 5, 3, seed=9)
        rng = np.random.default_rng(2)
        trace = network_forward(net, rng.uniform(-1, 1, 4))
        for phi, sums in zip(trace.edge_outputs, trace.node_sums):
            np.testing.assert_allclose(phi.sum(axis=1), sums, atol=1e-12)

    def test_edge_additivity(self):
        # raising one edge's output by delta moves its node sum by exactly delta
        net = init_network([2, 1], 5, 3, seed=3)
        x = np.array([0.3, -0.2])
        y_before, _ = layer_forward(net.layers[0], x)
        delta = 0.125
        net.layers[0].w_b[0, 1] += delta / silu(x[1])
        y_after, _ = layer_forward(net.layers[0], x)
        assert abs((y_after[0] - y_before[0]) - delta) < 1e-12

    def test_deterministic_for_seed(self):
        a = init_network([10, 4, 1], 7, 3, seed=123)
        b = init_network([10, 4, 1], 7, 3, seed=123)
        np.testing.assert_array_equal(flatten_params(a), flatten_params(b))
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, 10)
        assert network_forward(a, x).logit == network_forward(b, x).logit

    def test_clamp_stability(self):
        # beyond the grid range only the raw silu branch keeps moving
        net = init_network([2, 1], 5, 3, seed=11)
        layer = net.layers[0]
        base = np.array([1.0, 0.5])
        far = np.array([5.0, 0.5])
        diff = network_forward(net, far).logit - network_forward(net, base).logit
        want = layer.w_b[0, 0] * (silu(5.0) - silu(1.0))
        assert abs(diff - want) < 1e-12

    def test_dimension_mismatch(self):
        net = init_network([5, 1], 5, 3, seed=0)
        with pytest.raises(ValueError, match="dimension-mismatch"):
            network_forward(net, np.zeros(4))


class TestPredictProba:
    def test_zero_net_gives_half(self):
        net = zeroed(init_network([10, 1], 5, 3, seed=0))
        assert predict_proba(net, np.zeros(10)) == 0.5

    def test_matches_sigmoid_of_logit(self):
        net = init_network([3, 2, 1], 5, 3, seed=4)
        rng = np.random.default_rng(14)
        x = rng.uniform(-1, 1, 3)
        assert predict_proba(net, x) == pytest.approx(
            sigmoid(network_forward(net, x).logit), abs=1e-15
        )


class TestInitNetwork:
    def test_single_layer_shape(self):
        net = init_network([10, 1], 80, 4, seed=0)
        assert len(net.layers) == 1
        layer = net.layers[0]
        assert (layer.n_out, layer.n_in) == (1, 10)
        assert layer.coef.shape == (1, 10, 84)

    def test_two_layer_shape(self):
        net = init_network([10, 4, 1], 30, 4, seed=0)
        assert [l.w_b.size for l in net.layers] == [40, 4]
        assert net.layers[0].coef.shape[2] == 34

    def test_init_values(self):
        net = init_network([6, 3, 1], 10, 3, seed=77)
        for layer in net.layers:
            np.testing.assert_array_equal(layer.w_b, 1.0)
            np.testing.assert_array_equal(layer.w_s, 1.0)
            assert np.all(np.abs(layer.coef) <= 0.1)
        # coefficients differ across edges (symmetry is broken)
        assert np.std(net.layers[0].coef) > 0

    def test_invalid_widths(self):
        for bad in ([5], [10, 0, 1], [10, 2], []):
            with pytest.raises(ValueError, match="invalid-widths"):
                init_network(bad, 5, 3, seed=0)


class TestParameterVector:
    def test_count(self):
        net = init_network([10, 4, 1], 30, 4, seed=0)
        # (40 + 4) edges, each [w_b, w_s, 34 coefficients]
        assert parameter_count(net) == 44 * 36
        assert flatten_params(net).shape == (44 * 36,)

    def test_canonical_order(self):
        net = init_network([3, 2, 1], 5, 3, seed=21)
        flat = flatten_params(net)
        layer = net.layers[0]
        m = layer.knots.n_basis
        assert flat[0] == layer.w_b[0, 0]
        assert flat[1] == layer.w_s[0, 0]
        np.testing.assert_array_equal(flat[2 : 2 + m], layer.coef[0, 0])
        # second edge of the first row follows immediately
        assert flat[2 + m] == layer.w_b[0, 1]

    def test_round_trip(self):
        net = init_network([4, 3, 1], 6, 3, seed=33)
        rng = np.random.default_rng(1)
        vec = rng.normal(size=parameter_count(net))
        set_params(net, vec)
        np.testing.assert_array_equal(flatten_params(net), vec)

    def test_length_mismatch(self):
        net = init_network([4, 1], 5, 3, seed=0)
        with pytest.raises(ValueError, match="length-mismatch"):
            set_params(net, np.zeros(3))


class TestParameterBuffer:
    def test_layer_arrays_are_views_of_the_buffer(self):
        net = init_network([4, 3, 1], 6, 3, seed=8)
        for layer in net.layers:
            for arr in (layer.w_b, layer.w_s, layer.coef):
                assert arr.base is not None and np.shares_memory(arr, net.params)
        net.layers[1].coef[0, 2, 1] = 5.5
        assert 5.5 in flatten_params(net)

    def test_set_params_writes_layers_in_place(self):
        net = init_network([4, 3, 1], 6, 3, seed=9)
        coef = net.layers[0].coef
        vec = np.random.default_rng(2).normal(size=parameter_count(net))
        set_params(net, vec)
        assert net.layers[0].coef is coef
        m = coef.shape[2]
        np.testing.assert_array_equal(coef[0, 0], vec[2 : 2 + m])
        np.testing.assert_array_equal(net.params, vec)

    def test_flatten_params_is_a_copy(self):
        net = init_network([4, 3, 1], 6, 3, seed=10)
        before = flatten_params(net)
        x = np.random.default_rng(3).uniform(-1, 1, (5, 4))
        logits = network_logits(net, x)
        flat = flatten_params(net)
        flat[:] = 7.0
        np.testing.assert_array_equal(flatten_params(net), before)
        np.testing.assert_array_equal(network_logits(net, x), logits)


class TestCheckpoint:
    def test_exact_round_trip(self, tmp_path):
        net = init_network([10, 4, 1], 12, 4, seed=99)
        path = tmp_path / "model.json"
        save_network(net, path)
        loaded = load_network(path)
        np.testing.assert_array_equal(flatten_params(loaded), flatten_params(net))
        assert loaded.widths == net.widths
        assert (loaded.grid_count, loaded.degree, loaded.seed) == (12, 4, 99)
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, 10)
        assert network_forward(loaded, x).logit == network_forward(net, x).logit

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ValueError, match="checkpoint-mismatch"):
            load_network(path)

    @pytest.mark.parametrize("version", [2, 0, "1", 1.5, True, None])
    def test_other_version_rejected(self, tmp_path, version):
        path = tmp_path / "model.json"
        save_network(init_network([3, 1], 5, 3, seed=0), path)
        payload = json.loads(path.read_text())
        payload["version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="checkpoint-mismatch.*version"):
            load_network(path)

    def test_missing_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_network(init_network([3, 1], 5, 3, seed=0), path)
        payload = json.loads(path.read_text())
        del payload["version"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="checkpoint-mismatch.*version None"):
            load_network(path)

    def test_widths_checked_as_at_init(self, tmp_path):
        net = init_network([3, 1], 5, 3, seed=0)
        path = tmp_path / "model.json"
        save_network(net, path)
        payload = json.loads(path.read_text())
        for widths in ([3], [3, 2]):
            payload["widths"] = widths
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError, match="invalid-widths"):
                load_network(path)


def _network_with(flat):
    net = init_network([2, 2, 1], 4, 2, seed=3)
    set_params(net, flat)
    return net


def _logistic_with(flat):
    return LogisticModel(weights=flat[:-1], bias=float(flat[-1]))


def _logistic_params(path):
    model = load_logistic(path)
    return np.append(model.weights, model.bias)


# (model from a flat parameter vector, saver, flat parameters read back, parameter count)
_SAVERS = [
    pytest.param(_network_with, save_network, lambda path: load_network(path).params,
                 parameter_count(init_network([2, 2, 1], 4, 2, seed=3)), id="save_network"),
    pytest.param(_logistic_with, save_logistic, _logistic_params, 5, id="save_logistic"),
]


class TestCheckpointWriter:
    """``save_network`` and ``save_logistic`` share one writer: finite JSON numbers or nothing."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("make, save, load, size", _SAVERS)
    def test_non_finite_parameter_is_refused_and_writes_nothing(self, make, save, load, size, bad, tmp_path):
        flat = np.random.default_rng(5).normal(size=size)
        for i in range(size):
            path = tmp_path / f"model_{i}.json"
            with pytest.raises(ValueError, match=rf"^non-finite-parameter: {re.escape(str(path))}: "):
                save(make(np.where(np.arange(size) == i, bad, flat)), path)
            assert not path.exists()

    @pytest.mark.parametrize("make, save, load, size", _SAVERS)
    def test_finite_round_trip_is_bit_exact(self, make, save, load, size, tmp_path):
        extremes = [5e-324, -0.0, 1.7976931348623157e308, 0.1, -1 / 3]
        flat = np.random.default_rng(6).normal(size=size) * 10.0 ** np.arange(-8, size - 8)
        flat[: len(extremes)] = extremes
        path = tmp_path / "model.json"
        save(make(flat), path)
        assert load(path).tobytes() == flat.tobytes()
        assert path.read_text().count("\n") == 1  # one compact line of JSON


class TestBatchEvaluation:
    def test_matches_per_sample_forward(self):
        net = init_network([5, 3, 1], 6, 3, seed=13)
        rng = np.random.default_rng(4)
        X = rng.uniform(-1.2, 1.2, size=(40, 5))
        batch = network_logits(net, X)
        single = np.array([network_forward(net, row).logit for row in X])
        np.testing.assert_allclose(batch, single, atol=1e-12)

    def test_chunking_is_invisible(self, monkeypatch):
        net = init_network([3, 1], 5, 3, seed=2)
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(23, 3))
        full = network_logits(net, X)
        patch_chunk_rows(monkeypatch, 7)
        np.testing.assert_array_equal(network_logits(net, X), full)

    def test_chunked_backward_and_edge_scores_match_one_chunk(self, monkeypatch):
        net = init_network([3, 2, 1], 5, 3, seed=2)
        rng = np.random.default_rng(6)
        set_params(net, rng.normal(0, 0.5, parameter_count(net)))
        X = rng.uniform(-1.2, 1.2, size=(23, 3))
        y = (rng.random(23) < 0.4).astype(np.float64)
        data = SimpleNamespace(features=X)
        loss, grad = backward(net, X, y)
        scores = edge_scores(net, data).per_layer
        patch_chunk_rows(monkeypatch, 7)
        chunked_loss, chunked_grad = backward(net, X, y)
        assert chunked_loss == pytest.approx(loss, rel=1e-12, abs=0)
        np.testing.assert_allclose(chunked_grad, grad, rtol=1e-12, atol=0)
        for got, want in zip(edge_scores(net, data).per_layer, scores):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("run", [
        lambda net, x, y: network_logits(net, x),
        backward,
        lambda net, x, y: edge_scores(net, SimpleNamespace(features=x)),
    ], ids=["network_logits", "backward", "edge_scores"])
    def test_every_batched_pass_walks_the_network_grid(self, monkeypatch, run):
        # network._chunk_rows alone sets the grid: every layer sees 23 rows as 7 + 7 + 7 + 2
        net, x, y = _chunked_problem(12, rows=23)
        rows = []

        def recording(layer, cur, positions=None):
            rows.append(cur.shape[0])
            return _layer_batch(layer, cur, positions)

        patch_chunk_rows(monkeypatch, 7)
        monkeypatch.setattr(knet, "_layer_batch", recording)
        run(net, x, y)
        assert sorted(rows) == sorted([7, 7, 7, 2] * len(net.layers))

    @pytest.mark.parametrize(
        "widths, grid_count, rows", [([10, 4, 1], 30, 2048), ([10, 1], 80, 3072)], ids=["10x4x1", "10x1"]
    )
    def test_shipped_nets_chunk_rows_fit_the_budget(self, monkeypatch, widths, grid_count, rows):
        # a layer pass holds its band (degree + 1, n, n_in) and its edge outputs (n, n_out, n_in)
        net = init_network(widths, grid_count, 4, seed=1)
        assert _chunk_rows(net) == rows
        held = []

        def recording(layer, cur, positions=None):
            y, phi, cache = _layer_batch(layer, cur, positions)
            held.append((cur.shape[0], cache[2].size + phi.size))
            return y, phi, cache

        monkeypatch.setattr(knet, "_layer_batch", recording)
        x = np.random.default_rng(9).uniform(-1.2, 1.2, size=(2 * rows + 5, widths[0]))
        network_logits(net, x)
        assert sorted(n for n, _ in held) == sorted([5, rows, rows] * len(net.layers))
        assert max(values for _, values in held) <= CHUNK_VALUES

    def test_every_pass_equals_the_fancy_index_gather(self, monkeypatch):
        # the kernel's gather is invisible: logits, loss, gradient and scores keep every bit
        net = init_network([10, 4, 1], 30, 4, seed=3)
        rng = np.random.default_rng(8)
        set_params(net, rng.normal(0, 0.5, parameter_count(net)))
        x = rng.uniform(-1.2, 1.2, size=(23, 10))
        y = (rng.random(23) < 0.4).astype(np.float64)
        data = SimpleNamespace(features=x)
        patch_chunk_rows(monkeypatch, 7)  # 7 + 7 + 7 + 2 rows

        def passes():
            loss, grad = backward(net, x, y)
            return [network_logits(net, x), np.float64(loss), grad, *edge_scores(net, data).per_layer]

        taken = passes()
        monkeypatch.setattr(knet, "_band_dot", fancy_band_dot)
        monkeypatch.setattr(ktrain, "_band_dot", fancy_band_dot)
        indexed = passes()
        assert len(taken) == len(indexed) == 5
        for got, want in zip(taken, indexed):
            assert np.array_equal(got, want)

    def test_probabilities(self):
        net = init_network([4, 1], 5, 3, seed=1)
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(9, 4))
        np.testing.assert_allclose(
            network_probabilities(net, X), sigmoid(network_logits(net, X)), atol=1e-15
        )

    def test_shape_validation(self):
        net = init_network([4, 1], 5, 3, seed=1)
        with pytest.raises(ValueError, match="dimension-mismatch"):
            network_logits(net, np.zeros((3, 5)))


class TestLogitsChunkHelper:
    """network_logits over a 7-row chunk grid, with the helper thread and without it."""

    @pytest.fixture(autouse=True)
    def small_grid(self, monkeypatch):
        patch_chunk_rows(monkeypatch, 7)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def test_helper_on_and_one_cpu_agree_bit_for_bit(self, monkeypatch):
        net, x, _ = _chunked_problem(9)
        helper_ran = threading.Event()
        with monkeypatch.context() as m:
            m.setattr(knet, "_layer_batch", _shared_with_the_helper(_layer_batch, helper_ran))
            logits = network_logits(net, x)
        assert helper_ran.is_set()
        assert [t for t in threading.enumerate() if t.name.startswith("kancredit-chunk")] == []
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        one_cpu = network_logits(net, x)
        assert np.array_equal(logits, one_cpu)
