"""Gradient correctness against finite differences, Adam, and the train loop."""

import tracemalloc

import numpy as np
import pytest

from kancredit.network import (
    _layer_batch,
    flatten_params,
    init_network,
    network_logits,
    parameter_count,
    set_params,
    sigmoid,
    silu,
)
from kancredit.splines import basis_derivatives
from kancredit.training import (
    AdamState,
    TrainConfig,
    adam_step,
    backward,
    bce_with_logits,
    grad_check,
    train,
)

from test_splines import dense

LN2 = float(np.log(2.0))


def dense_layer(layer, X):
    """Reference layer over the dense (n, n_in, n_basis) basis, contracted by einsum."""
    basis = dense(layer.knots, X.ravel()).reshape(X.shape[0], layer.n_in, -1)
    spline_out = np.einsum("qpi,npi->nqp", layer.coef, basis)
    sig = sigmoid(X)
    sil = X * sig
    phi = layer.w_b[None, :, :] * sil[:, None, :] + layer.w_s[None, :, :] * spline_out
    return phi.sum(axis=2), phi, (X, basis, spline_out, sil, sig)


def dense_backward(net, x, y):
    """Reference mean BCE and gradient in checkpoint order, over the dense basis."""
    caches, cur = [], x
    for layer in net.layers:
        cur, _, cache = dense_layer(layer, cur)
        caches.append(cache)
    z = cur[:, 0]
    loss = float(np.mean(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))))
    grad = ((sigmoid(z) - y) / len(y))[:, None]
    per_layer = []
    for li in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[li]
        X, basis, spline_out, sil, sig = caches[li]
        d_wb = np.einsum("nq,np->qp", grad, sil)
        d_ws = np.einsum("nq,nqp->qp", grad, spline_out)
        d_coef = layer.w_s[:, :, None] * np.einsum("nq,npi->qpi", grad, basis)
        per_layer.insert(0, np.concatenate([d_wb[..., None], d_ws[..., None], d_coef], axis=2))
        kv = layer.knots
        in_range = (X > kv.range_min) & (X < kv.range_max)
        dbasis = dense(kv, X.ravel(), basis_derivatives).reshape(basis.shape)
        dspline = np.einsum("qpi,npi->nqp", layer.coef, dbasis * in_range[:, :, None])
        dsil = sig * (1.0 + X * (1.0 - sig))
        grad = np.einsum("nq,qp->np", grad, layer.w_b) * dsil + np.einsum(
            "nq,nqp->np", grad, layer.w_s[None, :, :] * dspline
        )
    return loss, np.concatenate([g.ravel() for g in per_layer])


class TestBceWithLogits:
    def test_zero_logit(self):
        assert bce_with_logits(0.0, 1) == pytest.approx(LN2, abs=1e-12)
        assert bce_with_logits(0.0, 0) == pytest.approx(LN2, abs=1e-12)

    def test_extreme_logits_stay_finite(self):
        assert bce_with_logits(1000.0, 0) == 1000.0
        assert bce_with_logits(-1000.0, 1) == 1000.0
        assert bce_with_logits(1000.0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_matches_naive_formula_in_safe_range(self):
        rng = np.random.default_rng(1)
        for z in rng.uniform(-10, 10, size=50):
            for y in (0, 1):
                p = 1.0 / (1.0 + np.exp(-z))
                naive = -(y * np.log(p) + (1 - y) * np.log(1 - p))
                assert bce_with_logits(float(z), y) == pytest.approx(naive, abs=1e-10)

    def test_invalid_label(self):
        with pytest.raises(ValueError, match="invalid-label"):
            bce_with_logits(0.3, 2)


class TestBackward:
    def test_zero_net_loss_and_base_weight_gradient(self):
        net = init_network([10, 1], 5, 3, seed=0)
        set_params(net, np.zeros(parameter_count(net)))
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(16, 10))
        y = rng.integers(0, 2, size=16)
        loss, grads = backward(net, x, y)
        assert loss == pytest.approx(LN2, abs=1e-12)
        # logit is identically 0, so dL/dz = (0.5 - y)/n and dL/dw_b[0,p]
        # = sum_n dL/dz_n * silu(x[n,p])
        dz = (0.5 - y) / len(y)
        m = net.layers[0].knots.n_basis
        for p in range(10):
            want = float(np.sum(dz * silu(x[:, p])))
            assert grads[p * (2 + m)] == pytest.approx(want, abs=1e-12)

    def test_duplicated_batch_changes_nothing(self):
        net = init_network([4, 3, 1], 5, 3, seed=9)
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=(6, 4))
        y = rng.integers(0, 2, size=6)
        loss1, g1 = backward(net, x, y)
        loss2, g2 = backward(net, np.vstack([x, x]), np.concatenate([y, y]))
        assert loss1 == pytest.approx(loss2, abs=1e-14)
        np.testing.assert_allclose(g1, g2, atol=1e-14)

    @pytest.mark.parametrize("widths,grid", [([10, 1], 80), ([10, 4, 1], 30), ([3, 2, 2, 1], 5)])
    def test_banded_kernel_matches_dense_reference(self, widths, grid):
        net = init_network(widths, grid, 4, seed=21)
        rng = np.random.default_rng(22)
        set_params(net, rng.normal(scale=0.5, size=parameter_count(net)))
        x = rng.uniform(-1.3, 1.3, size=(300, widths[0]))  # some inputs clamp
        x[:8] = net.layers[0].knots.knots[4:12, None]  # exact knots
        y = rng.integers(0, 2, size=300)
        cur = x
        for layer in net.layers:
            got, want = _layer_batch(layer, cur), dense_layer(layer, cur)
            for g, w in zip(got[:2], want[:2]):
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)
            cur = got[0]
        loss, grads = backward(net, x, y)
        want_loss, want_grads = dense_backward(net, x, y)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        np.testing.assert_allclose(grads, want_grads, rtol=1e-12, atol=1e-12)

    def test_full_chunk_peak_memory(self):
        # one 16384-row chunk of the shipped 10,1 grid-80 model; a dense
        # (n, n_in, n_basis) basis alone would take 110 MB here
        net = init_network([10, 1], 80, 4, seed=3)
        rng = np.random.default_rng(23)
        x = rng.uniform(-1.2, 1.2, size=(16384, 10))
        y = rng.integers(0, 2, size=16384)
        tracemalloc.start()
        try:
            backward(net, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60e6

    def test_validation(self):
        net = init_network([4, 1], 5, 3, seed=0)
        with pytest.raises(ValueError, match="dimension-mismatch"):
            backward(net, np.zeros((3, 5)), np.zeros(3))
        with pytest.raises(ValueError, match="empty-batch"):
            backward(net, np.zeros((0, 4)), np.zeros(0))
        with pytest.raises(ValueError, match="invalid-label"):
            backward(net, np.zeros((2, 4)), np.array([0.0, 0.5]))


class TestGradCheck:
    def test_zero_net_tiny_batch(self):
        net = init_network([3, 1], 5, 3, seed=0)
        set_params(net, np.zeros(parameter_count(net)))
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, size=(4, 3))
        y = np.array([0, 1, 1, 0])
        assert grad_check(net, x, y) < 1e-6

    def test_random_two_layer_net(self):
        net = init_network([10, 4, 1], 5, 3, seed=17)
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, size=(8, 10))
        y = rng.integers(0, 2, size=8)
        assert grad_check(net, x, y) < 1e-4

    def test_perturbed_parameters_still_pass(self):
        # push parameters away from the tame init before checking
        net = init_network([2, 1], 8, 3, seed=2)
        rng = np.random.default_rng(7)
        set_params(net, rng.normal(scale=1.5, size=parameter_count(net)))
        x = rng.uniform(-1.5, 1.5, size=(8, 2))  # includes clamped samples
        y = rng.integers(0, 2, size=8)
        assert grad_check(net, x, y) < 1e-4

    def test_huge_eps_degrades(self):
        net = init_network([3, 2, 1], 5, 3, seed=1)
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, size=(6, 3))
        y = rng.integers(0, 2, size=6)
        assert grad_check(net, x, y, eps=0.5) > grad_check(net, x, y, eps=1e-5)

    def test_restores_parameters(self):
        net = init_network([3, 1], 5, 3, seed=4)
        before = flatten_params(net)
        rng = np.random.default_rng(9)
        grad_check(net, rng.uniform(-1, 1, (4, 3)), np.array([0, 1, 0, 1]))
        np.testing.assert_array_equal(flatten_params(net), before)


class TestAdamStep:
    def cfg(self, lr=0.1):
        return TrainConfig(widths=(2, 1), learning_rate=lr)

    def test_zero_gradient_keeps_params(self):
        params = np.array([1.0, -2.0, 3.0])
        out, state = adam_step(params, np.zeros(3), AdamState.zeros(3), 1, self.cfg())
        np.testing.assert_array_equal(out, params)
        np.testing.assert_array_equal(state.m, 0.0)

    def test_first_step_size(self):
        params = np.array([0.0])
        out, _ = adam_step(params, np.array([1.0]), AdamState.zeros(1), 1, self.cfg())
        # bias corrections cancel, so the first move is almost exactly lr
        assert params[0] - out[0] == pytest.approx(0.1, abs=1e-8)

    def test_equal_gradients_equal_updates(self):
        params = np.array([5.0, -1.0])
        grads = np.array([0.37, 0.37])
        out, _ = adam_step(params, grads, AdamState.zeros(2), 1, self.cfg())
        deltas = params - out
        assert deltas[0] == pytest.approx(deltas[1], abs=1e-15)

    def test_matches_handwritten_update(self):
        cfg = self.cfg(lr=0.05)
        params = np.array([0.5, -0.25])
        grads = np.array([0.3, -0.8])
        state = AdamState(m=np.array([0.1, 0.0]), v=np.array([0.02, 0.01]))
        out, new_state = adam_step(params, grads, state, 3, cfg)
        m = 0.9 * state.m + 0.1 * grads
        v = 0.999 * state.v + 0.001 * grads**2
        m_hat = m / (1 - 0.9**3)
        v_hat = v / (1 - 0.999**3)
        want = params - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(out, want, atol=1e-15)
        np.testing.assert_allclose(new_state.m, m, atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length-mismatch"):
            adam_step(np.zeros(3), np.zeros(2), AdamState.zeros(3), 1, self.cfg())


class TestTrainLoop:
    def test_separable_toy_reaches_low_loss(self, toy_dataset):
        cfg = TrainConfig(widths=(2, 1), grid_count=5, degree=3, learning_rate=0.1,
                          steps=200, seed=0)
        _, report = train(toy_dataset, cfg)
        assert report.loss_history[-1] < 0.05

    def test_single_step_history(self, toy_dataset):
        cfg = TrainConfig(widths=(2, 1), grid_count=5, degree=3, steps=1, seed=0)
        _, report = train(toy_dataset, cfg)
        assert report.loss_history.shape == (1,)
        assert np.isfinite(report.loss_history).all()

    def test_deterministic(self, toy_dataset):
        cfg = TrainConfig(widths=(2, 1), grid_count=5, degree=3, steps=25, seed=3)
        net1, rep1 = train(toy_dataset, cfg)
        net2, rep2 = train(toy_dataset, cfg)
        np.testing.assert_array_equal(rep1.loss_history, rep2.loss_history)
        np.testing.assert_array_equal(flatten_params(net1), flatten_params(net2))

    def test_full_batch_flag_equivalence(self, toy_dataset):
        n = len(toy_dataset.labels)
        cfg_a = TrainConfig(widths=(2, 1), grid_count=5, degree=3, steps=15,
                            batch_size=-1, seed=1)
        cfg_b = TrainConfig(widths=(2, 1), grid_count=5, degree=3, steps=15,
                            batch_size=n, seed=1)
        net_a, rep_a = train(toy_dataset, cfg_a)
        net_b, rep_b = train(toy_dataset, cfg_b)
        np.testing.assert_array_equal(rep_a.loss_history, rep_b.loss_history)
        np.testing.assert_array_equal(flatten_params(net_a), flatten_params(net_b))

    def test_minibatch_runs_and_is_deterministic(self, toy_dataset):
        cfg = TrainConfig(widths=(2, 1), grid_count=5, degree=3, steps=20,
                          batch_size=16, seed=5)
        _, rep1 = train(toy_dataset, cfg)
        _, rep2 = train(toy_dataset, cfg)
        np.testing.assert_array_equal(rep1.loss_history, rep2.loss_history)

    def test_small_lr_monotone_after_warmup(self, toy_dataset):
        cfg = TrainConfig(widths=(2, 1), grid_count=5, degree=3, learning_rate=0.01,
                          steps=120, seed=0)
        _, report = train(toy_dataset, cfg)
        tail = report.loss_history[10:]
        assert np.all(np.diff(tail) <= 1e-9)

    def test_single_class_warns_but_trains(self, toy_dataset):
        from types import SimpleNamespace

        ds = SimpleNamespace(
            features=toy_dataset.features[:10], labels=np.ones(10, dtype=int)
        )
        cfg = TrainConfig(widths=(2, 1), grid_count=5, degree=3, steps=5, seed=0)
        with pytest.warns(UserWarning, match="degenerate-dataset"):
            net, report = train(ds, cfg)
        assert np.isfinite(report.loss_history).all()

    def test_trained_net_separates_toy_data(self, toy_dataset):
        cfg = TrainConfig(widths=(2, 1), grid_count=5, degree=3, learning_rate=0.1,
                          steps=200, seed=0)
        net, _ = train(toy_dataset, cfg)
        logits = network_logits(net, toy_dataset.features)
        acc = np.mean((logits > 0) == (toy_dataset.labels == 1))
        assert acc > 0.95


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="invalid-config"):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match="invalid-config"):
            TrainConfig(steps=0)
        with pytest.raises(ValueError, match="invalid-config"):
            TrainConfig(batch_size=0)
        for lr in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="invalid-config"):
                TrainConfig(learning_rate=lr)
        with pytest.raises(ValueError, match="invalid-config"):
            TrainConfig(seed=-1)

    def test_default_configuration_values(self):
        cfg = TrainConfig()
        assert cfg.widths == (10, 4, 1)
        assert (cfg.grid_count, cfg.degree) == (30, 4)
        assert (cfg.learning_rate, cfg.batch_size) == (0.1, -1)
