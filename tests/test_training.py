"""Gradient correctness against finite differences, Adam, and the train loop."""

import os
import signal
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import kancredit.network as knet
import kancredit.training as ktrain
from kancredit.explain import edge_scores
from kancredit.network import (
    _chunk_map,
    _layer0_codes,
    _layer_batch,
    _value_tables,
    flatten_params,
    init_network,
    network_logits,
    parameter_count,
    set_params,
    sigmoid,
    silu,
)
from kancredit.splines import _span_offset, basis_derivatives, knot_span
from kancredit.training import (
    AdamState,
    TrainConfig,
    adam_step,
    backward,
    bce_with_logits,
    grad_check,
    train,
)

from conftest import patch_chunk_rows
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
        # 16384 rows of the shipped 10,1 grid-80 model: eight chunks, at most
        # one in flight on each of two threads; a dense (n, n_in, n_basis)
        # basis alone would take 110 MB here
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
        with pytest.raises(ValueError, match=r"dimension-mismatch: labels \(3,\) do not match 2 rows"):
            backward(net, np.zeros((2, 4)), np.zeros(3))


def _chunked_problem(seed, rows=40):
    net = init_network([3, 2, 1], 5, 3, seed=seed)
    rng = np.random.default_rng(seed)
    set_params(net, rng.normal(0, 0.5, parameter_count(net)))
    x = rng.uniform(-1.2, 1.2, size=(rows, 3))
    y = (rng.random(rows) < 0.4).astype(np.float64)
    return net, x, y


def _shared_with_the_helper(func, helper_ran):
    """``func`` that, on the calling thread, waits until the helper thread has called it."""
    caller = threading.current_thread()

    def wrapper(*args):
        if threading.current_thread() is not caller:
            helper_ran.set()
        elif not helper_ran.wait(timeout=10):
            raise AssertionError("the helper thread took no chunk")
        return func(*args)

    return wrapper


class TestChunkHelper:
    """backward over a 7-row chunk grid, with the helper thread and without it."""

    @pytest.fixture(autouse=True)
    def small_grid(self, monkeypatch):
        patch_chunk_rows(monkeypatch, 7)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def test_helper_on_and_off_agree_bit_for_bit(self, monkeypatch):
        net, x, y = _chunked_problem(6)
        helper_ran = threading.Event()
        with monkeypatch.context() as m:
            m.setattr(knet, "_layer_batch", _shared_with_the_helper(_layer_batch, helper_ran))
            loss, grad = backward(net, x, y)
        assert helper_ran.is_set()
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        one_cpu_loss, one_cpu_grad = backward(net, x, y)
        assert loss == one_cpu_loss and np.array_equal(grad, one_cpu_grad)

    def test_one_chunk_stays_on_the_caller(self, monkeypatch):
        net, x, y = _chunked_problem(7, rows=7)
        threads = set()

        def recording(layer, cur, positions=None):
            threads.add(threading.current_thread())
            return _layer_batch(layer, cur, positions)

        monkeypatch.setattr(knet, "_layer_batch", recording)
        backward(net, x, y)
        assert threads == {threading.current_thread()}

    def test_error_in_a_helper_chunk_reaches_the_caller(self):
        net, x, _ = _chunked_problem(9, rows=28)
        caller = threading.current_thread()
        helper_failed = threading.Event()

        def chunk(rows, layers):
            if threading.current_thread() is caller:
                helper_failed.wait(timeout=10)
                return rows.start
            helper_failed.set()
            raise FloatingPointError(f"chunk {rows.start} failed")

        with pytest.raises(FloatingPointError, match=r"^chunk \d+ failed$"):
            _chunk_map(net, x, chunk)
        assert helper_failed.is_set()
        helper_ran = threading.Event()
        doubled = _shared_with_the_helper(lambda rows, layers: 2 * rows.start, helper_ran)
        assert _chunk_map(net, x, doubled) == [0, 14, 28, 42]
        assert helper_ran.is_set()

    def test_forked_child_after_a_two_thread_call_gets_its_chunks(self):
        net, x, _ = _chunked_problem(9, rows=28)
        helper_ran = threading.Event()
        doubled = _shared_with_the_helper(lambda rows, layers: 2 * rows.start, helper_ran)
        # a call whose helper thread took a chunk; the helper is joined before the fork
        assert _chunk_map(net, x, doubled) == [0, 14, 28, 42]
        pid = os.fork()
        if pid == 0:  # the child: exit 0 only if the chunks came back
            signal.alarm(20)
            chunks = _chunk_map(net, x, lambda rows, layers: 2 * rows.start)
            os._exit(0 if chunks == [0, 14, 28, 42] else 1)
        deadline = time.monotonic() + 30
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if status[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert status[0] == pid and os.waitstatus_to_exitcode(status[1]) == 0

    def test_concurrent_callers_each_get_their_serial_result(self):
        problems = [_chunked_problem(seed, rows=60) for seed in range(4)]
        want = [backward(*problem) for problem in problems]
        outcomes = [[] for _ in problems]

        def call(i):
            for _ in range(10):
                try:
                    outcomes[i].append(backward(*problems[i]))
                except Exception as exc:  # noqa: BLE001 - reported by the assertions below
                    outcomes[i].append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=call, args=(i,)) for i in range(len(problems))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for (want_loss, want_grad), got in zip(want, outcomes):
            assert len(got) == 10
            for result in got:
                assert not isinstance(result, Exception), result
                assert result[0] == want_loss and np.array_equal(result[1], want_grad)
        assert [t for t in threading.enumerate() if t.name.startswith("kancredit-chunk")] == []

    def test_no_helper_thread_outlives_a_call(self, monkeypatch):
        def helpers():
            return [t for t in threading.enumerate() if t.name.startswith("kancredit-chunk")]

        net, x, y = _chunked_problem(8)
        helper_ran = threading.Event()
        monkeypatch.setattr(knet, "_layer_batch", _shared_with_the_helper(_layer_batch, helper_ran))
        backward(net, x, y)
        assert helper_ran.is_set() and helpers() == []
        caller = threading.current_thread()
        x = x[:28]
        for raise_on_caller in (True, False):
            ran_on_caller = set()

            def chunk(rows, layers):
                on_caller = threading.current_thread() is caller
                ran_on_caller.add(on_caller)
                if on_caller == raise_on_caller:
                    raise FloatingPointError(f"chunk {rows.start} failed")
                return rows.start

            with pytest.raises(FloatingPointError):
                _chunk_map(net, x, chunk)
            assert ran_on_caller == {True, False} and helpers() == []


class TestTwoThreadPeakMemory:
    """Each batched pass on 16384 rows of a shipped model at its own chunk grid, on two threads.

    Rows per chunk follow from the network's width: 2048 for 10,4,1 grid 30
    and 3072 for 10,1 grid 80, one chunk in flight on each thread.  The
    peaks read 7.1-9.0 MB (10,4,1) and 3.9-9.6 MB (10,1), backward the
    highest; an 8192-row grid for 10,4,1, where each thread held a whole
    8192-row chunk, took 13 MB (logits), 16 MB (edge scores) and 32 MB
    (backward).
    """

    passes = pytest.mark.parametrize("run", [
        lambda net, x, y: network_logits(net, x),
        lambda net, x, y: edge_scores(net, SimpleNamespace(features=x)),
        backward,
    ], ids=["network_logits", "edge_scores", "backward"])

    @passes
    def test_peak_below_10_mb(self, monkeypatch, run):
        assert self.peak(monkeypatch, run, [10, 4, 1], 30) < 10e6

    @passes
    def test_10x1_g80_peak_below_10_mb(self, monkeypatch, run):
        assert self.peak(monkeypatch, run, [10, 1], 80) < 10e6

    @staticmethod
    def peak(monkeypatch, run, widths, grid_count):
        """The tracemalloc peak of ``run`` on a fresh degree-4 net, once the helper took a chunk."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        net = init_network(widths, grid_count, 4, seed=3)
        rng = np.random.default_rng(29)
        x = rng.uniform(-1.2, 1.2, size=(16384, 10))
        y = rng.integers(0, 2, size=16384).astype(np.float64)
        helper_ran = threading.Event()
        monkeypatch.setattr(knet, "_layer_batch", _shared_with_the_helper(_layer_batch, helper_ran))
        tracemalloc.start()
        try:
            run(net, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert helper_ran.is_set()
        return peak

    def test_full_batch_train_holds_only_the_positions_more(self, monkeypatch):
        # layer 0's codes: 9 bytes per entry of a plain (all-distinct) column, its knot span
        # and offset, and 1 byte per entry of a count column, its code; a cached band would
        # take 40 per entry (degree 4)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rng = np.random.default_rng(29)
        x = rng.uniform(-1.2, 1.2, size=(16384, 10))
        x[:, 5:] = rng.integers(0, 15, size=(16384, 5)) / 7.0 - 1.0
        y = rng.integers(0, 2, size=16384).astype(np.float64)
        cfg = TrainConfig(widths=(10, 4, 1), grid_count=30, degree=4, steps=2, seed=3)
        # a first run imports numpy.ma (about 1 MB), which is no part of a run's memory
        train(SimpleNamespace(features=x[:50], labels=y[:50]), cfg)
        helper_ran = threading.Event()
        monkeypatch.setattr(knet, "_layer_batch", _shared_with_the_helper(_layer_batch, helper_ran))
        tracemalloc.start()
        try:
            train(SimpleNamespace(features=x, labels=y), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert helper_ran.is_set()
        codes = _layer0_codes(init_network(list(cfg.widths), cfg.grid_count, cfg.degree, cfg.seed), x)
        assert codes.plain.tolist() == [0, 1, 2, 3, 4] and codes.nbytes < 5.1 * x.size
        assert peak < 10e6 + codes.nbytes


def _positions_problem(widths, grid_count, seed, rows=23):
    """A perturbed net and a batch with plain and tabled columns for its layer-0 codes.

    Columns 0-4 are uniform, so every entry is distinct, and the first row
    holds the range ends and points past them.  Columns 5-8 take a few
    values each, -0.0 beside 0.0 in column 6, and column 9 is constant.
    """
    net = init_network(widths, grid_count, 4, seed=seed)
    rng = np.random.default_rng(seed)
    set_params(net, rng.normal(0, 0.5, parameter_count(net)))
    x = rng.uniform(-1.2, 1.2, size=(rows, widths[0]))
    x[0, :4] = (-1.0, 1.0, -3.0, 3.0)
    x[:, 5:9] = rng.integers(-2, 3, size=(rows, 4)) / 2.0
    x[:2, 6] = (-0.0, 0.0)
    x[:, 9] = 0.3
    y = (rng.random(rows) < 0.4).astype(np.float64)
    return net, x, y


def _layer0_block(net):
    """The length of layer 0's (w_b, w_s, coef) block at the front of the parameter buffer."""
    layer = net.layers[0]
    return layer.n_out * layer.n_in * (2 + layer.knots.n_basis)


class TestBandPositions:
    """Layer 0's codes, found once per full-batch run, against plain ``backward``.

    Logits, the loss and every gradient past layer 0 keep every bit.  Layer
    0's own gradient sums each tabled column's entries per value first, in
    another order, so it is compared at 1e-13 relative.
    """

    @pytest.mark.parametrize("cpus", [2, 1], ids=["helper", "one_cpu"])
    @pytest.mark.parametrize(
        "widths, grid_count", [([10, 1], 80), ([10, 4, 1], 30)], ids=["10x1", "10x4x1"]
    )
    def test_backward_with_positions_keeps_every_bit(self, monkeypatch, widths, grid_count, cpus):
        patch_chunk_rows(monkeypatch, 7)  # 7 + 7 + 7 + 2 rows
        monkeypatch.setattr(knet, "CHUNK_VALUES", 12)  # pieces of 2 distinct values (10x1), 1 (10x4x1)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        net, x, y = _positions_problem(widths, grid_count, seed=41)
        plain_loss, plain_grad = backward(net, x, y)
        codes = _layer0_codes(net, x)
        assert codes.plain.tolist() == [0, 1, 2, 3, 4] and codes.tabled.tolist() == [5, 6, 7, 8, 9]
        spans_found = []
        counting_span = lambda kv, points: spans_found.append(np.size(points)) or knot_span(kv, points)
        helper_ran = threading.Event()

        def chunk(rows, layers):
            for out, _, _ in layers:
                pass
            return out[:, 0]

        with monkeypatch.context() as m:
            m.setattr(knet, "knot_span", counting_span)
            if cpus == 2:
                m.setattr(knet, "_layer_batch", _shared_with_the_helper(_layer_batch, helper_ran))
            loss, grad = backward(net, x, y, codes)
        assert helper_ran.is_set() == (cpus == 2)
        # only hidden layers find their own spans: layer 0's were found with its codes
        assert sum(spans_found) == 23 * sum(widths[1:-1])
        logits = np.concatenate(_chunk_map(net, x, chunk, _value_tables(net, codes)))
        assert logits.tobytes() == network_logits(net, x).tobytes()
        assert np.float64(loss).tobytes() == np.float64(plain_loss).tobytes()
        block = _layer0_block(net)
        assert grad[block:].tobytes() == plain_grad[block:].tobytes()
        np.testing.assert_allclose(grad[:block], plain_grad[:block], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("batch", ["all", "n"])
    def test_full_batch_train_is_the_plain_backward_loop(self, monkeypatch, batch):
        patch_chunk_rows(monkeypatch, 7)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        net, x, y = _positions_problem([10, 4, 1], 30, seed=42)
        cfg = TrainConfig(widths=(10, 4, 1), grid_count=30, degree=4, steps=6, seed=5,
                          batch_size=-1 if batch == "all" else x.shape[0])
        found = []
        counting = lambda net, X: found.append(X.shape) or _layer0_codes(net, X)
        monkeypatch.setattr(ktrain, "_layer0_codes", counting)
        trained, report = train(SimpleNamespace(features=x, labels=y), cfg)
        assert found == [x.shape]
        net = init_network(list(cfg.widths), cfg.grid_count, cfg.degree, cfg.seed)
        params, state, history = flatten_params(net), AdamState.zeros(parameter_count(net)), []
        for t in range(1, cfg.steps + 1):
            set_params(net, params)
            loss, grads = backward(net, x, y)
            params, state = adam_step(params, grads, state, t, cfg)
            history.append(loss)
        # layer 0's gradient moves in its last bits, and Adam carries that into every
        # parameter: 1.4e-13 at most here, against parameters of about 0.01 to 1
        np.testing.assert_allclose(flatten_params(trained), params, rtol=0, atol=1e-11)
        np.testing.assert_allclose(report.loss_history, history, rtol=1e-13, atol=0)
        assert report.loss_history[0] == history[0]

    def test_range_ends_land_in_the_end_intervals(self, monkeypatch):
        net = init_network([5, 1], 5, 3, seed=0)
        kv = net.layers[0].knots
        x = np.array([[-1.0, 1.0, -3.0, 3.0, np.nextafter(1.0, 0.0)], [0.0, 0.4, -0.6, 0.99, -1e-300]])
        with monkeypatch.context() as m:  # finding codes runs no layer
            m.setattr(knet, "_layer_batch", lambda *args: pytest.fail("a layer ran"))
            codes = _layer0_codes(net, x)
        assert codes.plain.tolist() == [0, 1, 2, 3, 4] and codes.tabled.size == 0
        span, u = codes.positions
        assert span.dtype == np.uint8 and u.dtype == np.float64
        assert span[0].tolist() == [0, 4, 0, 4, 4]
        assert u[0, 0] == u[0, 2] == 0.0 and u[0, 1] == u[0, 3] == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(span, knot_span(kv, x.ravel()).reshape(x.shape))
        assert u.tobytes() == _span_offset(kv, x.ravel())[1].reshape(x.shape).tobytes()

    def test_tabled_columns_hold_each_entry_bit_for_bit(self):
        net = init_network([5, 1], 80, 4, seed=0)
        x = np.array([
            [-1.0, -3.0, -0.0, 0.3, 0.7],
            [1.0, 3.0, 0.0, 0.3, 0.1],
            [-1.0, -3.0, 0.0, 0.3, 0.2],
            [1.0, 3.0, -0.0, 0.3, -0.4],
        ])
        codes = _layer0_codes(net, x)
        # ends of the range, +-3 and -0.0 beside 0.0 repeat; 0.3 is constant; the last column is all distinct
        assert codes.tabled.tolist() == [0, 1, 2, 3] and codes.plain.tolist() == [4]
        assert [values.size for values in codes.values] == [2, 2, 2, 1]
        kv = net.layers[0].knots
        for p, values, (span, u), code in zip(codes.tabled, codes.values, codes.value_positions, codes.codes):
            assert values[code].tobytes() == x[:, p].tobytes()
            assert span.dtype == np.uint8 and np.array_equal(span, knot_span(kv, values))
            assert u.tobytes() == _span_offset(kv, values)[1].tobytes()
        assert codes.codes[2][0] != codes.codes[2][1]  # -0.0 and 0.0 are two values
        assert codes.values[3].tolist() == [0.3] and codes.codes[3].tolist() == [0, 0, 0, 0]
        assert codes.positions[0][:, 0].tolist() == knot_span(kv, x[:, 4]).tolist()
        # each plain entry's span and offset, each value with its span and offset, each entry's code
        assert codes.nbytes == 4 * (1 + 8) + 7 * (8 + 1 + 8) + 4 * 4 * 1

    @pytest.mark.parametrize("distinct, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_code_type_is_the_narrowest_per_column(self, distinct, dtype):
        net = init_network([2, 1], 5, 3, seed=0)
        x = np.zeros((2 * distinct, 2))
        x[:, 0] = np.linspace(-1.0, 1.0, distinct).repeat(2)
        codes = _layer0_codes(net, x)
        assert codes.tabled.tolist() == [0, 1]
        assert [code.dtype for code in codes.codes] == [dtype, np.uint8]
        assert codes.values[0][codes.codes[0]].tobytes() == x[:, 0].tobytes()

    @pytest.mark.parametrize(
        "grid_count, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16), (300, np.uint16)]
    )
    def test_span_type_is_the_narrowest_that_holds_the_last_interval(self, grid_count, dtype):
        net = init_network([3, 1], grid_count, 3, seed=0)
        kv = net.layers[0].knots
        x = np.array([[1.0, -1.0, 0.5]])
        span, _ = _layer0_codes(net, x).positions
        assert span.dtype == dtype
        assert span.tolist() == [[grid_count - 1, 0, knot_span(kv, 0.5)]]

    def test_positions_of_another_shape_are_refused(self):
        net, x, y = _positions_problem([10, 1], 80, seed=43)
        message = r"^dimension-mismatch: positions .* do not match features \(23, 10\)$"
        for wrong in (_layer0_codes(net, x[:-1]), _layer0_codes(net, x[:, :-1])):
            with pytest.raises(ValueError, match=message):
                backward(net, x, y, wrong)


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

    def test_step_zero_rejected(self):
        with pytest.raises(ValueError, match=r"^invalid-step: t must be >= 1, got 0$"):
            adam_step(np.zeros(2), np.zeros(2), AdamState.zeros(2), 0, self.cfg())


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

    def test_zero_rows_rejected(self):
        ds = SimpleNamespace(features=np.zeros((0, 2)), labels=np.zeros(0))
        cfg = TrainConfig(widths=(2, 1), grid_count=5, degree=3, steps=1, seed=0)
        with pytest.raises(ValueError, match=r"^empty-batch: dataset has no rows$"):
            train(ds, cfg)

    def test_one_dimensional_features_rejected(self):
        ds = SimpleNamespace(features=np.zeros(4), labels=np.array([0, 1, 0, 1]))
        cfg = TrainConfig(widths=(2, 1), grid_count=5, degree=3, steps=1, seed=0)
        with pytest.raises(ValueError, match=r"^dimension-mismatch: expected \(n, d\) features, got \(4,\)$"):
            train(ds, cfg)

    def test_single_class_warns_but_trains(self, toy_dataset):
        ds = SimpleNamespace(
            features=toy_dataset.features[:10], labels=np.ones(10, dtype=int)
        )
        cfg = TrainConfig(widths=(2, 1), grid_count=5, degree=3, steps=5, seed=0)
        with pytest.warns(UserWarning, match="degenerate-dataset"):
            net, report = train(ds, cfg)
        assert np.isfinite(report.loss_history).all()

    def test_diverged_run_raises_at_first_non_finite_step(self, toy_dataset):
        cfg = TrainConfig(widths=(2, 1), grid_count=5, degree=3, learning_rate=1e300,
                          steps=20, seed=0)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"^diverged: step 2$"):
            train(toy_dataset, cfg)

    def test_non_finite_input_diverges_at_step_one(self, toy_dataset):
        features = toy_dataset.features.copy()
        features[3, 1] = np.nan
        ds = SimpleNamespace(features=features, labels=toy_dataset.labels)
        cfg = TrainConfig(widths=(2, 1), grid_count=5, degree=3, steps=5, seed=0)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"^diverged: step 1$"):
            train(ds, cfg)

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
