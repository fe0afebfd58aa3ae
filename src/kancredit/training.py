"""Manual reverse-mode gradients, Adam, and the training loop.

The network is small enough that explicit gradient algebra beats pulling in
an autodiff framework: per layer, the parameter gradients are

    d loss / d w_b[q,p]  = sum_n  G[n,q] * silu(x[n,p])
    d loss / d w_s[q,p]  = sum_n  G[n,q] * spline(x[n,p])
    d loss / d c[q,p,i]  = w_s[q,p] * sum_n  G[n,q] * B_i(x[n,p])

with G the upstream gradient on the layer's node sums, and the input
gradient chained through both branches:

    d phi / d x = w_b * silu'(x) + w_s * sum_i c_i * B_i'(x)

where the spline term is zero for samples clamped at the grid boundary.
Only the ``degree + 1`` bases from ``knot_span`` on are nonzero at a sample,
so the coefficient sum is a scatter-add (``np.bincount``) of G * B over
those bases, and the spline derivative a gather of the coefficients over
the derivative band.  Everything is checked against central finite
differences in the tests.

``backward`` runs its body on each chunk of ``network._chunk_map``, which
cuts the batch on the network's grid and walks each chunk forward, so
full-batch training on hundreds of thousands of rows stays inside a small
memory budget.  Each chunk's loss sum and gradient go into buffers of their
own, which are added up in chunk order.

When every step sees all rows, ``train`` finds layer 0's band positions of
the training matrix once, on its first step (``network._band_positions``),
and passes them to every ``backward``, which hands them on to
``_chunk_map``.  Minibatch steps and ``grad_check`` pass none.  Both give
the same numbers, so a full-batch run is bit for bit the loop of plain
``backward`` calls.  Full-batch steps still call the public ``backward``
once each, which the benchmark times step by step.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from kancredit.data import _binary
from kancredit.network import (
    KanLayer,
    KanNetwork,
    _band_positions,
    _check_features,
    _chunk_map,
    _param_views,
    flatten_params,
    init_network,
    network_logits,
    set_params,
    sigmoid,
)
from kancredit.splines import _band_dot, basis_derivatives

__all__ = [
    "TrainConfig",
    "TrainReport",
    "AdamState",
    "bce_with_logits",
    "backward",
    "adam_step",
    "train",
    "grad_check",
]

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    widths: tuple = (10, 4, 1)
    grid_count: int = 30
    degree: int = 4
    learning_rate: float = 0.1
    steps: int = 100
    batch_size: int = -1  # -1 means the whole dataset every step
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"invalid-config: learning_rate must be > 0, got {self.learning_rate}")
        if not np.isfinite(self.learning_rate):
            raise ValueError(f"invalid-config: learning_rate must be finite, got {self.learning_rate}")
        if self.steps < 1:
            raise ValueError(f"invalid-config: steps must be >= 1, got {self.steps}")
        if self.batch_size != -1 and self.batch_size < 1:
            raise ValueError(
                f"invalid-config: batch_size must be -1 or >= 1, got {self.batch_size}"
            )
        if self.seed < 0:
            raise ValueError(f"invalid-config: seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))


@dataclass
class TrainReport:
    loss_history: np.ndarray
    seconds: float


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n))


def bce_with_logits(logit: float, label: int) -> float:
    """Binary cross-entropy on a logit, in the overflow-safe rearrangement."""
    if label not in (0, 1):
        raise ValueError(f"invalid-label: expected 0 or 1, got {label!r}")
    return float(_bce_terms(float(logit), label))


def _bce_terms(z, y):
    """Per-sample BCE on logits: max(z, 0) - z*y + log1p(exp(-|z|))."""
    return np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))


def _labelled(features, labels):
    """Float features (n, d) and labels (n,): at least one row, every label 0 or 1."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"dimension-mismatch: expected (n, d) features, got {x.shape}")
    if x.shape[0] == 0:
        raise ValueError("empty-batch: dataset has no rows")
    if y.shape != (x.shape[0],):
        raise ValueError(f"dimension-mismatch: labels {y.shape} do not match {x.shape[0]} rows")
    return x, _binary(y)


def _check_batch(net: KanNetwork, batch_x, batch_y):
    return _labelled(_check_features(net, batch_x), batch_y)


def _layer_backward(layer: KanLayer, cache, grad, grad_views, need_input: bool):
    """Add one layer's parameter gradients into ``grad_views`` (d_wb, d_ws, d_coef).

    ``cache`` comes from ``_layer_batch`` and ``grad`` (n, n_out) is the
    upstream gradient on the node sums.  Returns the gradient on the layer's
    input when ``need_input``, else None.
    """
    x, first, band, spline_out, sil, sig = cache
    d_wb, d_ws, d_coef = grad_views
    d_wb += np.einsum("nq,np->qp", grad, sil)
    d_ws += np.einsum("nq,nqp->qp", grad, spline_out)
    index = (first + np.arange(band.shape[0])[:, None, None]).ravel()
    for q in range(layer.n_out):
        summed = np.bincount(index, (grad[:, q, None] * band).ravel(), d_coef[q].size)
        d_coef[q] += layer.w_s[q, :, None] * summed.reshape(d_coef[q].shape)
    if not need_input:
        return None
    kv = layer.knots
    in_range = (x > kv.range_min) & (x < kv.range_max)
    dband = basis_derivatives(kv, x.ravel()).T.reshape(band.shape)
    dband *= in_range
    dspline = _band_dot(layer.coef.reshape(layer.n_out, -1), first, dband).transpose(1, 0, 2)
    dsil = sig * (1.0 + x * (1.0 - sig))
    return np.einsum("nq,qp->np", grad, layer.w_b) * dsil + np.einsum(
        "nq,nqp->np", grad, layer.w_s[None, :, :] * dspline
    )


def backward(net: KanNetwork, batch_x, batch_y, positions=None):
    """Mean BCE loss and its gradient in canonical parameter order.

    The batch runs through ``network._chunk_map``.  Each chunk's loss sum
    and gradient are computed in buffers of their own and added up in chunk
    order.  ``positions``, if given, is ``batch_x``'s layer-0 band positions
    from ``network._band_positions``: layer 0 then reads them instead of
    finding them again, with the same result.
    """
    x, y = _check_batch(net, batch_x, batch_y)
    n_total = x.shape[0]

    def chunk(rows, layers):
        flat = np.zeros_like(net.params)
        grad_views = _param_views(flat, net.widths, net.layers[0].knots.n_basis)
        # each layer's output and cache, not its phi: every phi held to the end would raise the peak
        outs, caches = zip(*[(out, cache) for out, _, cache in layers])
        z, yc = outs[-1][:, 0], y[rows]
        grad = ((sigmoid(z) - yc) / n_total)[:, None]
        for li in range(len(net.layers) - 1, -1, -1):
            grad = _layer_backward(net.layers[li], caches[li], grad, grad_views[li], li > 0)
        return np.sum(_bce_terms(z, yc)), flat

    loss_sum, total = 0.0, np.zeros_like(net.params)
    for chunk_loss, chunk_grad in _chunk_map(net, x, chunk, positions):
        loss_sum += chunk_loss
        total += chunk_grad
    return loss_sum / n_total, total


def adam_step(params, grads, state: AdamState, t: int, cfg: TrainConfig):
    """One bias-corrected Adam update; returns fresh (params, state)."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if not (params.shape == grads.shape == state.m.shape == state.v.shape):
        raise ValueError(
            "length-mismatch: params, grads, and state vectors must share one shape"
        )
    if t < 1:
        raise ValueError(f"invalid-step: t must be >= 1, got {t}")
    m = _ADAM_BETA1 * state.m + (1.0 - _ADAM_BETA1) * grads
    v = _ADAM_BETA2 * state.v + (1.0 - _ADAM_BETA2) * grads * grads
    m_hat = m / (1.0 - _ADAM_BETA1**t)
    v_hat = v / (1.0 - _ADAM_BETA2**t)
    new_params = params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPSILON)
    return new_params, AdamState(m=m, v=v)


def _fit(dataset, params, loss_and_grad, cfg: TrainConfig):
    """Adam from ``params`` on ``loss_and_grad(params, x, y)``: the one training loop.

    ``x`` and ``y`` are the dataset's features and labels, checked once here;
    single-class labels only warn.  A non-finite loss or gradient stops the
    run before its Adam update with ``diverged: step N``.  Returns the final
    parameters, the loss before each update, and the seconds the steps took.
    """
    x, y = _labelled(dataset.features, dataset.labels)
    if np.unique(y).size < 2:
        warnings.warn("degenerate-dataset: single-class training data", stacklevel=3)
    state = AdamState.zeros(params.size)
    history = np.empty(cfg.steps)

    started = time.perf_counter()
    for t in range(1, cfg.steps + 1):
        with np.errstate(all="ignore"):  # a non-finite step is reported just below
            loss, grads = loss_and_grad(params, x, y)
            if not (np.isfinite(loss) and np.isfinite(grads).all()):
                raise ValueError(f"diverged: step {t}")
            params, state = adam_step(params, grads, state, t, cfg)
        history[t - 1] = loss
    return params, history, time.perf_counter() - started


def train(dataset, cfg: TrainConfig):
    """Train a fresh network on ``dataset`` (anything with .features/.labels).

    A non-finite loss or gradient stops the run before its Adam update with
    ``diverged: step N``.  When every step sees all rows, layer 0's band
    positions of the training matrix are found once, on the first step.
    """
    net = init_network(list(cfg.widths), cfg.grid_count, cfg.degree, cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    positions = None

    def loss_and_grad(params, x, y):
        nonlocal positions
        set_params(net, params)
        if cfg.batch_size != -1 and cfg.batch_size < x.shape[0]:
            idx = rng.choice(x.shape[0], size=cfg.batch_size, replace=False)
            return backward(net, x[idx], y[idx])
        if positions is None:
            positions = _band_positions(net, x)
        return backward(net, x, y, positions)

    params, history, seconds = _fit(dataset, flatten_params(net), loss_and_grad, cfg)
    set_params(net, params)
    return net, TrainReport(loss_history=history, seconds=seconds)


def _mean_loss(net: KanNetwork, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(_bce_terms(network_logits(net, x), y)))


def grad_check(net: KanNetwork, batch_x, batch_y, eps: float = 1e-5) -> float:
    """Worst relative disagreement between backward and central differences.

    Entries where both the analytic and numeric gradients are below 1e-7 in
    magnitude are skipped; at that scale the finite difference is noise.
    """
    x, y = _check_batch(net, batch_x, batch_y)
    _, grads = backward(net, x, y)
    base = flatten_params(net)
    worst = 0.0
    try:
        for i in range(base.size):
            probe = base.copy()
            probe[i] = base[i] + eps
            set_params(net, probe)
            up = _mean_loss(net, x, y)
            probe[i] = base[i] - eps
            set_params(net, probe)
            down = _mean_loss(net, x, y)
            fd = (up - down) / (2.0 * eps)
            scale = max(abs(grads[i]), abs(fd))
            if scale > 1e-7:
                worst = max(worst, abs(grads[i] - fd) / scale)
    finally:
        set_params(net, base)
    return worst
