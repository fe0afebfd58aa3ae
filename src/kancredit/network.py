"""Kolmogorov-Arnold network: learnable activations on edges, sums on nodes.

Each edge carries phi(x) = w_b * silu(x) + w_s * spline(x).  A node is the
plain sum of its incoming edge outputs; there are no biases and no node
nonlinearities.  A network is a chain of such layers ending in a single
logit node.  The spline branch sees inputs clamped to the grid range, the
silu branch sees the raw input.

All parameters live in one flat float64 buffer, ``KanNetwork.params``, in
the checkpoint's order: layers first to last, edges (q, p) row-major, and
per edge [w_b, w_s, c_0 ... c_{M-1}].  Each layer's ``w_b``, ``w_s`` (shape
(n_out, n_in)) and ``coef`` (shape (n_out, n_in, M)) are views into that
buffer, so writing the buffer updates every layer, and editing a layer's
arrays in place edits the buffer.

``_layer_batch`` is the one place phi is computed.  Batched inference,
training and attribution call it directly; the single-sample functions pass
it a batch of one, and ``edge_forward`` a one-edge layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from kancredit.splines import (
    KnotVector,
    SplineParams,
    basis_values,
    make_knot_vector,
)

__all__ = [
    "ActivationEdge",
    "KanLayer",
    "KanNetwork",
    "ForwardTrace",
    "silu",
    "sigmoid",
    "init_network",
    "edge_forward",
    "layer_forward",
    "network_forward",
    "network_logits",
    "network_probabilities",
    "predict_proba",
    "parameter_count",
    "flatten_params",
    "set_params",
    "save_network",
    "load_network",
]

# samples per forward chunk; bounds the (chunk, n_in, n_basis) temporaries
CHUNK = 16384

COEF_INIT_SCALE = 0.1


def sigmoid(x):
    """Numerically stable logistic function for scalars or arrays."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return float(out) if arr.ndim == 0 else out


def silu(x):
    """x * sigmoid(x), the residual branch of every edge activation."""
    arr = np.asarray(x, dtype=np.float64)
    out = arr * sigmoid(arr)
    return float(out) if arr.ndim == 0 else out


@dataclass
class ActivationEdge:
    """One edge's parameters: residual weight, spline weight, spline coefficients."""

    w_b: float
    w_s: float
    spline: SplineParams


@dataclass
class KanLayer:
    """Dense layer of n_out * n_in activation edges sharing one knot vector.

    ``w_b`` and ``w_s`` have shape (n_out, n_in); ``coef`` has shape
    (n_out, n_in, n_basis).  In a network they are views into its buffer.
    """

    n_in: int
    n_out: int
    knots: KnotVector
    w_b: np.ndarray
    w_s: np.ndarray
    coef: np.ndarray

    def edge(self, q: int, p: int) -> ActivationEdge:
        """View of the edge from input p to output q (copies the coefficients)."""
        return ActivationEdge(
            w_b=float(self.w_b[q, p]),
            w_s=float(self.w_s[q, p]),
            spline=SplineParams(self.coef[q, p].copy()),
        )


@dataclass
class KanNetwork:
    layers: list
    widths: list
    grid_count: int
    degree: int
    seed: int
    params: np.ndarray  # every parameter, in checkpoint order; layers hold views


@dataclass
class ForwardTrace:
    """Every intermediate of one sample's forward pass.

    ``layer_inputs[l]`` is the vector entering layer l, ``edge_outputs[l]``
    the (n_out, n_in) matrix of phi values, ``node_sums[l]`` the layer's
    output vector.  ``logit`` is the single final output.
    """

    layer_inputs: list
    edge_outputs: list
    node_sums: list
    logit: float


def _param_views(buffer: np.ndarray, widths, n_basis: int) -> list:
    """Per-layer (w_b, w_s, coef) views into a flat buffer in checkpoint order."""
    views, pos = [], 0
    for n_in, n_out in zip(widths[:-1], widths[1:]):
        size = n_out * n_in * (2 + n_basis)
        per_edge = buffer[pos : pos + size].reshape(n_out, n_in, 2 + n_basis)
        views.append((per_edge[:, :, 0], per_edge[:, :, 1], per_edge[:, :, 2:]))
        pos += size
    return views


def _zero_network(widths, grid_count, degree, seed, range_min, range_max) -> KanNetwork:
    """A network over a zeroed parameter buffer, its layers viewing into it."""
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise ValueError(f"invalid-widths: need >= 2 positive layer widths, got {widths}")
    if widths[-1] != 1:
        raise ValueError(f"invalid-widths: output width must be 1, got {widths[-1]}")
    kv = make_knot_vector(range_min, range_max, grid_count, degree)
    edges = sum(n_in * n_out for n_in, n_out in zip(widths[:-1], widths[1:]))
    params = np.zeros(edges * (2 + kv.n_basis))
    layers = [
        KanLayer(n_in=n_in, n_out=n_out, knots=kv, w_b=w_b, w_s=w_s, coef=coef)
        for n_in, n_out, (w_b, w_s, coef) in zip(
            widths[:-1], widths[1:], _param_views(params, widths, kv.n_basis)
        )
    ]
    return KanNetwork(layers, widths, int(grid_count), int(degree), int(seed), params)


def init_network(widths, grid_count: int, degree: int, seed: int) -> KanNetwork:
    """Fresh network: w_b = w_s = 1, spline coefficients uniform in +-0.1.

    ``widths`` lists node counts per layer, input first; the output layer
    must have exactly one node (the logit).
    """
    net = _zero_network([int(w) for w in widths], grid_count, degree, seed, -1.0, 1.0)
    rng = np.random.default_rng(seed)
    for layer in net.layers:
        layer.w_b[...] = 1.0
        layer.w_s[...] = 1.0
        layer.coef[...] = rng.uniform(-COEF_INIT_SCALE, COEF_INIT_SCALE, size=layer.coef.shape)
    return net


def _layer_batch(layer: KanLayer, X: np.ndarray):
    """The layer on a batch X of shape (n, n_in): the one place phi is computed.

    Returns (Y, phi, cache): node sums Y (n, n_out), edge outputs phi
    (n, n_out, n_in), and the intermediates (X, basis, spline_out, silu,
    sigmoid) that the backward pass needs.
    """
    n = X.shape[0]
    basis = basis_values(layer.knots, X.ravel()).reshape(n, layer.n_in, -1)
    spline_out = np.einsum("qpi,npi->nqp", layer.coef, basis)
    sig = sigmoid(X)
    sil = X * sig
    phi = layer.w_b[None, :, :] * sil[:, None, :] + layer.w_s[None, :, :] * spline_out
    return phi.sum(axis=2), phi, (X, basis, spline_out, sil, sig)


def edge_forward(edge: ActivationEdge, knots: KnotVector, x):
    """phi(x) for a single edge at a scalar (float out) or 1-D array of points.

    The spline branch clamps, silu does not.
    """
    arr = np.asarray(x, dtype=np.float64)
    coef = np.asarray(edge.spline.coefficients, dtype=np.float64).reshape(1, 1, -1)
    layer = KanLayer(1, 1, knots, np.full((1, 1), edge.w_b), np.full((1, 1), edge.w_s), coef)
    phi = _layer_batch(layer, arr.reshape(-1, 1))[1][:, 0, 0]
    return float(phi[0]) if arr.ndim == 0 else phi


def layer_forward(layer: KanLayer, x):
    """One sample through one layer: returns (node_sums, edge_outputs)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (layer.n_in,):
        raise ValueError(
            f"dimension-mismatch: layer expects {layer.n_in} inputs, got {x.shape}"
        )
    y, phi, _ = _layer_batch(layer, x[None, :])
    return y[0], phi[0]


def network_forward(net: KanNetwork, x) -> ForwardTrace:
    """Full forward pass of one sample, keeping every intermediate."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.widths[0],):
        raise ValueError(
            f"dimension-mismatch: network expects {net.widths[0]} inputs, got {x.shape}"
        )
    layer_inputs, edge_outputs, node_sums = [], [], []
    cur = x
    for layer in net.layers:
        layer_inputs.append(cur)
        y, phi = layer_forward(layer, cur)
        edge_outputs.append(phi)
        node_sums.append(y)
        cur = y
    return ForwardTrace(
        layer_inputs=layer_inputs,
        edge_outputs=edge_outputs,
        node_sums=node_sums,
        logit=float(cur[0]),
    )


def network_logits(net: KanNetwork, X: np.ndarray) -> np.ndarray:
    """Logits for a batch (n, n_features), streamed in fixed-size chunks."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.widths[0]:
        raise ValueError(
            f"dimension-mismatch: network expects (n, {net.widths[0]}), got {X.shape}"
        )
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], CHUNK):
        cur = X[lo : lo + CHUNK]
        for layer in net.layers:
            cur = _layer_batch(layer, cur)[0]
        out[lo : lo + CHUNK] = cur[:, 0]
    return out


def network_probabilities(net: KanNetwork, X: np.ndarray) -> np.ndarray:
    """Default probabilities for a batch."""
    return sigmoid(network_logits(net, X))


def predict_proba(net: KanNetwork, x) -> float:
    """Probability of the positive class for one sample."""
    return sigmoid(network_forward(net, x).logit)


def parameter_count(net: KanNetwork) -> int:
    return int(net.params.size)


def flatten_params(net: KanNetwork) -> np.ndarray:
    """A copy of all parameters as one vector.

    Order: layers first-to-last; within a layer, edges in (q, p) row-major
    order; per edge [w_b, w_s, c_0 ... c_{M-1}].
    """
    return net.params.copy()


def set_params(net: KanNetwork, flat: np.ndarray) -> None:
    """Write a flat vector (same order as flatten_params) into the net's buffer."""
    flat = np.asarray(flat, dtype=np.float64)
    if flat.shape != net.params.shape:
        raise ValueError(
            f"length-mismatch: expected {net.params.size} parameters, got {flat.shape}"
        )
    net.params[...] = flat


def save_network(net: KanNetwork, path) -> None:
    """JSON checkpoint; float64 values survive the round trip bit-exactly."""
    payload = {
        "kind": "kan-network",
        "version": 1,
        "widths": net.widths,
        "grid_count": net.grid_count,
        "degree": net.degree,
        "seed": net.seed,
        "range_min": net.layers[0].knots.range_min,
        "range_max": net.layers[0].knots.range_max,
        "params": flatten_params(net).tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_network(path) -> KanNetwork:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # not JSON, or not text
        raise ValueError(f"checkpoint-mismatch: {path} is not JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("kind") != "kan-network":
        raise ValueError(f"checkpoint-mismatch: not a network checkpoint: {path}")
    try:
        widths = [int(w) for w in payload["widths"]]
        grid_count, degree, seed = (int(payload[k]) for k in ("grid_count", "degree", "seed"))
        range_min, range_max = float(payload["range_min"]), float(payload["range_max"])
        params = np.array(payload["params"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint-mismatch: {path}: missing or malformed entry {exc}") from None
    net = _zero_network(widths, grid_count, degree, seed, range_min, range_max)
    set_params(net, params)
    return net
