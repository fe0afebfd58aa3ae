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

``_layer_batch`` is the one place phi is computed, and ``_walk`` the one
walk of a batch through the layers.  ``_chunk_map`` is the one batched pass:
it cuts a batch into chunks and hands each caller's per-chunk body the
chunk's rows and its lazy ``_walk``, so batched inference, training and
attribution never slice or walk a batch themselves; ``network_forward``
walks a batch of one.  Rows per chunk follow from the network's width
(``_chunk_rows``): a fixed budget of values over what one row holds in the
widest layer pass, so a narrow net walks more rows per chunk.
``layer_forward`` passes ``_layer_batch`` a batch of one, and
``edge_forward`` a one-edge layer.  Its spline branch works on the banded
basis: for each input it gathers the ``degree + 1`` coefficients from
``knot_span`` on and weights them by ``basis_values``, summing in a fixed
order, so an edge's value is the same in any batch.

Full-batch training feeds layer 0 the same matrix at every step, so
``training.train`` finds that matrix's band positions (each entry's knot
interval and offset, ``_band_positions``) once per run and passes them to
``_chunk_map``, which hands each chunk's share to its ``_walk``; layer 0
then takes its first index from the interval and its band from
``splines._band_at`` at the offset, the same numbers ``knot_span`` and
``basis_values`` give.  Every other pass (minibatch steps, hidden layers,
inference, attribution) has no positions and calls ``knot_span`` and
``basis_values`` on its inputs, which find the positions once each.  That
path keeps ``basis_values`` because the benchmark's traced runs
(``perfbench/run.py``, ``REACHES``) require it to be called; once that pin
goes, one ``_span_offset`` per layer pass can feed ``_band_at`` everywhere.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from kancredit.splines import (
    KnotVector,
    SplineParams,
    _band_at,
    _band_dot,
    _check_grid,
    _span_offset,
    basis_values,
    knot_span,
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

# values per chunk: the budget of one layer pass's working set, read here only.
# A pass holds, per row, n_in * (degree + 1) band values and n_in * n_out edge
# outputs; _chunk_rows turns the budget into a network's rows per chunk, the
# one grid of its batched passes (backward, network_logits, edge_scores), and
# _chunk_map cuts a batch into slices of that many rows and walks each.  The
# calling thread and a helper thread of the call (see _chunk_map) each hold
# one chunk's working set.  The budget is 2048 rows of the shipped 10,4,1
# degree-4 network (90 values per row), so a 10,1 degree-4 network gets 3072
# rows; a batch of at most one chunk stays on the caller.  Concurrent callers
# each start their own helper.  Chunk results are merged in chunk order, so
# they depend on this grid and never on how many threads ran the chunks.
CHUNK_VALUES = 184_320

COEF_INIT_SCALE = 0.1


def sigmoid(x):
    """Numerically stable logistic function for scalars or arrays."""
    arr = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(arr, -arr))  # exp(-|x|); a NaN keeps its sign bit
    out = np.where(arr >= 0, 1.0, e) / (1.0 + e)
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


def _chunk_rows(net: KanNetwork) -> int:
    """Rows per chunk of ``net``'s batched passes: ``CHUNK_VALUES`` over its widest layer pass.

    A layer pass holds ``n_in * (degree + 1 + n_out)`` values per row: the
    band and the edge outputs.  At least one row.
    """
    per_row = max(
        n_in * (net.degree + 1 + n_out) for n_in, n_out in zip(net.widths[:-1], net.widths[1:])
    )
    return max(1, CHUNK_VALUES // per_row)


def _chunk_map(net: KanNetwork, X: np.ndarray, per_chunk, positions=None) -> list:
    """``per_chunk(rows, layers)`` for each chunk ``rows`` of X's rows, on this thread and a helper.

    The chunks are slices of ``_chunk_rows(net)`` rows.  ``layers`` is the
    lazy ``_walk`` of the chunk ``X[rows]``, given its share of
    ``positions`` (X's layer-0 band positions from ``_band_positions``)
    when those are passed; a body that never iterates it runs no layer.
    For two or more chunks on a multi-CPU host, the call starts one helper
    thread, which runs every second chunk under the caller's numpy error
    state while the caller runs the others, and joins it before it returns
    or raises; the results come back in chunk order.  Concurrent callers
    each start their own helper.  A chunk that raises does not stop the
    other thread's chunks: the error reaches the caller once both are done.
    """
    if positions is not None:
        shapes = [np.shape(part) for part in positions]
        if shapes != [X.shape] * 2:
            raise ValueError(
                f"dimension-mismatch: positions {shapes} do not match features {X.shape}"
            )
    step = _chunk_rows(net)
    chunks = [slice(lo, lo + step) for lo in range(0, X.shape[0], step)]

    def run(rows):
        sliced = None if positions is None else tuple(part[rows] for part in positions)
        return per_chunk(rows, _walk(net, X[rows], sliced))

    if len(chunks) < 2 or (os.cpu_count() or 1) < 2:
        return [run(rows) for rows in chunks]
    errors = np.geterr()

    def helper_chunks():
        with np.errstate(**errors):
            return [run(rows) for rows in chunks[1::2]]

    with ThreadPoolExecutor(1, thread_name_prefix="kancredit-chunk") as pool:
        helper = pool.submit(helper_chunks)
        mine = [run(rows) for rows in chunks[::2]]
    results = [None] * len(chunks)
    results[::2], results[1::2] = mine, helper.result()
    return results


def _param_views(buffer: np.ndarray, widths, n_basis: int) -> list:
    """Per-layer (w_b, w_s, coef) views into a flat buffer in checkpoint order."""
    views, pos = [], 0
    for n_in, n_out in zip(widths[:-1], widths[1:]):
        size = n_out * n_in * (2 + n_basis)
        per_edge = buffer[pos : pos + size].reshape(n_out, n_in, 2 + n_basis)
        views.append((per_edge[:, :, 0], per_edge[:, :, 1], per_edge[:, :, 2:]))
        pos += size
    return views


def _edge_count(widths) -> int:
    """The number of edges between layers of these widths, once the widths are checked."""
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise ValueError(f"invalid-widths: need >= 2 positive layer widths, got {widths}")
    if widths[-1] != 1:
        raise ValueError(f"invalid-widths: output width must be 1, got {widths[-1]}")
    return sum(n_in * n_out for n_in, n_out in zip(widths[:-1], widths[1:]))


def _zero_network(widths, grid_count, degree, seed, range_min, range_max) -> KanNetwork:
    """A network over a zeroed parameter buffer, its layers viewing into it."""
    edges = _edge_count(widths)
    kv = make_knot_vector(range_min, range_max, grid_count, degree)
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


def _layer_batch(layer: KanLayer, X: np.ndarray, positions=None):
    """The layer on a batch X of shape (n, n_in): the one place phi is computed.

    Returns (Y, phi, cache): node sums Y (n, n_out), edge outputs phi
    (n, n_out, n_in), and the intermediates (X, first, band, spline_out,
    silu, sigmoid) that the backward pass needs.  ``first`` (n, n_in) is the
    flat index of the first nonzero basis's coefficient in ``coef[q]``
    raveled, ``span + p * n_basis``, and ``band`` (degree + 1, n, n_in)
    the values of the bases from there on.  ``positions``, if given, is
    X's ``(span, u)`` from ``_band_positions``, and spares finding them again.
    """
    n = X.shape[0]
    kv = layer.knots
    if positions is None:
        span = knot_span(kv, X.ravel()).reshape(n, layer.n_in)
        band = basis_values(kv, X.ravel()).T
    else:
        span, u = positions
        band = _band_at(kv, u.ravel(), 0)
    first = span + np.arange(layer.n_in) * kv.n_basis
    band = band.reshape(-1, n, layer.n_in)
    coef = layer.coef.reshape(layer.n_out, -1)
    spline_out = _band_dot(coef, first, band).transpose(1, 0, 2)
    sig = sigmoid(X)
    sil = X * sig
    phi = layer.w_b[None, :, :] * sil[:, None, :]
    phi += layer.w_s[None, :, :] * spline_out
    return phi.sum(axis=2), phi, (X, first, band, spline_out, sil, sig)


def _band_positions(net: KanNetwork, X: np.ndarray):
    """Each entry's knot interval ``span`` and offset ``u`` in it, as ``net``'s layer 0 takes them.

    ``span`` is stored in the narrowest unsigned type that holds
    ``interior_count - 1`` (one byte per entry up to 256 intervals) and
    ``u`` as float64, both of X's shape (n, n_in), filled chunk by chunk.
    """
    kv = net.layers[0].knots
    span = np.empty(X.shape, dtype=np.min_scalar_type(kv.interior_count - 1))
    u = np.empty(X.shape)

    def chunk(rows, layers):  # positions only: no layer runs
        chunk_span, chunk_u, _ = _span_offset(kv, X[rows].ravel())
        span[rows] = chunk_span.reshape(-1, X.shape[1])
        u[rows] = chunk_u.reshape(-1, X.shape[1])

    _chunk_map(net, X, chunk)
    return span, u


def _walk(net: KanNetwork, X: np.ndarray, positions=None):
    """Each layer's ``_layer_batch`` result (Y, phi, cache) in turn, its Y the next layer's input.

    The one walk of a batch through the layers.  It yields, so a caller
    keeps of each layer only what it needs.  ``positions`` are X's band
    positions, for layer 0 only.
    """
    for layer in net.layers:
        X, phi, cache = _layer_batch(layer, X, positions)
        positions = None
        yield X, phi, cache


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
    walk = list(_walk(net, x[None, :]))
    return ForwardTrace(
        layer_inputs=[cache[0][0] for _, _, cache in walk],
        edge_outputs=[phi[0] for _, phi, _ in walk],
        node_sums=[y[0] for y, _, _ in walk],
        logit=float(walk[-1][0][0, 0]),
    )


def _check_features(net: KanNetwork, X) -> np.ndarray:
    """``X`` as a float64 (n, widths[0]) array, else a coded dimension-mismatch."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.widths[0]:
        raise ValueError(
            f"dimension-mismatch: network expects (n, {net.widths[0]}), got {X.shape}"
        )
    return X


def network_logits(net: KanNetwork, X: np.ndarray) -> np.ndarray:
    """Logits for a batch (n, n_features), streamed in ``_chunk_rows(net)``-row chunks.

    The chunks run on up to two threads (``_chunk_map``), each writing its
    rows of the result.  A logit depends only on its own row, so the result
    is the same bit for bit at any grid and any thread count.
    """
    X = _check_features(net, X)
    out = np.empty(X.shape[0])

    def chunk(rows, layers):
        for y, _, _ in layers:
            pass  # only the last layer's node sums are kept
        out[rows] = y[:, 0]

    _chunk_map(net, X, chunk)
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
    _write_checkpoint(path, "kan-network", {
        "widths": net.widths,
        "grid_count": net.grid_count,
        "degree": net.degree,
        "seed": net.seed,
        "range_min": net.layers[0].knots.range_min,
        "range_max": net.layers[0].knots.range_max,
        "params": flatten_params(net).tolist(),
    })


def _write_checkpoint(path, kind: str, fields: dict) -> None:
    """A version-1 checkpoint of ``kind`` as one line of JSON; a non-finite number writes nothing."""
    try:
        text = json.dumps({"kind": kind, "version": 1, **fields}, allow_nan=False)
    except ValueError as exc:  # NaN and infinities are not JSON, and the loaders refuse them
        raise ValueError(f"non-finite-parameter: {path}: {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _read_checkpoint(path, kind: str, noun: str) -> dict:
    """The JSON object of a version-1 checkpoint of ``kind``, else a coded error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # not JSON, or not text
        raise ValueError(f"checkpoint-mismatch: {path} is not JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("kind") != kind:
        raise ValueError(f"checkpoint-mismatch: not a {noun} checkpoint: {path}")
    version = payload.get("version")
    if type(version) is not int or version != 1:
        raise ValueError(f"checkpoint-mismatch: {path}: version {version!r}, expected 1")
    return payload


def _entry(payload: dict, path, key: str, kind: type, many: bool = False):
    """``payload[key]`` as a JSON number of ``kind``, or with ``many`` a list of them.

    An int entry must be a JSON integer.  A float entry may be any JSON
    number but must be finite, and comes back as a float (a float64 array
    with ``many``).  Strings and bools are refused: the types are compared
    exactly because ``json`` reads ``true`` as a bool, an int subclass.
    Anything else is a coded error.
    """
    value = payload.get(key)
    items = value if many and isinstance(value, list) else [value]
    allowed = (int,) if kind is int else (int, float)
    if isinstance(value, list) == many and all(type(v) in allowed for v in items):
        if kind is int:
            return value
        try:
            number = np.array(value, dtype=np.float64)
        except OverflowError:  # a JSON integer beyond the float range
            number = np.array(np.inf)
        if np.isfinite(number).all():
            return number if many else float(number)
    what = "JSON integer" if kind is int else "finite JSON number"
    what = f"a list of {what}s" if many else f"a {what}"
    raise ValueError(f"checkpoint-mismatch: {path}: {key} must be {what}")


def load_network(path) -> KanNetwork:
    payload = _read_checkpoint(path, "kan-network", "network")
    widths = _entry(payload, path, "widths", int, many=True)
    grid_count, degree, seed = (_entry(payload, path, k, int) for k in ("grid_count", "degree", "seed"))
    range_min, range_max = (_entry(payload, path, k, float) for k in ("range_min", "range_max"))
    # the shape is checked against the parameters before anything is allocated for it:
    # each edge has w_b, w_s and grid_count + degree spline coefficients
    size = _edge_count(widths) * (2 + grid_count + degree)
    _check_grid(range_min, range_max, grid_count, degree)
    params = _entry(payload, path, "params", float, many=True)
    if params.size != size:
        raise ValueError(f"length-mismatch: expected {size} parameters, got {params.shape}")
    net = _zero_network(widths, grid_count, degree, seed, range_min, range_max)
    set_params(net, params)
    return net
