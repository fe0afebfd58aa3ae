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

Full-batch training feeds layer 0 the same matrix at every step, and most
credit features are small counts that repeat.  So ``training.train`` finds
the matrix's layer-0 codes once per run (``_layer0_codes``): per column,
its distinct values, their knot spans and offsets, and each entry's index
into them in the narrowest unsigned type; a column of distinct values
keeps each entry's knot span and offset instead, so it pays no gather and
no per-value sum.  Each step then evaluates layer 0 once per distinct
value (``_value_tables``, in pieces of at most ``CHUNK_VALUES``), and each
chunk's layer 0 gathers those tables at its codes and sums them as
``_layer_batch`` does, so every logit keeps its bits.  The backward pass
sums layer 0's upstream gradient per value over the whole batch, one
``np.bincount`` per column and output, and takes the layer's gradient from
those sums at the distinct values (``_value_map``).  Only this module knows
the codes' layout.  Every other pass (minibatch steps, hidden layers,
inference, attribution) calls ``knot_span`` and ``basis_values`` on its
inputs, which find the spans once each.  That path keeps ``basis_values``
because the benchmark's traced runs (``perfbench/run.py``, ``REACHES``)
require it to be called; once that pin goes, one ``_span_offset`` per layer
pass can feed ``_band_at`` everywhere.
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


def _chunk_map(net: KanNetwork, X: np.ndarray, per_chunk, tables=None) -> list:
    """``per_chunk(rows, layers)`` for each chunk ``rows`` of X's rows, on this thread and a helper.

    The chunks are slices of ``_chunk_rows(net)`` rows, run through
    ``_two_threads``, so the results come back in chunk order.  ``layers``
    is the lazy ``_walk`` of the chunk ``X[rows]``; a body that never
    iterates it runs no layer.  ``tables``, if given, are X's layer-0
    ``_Tables`` of this step, and each chunk's layer 0 is read from them.
    """
    if tables is not None and tables.codes.shape != X.shape:
        raise ValueError(
            f"dimension-mismatch: positions {tables.codes.shape} do not match features {X.shape}"
        )
    step = _chunk_rows(net)

    def run(rows):
        return per_chunk(rows, _walk(net, X[rows], None if tables is None else tables.at(rows)))

    return _two_threads(run, [slice(lo, lo + step) for lo in range(0, X.shape[0], step)])


def _two_threads(run, items) -> list:
    """``[run(item) for item in items]``, every second item on a helper thread.

    For two or more items on a multi-CPU host, the call starts one helper
    thread, which runs every second item under the caller's numpy error
    state while the caller runs the others, and joins it before it returns
    or raises; the results come back in item order.  Concurrent callers
    each start their own helper.  An item that raises does not stop the
    other thread's items: the error reaches the caller once both are done.
    """
    if len(items) < 2 or (os.cpu_count() or 1) < 2:
        return [run(item) for item in items]
    errors = np.geterr()

    def helper_items():
        with np.errstate(**errors):
            return [run(item) for item in items[1::2]]

    with ThreadPoolExecutor(1, thread_name_prefix="kancredit-chunk") as pool:
        helper = pool.submit(helper_items)
        mine = [run(item) for item in items[::2]]
    results = [None] * len(items)
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


def _layer_batch(layer: KanLayer, X: np.ndarray, cols=None, positions=None):
    """The layer's edges from inputs ``cols`` on a batch X of those inputs: the one place phi is computed.

    ``cols`` (all inputs by default) are the input indices of X's columns,
    so X has shape (n, len(cols)).  Returns (Y, phi, cache): node sums Y
    (n, n_out) over those inputs, edge outputs phi (n, n_out, len(cols)),
    and the intermediates (X, first, band, spline_out, silu, sigmoid, cols)
    that the backward pass needs, ``first`` and ``band`` from
    ``_layer_band``.  ``positions``, if given, are X's knot spans and
    offsets, and spare finding them again.
    """
    cols = np.arange(layer.n_in) if cols is None else cols
    first, band = _layer_band(layer.knots, X, cols, positions)
    coef = layer.coef.reshape(layer.n_out, -1)
    spline_out = _band_dot(coef, first, band).transpose(1, 0, 2)
    sig = sigmoid(X)
    sil = X * sig
    # phi is C-ordered whatever the layout of the weights, so every sum over it is the same
    phi = np.multiply(layer.w_b[None, :, cols], sil[:, None, :], out=np.empty(spline_out.shape))
    phi += layer.w_s[None, :, cols] * spline_out
    return phi.sum(axis=2), phi, (X, first, band, spline_out, sil, sig, cols)


def _layer_band(kv: KnotVector, X: np.ndarray, cols, positions=None):
    """``first`` (n, len(cols)) and ``band`` (degree + 1, n, len(cols)) of a layer's inputs ``cols`` at X.

    ``first`` is the flat index of the first nonzero basis's coefficient in
    ``coef[q]`` raveled, ``span + p * n_basis``, and ``band`` the values of
    the bases from there on.  ``positions``, if given, are X's knot spans
    and offsets in them (``_span_offset``), each of X's shape, and spare
    finding them again.
    """
    if positions is None:
        span = knot_span(kv, X.ravel()).reshape(X.shape)
        band = basis_values(kv, X.ravel()).T
    else:
        span, u = positions
        band = _band_at(kv, u.ravel(), 0)
    return span + cols * kv.n_basis, band.reshape(kv.degree + 1, *X.shape)


@dataclass(frozen=True)
class _Codes:
    """Layer 0's codes of one feature matrix of ``shape``, from ``_layer0_codes``.

    A column that repeats a value is *tabled*: ``values[i]`` holds the
    distinct values of column ``tabled[i]`` (distinct bit patterns, so
    -0.0 and 0.0 are two values, in bit-pattern order), ``codes[i]`` each
    entry's index into them and ``value_positions[i]`` the values' knot
    spans and offsets.  A column of distinct values is *plain*:
    ``positions`` holds the knot span and offset of each entry of the
    ``plain`` columns, each of shape (n, len(plain)).  Codes and spans are
    stored in the narrowest unsigned type that holds them.
    """

    shape: tuple
    plain: np.ndarray
    positions: tuple
    tabled: np.ndarray
    values: tuple
    value_positions: tuple
    codes: tuple

    @property
    def nbytes(self) -> int:
        arrays = (*self.positions, *self.values, *self.codes)
        return sum(a.nbytes for a in arrays) + sum(a.nbytes for pos in self.value_positions for a in pos)


def _layer0_codes(net: KanNetwork, X: np.ndarray) -> _Codes:
    """X's ``_Codes`` for ``net``'s layer 0, found once per full-batch run.

    Column by column on ``_two_threads``: each column's distinct values
    come from ``np.unique`` on its bit patterns, and every span and offset
    from ``_span_offset``, as ``knot_span`` and ``basis_values`` find them.
    The plain columns' spans and offsets are then written into their
    arrays ``_chunk_rows`` rows at a time, so none are held twice.
    """
    kv = net.layers[0].knots
    span_type = np.min_scalar_type(kv.interior_count - 1)

    def positions(points):
        span, u, _ = _span_offset(kv, points)
        return span.astype(span_type), u

    def column(p):  # the column's values, their positions and its codes; None if no value repeats
        bits, code = np.unique(X[:, p].view(np.uint64), return_inverse=True)
        if bits.size == X.shape[0]:
            return None
        values = bits.view(np.float64)
        return values, positions(values), code.astype(np.min_scalar_type(bits.size - 1))

    found = _two_threads(column, range(X.shape[1]))
    plain = np.array([p for p, f in enumerate(found) if f is None], dtype=np.intp)
    tabled = np.array([p for p, f in enumerate(found) if f is not None], dtype=np.intp)
    spans, offsets = np.empty((X.shape[0], plain.size), dtype=span_type), np.empty((X.shape[0], plain.size))

    def fill(rows):
        span, u = positions(X[rows, plain].ravel())
        spans[rows], offsets[rows] = span.reshape(-1, plain.size), u.reshape(-1, plain.size)

    step = _chunk_rows(net)
    _two_threads(fill, [slice(lo, lo + step) for lo in range(0, X.shape[0], step)] if plain.size else [])
    values, value_positions, codes = zip(*[found[p] for p in tabled]) if tabled.size else ((), (), ())
    return _Codes(X.shape, plain, (spans, offsets), tabled, values, value_positions, codes)


@dataclass(frozen=True)
class _Tables:
    """Layer 0 at each tabled column's distinct values, for one step: ``_value_tables``.

    Per tabled column of ``codes``: its edge outputs ``phi`` (m, n_out),
    and the ``spline`` (m, n_out, 1) and ``silu`` (m, 1) values that its
    gradient needs.
    """

    codes: _Codes
    phi: list
    spline: list
    silu: list

    def at(self, rows) -> "_Tables":
        """The tables with the codes of the matrix's rows ``rows``, a slice."""
        c = self.codes
        n = len(range(*rows.indices(c.shape[0])))
        chunk = _Codes((n, c.shape[1]), c.plain, tuple(part[rows] for part in c.positions), c.tabled,
                       c.values, c.value_positions, tuple(code[rows] for code in c.codes))
        return _Tables(chunk, self.phi, self.spline, self.silu)


def _value_pieces(net: KanNetwork, codes: _Codes) -> list:
    """(i, piece) for each slice ``piece`` of tabled column i's distinct values.

    Layer 0 on one input holds ``degree + 1 + n_out`` values per row, the
    band and the edge outputs, so a piece holds ``CHUNK_VALUES`` over that.
    """
    step = max(1, CHUNK_VALUES // (net.degree + 1 + net.widths[1]))
    return [(i, slice(lo, lo + step)) for i, values in enumerate(codes.values)
            for lo in range(0, values.size, step)]


def _value_tables(net: KanNetwork, codes: _Codes) -> _Tables:
    """This step's ``_Tables``: ``_layer_batch`` of layer 0 once per distinct value of each tabled column.

    The ``_value_pieces`` run on ``_two_threads``, each writing its slice of its column's tables.
    """
    layer = net.layers[0]
    phi = [np.empty((v.size, layer.n_out)) for v in codes.values]
    spline = [np.empty((v.size, layer.n_out, 1)) for v in codes.values]
    silu = [np.empty((v.size, 1)) for v in codes.values]

    def piece_tables(item):
        i, piece = item
        values = codes.values[i][piece, None]
        positions = tuple(part[piece, None] for part in codes.value_positions[i])
        _, piece_phi, cache = _layer_batch(layer, values, codes.tabled[i : i + 1], positions)
        phi[i][piece] = piece_phi[:, :, 0]
        spline[i][piece], silu[i][piece] = cache[3], cache[4]

    _two_threads(piece_tables, _value_pieces(net, codes))
    return _Tables(codes, phi, spline, silu)


def _value_map(net: KanNetwork, tables: _Tables, grad: np.ndarray, per_piece) -> list:
    """``per_piece(cache, sums)`` for each of ``_value_pieces``, on ``_two_threads``, in order.

    ``grad`` (n, n_out) is the upstream gradient on layer 0's node sums
    over the whole matrix.  ``sums`` holds its sum over the entries of each
    of the piece's values, from one ``np.bincount`` per column and output
    over the whole matrix, and ``cache`` is ``_layer_batch``'s cache of
    layer 0 on the piece's values alone, but for the values and sigmoid
    that the parameter gradient does not read.  A gradient that is linear
    in ``grad`` is the same computed from the two.
    """
    codes, kv = tables.codes, net.layers[0].knots

    def column_sums(i):
        return np.stack([np.bincount(codes.codes[i], g, codes.values[i].size) for g in grad.T], axis=1)

    sums = _two_threads(column_sums, range(codes.tabled.size))

    def piece_map(item):
        i, piece = item
        cols = codes.tabled[i : i + 1]
        positions = tuple(part[piece, None] for part in codes.value_positions[i])
        first, band = _layer_band(kv, codes.values[i][piece, None], cols, positions)
        cache = (None, first, band, tables.spline[i][piece], tables.silu[i][piece], None, cols)
        return per_piece(cache, sums[i][piece])

    return _two_threads(piece_map, _value_pieces(net, codes))


def _coded_batch(layer: KanLayer, X: np.ndarray, tables: _Tables):
    """``_layer_batch`` of layer 0 on X read from ``tables``: the same Y and phi, the plain columns' cache.

    Plain columns run through ``_layer_batch`` at their positions, and each
    tabled column's edge outputs are its table gathered at its codes.  The
    cache is None when every column is tabled.
    """
    codes = tables.codes
    if not codes.tabled.size:
        return _layer_batch(layer, X, None, codes.positions)
    phi = np.empty((X.shape[0], layer.n_out, layer.n_in))
    cache = None
    if codes.plain.size:
        plain = _layer_batch(layer, X.take(codes.plain, axis=1), codes.plain, codes.positions)
        phi[:, :, codes.plain], cache = plain[1], plain[2]
    for p, table, code in zip(codes.tabled, tables.phi, codes.codes):
        phi[:, :, p] = table.take(code, axis=0)
    return phi.sum(axis=2), phi, cache


def _walk(net: KanNetwork, X: np.ndarray, tables=None):
    """Each layer's ``_layer_batch`` result (Y, phi, cache) in turn, its Y the next layer's input.

    The one walk of a batch through the layers.  It yields, so a caller
    keeps of each layer only what it needs.  ``tables``, if given, are X's
    layer-0 ``_Tables``, for layer 0 only (``_coded_batch``).
    """
    for layer in net.layers:
        X, phi, cache = _layer_batch(layer, X) if tables is None else _coded_batch(layer, X, tables)
        tables = None
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
