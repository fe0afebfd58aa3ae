"""Attribution, structure export, and per-sample decision paths.

An edge's influence is summarized by the population standard deviation of
its output over a dataset: an edge whose activation never moves carries no
information.  The statistic takes one pass over the data: each chunk's
exact mean and sum of squared deviations, from the edge outputs already in
hand, merge into the running ones by Chan et al.'s pairwise update, and a
dataset of one chunk gives the plain two-pass result bit for bit (see
``edge_scores``).  Feature scores then flow backward from the logit: the
output node holds score 1, and each node passes its score down, divided
among its incoming edges in proportion to their influence.  Only the
resulting ranking is meaningful; the absolute numbers depend on this choice
of statistic.

Structure export is plain DOT text (deterministic bytes, golden-testable);
decision paths decompose one sample's logit into per-edge contributions.
Their text form spells every number through ``data._fmt``, as a plain float.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from kancredit.data import FEATURE_NAMES, _fmt
from kancredit.network import (
    CHUNK,
    KanNetwork,
    edge_forward,
    _check_features,
    _layer_batch,
    flatten_params,
    network_forward,
)

__all__ = [
    "EdgeScoreMatrix",
    "AttributionReport",
    "DecisionPath",
    "edge_scores",
    "propagate_scores",
    "feature_attribution",
    "export_dot",
    "decision_path",
    "decision_path_text",
    "sample_activation_curves",
]

EPS_DIV = 1e-12


@dataclass
class EdgeScoreMatrix:
    """Per layer, an (n_out, n_in) matrix of non-negative edge scores."""

    per_layer: list


@dataclass
class AttributionReport:
    feature_scores: np.ndarray
    normalized_scores: np.ndarray
    ranking: list
    dataset_fingerprint: str
    model_fingerprint: str


@dataclass
class DecisionPath:
    """(layer, q, p, input, phi, share) rows plus the trace's sums and logit."""

    steps: list
    node_sums: list
    logit: float


def edge_scores(net: KanNetwork, dataset) -> EdgeScoreMatrix:
    """Std of each edge output over the dataset, in one chunked pass.

    Each chunk of ``k`` rows takes its exact two-pass mean and sum of squared
    deviations from the ``phi`` in hand; the chunks merge in order by Chan et
    al.'s update, ``delta = mean_c - mean``, ``mean += delta * k / n``,
    ``m2 += m2_c + delta**2 * n_old * k / n``.  The first chunk is taken as
    is, so data of at most ``CHUNK`` rows gives the plain two-pass result
    bit for bit.
    """
    x = _check_features(net, dataset.features)
    if x.shape[0] == 0:
        raise ValueError("empty-dataset: need a nonempty feature matrix")
    means, m2s = [], []
    n_old = 0
    for lo in range(0, x.shape[0], CHUNK):
        cur = x[lo : lo + CHUNK]
        k = cur.shape[0]
        n = n_old + k
        for li, layer in enumerate(net.layers):
            cur, phi, _ = _layer_batch(layer, cur)
            mean_c = phi.sum(axis=0) / k
            m2_c = ((phi - mean_c) ** 2).sum(axis=0)
            if n_old == 0:
                means.append(mean_c)
                m2s.append(m2_c)
                continue
            delta = mean_c - means[li]
            means[li] += delta * k / n
            m2s[li] += m2_c + delta**2 * n_old * k / n
        n_old = n
    return EdgeScoreMatrix(per_layer=[np.sqrt(m2 / n_old) for m2 in m2s])


def _propagate(node_scores: np.ndarray, layer_scores: np.ndarray) -> np.ndarray:
    row_sums = layer_scores.sum(axis=1)
    shares = layer_scores / np.maximum(row_sums, EPS_DIV)[:, None]
    return node_scores @ shares


def propagate_scores(scores: EdgeScoreMatrix):
    """Turn edge scores into (raw, normalized, ranking) feature scores.

    The output node starts with score 1; each node's score is divided among
    its incoming edges by their share of the node's total edge score.  Raw
    input scores are rescaled to conserve the mass that reached the first
    hidden layer; the normalized variant sums to 1.
    """
    node = np.ones(1)
    for layer_scores in reversed(scores.per_layer[1:]):
        node = _propagate(node, np.asarray(layer_scores, dtype=np.float64))
    upstream_total = float(node.sum())
    raw = _propagate(node, np.asarray(scores.per_layer[0], dtype=np.float64))
    total = float(raw.sum())
    if total > 0.0:
        raw = raw * (upstream_total / total)
    norm_total = float(raw.sum())
    normalized = raw / norm_total if norm_total > 0.0 else raw.copy()
    ranking = sorted(range(raw.size), key=lambda i: (-raw[i], i))
    return raw, normalized, ranking


def feature_attribution(net: KanNetwork, dataset) -> AttributionReport:
    """Backward score propagation from the logit to the input features."""
    raw, normalized, ranking = propagate_scores(edge_scores(net, dataset))
    return AttributionReport(
        feature_scores=raw,
        normalized_scores=normalized,
        ranking=ranking,
        dataset_fingerprint=_dataset_fingerprint(dataset),
        model_fingerprint=_model_fingerprint(net),
    )


def _dataset_fingerprint(dataset) -> str:
    x = np.ascontiguousarray(np.asarray(dataset.features, dtype=np.float64))
    y = np.ascontiguousarray(np.asarray(dataset.labels, dtype=np.int64))
    digest = hashlib.sha256()
    digest.update(x.tobytes())
    digest.update(y.tobytes())
    return digest.hexdigest()[:16]


def _model_fingerprint(net: KanNetwork) -> str:
    digest = hashlib.sha256()
    digest.update(repr((net.widths, net.grid_count, net.degree)).encode())
    digest.update(np.ascontiguousarray(flatten_params(net)).tobytes())
    return digest.hexdigest()[:16]


def export_dot(net: KanNetwork, scores: EdgeScoreMatrix) -> str:
    """Layered digraph in DOT, GMSC names on a 10-input net's inputs; deterministic bytes."""
    shapes = [np.asarray(m).shape for m in scores.per_layer]
    wanted = [(l.n_out, l.n_in) for l in net.layers]
    if shapes != wanted:
        raise ValueError(f"shape-mismatch: scores {shapes} vs layers {wanted}")
    ids = [[f"x{p}" for p in range(net.widths[0])]]
    for li, width in enumerate(net.widths[1:-1], start=1):
        ids.append([f"l{li}n{q}" for q in range(width)])
    ids.append(["out"])
    named = net.widths[0] == len(FEATURE_NAMES)
    peak = max((float(np.max(m)) for m in scores.per_layer), default=0.0)

    lines = ["digraph kan {", "  rankdir=LR;", "  node [shape=circle, fontsize=10];"]
    for p, node_id in enumerate(ids[0]):
        label = f"x{p}\\n{FEATURE_NAMES[p]}" if named else f"x{p}"
        lines.append(f'  {node_id} [label="{label}"];')
    for layer_ids in ids[1:-1]:
        for node_id in layer_ids:
            lines.append(f'  {node_id} [label="+"];')
    lines.append('  out [label="logit"];')
    for li, layer in enumerate(net.layers):
        mat = np.asarray(scores.per_layer[li], dtype=np.float64)
        for q in range(layer.n_out):
            for p in range(layer.n_in):
                width = 0.5 if peak <= 0 else 0.5 + 4.0 * float(mat[q, p]) / peak
                lines.append(
                    f'  {ids[li][p]} -> {ids[li + 1][q]} '
                    f'[label="{mat[q, p]:.6f}", penwidth={width:.3f}];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"


def decision_path(net: KanNetwork, sample) -> DecisionPath:
    """One sample's logit, decomposed edge by edge."""
    trace = network_forward(net, sample)
    steps = []
    for li, (x_in, phi, sums) in enumerate(
        zip(trace.layer_inputs, trace.edge_outputs, trace.node_sums)
    ):
        for q in range(phi.shape[0]):
            for p in range(phi.shape[1]):
                share = float(phi[q, p] / sums[q]) if sums[q] != 0.0 else 0.0
                steps.append(
                    (li, q, p, float(x_in[p]), float(phi[q, p]), share)
                )
    return DecisionPath(steps=steps, node_sums=trace.node_sums, logit=trace.logit)


def decision_path_text(path: DecisionPath) -> str:
    """Human-readable rendering, one line per edge, grouped by node, ending in one newline."""
    lines = []
    current = None
    for li, q, p, x_in, phi, share in path.steps:
        if (li, q) != current:
            current = (li, q)
            lines.append(f"layer {li} node {q}  sum={_fmt(path.node_sums[li][q])}")
        lines.append(f"  in[{p}]={_fmt(x_in)}  phi={_fmt(phi)}  share={_fmt(share)}")
    lines.append(f"logit={_fmt(path.logit)}")
    return "\n".join(lines) + "\n"


def sample_activation_curves(net: KanNetwork, points_per_edge: int) -> list:
    """(layer, q, p, x, phi) rows on a uniform grid over each edge's range."""
    if points_per_edge < 2:
        raise ValueError(
            f"invalid-point-count: need at least 2 points, got {points_per_edge}"
        )
    rows = []
    for li, layer in enumerate(net.layers):
        kv = layer.knots
        xs = np.linspace(kv.range_min, kv.range_max, points_per_edge)
        for q in range(layer.n_out):
            for p in range(layer.n_in):
                phi = edge_forward(layer.edge(q, p), kv, xs)
                rows.extend((li, q, p, x, v) for x, v in zip(xs.tolist(), phi.tolist()))
    return rows
