"""Edge scores, attribution propagation, DOT export, decision paths."""

import math
import os
import re
import threading
from pathlib import Path

import numpy as np
import pytest

import kancredit.network as knet
from kancredit.data import dataset_from_arrays, FEATURE_NAMES
from kancredit.explain import (
    EdgeScoreMatrix,
    decision_path,
    decision_path_text,
    edge_scores,
    export_dot,
    feature_attribution,
    propagate_scores,
    sample_activation_curves,
)
from kancredit.network import (
    _layer_batch,
    edge_forward,
    init_network,
    layer_forward,
    network_forward,
    parameter_count,
    set_params,
)

from test_training import _chunked_problem, _shared_with_the_helper

GOLDEN = Path(__file__).parent / "data" / "structure_3_2_1.dot"
PATH_GOLDEN = Path(__file__).parent / "data" / "sample_path_3_2_1.txt"


def layer_edge_outputs(net, x):
    """Every layer's (n, n_out, n_in) edge outputs over all of ``x`` at once."""
    outputs = []
    for layer in net.layers:
        x, phi, _ = _layer_batch(layer, x)
        outputs.append(phi)
    return outputs


def random_net(widths, seed):
    net = init_network(widths, 6, 3, seed=seed)
    set_params(net, np.random.default_rng(seed).normal(0, 0.5, parameter_count(net)))
    return net


def random_dataset(n, width, seed):
    rng = np.random.default_rng(seed)
    return dataset_from_arrays(
        rng.uniform(-1, 1, (n, width)), rng.integers(0, 2, n)
    )


def zero_edge(net, li, q, p):
    net.layers[li].w_b[q, p] = 0.0
    net.layers[li].w_s[q, p] = 0.0
    net.layers[li].coef[q, p, :] = 0.0


class TestEdgeScores:
    def test_zero_edge_scores_zero(self):
        net = init_network([2, 1], 5, 3, seed=0)
        zero_edge(net, 0, 0, 1)
        scores = edge_scores(net, random_dataset(60, 2, seed=1))
        assert scores.per_layer[0][0, 1] == 0.0
        assert scores.per_layer[0][0, 0] > 0.0

    def test_constant_feature_scores_zero(self):
        net = init_network([2, 1], 5, 3, seed=2)
        rng = np.random.default_rng(3)
        feats = rng.uniform(-1, 1, (50, 2))
        feats[:, 1] = 0.37  # zero-variance column
        ds = dataset_from_arrays(feats, rng.integers(0, 2, 50))
        scores = edge_scores(net, ds)
        assert scores.per_layer[0][0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_matches_two_pass_oracle(self):
        net = init_network([2, 1], 6, 3, seed=4)
        ds = random_dataset(100, 2, seed=5)
        scores = edge_scores(net, ds)
        layer = net.layers[0]
        for p in range(2):
            outputs = np.array(
                [
                    edge_forward(layer.edge(0, p), layer.knots, float(x))
                    for x in ds.features[:, p]
                ]
            )
            mean = outputs.sum() / len(outputs)
            var = ((outputs - mean) ** 2).sum() / len(outputs)
            assert scores.per_layer[0][0, p] == pytest.approx(np.sqrt(var), abs=1e-10)

    def test_one_chunk_is_the_plain_two_pass_formula(self):
        net = random_net([3, 2, 1], seed=31)
        ds = random_dataset(40, 3, seed=32)
        n = ds.features.shape[0]
        for got, phi in zip(edge_scores(net, ds).per_layer, layer_edge_outputs(net, ds.features)):
            mean = phi.sum(axis=0) / n
            want = np.sqrt(((phi - mean) ** 2).sum(axis=0) / n)
            assert np.array_equal(got, want)

    def test_merged_chunks_match_fsum_two_pass_oracle(self, monkeypatch):
        net = random_net([3, 2, 1], seed=33)
        ds = random_dataset(53, 3, seed=34)
        monkeypatch.setattr(knet, "CHUNK", 7)
        scores = edge_scores(net, ds).per_layer
        for got, phi in zip(scores, layer_edge_outputs(net, ds.features)):
            for q, p in np.ndindex(got.shape):
                column = phi[:, q, p].tolist()
                mean = math.fsum(column) / len(column)
                var = math.fsum((v - mean) ** 2 for v in column) / len(column)
                assert got[q, p] == pytest.approx(math.sqrt(var), rel=1e-12, abs=0)

    def test_constant_feature_stays_zero_across_chunks(self, monkeypatch):
        net = random_net([2, 1], seed=35)
        rng = np.random.default_rng(36)
        feats = rng.uniform(-1, 1, (50, 2))
        feats[:, 1] = 0.37
        monkeypatch.setattr(knet, "CHUNK", 7)
        scores = edge_scores(net, dataset_from_arrays(feats, rng.integers(0, 2, 50)))
        assert scores.per_layer[0][0, 1] < 1e-15
        assert scores.per_layer[0][0, 0] > 0.0

    def test_all_entries_finite_nonnegative(self):
        net = init_network([4, 3, 1], 5, 3, seed=6)
        scores = edge_scores(net, random_dataset(80, 4, seed=7))
        for mat in scores.per_layer:
            assert np.all(mat >= 0) and np.all(np.isfinite(mat))

    def test_empty_dataset_rejected(self):
        net = init_network([2, 1], 5, 3, seed=0)
        with pytest.raises(ValueError, match="empty-dataset"):
            edge_scores(net, dataset_from_arrays(np.zeros((0, 2)), np.zeros(0)))


class TestEdgeScoresChunkHelper:
    """edge_scores over a 7-row chunk grid, with the helper thread and without it."""

    @pytest.fixture(autouse=True)
    def small_grid(self, monkeypatch):
        monkeypatch.setattr(knet, "CHUNK", 7)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def test_helper_on_busy_and_one_cpu_agree_bit_for_bit(self, monkeypatch):
        net, x, y = _chunked_problem(10)
        ds = dataset_from_arrays(x, y)
        helper_ran = threading.Event()
        with monkeypatch.context() as m:
            m.setattr(knet, "_layer_batch", _shared_with_the_helper(_layer_batch, helper_ran))
            scores = edge_scores(net, ds).per_layer
        assert helper_ran.is_set()
        assert [t for t in threading.enumerate() if t.name.startswith("kancredit-chunk")] == []
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        one_cpu = edge_scores(net, ds).per_layer
        for got, want in zip(scores, one_cpu):
            assert np.array_equal(got, want)


class TestFeatureAttribution:
    def test_single_live_feature_takes_all_mass(self):
        net = init_network([10, 1], 5, 3, seed=8)
        for p in range(10):
            if p != 3:
                zero_edge(net, 0, 0, p)
        report = feature_attribution(net, random_dataset(50, 10, seed=9))
        assert report.feature_scores[3] > 0
        for p in range(10):
            if p != 3:
                assert report.feature_scores[p] == 0.0
        assert report.ranking[0] == 3

    def test_symmetric_features_tie(self):
        net = init_network([2, 1], 5, 3, seed=10)
        layer = net.layers[0]
        layer.coef[0, 1] = layer.coef[0, 0]  # identical edges
        rng = np.random.default_rng(11)
        col = rng.uniform(-1, 1, 70)
        ds = dataset_from_arrays(np.column_stack([col, col]), rng.integers(0, 2, 70))
        report = feature_attribution(net, ds)
        assert report.feature_scores[0] == pytest.approx(
            report.feature_scores[1], abs=1e-12
        )
        assert report.ranking == [0, 1]  # tie broken by index

    def test_normalized_scores_sum_to_one(self):
        net = init_network([6, 4, 1], 5, 3, seed=12)
        report = feature_attribution(net, random_dataset(90, 6, seed=13))
        assert report.normalized_scores.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(report.normalized_scores >= 0)

    def test_ranking_consistent_with_scores(self):
        net = init_network([5, 3, 1], 5, 3, seed=14)
        report = feature_attribution(net, random_dataset(60, 5, seed=15))
        ranked = report.feature_scores[report.ranking]
        assert np.all(np.diff(ranked) <= 0)
        assert sorted(report.ranking) == list(range(5))

    def test_rank_stable_under_layer_rescaling(self):
        rng = np.random.default_rng(16)
        mats = [rng.uniform(0.1, 2.0, (4, 6)), rng.uniform(0.1, 2.0, (1, 4))]
        base = propagate_scores(EdgeScoreMatrix([m.copy() for m in mats]))
        scaled = propagate_scores(
            EdgeScoreMatrix([mats[0] * 3.7, mats[1]])
        )
        assert base[2] == scaled[2]
        np.testing.assert_allclose(base[0], scaled[0], atol=1e-12)

    def test_fingerprints_track_inputs(self):
        net = init_network([3, 1], 5, 3, seed=17)
        ds_a = random_dataset(40, 3, seed=18)
        ds_b = random_dataset(40, 3, seed=19)
        rep_a = feature_attribution(net, ds_a)
        rep_b = feature_attribution(net, ds_b)
        assert rep_a.dataset_fingerprint != rep_b.dataset_fingerprint
        assert rep_a.model_fingerprint == rep_b.model_fingerprint
        assert feature_attribution(net, ds_a).dataset_fingerprint == rep_a.dataset_fingerprint


class TestExportDot:
    def count_nodes_edges(self, dot):
        nodes = re.findall(r"^\s+\w+ \[label=", dot, flags=re.M)
        edges = re.findall(r"^\s+\w+ -> \w+ \[", dot, flags=re.M)
        return len(nodes), len(edges)

    def test_single_layer_counts(self):
        net = init_network([10, 1], 5, 3, seed=20)
        dot = export_dot(net, edge_scores(net, random_dataset(30, 10, seed=21)))
        assert self.count_nodes_edges(dot) == (11, 10)
        for name in FEATURE_NAMES:
            assert name in dot

    def test_two_layer_counts(self):
        net = init_network([10, 4, 1], 5, 3, seed=22)
        dot = export_dot(net, edge_scores(net, random_dataset(30, 10, seed=23)))
        assert self.count_nodes_edges(dot) == (15, 44)

    def test_deterministic_bytes(self):
        net = init_network([4, 2, 1], 5, 3, seed=24)
        ds = random_dataset(30, 4, seed=25)
        scores = edge_scores(net, ds)
        assert export_dot(net, scores) == export_dot(net, scores)

    def test_matches_golden_file(self):
        net = init_network([3, 2, 1], 4, 2, seed=7)
        ds = random_dataset(50, 3, seed=0)
        dot = export_dot(net, edge_scores(net, ds))
        assert dot == GOLDEN.read_text()

    def test_syntactically_valid(self):
        net = init_network([3, 2, 1], 4, 2, seed=7)
        dot = export_dot(net, edge_scores(net, random_dataset(20, 3, seed=1)))
        lines = dot.strip().split("\n")
        assert lines[0] == "digraph kan {"
        assert lines[-1] == "}"
        body_pattern = re.compile(
            r"^\s+(rankdir=LR;"
            r"|node \[shape=circle, fontsize=10\];"
            r'|\w+ \[label="[^"]*"\];'
            r'|\w+ -> \w+ \[label="\d+\.\d{6}", penwidth=\d+\.\d{3}\];)$'
        )
        for line in lines[1:-1]:
            assert body_pattern.match(line), line

    def test_shape_mismatch(self):
        net = init_network([3, 1], 5, 3, seed=26)
        bad = EdgeScoreMatrix([np.zeros((2, 3))])
        with pytest.raises(ValueError, match="shape-mismatch"):
            export_dot(net, bad)


class TestDecisionPath:
    def test_zero_net(self):
        net = init_network([10, 1], 5, 3, seed=27)
        set_params(net, np.zeros(parameter_count(net)))
        path = decision_path(net, np.zeros(10))
        assert path.logit == 0.0
        assert all(step[4] == 0.0 for step in path.steps)

    def test_single_live_edge_share_is_one(self):
        net = init_network([10, 1], 5, 3, seed=28)
        for p in range(1, 10):
            zero_edge(net, 0, 0, p)
        rng = np.random.default_rng(29)
        path = decision_path(net, rng.uniform(-1, 1, 10))
        live = [s for s in path.steps if s[2] == 0]
        assert live[0][5] == 1.0

    def test_contributions_resum_to_trace(self):
        net = init_network([10, 4, 1], 6, 3, seed=30)
        rng = np.random.default_rng(31)
        x = rng.uniform(-1, 1, 10)
        path = decision_path(net, x)
        trace = network_forward(net, x)
        assert path.logit == trace.logit
        for li, sums in enumerate(trace.node_sums):
            for q in range(len(sums)):
                phis = np.array([s[4] for s in path.steps if s[0] == li and s[1] == q])
                assert np.sum(phis) == sums[q]

    def test_dimension_mismatch(self):
        net = init_network([4, 1], 5, 3, seed=32)
        with pytest.raises(ValueError, match="dimension-mismatch"):
            decision_path(net, np.zeros(3))

    def test_text_rendering(self):
        net = init_network([2, 1], 5, 3, seed=33)
        path = decision_path(net, np.array([0.2, -0.4]))
        text = decision_path_text(path)
        assert text.startswith("layer 0 node 0")
        assert f"logit={path.logit!r}" in text

    def test_text_matches_golden_file(self):
        net = init_network([3, 2, 1], 4, 2, seed=7)
        for layer in net.layers:
            layer.w_b[...] = 0.0  # no silu branch: the golden digits rest on +, -, * and / alone, not exp
        text = decision_path_text(decision_path(net, np.array([0.3, -0.55, 0.8])))
        assert text == PATH_GOLDEN.read_text()


class TestActivationCurves:
    def test_two_points_are_endpoints(self):
        net = init_network([2, 1], 5, 3, seed=34)
        rows = sample_activation_curves(net, 2)
        xs = sorted({r[3] for r in rows})
        assert xs == [-1.0, 1.0]
        assert len(rows) == 2 * 2

    def test_zeroed_edge_flat(self):
        net = init_network([2, 1], 5, 3, seed=35)
        zero_edge(net, 0, 0, 0)
        rows = sample_activation_curves(net, 7)
        assert all(r[4] == 0.0 for r in rows if r[2] == 0)

    def test_rows_equal_edge_forward(self):
        net = init_network([3, 2, 1], 5, 3, seed=36)
        rows = sample_activation_curves(net, 9)
        assert len(rows) == (6 + 2) * 9
        for li, q, p, x, phi in rows[:40]:
            layer = net.layers[li]
            assert phi == edge_forward(layer.edge(q, p), layer.knots, x)

    def test_rows_equal_layer_forward_bit_for_bit(self):
        net = init_network([10, 4, 1], 30, 4, seed=38)
        rng = np.random.default_rng(5)
        set_params(net, rng.normal(scale=0.5, size=parameter_count(net)))
        rows = sample_activation_curves(net, 50)
        phis = {}
        for li, q, p, x, phi in rows:
            layer = net.layers[li]
            if (li, x) not in phis:
                phis[li, x] = layer_forward(layer, np.full(layer.n_in, x))[1]
            assert phi == phis[li, x][q, p], (li, q, p, x)

    def test_invalid_point_count(self):
        net = init_network([2, 1], 5, 3, seed=37)
        with pytest.raises(ValueError, match="invalid-point-count"):
            sample_activation_curves(net, 1)
