"""Acceptance gate: ten checks, one test and one printed verdict line each.

Checks 1-3, 9, and 10 are self-contained oracle and property suites that run
on synthetic data. Checks 4-8 exercise the credit-default pipeline on the
public GMSC training file, which is not redistributable and therefore not
shipped; place it at data/cs-training.csv (or point KANCREDIT_GMSC at it) to
enable them. Without the file they skip with an explicit reason rather than
passing vacuously.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

from pathlib import Path

import numpy as np
import pytest

from kancredit.baseline import logistic_probabilities, train_logistic
from kancredit.cli import main as cli_main
from kancredit.data import dataset_from_arrays, load_gmsc_csv, preprocess, split
from kancredit.explain import edge_scores, export_dot, feature_attribution
from kancredit.metrics import confusion_at_threshold, precision_recall_f1, roc_auc
from kancredit.network import (
    flatten_params,
    init_network,
    load_network,
    network_forward,
    network_probabilities,
    save_network,
    set_params,
)
from kancredit.splines import basis_derivatives, make_knot_vector
from kancredit.training import TrainConfig, grad_check, train

from conftest import find_real_gmsc, make_gmsc_rows, write_gmsc_csv
from test_metrics import pairwise_auc, recount_confusion
from test_splines import dense

GMSC_PATH = find_real_gmsc()
SKIP_REASON = (
    "requires the public GMSC training CSV: place it at data/cs-training.csv "
    "or set KANCREDIT_GMSC to its path"
)
needs_gmsc = pytest.mark.skipif(GMSC_PATH is None, reason=SKIP_REASON)


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# Expensive shared fixtures (GMSC runs reused across checks).
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gmsc_split():
    table = load_gmsc_csv(GMSC_PATH)
    dataset = preprocess(table)
    return split(dataset, 0.2, seed=42)


def _train_and_score(gmsc_split, widths, grid, steps, lr):
    train_ds, test_ds = gmsc_split
    cfg = TrainConfig(
        widths=widths, grid_count=grid, degree=4, learning_rate=lr, steps=steps, seed=42
    )
    net, report = train(train_ds, cfg)
    probs = network_probabilities(net, test_ds.features)
    auc = roc_auc(probs, test_ds.labels)
    counts = confusion_at_threshold(probs, test_ds.labels, 0.5, positive_class=0)
    _, _, f1_major = precision_recall_f1(counts)
    return net, report, auc, f1_major


@pytest.fixture(scope="module")
def shallow_model(gmsc_split):
    """Width [10,1], grid 80: the headline single-layer configuration."""
    return _train_and_score(gmsc_split, (10, 1), 80, 100, 0.1)


@pytest.fixture(scope="module")
def deep_model(gmsc_split):
    """Width [10,4,1], grid 30: the headline two-layer configuration."""
    return _train_and_score(gmsc_split, (10, 4, 1), 30, 100, 0.1)


# ---------------------------------------------------------------------------
# 1. Gradient oracle.
# ---------------------------------------------------------------------------


def _boundary_clearance(net, batch_x):
    """Distance from any hidden-layer input to the clamp boundary.

    The spline branch clamps its input, so the model has a derivative kink
    at the range edges. Central differences are only a valid gradient oracle
    when no parameter-dependent input sits within the probe step of a kink;
    the fixed seeds below are chosen to keep this distance comfortably large,
    and the assertion documents that precondition rather than hiding it.
    """
    dist = np.inf
    for sample in batch_x:
        trace = network_forward(net, sample)
        for z in trace.layer_inputs[1:]:
            dist = min(dist, float(np.abs(np.abs(np.asarray(z)) - 1.0).min()))
    return dist


# Central-difference step. The loss is about 0.7 and its float64 rounding
# about 1e-16, so at step 1e-5 the difference quotient carries ~1e-11 of
# rounding noise, which is a relative 1e-4 on the smallest checked gradients
# (~1e-7): the check would then measure rounding, not the gradient. At 1e-4
# the noise is ten times smaller and the O(step^2) truncation error stays far
# below the bound; the clearance above keeps 5 steps between every hidden
# input and the clamp kink.
GRAD_CHECK_STEP = 1e-4


def test_criterion_01_gradient_oracle():
    shapes = ([2, 1], [10, 1], [10, 4, 1])
    worst = 0.0
    for shape in shapes:
        for trial in range(20):
            net = init_network(shape, 5, 3, seed=trial)
            rng = np.random.default_rng(2000 + trial)
            # randomize all weights so the check is not anchored at init
            params = flatten_params(net) + rng.normal(scale=0.3, size=flatten_params(net).size)
            set_params(net, params)
            batch_x = rng.uniform(-1.2, 1.2, (8, shape[0]))
            batch_y = rng.integers(0, 2, 8)
            assert _boundary_clearance(net, batch_x) > 5e-4
            worst = max(worst, grad_check(net, batch_x, batch_y, eps=GRAD_CHECK_STEP))
    ok = worst < 1e-4
    verdict(1, ok, f"gradient check over 60 random nets, max relative error {worst:.3e} < 1e-4")
    assert ok


# ---------------------------------------------------------------------------
# 2. Spline properties.
# ---------------------------------------------------------------------------


def test_criterion_02_spline_properties():
    rng = np.random.default_rng(2)
    checks = []
    for grid, degree in ((5, 3), (30, 4)):
        kv = make_knot_vector(-1.0, 1.0, grid, degree)
        x = rng.uniform(-1.0, 1.0, 1000)
        basis = dense(kv, x)

        unity_err = float(np.abs(basis.sum(axis=1) - 1.0).max())
        checks.append(("partition of unity", unity_err, 1e-10))

        support = int((basis > 1e-14).sum(axis=1).max())
        checks.append(("local support width", float(support), degree + 1 + 0.5))

        step = 1e-7
        analytic = dense(kv, x, basis_derivatives)
        fd = (dense(kv, x + step) - dense(kv, x - step)) / (2 * step)
        mask = np.abs(analytic) > 1e-8
        rel = np.abs(analytic - fd)[mask] / np.abs(analytic)[mask]
        checks.append(("derivative vs finite difference", float(rel.max()), 1e-5))

    ok = all(value < bound for _, value, bound in checks)
    summary = "; ".join(f"{name} {value:.3e} < {bound:g}" for name, value, bound in checks)
    verdict(2, ok, summary)
    assert ok


# ---------------------------------------------------------------------------
# 3. Metric oracle.
# ---------------------------------------------------------------------------


def test_criterion_03_metric_oracle():
    rng = np.random.default_rng(3)
    worst_auc = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 65))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], n) if rng.random() < 0.5 else rng.random(n)
        worst_auc = max(worst_auc, abs(roc_auc(scores, labels) - pairwise_auc(scores, labels)))

        counts = confusion_at_threshold(scores, labels, 0.5)
        assert counts == recount_confusion(scores, labels, 0.5, positive_class=1)

    # one true positive, one false positive, one false negative
    scores = np.array([0.9, 0.9, 0.1])
    labels = np.array([1, 0, 1])
    counts = confusion_at_threshold(scores, labels, 0.5)
    precision, recall, f1 = precision_recall_f1(counts)
    f1_ok = (counts.tp, counts.fp, counts.fn) == (1, 1, 1) and f1 == 0.5

    ok = worst_auc < 1e-12 and f1_ok
    verdict(
        3,
        ok,
        f"roc_auc vs pairwise oracle on 200 instances, max |diff| {worst_auc:.1e} < 1e-12; "
        f"confusion recounts match; tp=fp=fn=1 gives F1 {f1}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 4. GMSC headline run (shallow model).
# ---------------------------------------------------------------------------


@needs_gmsc
def test_criterion_04_gmsc_headline(shallow_model):
    _, report, auc, f1_major = shallow_model
    ok = auc >= 0.850 and f1_major >= 0.960 and report.seconds < 300
    verdict(
        4,
        ok,
        f"width 10,1 grid 80: test ROC_AUC {auc:.4f} >= 0.850, majority-class F1 "
        f"{f1_major:.4f} >= 0.960, trained in {report.seconds:.1f}s < 300s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. Grid-size trend.
# ---------------------------------------------------------------------------


@needs_gmsc
def test_criterion_05_grid_trend(gmsc_split, shallow_model):
    results = {}
    for grid in (3, 10, 50):
        _, _, auc, f1 = _train_and_score(gmsc_split, (10, 1), grid, 100, 0.1)
        results[grid] = (auc, f1)
    results[80] = (shallow_model[2], shallow_model[3])
    delta = results[80][0] - results[3][0]
    f1_values = [results[g][1] for g in (3, 10, 50, 80)]
    f1_range = max(f1_values) - min(f1_values)
    ok = delta >= 0.005 and f1_range < 0.002
    by_grid = ", ".join(f"grid {g}: {results[g][0]:.4f}" for g in (3, 10, 50, 80))
    verdict(
        5,
        ok,
        f"ROC_AUC rises with grid ({by_grid}); delta(80-3) {delta:.4f} >= 0.005; "
        f"majority-class F1 range {f1_range:.4f} < 0.002",
    )
    assert ok


# ---------------------------------------------------------------------------
# 6. Learning-rate collapse.
# ---------------------------------------------------------------------------


@needs_gmsc
def test_criterion_06_learning_rate(gmsc_split):
    _, _, auc_fast, _ = _train_and_score(gmsc_split, (10, 1), 10, 200, 0.1)
    _, _, auc_slow, _ = _train_and_score(gmsc_split, (10, 1), 10, 200, 0.001)
    ok = auc_slow <= auc_fast - 0.05
    verdict(
        6,
        ok,
        f"lr 0.001 ROC_AUC {auc_slow:.4f} trails lr 0.1 ROC_AUC {auc_fast:.4f} "
        f"by {auc_fast - auc_slow:.4f} >= 0.05",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. Attribution ranking.
# ---------------------------------------------------------------------------


@needs_gmsc
def test_criterion_07_attribution_ranking(gmsc_split, deep_model):
    net = deep_model[0]
    _, test_ds = gmsc_split
    report = feature_attribution(net, test_ds)
    ranking = list(report.ranking)
    ok = ranking[0] == 3 and ranking[1] == 0 and ranking.index(9) >= 7
    verdict(
        7,
        ok,
        f"attribution order {ranking}: x3 first, x0 second, x9 at position "
        f"{ranking.index(9)} (bottom three)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. Baseline ordering.
# ---------------------------------------------------------------------------


@needs_gmsc
def test_criterion_08_baseline_ordering(gmsc_split, shallow_model):
    train_ds, test_ds = gmsc_split
    model, _, _ = train_logistic(train_ds, learning_rate=0.1, steps=500)
    logistic_auc = roc_auc(logistic_probabilities(model, test_ds.features), test_ds.labels)
    network_auc = shallow_model[2]
    ok = network_auc >= logistic_auc - 0.002
    verdict(
        8,
        ok,
        f"network ROC_AUC {network_auc:.4f} vs logistic baseline {logistic_auc:.4f} "
        f"(margin {network_auc - logistic_auc:+.4f} >= -0.002)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. Determinism and round-trips.
# ---------------------------------------------------------------------------


def test_criterion_09_determinism(tmp_path):
    csv_path = tmp_path / "synthetic.csv"
    write_gmsc_csv(csv_path, make_gmsc_rows(300, seed=13))

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["--width", "10,1", "--grid", "5", "--k", "3", "--steps", "10"]
    assert cli_main(["train", "--data", str(csv_path), "--out", str(out_a)] + args) == 0
    assert cli_main(["train", "--config", str(out_a / "manifest.txt"), "--out", str(out_b)]) == 0
    manifest_ok = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("metrics_train.txt", "metrics_test.txt", "loss.csv", "model.json")
    )

    net = init_network([10, 4, 1], 30, 4, seed=42)
    save_network(net, tmp_path / "ckpt.json")
    round_trip_ok = np.array_equal(
        flatten_params(load_network(tmp_path / "ckpt.json")), flatten_params(net)
    )

    golden = (Path(__file__).parent / "data" / "structure_3_2_1.dot").read_text()
    gnet = init_network([3, 2, 1], 4, 2, seed=7)
    rng = np.random.default_rng(0)
    gds = dataset_from_arrays(rng.uniform(-1, 1, (50, 3)), rng.integers(0, 2, 50))
    dot_ok = export_dot(gnet, edge_scores(gnet, gds)) == golden

    ok = manifest_ok and round_trip_ok and dot_ok
    verdict(
        9,
        ok,
        f"manifest rerun byte-identical: {manifest_ok}; checkpoint round-trip exact: "
        f"{round_trip_ok}; DOT matches golden file: {dot_ok}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 10. Standalone suite (no GMSC needed) including toy-training checks.
# ---------------------------------------------------------------------------


def test_criterion_10_standalone_toy_training(toy_dataset):
    cfg = TrainConfig(
        widths=(2, 1), grid_count=5, degree=3, learning_rate=0.1, steps=200, seed=0
    )
    net, report = train(toy_dataset, cfg)
    final_loss = float(report.loss_history[-1])
    probs = network_probabilities(net, toy_dataset.features)
    auc = roc_auc(probs, toy_dataset.labels)
    accuracy = float(((probs >= 0.5).astype(int) == toy_dataset.labels).mean())
    ok = final_loss < 0.05 and auc > 0.99 and accuracy > 0.95
    verdict(
        10,
        ok,
        f"separable-toy training without GMSC: final loss {final_loss:.4f} < 0.05, "
        f"ROC_AUC {auc:.3f}, accuracy {accuracy:.3f} (checks 1-3 and 9 above ran "
        f"on synthetic data only)",
    )
    assert ok
