"""Metric tests against brute-force pairwise and recount oracles."""

import numpy as np
import pytest

from kancredit.metrics import (
    ConfusionCounts,
    RocPoint,
    confusion_at_threshold,
    precision_recall_f1,
    roc_auc,
    roc_curve,
    classification_report,
)


def pairwise_auc(scores, labels):
    """O(P*N) definition: wins + half-ties over all positive/negative pairs."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def recount_confusion(scores, labels, threshold, positive_class):
    tp = fp = tn = fn = 0
    for s, y in zip(scores, labels):
        score = s if positive_class == 1 else 1 - s
        pred = score >= threshold
        actual = y == positive_class
        if pred and actual:
            tp += 1
        elif pred and not actual:
            fp += 1
        elif not pred and actual:
            fn += 1
        else:
            tn += 1
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def trapezoid(points):
    area = 0.0
    for a, b in zip(points[:-1], points[1:]):
        area += (b.fpr - a.fpr) * (a.tpr + b.tpr) / 2.0
    return area


class TestConfusion:
    def test_two_samples(self):
        c = confusion_at_threshold(np.array([0.9, 0.1]), np.array([1, 0]), 0.5)
        assert (c.tp, c.tn, c.fp, c.fn) == (1, 1, 0, 0)

    def test_threshold_zero_everything_positive(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(0, 1, 30)
        labels = rng.integers(0, 2, 30)
        c = confusion_at_threshold(scores, labels, 0.0)
        assert c.fp + c.tp == 30
        assert c.tn == c.fn == 0

    @pytest.mark.parametrize("positive_class", [0, 1])
    def test_matches_recount(self, positive_class):
        rng = np.random.default_rng(1)
        scores = rng.uniform(0, 1, 100)
        labels = rng.integers(0, 2, 100)
        c = confusion_at_threshold(scores, labels, 0.5, positive_class)
        assert c == recount_confusion(scores, labels, 0.5, positive_class)
        assert c.total == 100

    def test_validation(self):
        with pytest.raises(ValueError, match="length-mismatch"):
            confusion_at_threshold(np.zeros(3), np.zeros(2), 0.5)
        with pytest.raises(ValueError, match="empty-input"):
            confusion_at_threshold(np.zeros(0), np.zeros(0), 0.5)
        with pytest.raises(ValueError, match="invalid-label"):
            confusion_at_threshold(np.zeros(2), np.array([0, 2]), 0.5)


class TestPrecisionRecallF1:
    def test_balanced_halves(self):
        p, r, f1 = precision_recall_f1(ConfusionCounts(tp=1, fp=1, tn=0, fn=1))
        assert (p, r, f1) == (0.5, 0.5, 0.5)

    def test_zero_over_zero_convention(self):
        p, r, f1 = precision_recall_f1(ConfusionCounts(tp=0, fp=0, tn=2, fn=5))
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_symmetric_errors(self):
        p, r, f1 = precision_recall_f1(ConfusionCounts(tp=967, fp=33, tn=0, fn=33))
        assert p == pytest.approx(0.967)
        assert r == pytest.approx(0.967)
        assert f1 == pytest.approx(0.967)

    def test_f1_zero_iff_no_true_positives(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            tp, fp, tn, fn = (int(v) for v in rng.integers(0, 10, 4))
            if tp + fp + tn + fn == 0:
                continue
            _, _, f1 = precision_recall_f1(ConfusionCounts(tp, fp, tn, fn))
            assert 0.0 <= f1 <= 1.0
            assert (f1 == 0.0) == (tp == 0)


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0

    def test_all_tied_scores(self):
        assert roc_auc(np.full(10, 0.5), np.array([1, 0] * 5)) == 0.5

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(3)
        for trial in range(200):
            n = int(rng.integers(2, 65))
            scores = rng.choice([0.1, 0.25, 0.5, 0.77, 0.9], size=n)  # force ties
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert roc_auc(scores, labels) == pytest.approx(
                pairwise_auc(scores, labels), abs=1e-12
            )

    def test_rank_invariance(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(-3, 3, 60)
        labels = rng.integers(0, 2, 60)
        labels[0], labels[1] = 0, 1
        base = roc_auc(scores, labels)
        assert roc_auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert roc_auc(scores * 100 + 7, labels) == pytest.approx(base, abs=1e-12)

    def test_complement_symmetry(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(0, 1, 50)  # continuous, ties have measure zero
        labels = rng.integers(0, 2, 50)
        labels[0], labels[1] = 0, 1
        assert roc_auc(1 - scores, labels) == pytest.approx(
            1 - roc_auc(scores, labels), abs=1e-12
        )

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single-class-input"):
            roc_auc(np.array([0.1, 0.9]), np.array([1, 1]))


class TestRocCurve:
    def test_two_separated_samples(self):
        pts = roc_curve(np.array([0.9, 0.1]), np.array([1, 0]))
        assert [(p.fpr, p.tpr) for p in pts] == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]

    def test_all_tied(self):
        pts = roc_curve(np.full(6, 0.4), np.array([1, 0, 1, 0, 1, 0]))
        assert [(p.fpr, p.tpr) for p in pts] == [(0.0, 0.0), (1.0, 1.0)]
        assert trapezoid(pts) == 0.5

    def test_monotone_and_ends_at_one_one(self):
        rng = np.random.default_rng(6)
        scores = rng.uniform(0, 1, 40)
        labels = rng.integers(0, 2, 40)
        labels[:2] = [0, 1]
        pts = roc_curve(scores, labels)
        assert (pts[-1].fpr, pts[-1].tpr) == (1.0, 1.0)
        fprs = [p.fpr for p in pts]
        tprs = [p.tpr for p in pts]
        assert fprs == sorted(fprs)
        assert tprs == sorted(tprs)

    def test_trapezoid_equals_auc(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(4, 64))
            scores = rng.choice([0.2, 0.4, 0.6, 0.8], size=n)
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            pts = roc_curve(scores, labels)
            assert trapezoid(pts) == pytest.approx(roc_auc(scores, labels), abs=1e-12)

    def test_heavy_ties_match_recount_exactly(self):
        rng = np.random.default_rng(9)
        values = np.array([0.0, 1.0, np.inf, -np.inf, 0.25, 0.75, -0.0])
        cases = [(np.array([np.inf, np.inf]), np.array([1, 0]))]
        for n in (2, 7, 40, 301):
            labels = rng.integers(0, 2, n)
            labels[:2] = [1, 0]
            cases.append((rng.choice(values, size=n), labels))
        for scores, labels in cases:
            n_pos = int(labels.sum())
            n_neg = labels.size - n_pos
            pts = roc_curve(scores, labels)
            assert pts[0] == RocPoint(0.0, 0.0, float("inf"))
            assert [p.threshold for p in pts[1:]] == sorted(set(scores.tolist()), reverse=True)
            for p in pts[1:]:
                c = confusion_at_threshold(scores, labels, p.threshold)
                assert (p.fpr, p.tpr) == (c.fp / n_neg, c.tp / n_pos)
            assert roc_auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)


class TestClassificationReport:
    def test_contains_both_conventions(self):
        rng = np.random.default_rng(8)
        scores = rng.uniform(0, 1, 200)
        labels = (scores + rng.normal(0, 0.3, 200) > 0.5).astype(int)
        rep = classification_report(scores, labels)
        assert rep["class0_tp"] == rep["class1_tn"]
        assert rep["class0_fp"] == rep["class1_fn"]
        c1 = confusion_at_threshold(scores, labels, 0.5, 1)
        assert rep["class1_f1"] == precision_recall_f1(c1)[2]
        assert 0.5 < rep["roc_auc"] <= 1.0
