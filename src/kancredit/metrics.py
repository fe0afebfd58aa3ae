"""Binary classification metrics: confusion counts, F1, ROC curve, ROC_AUC.

ROC_AUC uses the Mann-Whitney rank formulation with midrank tie handling,
which is O(n log n) and agrees exactly (not just approximately) with the
O(P*N) pairwise win count, because midranks of float scores are exact
half-integers.  The dataset is heavily imbalanced, so confusion counts are
parametrised by the positive class; the headline F1 convention lives in
the CLI, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfusionCounts",
    "RocPoint",
    "confusion_at_threshold",
    "precision_recall_f1",
    "roc_auc",
    "roc_curve",
    "classification_report",
]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class RocPoint:
    fpr: float
    tpr: float
    threshold: float


def _check_pair(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.ndim != 1 or y.ndim != 1 or s.shape != y.shape:
        raise ValueError(
            f"length-mismatch: scores {s.shape} vs labels {y.shape}"
        )
    if s.size == 0:
        raise ValueError("empty-input: need at least one sample")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("invalid-label: labels must be 0 or 1")
    return s, y.astype(np.int64)


def confusion_at_threshold(scores, labels, threshold: float, positive_class: int = 1) -> ConfusionCounts:
    """Counts with 'predicted positive' meaning positive-class score >= threshold.

    With positive_class = 0 the score is flipped to 1 - score, so a
    threshold of 0.5 keeps its usual meaning for either class.
    """
    s, y = _check_pair(scores, labels)
    if positive_class not in (0, 1):
        raise ValueError(f"invalid-label: positive_class must be 0 or 1, got {positive_class}")
    if positive_class == 0:
        s = 1.0 - s
    predicted = s >= threshold
    actual = y == positive_class
    return ConfusionCounts(
        tp=int(np.sum(predicted & actual)),
        fp=int(np.sum(predicted & ~actual)),
        tn=int(np.sum(~predicted & ~actual)),
        fn=int(np.sum(~predicted & actual)),
    )


def precision_recall_f1(c: ConfusionCounts):
    """(precision, recall, f1); any 0/0 resolves to 0."""
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp > 0 else 0.0
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn > 0 else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return precision, recall, f1


def _tie_blocks(sorted_vals: np.ndarray):
    """(starts, ends) of the runs of equal values in a sorted array, ends exclusive.

    Neighbours are compared with ``!=`` rather than differenced, so equal
    infinities stay one block.
    """
    change = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1]) + 1
    return np.concatenate(([0], change)), np.concatenate((change, [sorted_vals.size]))


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing the mean rank of their block."""
    order = np.argsort(values, kind="stable")
    starts, ends = _tie_blocks(values[order])
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    return ranks


def roc_auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative, ties at 1/2."""
    s, y = _check_pair(scores, labels)
    n_pos = int(np.sum(y == 1))
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("single-class-input: ROC needs both classes")
    ranks = _midranks(s)
    rank_sum = float(np.sum(ranks[y == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def roc_curve(scores, labels) -> list:
    """RocPoint list: (0,0) first, one point per distinct score, descending."""
    s, y = _check_pair(scores, labels)
    n_pos = int(np.sum(y == 1))
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("single-class-input: ROC needs both classes")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    starts, ends = _tie_blocks(s_sorted)
    tp = np.cumsum(y[order])[ends - 1]
    fp = ends - tp
    points = [RocPoint(0.0, 0.0, float("inf"))]
    points += [
        RocPoint(f / n_neg, t / n_pos, v)
        for f, t, v in zip(fp.tolist(), tp.tolist(), s_sorted[starts].tolist())
    ]
    return points


def classification_report(scores, labels, threshold: float = 0.5) -> dict:
    """Flat metric dictionary covering both positive-class conventions."""
    out = {"threshold": float(threshold), "n_samples": int(np.asarray(labels).size)}
    out["roc_auc"] = roc_auc(scores, labels)
    for cls in (0, 1):
        c = confusion_at_threshold(scores, labels, threshold, positive_class=cls)
        precision, recall, f1 = precision_recall_f1(c)
        key = f"class{cls}"
        out[f"{key}_tp"] = c.tp
        out[f"{key}_fp"] = c.fp
        out[f"{key}_tn"] = c.tn
        out[f"{key}_fn"] = c.fn
        out[f"{key}_precision"] = precision
        out[f"{key}_recall"] = recall
        out[f"{key}_f1"] = f1
    return out
