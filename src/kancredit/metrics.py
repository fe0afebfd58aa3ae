"""Binary classification metrics: confusion counts, F1, ROC curve, ROC_AUC.

The ROC curve and ROC_AUC share one ranking: the scores sorted descending
once, by numpy's default sort (the order within a block does not matter),
and cut into blocks of equal scores, with the cumulative true and false
positive counts after each block.  ROC_AUC is the trapezoid area under those
points.  A block with ``fp_b`` negatives and ``tp_b`` positives adds
``fp_b * (tp_prev + tp_prev + tp_b) / 2``: ``fp_b * tp_prev`` pairs whose
positive outscores the negative, plus half of the ``fp_b * tp_b`` tied
pairs.  Summed over the blocks that is exactly the pairwise win count with
ties at 1/2.  Twice the area is an integer, so it is summed exactly in int64
and rounded once, by the division by ``2 * n_pos * n_neg``.  A ``RocPoint``
is a named tuple of plain floats, so the curve is written as CSV rows as it
is; its rates are numpy's quotients ``fp / n_neg`` and ``tp / n_pos`` of
exact integers, correctly rounded as Python's int division is.  The dataset is
heavily imbalanced, so confusion counts are parametrised by the positive
class; the headline F1 convention lives in the CLI, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from kancredit.data import _binary

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


class RocPoint(NamedTuple):
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
    return s, _binary(y).astype(np.int64)


def confusion_at_threshold(scores, labels, threshold: float, positive_class: int = 1) -> ConfusionCounts:
    """Counts with 'predicted positive' meaning positive-class score >= threshold.

    With positive_class = 0 the score is flipped to 1 - score, so a
    threshold of 0.5 keeps its usual meaning for either class.
    """
    s, y = _check_pair(scores, labels)
    if np.isnan(threshold):
        raise ValueError("invalid-threshold: threshold must not be NaN")
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


def _roc_blocks(scores, labels):
    """The ranking behind the ROC: scores sorted descending, in blocks of equal scores.

    Returns ``(tp, fp, first, n_pos, n_neg)``: the cumulative true and false
    positive counts after each block, each block's first score in input
    order, and the class sizes.  Neighbours are compared with ``!=`` rather
    than differenced, so equal infinities stay one block.  A block's counts
    do not depend on the order within it, so numpy's default (unstable)
    sort ranks; only the block of zeros can hold unequal bits, ``0.0`` and
    ``-0.0``, and it takes the sign of the first zero in input order.
    """
    s, y = _check_pair(scores, labels)
    if np.isnan(s).any():
        raise ValueError("invalid-score: scores must not be NaN")
    n_pos = int(np.sum(y))
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("single-class-input: ROC needs both classes")
    order = np.argsort(-s)
    s_sorted = s[order]
    ends = np.append(np.flatnonzero(s_sorted[1:] != s_sorted[:-1]) + 1, s.size)
    tp = np.cumsum(y[order])[ends - 1]
    first = s_sorted[np.concatenate(([0], ends[:-1]))]
    zero = s == 0
    if zero.any():
        first[first == 0] = s[zero.argmax()]
    return tp, ends - tp, first, n_pos, n_neg


def roc_auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative, ties at 1/2."""
    tp, fp, _, n_pos, n_neg = _roc_blocks(scores, labels)
    tp_prev = np.concatenate(([0], tp[:-1]))
    twice_area = int(np.sum(np.diff(fp, prepend=0) * (tp + tp_prev)))
    return twice_area / (2 * n_pos * n_neg)


def roc_curve(scores, labels) -> list:
    """RocPoint list: (0,0) first, one point per distinct score, descending."""
    tp, fp, first, n_pos, n_neg = _roc_blocks(scores, labels)
    points = [RocPoint(0.0, 0.0, float("inf"))]
    points += map(RocPoint._make, zip((fp / n_neg).tolist(), (tp / n_pos).tolist(), first.tolist()))
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
