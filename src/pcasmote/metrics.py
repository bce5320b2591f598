"""Confusion matrices and imbalance-aware rates.

Actual classes are rows and predicted classes columns.  Multiclass rates
reduce each class one-vs-rest and weight by actual class frequency, so the
weighted recall equals the accuracy exactly; a rate with a zero denominator
is 0.  :func:`tally` counts every (seed, method) table of a run with one
``np.bincount``, and :func:`metric_rows` computes their rates by the
operations of the per-class functions, in their order, so each record's
rates equal theirs on its table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """counts[a][p] = number of samples of actual class a predicted as p (own copy)."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64, order="C")
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError("counts must be a square matrix")
        if (counts < 0).any():
            raise ValueError("counts must be nonnegative")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def tally(actual, predicted, n_classes: int) -> np.ndarray:
    """int64 counts (..., C, C) of the label pairs of ``actual`` (n,) and
    each row of ``predicted`` (..., n), from one ``np.bincount``."""
    batch = predicted.shape[:-1]
    tables = int(np.prod(batch))
    first_code = np.arange(tables).reshape(*batch, 1) * n_classes   # table t's rows start at t * C
    codes = (first_code + actual) * n_classes + predicted
    counts = np.bincount(codes.ravel(), minlength=tables * n_classes * n_classes)
    return counts.reshape(*batch, n_classes, n_classes)


def confusion_matrix(actual, predicted, n_classes: int) -> ConfusionMatrix:
    """Tally actual/predicted label pairs into an n_classes x n_classes table."""
    a = np.asarray(actual, dtype=np.int64)
    p = np.asarray(predicted, dtype=np.int64)
    if a.shape != p.shape or a.ndim != 1:
        raise ValueError("actual and predicted must be 1-D and the same length")
    if a.size and (a.min() < 0 or a.max() >= n_classes):
        raise ValueError("actual label out of range")
    if p.size and (p.min() < 0 or p.max() >= n_classes):
        raise ValueError("predicted label out of range")
    return ConfusionMatrix(counts=tally(a, p, n_classes))


def _one_vs_rest(counts: np.ndarray):
    """(TP, FP, FN, TN), each (..., C), of every class of ``counts`` (..., C, C)."""
    actual = counts.sum(axis=-1)
    tp = np.diagonal(counts, axis1=-2, axis2=-1)
    fp = counts.sum(axis=-2) - tp
    return tp, fp, actual - tp, actual.sum(axis=-1, keepdims=True) - actual - fp


def _rates(tp, fp, fn, tn):
    """(FP rate, precision, recall), 0 where the denominator is 0: counts below
    2**53 are exact in float64, so each quotient is Python's ``int / int``."""
    return tuple(
        np.divide(part, whole, out=np.zeros(part.shape), where=whole > 0)
        for part, whole in ((fp, tn + fp), (tp, tp + fp), (tp, tp + fn))
    )


def _weighted(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values`` (..., C) weighted by the row sums of ``counts`` (..., C, C):
    ``row_sum / total * value`` added from 0.0 in class order, as ``sum`` does."""
    weights = counts.sum(axis=-1)
    total = weights.sum(axis=-1)
    if (total == 0).any():
        raise ValueError("empty confusion matrix")
    share = weights / total[..., None]
    average = np.zeros(total.shape)
    for c in range(counts.shape[-1]):
        average += share[..., c] * values[..., c]
    return average


def one_vs_rest(cm: ConfusionMatrix, c: int) -> tuple[int, int, int, int]:
    """(TP, FP, FN, TN) with class ``c`` as positive."""
    if not 0 <= c < cm.n_classes:
        raise ValueError(f"class index {c} out of range")
    return tuple(int(a[c]) for a in _one_vs_rest(cm.counts))


def accuracy(cm: ConfusionMatrix) -> float:
    """Correct predictions over all predictions."""
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(cm.counts)) / cm.total


def fp_rate(cm: ConfusionMatrix, c: int) -> float:
    """FP / (TN + FP) for class ``c``; 0 when no negatives exist."""
    return float(_rates(*map(np.asarray, one_vs_rest(cm, c)))[0])


def recall(cm: ConfusionMatrix, c: int) -> float:
    """TP / (TP + FN) for class ``c``; 0 when the class never occurs."""
    return float(_rates(*map(np.asarray, one_vs_rest(cm, c)))[2])


def precision(cm: ConfusionMatrix, c: int) -> float:
    """TP / (TP + FP) for class ``c``; 0 when the class is never predicted."""
    return float(_rates(*map(np.asarray, one_vs_rest(cm, c)))[1])


def weighted_average(cm: ConfusionMatrix, per_class_metric: Callable) -> float:
    """Average of a per-class metric weighted by actual class frequency."""
    values = np.array([per_class_metric(cm, c) for c in range(cm.n_classes)], dtype=np.float64)
    return float(_weighted(cm.counts, values))


@dataclass(frozen=True)
class MetricRow:
    """One evaluation record: the four rates plus bookkeeping counts."""

    method_name: str
    n_samples: int
    n_features: int
    accuracy: float
    fp_rate: float
    precision: float
    recall: float
    misclassified: int

    def as_dict(self) -> dict:
        """The fields in order, ``method_name`` written as ``method``."""
        return {"method" if k == "method_name" else k: v for k, v in vars(self).items()}


def metric_rows(counts: np.ndarray, method_names, n_features) -> list[list[MetricRow]]:
    """Records ``[m][s]`` of confusion tables ``counts`` (S, M, C, C): table
    (s, m) summarised as method ``method_names[m]`` with ``n_features[s][m]``
    features, by the operations of the per-class functions."""
    averages = [_weighted(counts, r) for r in _rates(*_one_vs_rest(counts))]
    total = counts.sum(axis=(2, 3))
    correct = np.trace(counts, axis1=2, axis2=3)
    columns = (total, np.asarray(n_features), correct / total, *averages, total - correct)
    return [
        [MetricRow(name, *fields) for fields in zip(*method)]
        for name, *method in zip(method_names, *(a.T.tolist() for a in columns))
    ]
