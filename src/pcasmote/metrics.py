"""Confusion-matrix construction and imbalance-aware evaluation measures.

The confusion matrix stores actual classes on rows and predicted classes on
columns.  Multiclass scalars reduce each class one-vs-rest and weight by the
actual class frequency; with that convention the weighted recall equals the
overall accuracy exactly.  Rates with a zero denominator are defined as 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """counts[a][p] = number of samples of actual class a predicted as p."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.ascontiguousarray(np.asarray(self.counts, dtype=np.int64))
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
    counts = np.bincount(a * n_classes + p, minlength=n_classes * n_classes)
    return ConfusionMatrix(counts=counts.reshape(n_classes, n_classes))


def _one_vs_rest_all(rows: list[list[int]]) -> list[tuple[int, int, int, int]]:
    """(TP, FP, FN, TN) of every class as positive, from the counts as lists."""
    total = sum(map(sum, rows))
    return [
        (row[c], sum(column) - row[c], sum(row) - row[c], total - sum(row) - sum(column) + row[c])
        for c, (row, column) in enumerate(zip(rows, zip(*rows)))
    ]


def one_vs_rest(cm: ConfusionMatrix, c: int) -> tuple[int, int, int, int]:
    """(TP, FP, FN, TN) with class ``c`` as positive."""
    if not 0 <= c < cm.n_classes:
        raise ValueError(f"class index {c} out of range")
    return _one_vs_rest_all(cm.counts.tolist())[c]


def accuracy(cm: ConfusionMatrix) -> float:
    """Correct predictions over all predictions."""
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(cm.counts)) / cm.total


def _rates(tp: int, fp: int, fn: int, tn: int) -> tuple[float, float, float]:
    """(FP rate, precision, recall) of one class's one-vs-rest counts."""
    return (
        fp / (tn + fp) if tn + fp > 0 else 0.0,
        tp / (tp + fp) if tp + fp > 0 else 0.0,
        tp / (tp + fn) if tp + fn > 0 else 0.0,
    )


def fp_rate(cm: ConfusionMatrix, c: int) -> float:
    """FP / (TN + FP) for class ``c``; 0 when no negatives exist."""
    return _rates(*one_vs_rest(cm, c))[0]


def recall(cm: ConfusionMatrix, c: int) -> float:
    """TP / (TP + FN) for class ``c``; 0 when the class never occurs."""
    return _rates(*one_vs_rest(cm, c))[2]


def precision(cm: ConfusionMatrix, c: int) -> float:
    """TP / (TP + FP) for class ``c``; 0 when the class is never predicted."""
    return _rates(*one_vs_rest(cm, c))[1]


def weighted_average(cm: ConfusionMatrix, per_class_metric: Callable) -> float:
    """Average of a per-class metric weighted by actual class frequency."""
    return _weighted(cm.counts.tolist(), lambda c: per_class_metric(cm, c))


def _weighted(rows: list[list[int]], value: Callable) -> float:
    """``value(c)`` of each class c weighted by the row sums of ``rows``."""
    weights = [sum(row) for row in rows]
    total = sum(weights)
    if total == 0:
        raise ValueError("empty confusion matrix")
    return float(sum(w / total * value(c) for c, w in enumerate(weights)))


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
        return {
            "method": self.method_name,
            "n_samples": self.n_samples,
            "n_features": self.n_features,
            "accuracy": self.accuracy,
            "fp_rate": self.fp_rate,
            "precision": self.precision,
            "recall": self.recall,
            "misclassified": self.misclassified,
        }


def metric_row(cm: ConfusionMatrix, method_name: str, n_features: int) -> MetricRow:
    """Summarise a pooled confusion matrix into one record; the counts are
    read once, and each class's one-vs-rest counts feed all three weighted
    averages."""
    rows = cm.counts.tolist()
    total = sum(map(sum, rows))
    if total == 0:
        raise ValueError("empty confusion matrix")
    correct = sum(row[c] for c, row in enumerate(rows))
    fprs, precisions, recalls = zip(*(_rates(*counts) for counts in _one_vs_rest_all(rows)))
    return MetricRow(
        method_name=method_name,
        n_samples=total,
        n_features=n_features,
        accuracy=float(correct) / total,
        fp_rate=_weighted(rows, fprs.__getitem__),
        precision=_weighted(rows, precisions.__getitem__),
        recall=_weighted(rows, recalls.__getitem__),
        misclassified=total - correct,
    )
