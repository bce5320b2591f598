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
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (a, p), 1)
    return ConfusionMatrix(counts=counts)


def _one_vs_rest_all(cm: ConfusionMatrix) -> list[tuple[int, int, int, int]]:
    """(TP, FP, FN, TN) of every class as positive, from one read of the counts."""
    rows = cm.counts.tolist()
    total = sum(map(sum, rows))
    return [
        (row[c], sum(column) - row[c], sum(row) - row[c], total - sum(row) - sum(column) + row[c])
        for c, (row, column) in enumerate(zip(rows, zip(*rows)))
    ]


def one_vs_rest(cm: ConfusionMatrix, c: int) -> tuple[int, int, int, int]:
    """(TP, FP, FN, TN) with class ``c`` as positive."""
    if not 0 <= c < cm.n_classes:
        raise ValueError(f"class index {c} out of range")
    return _one_vs_rest_all(cm)[c]


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
    weights = [sum(row) for row in cm.counts.tolist()]
    total = sum(weights)
    if total == 0:
        raise ValueError("empty confusion matrix")
    return float(sum(w / total * per_class_metric(cm, c) for c, w in enumerate(weights)))


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
    """Summarise a pooled confusion matrix into one record; each class's
    one-vs-rest counts are read once and feed all three weighted averages."""
    correct = int(np.trace(cm.counts))
    fprs, precisions, recalls = zip(*(_rates(*counts) for counts in _one_vs_rest_all(cm)))
    return MetricRow(
        method_name=method_name,
        n_samples=cm.total,
        n_features=n_features,
        accuracy=accuracy(cm),
        fp_rate=weighted_average(cm, lambda _, c: fprs[c]),
        precision=weighted_average(cm, lambda _, c: precisions[c]),
        recall=weighted_average(cm, lambda _, c: recalls[c]),
        misclassified=cm.total - correct,
    )
