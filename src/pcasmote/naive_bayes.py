"""Gaussian naive Bayes on continuous features.

Class scores are computed entirely in log space: log prior plus the sum of
per-feature Gaussian log densities, with per-class per-feature means and
standard deviations estimated from the training data.  Priors are Laplace
smoothed, ``(count + 1) / (N + n_classes)``, which keeps every class defined
even in degenerate training splits.

One estimator fits a batch of training sets that are row masks of one
matrix: :func:`fit_nb` is the batch of one (every row kept), and
:func:`cross_val_predict` fits every fold of a fold assignment at once.  The
rows are grouped by class and stacked once per training set, each left-out
row replaced by ``-0.0``, the exact additive identity (``s + -0.0 == s`` for
every ``s``, signed zeros included).  Each class's run of rows is summed
over the row axis, and so are its squared deviations with left-out rows set
to ``0.0``.  numpy adds the rows of a non-innermost axis one after
another, so each fold's moments equal those of a fit on that fold's rows
alone, bit for bit.  A lone feature column would be summed pairwise, where
the inserted zeros regroup the sum, so it is summed beside a copy of itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model_io
from .dataset import Dataset
from .errors import DataError

STD_FLOOR = 1e-6
_LOG_2PI = math.log(2.0 * math.pi)

#: float64 elements in one block of folds' stacked training rows (folds x rows x features)
_BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class NbModel:
    """Fitted classifier: priors plus per-class Gaussian feature parameters."""

    priors: np.ndarray       # (n_classes,)
    means: np.ndarray        # (n_classes, n_features)
    stds: np.ndarray         # (n_classes, n_features), floored at STD_FLOOR
    class_names: tuple[str, ...]

    @property
    def n_classes(self) -> int:
        return self.priors.shape[0]

    @property
    def n_features(self) -> int:
        return self.means.shape[1]


def _segment_sums(stack: np.ndarray, bounds: list[int], initial: float) -> np.ndarray:
    """(B, S, f) sums of ``stack`` (B, n, f) over each segment of rows, in row order."""
    sums = np.empty((stack.shape[0], len(bounds) - 1, stack.shape[2]))
    for s, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        np.add.reduce(stack[:, lo:hi], axis=1, out=sums[:, s], initial=initial)
    return sums


def _segment_moments(features: np.ndarray, order: np.ndarray, keep: np.ndarray, sizes):
    """Counts (B, S), means and floored stds (B, S, f) per row mask and segment.

    The rows ``features[order]`` are cut into S consecutive segments of
    ``sizes`` rows; entry (b, s) describes the rows of segment s that the
    mask ``keep[b]`` (over ``features``' rows) keeps.  The std uses divisor
    ``count - 1`` and is the floor below two rows; a segment with no kept
    row has a NaN mean.  Run under ``np.errstate`` ignoring divide and
    invalid.
    """
    n_features = features.shape[1]
    if n_features == 1:
        features = features[:, [0, 0]]   # two columns: summed row after row
    bounds = [0, *np.cumsum(sizes).tolist()]
    keep = keep[:, order]
    left_out = ~keep
    stack = features[order[None].repeat(keep.shape[0], axis=0)]    # (B, n, f)
    stack[left_out] = -0.0
    counts = keep @ np.repeat(np.eye(len(sizes)), sizes, axis=0)   # whole numbers
    # summed from -0.0, a lone row is its own mean, -0.0 included; adding
    # +0.0 gives a longer run the +0.0 start that np.mean's sum has
    sums = _segment_sums(stack, bounds, -0.0)
    means = np.where(counts[:, :, None] == 1, sums, sums + 0.0) / counts[:, :, None]
    np.subtract(stack, np.repeat(means, sizes, axis=1), out=stack)
    np.square(stack, out=stack)
    stack[left_out] = 0.0
    stds = np.sqrt(_segment_sums(stack, bounds, 0.0) / (counts - 1)[:, :, None])
    stds = np.maximum(stds, STD_FLOOR)
    stds[counts < 2] = STD_FLOOR
    return counts, means[:, :, :n_features], stds[:, :, :n_features]


def _fit_masked(ds: Dataset, keep: np.ndarray):
    """Priors (B, C) and means and stds (B, C, f) fitted on each ``ds`` row mask ``keep[b]``.

    The rows are grouped by class, in their order within each class, so a
    class is one segment.  A class absent from a training set takes that
    set's global column mean and std.  Raises ``DataError`` naming the
    provenance when a mean or a variance in use overflows float64.
    """
    order = np.argsort(ds.labels, kind="stable")
    sizes = np.bincount(ds.labels, minlength=ds.n_classes)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        counts, means, stds = _segment_moments(ds.features, order, keep, sizes)
        absent = (counts == 0)[:, :, None]
        if absent.any():
            _, global_means, global_stds = _segment_moments(
                ds.features, np.arange(ds.n_samples), keep, [ds.n_samples]
            )
            # + 0.0: the global mean of a lone row is np.mean's, from +0.0
            means = np.where(absent, global_means + 0.0, means)
            stds = np.where(absent, global_stds, stds)
    if not (np.isfinite(means).all() and np.isfinite(stds).all()):
        raise DataError(
            f"{ds.provenance}: the class means or variances of the features "
            "overflow float64"
        )
    priors = (counts + 1.0) / (counts.sum(axis=1) + ds.n_classes)[:, None]
    return priors, means, stds


def fit_nb(ds: Dataset) -> NbModel:
    """Estimate priors, means, and standard deviations from a dataset.

    Per class: mean is the sample mean; std uses divisor ``n_c - 1`` when the
    class has at least two samples and the floor otherwise.  A class absent
    from the data falls back to the global column mean and std so its
    (Laplace-smoothed) prior still yields a defined score.

    Raises ``DataError`` naming the provenance when a mean or a variance
    overflows float64.
    """
    if ds.n_samples == 0 or ds.n_features == 0:
        raise ValueError("cannot fit on an empty dataset")
    priors, means, stds = _fit_masked(ds, np.ones((1, ds.n_samples), dtype=bool))
    return NbModel(
        priors=priors[0], means=means[0], stds=stds[0], class_names=ds.class_names
    )


def cross_val_predict(ds: Dataset, fold_of: np.ndarray) -> np.ndarray:
    """Predict each row of ``ds`` with the model fitted on the rows of the other folds.

    ``fold_of[i]`` is row i's fold, in 0..k-1.  The models of a block of
    folds are fitted at once, the block sized so its stacked training rows
    stay near ``_BLOCK_ELEMENTS`` floats; each row is then scored against
    its own fold's model.
    """
    k = int(fold_of.max()) + 1
    predicted = np.empty(ds.n_samples, dtype=np.int64)
    step = max(1, _BLOCK_ELEMENTS // (ds.n_samples * ds.n_features))
    for lo in range(0, k, step):
        block = np.arange(lo, min(lo + step, k))
        priors, means, stds = _fit_masked(ds, fold_of[None, :] != block[:, None])
        rows = np.flatnonzero((fold_of >= lo) & (fold_of < lo + step))
        model = fold_of[rows] - lo
        scores = _log_scores(ds.features[rows], priors[model], means[model], stds[model])
        predicted[rows] = np.argmax(scores, axis=1)
    return predicted


def _check_vector(model: NbModel, x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != model.n_features:
        raise ValueError(
            f"expected a vector of length {model.n_features}, got shape {v.shape}"
        )
    return v


def _log_scores(rows, priors, means, stds) -> np.ndarray:
    """(n_rows, n_classes) log scores of ``rows`` (n, f) against one model's
    ``priors`` (C,), ``means`` and ``stds`` (C, f), or against one model per
    row with a leading axis of n on each."""
    x = np.asarray(rows, dtype=np.float64)[:, None, :]      # (n, 1, f)
    z = (x - means) / stds
    log_density = -0.5 * (z * z) - np.log(stds) - 0.5 * _LOG_2PI
    return np.log(priors) + log_density.sum(axis=2)


def log_posterior(model: NbModel, x) -> np.ndarray:
    """Per-class log scores for one feature vector (unnormalised)."""
    v = _check_vector(model, x)
    return _log_scores(v[None, :], model.priors, model.means, model.stds)[0]


def posterior(model: NbModel, x) -> np.ndarray:
    """Normalised class probabilities (softmax of the log scores)."""
    scores = log_posterior(model, x)
    shifted = np.exp(scores - scores.max())
    return shifted / shifted.sum()


def predict(model: NbModel, x) -> int:
    """Most probable class index; ties break toward the lowest index."""
    return int(np.argmax(log_posterior(model, x)))


def predict_matrix(model: NbModel, rows: np.ndarray) -> np.ndarray:
    """Vectorised ``predict`` over the rows of a matrix."""
    scores = _log_scores(rows, model.priors, model.means, model.stds)
    return np.argmax(scores, axis=1).astype(np.int64)


def save_nb(model: NbModel, path) -> None:
    model_io.write_blocks(
        path,
        kind="naive-bayes",
        scalars={"classes": ",".join(model.class_names)},
        arrays={"priors": model.priors, "means": model.means, "stds": model.stds},
    )


def load_nb(path) -> NbModel:
    scalars, arrays = model_io.read_blocks(path, expected_kind="naive-bayes")
    return NbModel(
        priors=arrays["priors"],
        means=arrays["means"],
        stds=arrays["stds"],
        class_names=tuple(scalars["classes"].split(",")),
    )
