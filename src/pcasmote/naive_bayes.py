"""Gaussian naive Bayes on continuous features.

Class scores are computed entirely in log space: log prior plus the sum of
per-feature Gaussian log densities, with per-class per-feature means and
standard deviations estimated from the training data.  Priors are Laplace
smoothed, ``(count + 1) / (N + n_classes)``, which keeps every class defined
even in degenerate training splits.
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
    n_classes = ds.n_classes
    n = ds.n_samples
    counts = np.bincount(ds.labels, minlength=n_classes)

    priors = (counts + 1.0) / (n + n_classes)
    means = np.zeros((n_classes, ds.n_features))
    stds = np.full((n_classes, ds.n_features), STD_FLOOR)

    with np.errstate(over="ignore", invalid="ignore"):
        for cls in range(n_classes):
            rows = ds.features[ds.labels == cls]
            if rows.shape[0] == 0:
                means[cls] = ds.features.mean(axis=0)
                if n >= 2:
                    stds[cls] = np.maximum(ds.features.std(axis=0, ddof=1), STD_FLOOR)
            elif rows.shape[0] == 1:
                means[cls] = rows[0]
            else:
                means[cls] = rows.mean(axis=0)
                stds[cls] = np.maximum(rows.std(axis=0, ddof=1), STD_FLOOR)
    if not (np.isfinite(means).all() and np.isfinite(stds).all()):
        raise DataError(
            f"{ds.provenance}: the class means or variances of the features "
            "overflow float64"
        )

    return NbModel(
        priors=priors, means=means, stds=stds, class_names=ds.class_names
    )


def _check_vector(model: NbModel, x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != model.n_features:
        raise ValueError(
            f"expected a vector of length {model.n_features}, got shape {v.shape}"
        )
    return v


def log_posterior_matrix(model: NbModel, rows: np.ndarray) -> np.ndarray:
    """(n_rows, n_classes) unnormalised log scores, vectorised."""
    x = np.asarray(rows, dtype=np.float64)[:, None, :]      # (n, 1, f)
    z = (x - model.means[None, :, :]) / model.stds[None, :, :]
    log_density = -0.5 * (z * z) - np.log(model.stds)[None, :, :] - 0.5 * _LOG_2PI
    return np.log(model.priors)[None, :] + log_density.sum(axis=2)


def log_posterior(model: NbModel, x) -> np.ndarray:
    """Per-class log scores for one feature vector (unnormalised)."""
    v = _check_vector(model, x)
    return log_posterior_matrix(model, v[None, :])[0]


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
    return np.argmax(log_posterior_matrix(model, rows), axis=1).astype(np.int64)


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
