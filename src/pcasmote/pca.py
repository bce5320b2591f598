"""Principal component analysis with variance-coverage component selection.

``fit_pca`` eigendecomposes the covariance or correlation matrix of the
training features and keeps the smallest number of leading components whose
cumulative eigenvalue share reaches the requested threshold.  ``transform``
projects rows through ``(x - mean) / scale @ components``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg, model_io
from .dataset import Dataset
from .errors import DataError

#: Eigenvalues below this fraction of the largest one count as zero when
#: computing coverage, so rank-deficient data reaches coverage 1.0 exactly.
RANK_TOL = 1e-12


@dataclass(frozen=True)
class PcaModel:
    """Fitted linear reducer.

    ``components`` is (n_features, retained); column j is the eigenvector
    for ``eigenvalues[j]``.  ``scale`` is all ones in covariance mode and the
    per-feature standard deviation (floored) in correlation mode.
    """

    mean: np.ndarray
    scale: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray
    retained: int
    variance_threshold: float
    mode: str

    @property
    def n_features(self) -> int:
        return self.mean.shape[0]

    def coverage(self, m: int) -> float:
        """Cumulative variance share of the first ``m`` components."""
        shares = _cumulative_coverage(self.eigenvalues)
        return float(shares[min(m, shares.size) - 1]) if m > 0 else 0.0


def _cumulative_coverage(eigenvalues) -> np.ndarray:
    """Variance share of the first 1, 2, ... components of descending
    ``eigenvalues``: negative ones and those below ``RANK_TOL`` of the
    largest (or of 1) count as zero; all zero gives full coverage."""
    clamped = np.maximum(np.asarray(eigenvalues, dtype=np.float64), 0.0)
    if clamped.size == 0:
        raise ValueError("no eigenvalues")
    cutoff = RANK_TOL * max(float(clamped[0]), 1.0)
    clamped[clamped < cutoff] = 0.0
    total = clamped.sum()
    if total == 0.0:
        return np.ones(clamped.size)
    return np.cumsum(clamped) / total


def retained_for_threshold(eigenvalues: np.ndarray, threshold: float) -> int:
    """Smallest component count whose coverage reaches ``threshold``."""
    coverage = _cumulative_coverage(eigenvalues)
    # tiny fp slack so threshold 1.0 stops at the true rank
    reached = np.nonzero(coverage >= threshold - 1e-12)[0]
    return int(reached[0]) + 1


def fit_pca(ds: Dataset, threshold: float, mode: str) -> PcaModel:
    """Fit the reducer on a complete dataset.

    Args:
        ds:        dataset with no missing cells.
        threshold: variance coverage target in (0, 1].
        mode:      "covariance" or "correlation" (z-scored features).

    Raises ``DataError`` naming the provenance on fewer than two samples, or
    when the column statistics or the ``mode`` matrix overflow float64.
    """
    if ds.n_samples < 2:
        raise DataError(
            f"{ds.provenance}: PCA needs at least two samples, found {ds.n_samples}"
        )
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")
    if mode not in ("covariance", "correlation"):
        raise ValueError(f"unknown PCA mode {mode!r}")
    if ds.has_missing():
        raise ValueError("dataset still contains missing cells; impute first")

    with np.errstate(over="ignore", invalid="ignore"):
        mean = linalg.mean_vector(ds.features)
        if mode == "correlation":
            sd = linalg.column_std(ds.features)
            scale = np.where(sd < linalg.SD_FLOOR, 1.0, sd)
            basis = linalg.correlation_matrix(ds.features)
        else:
            scale = np.ones(ds.n_features)
            basis = linalg.covariance_matrix(ds.features)
    if not all(np.isfinite(a).all() for a in (mean, scale, basis)):
        raise DataError(
            f"{ds.provenance}: the {mode} matrix of the features overflows float64"
        )

    eig = linalg.symmetric_eigen(basis)
    retained = retained_for_threshold(eig.eigenvalues, threshold)
    return PcaModel(
        mean=mean,
        scale=scale,
        components=eig.eigenvectors[:, :retained].copy(),
        eigenvalues=eig.eigenvalues.copy(),
        retained=retained,
        variance_threshold=threshold,
        mode=mode,
    )


def transform(model: PcaModel, ds: Dataset) -> Dataset:
    """Project a dataset onto the retained components.

    Labels and class names pass through unchanged; features become
    ``PC1 .. PCm``.
    """
    if ds.n_features != model.n_features:
        raise ValueError(
            f"dataset has {ds.n_features} features, model expects {model.n_features}"
        )
    z = (ds.features - model.mean) / model.scale
    return replace(
        ds,
        features=z @ model.components,
        feature_names=tuple(f"PC{i}" for i in range(1, model.retained + 1)),
    )


def save_pca(model: PcaModel, path) -> None:
    model_io.write_blocks(
        path,
        kind="pca",
        scalars={
            "mode": model.mode,
            "threshold": repr(model.variance_threshold),
            "retained": model.retained,
        },
        arrays={
            "mean": model.mean,
            "scale": model.scale,
            "eigenvalues": model.eigenvalues,
            "components": model.components,
        },
    )


def load_pca(path) -> PcaModel:
    scalars, arrays = model_io.read_blocks(path, expected_kind="pca")
    return PcaModel(
        mean=arrays["mean"],
        scale=arrays["scale"],
        components=arrays["components"],
        eigenvalues=arrays["eigenvalues"],
        retained=int(scalars["retained"]),
        variance_threshold=float(scalars["threshold"]),
        mode=scalars["mode"],
    )
