"""Principal component analysis with variance-coverage component selection
(README, "The pipeline", step 2).

``fit_pca`` decomposes the covariance or correlation matrix of the features,
or where there are fewer rows than features their Gram matrix (``_basis``),
and keeps the fewest leading components whose cumulative eigenvalue share
reaches the threshold.  The fit is stated once, for a stack of matrices:
``fit_pca`` is its stack of one, and ``fit_pca_subsets`` fits the row
subsets of one matrix a stack at a time, each with the bits of its own
``fit_pca``.  ``transform`` projects rows by ``(x - mean) / scale @ components``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .dataset import Dataset
from .errors import ConvergenceError, DataError

#: Correlation mode divides each centred column by its sample standard
#: deviation (divisor n-1); a column whose sd is below this is constant and
#: keeps scale 1, so its z-scores are zero and it adds zero correlation.
SD_FLOOR = 1e-12

#: The two matrices a PCA can decompose: the covariance matrix, or the
#: correlation matrix of the z-scored features.
PCA_MODES = ("covariance", "correlation")

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

    @property
    def n_features(self) -> int:
        return self.mean.shape[0]


def _cumulative_coverage(eigenvalues) -> np.ndarray:
    """Variance share of the first 1, 2, ... components of descending
    ``eigenvalues`` (..., f), row by row: negative ones and those below
    ``RANK_TOL`` of the largest (or of 1) count as zero; all zero gives 1."""
    clamped = np.maximum(np.asarray(eigenvalues, dtype=np.float64), 0.0)
    if clamped.shape[-1] == 0:
        raise ValueError("no eigenvalues")
    clamped[clamped < RANK_TOL * np.maximum(clamped[..., :1], 1.0)] = 0.0
    total = clamped.sum(axis=-1, keepdims=True)
    coverage = np.ones_like(clamped)
    return np.divide(np.cumsum(clamped, axis=-1), total, out=coverage, where=total > 0.0)


def retained_for_threshold(eigenvalues: np.ndarray, threshold: float) -> np.ndarray:
    """Smallest component count whose coverage reaches ``threshold``, for
    each row of a stack of eigenvalues (..., f): an int array (...)."""
    # tiny fp slack so threshold 1.0 stops at the true rank
    return np.argmax(_cumulative_coverage(eigenvalues) >= threshold - 1e-12, axis=-1) + 1


def fit_pca(ds: Dataset, threshold: float, mode: str) -> PcaModel:
    """The reducer of a complete dataset, keeping the fewest components whose
    coverage reaches ``threshold`` in (0, 1]; ``mode`` is "covariance" or
    "correlation" (z-scored features).

    Raises ``DataError`` naming the provenance on fewer than two samples, or
    when the column statistics or the ``mode`` matrix overflow float64;
    ``ConvergenceError`` if LAPACK fails.
    """
    if ds.n_samples < 2:
        raise DataError(
            f"{ds.provenance}: PCA needs at least two samples, found {ds.n_samples}"
        )
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")
    if mode not in PCA_MODES:
        raise ValueError(f"unknown PCA mode {mode!r}")
    if ds.has_missing():
        raise ValueError("dataset still contains missing cells; impute first")

    model, = _fit_stack(ds.features[None], threshold, mode)
    if model is None:
        raise DataError(
            f"{ds.provenance}: the {mode} matrix of the features overflows float64"
        )
    return model


def fit_pca_subsets(
    features: np.ndarray, keep: np.ndarray, threshold: float, mode: str
) -> list[PcaModel | None]:
    """``fit_pca`` of each row subset ``features[keep[b]]``, or None where it
    would raise (fewer than two rows, an overflow, an eigensolver failure).
    ``features`` is complete; ``threshold`` and ``mode`` are ones
    ``fit_pca`` accepts.  Subsets of one row count are stacked in
    ``linalg.blocks`` of (n + f) x f floats a subset.
    """
    models: list[PcaModel | None] = [None] * len(keep)
    sizes = keep.sum(axis=1)
    f = features.shape[1]
    for size, group in linalg.blocks(np.where(sizes < 2, 0, sizes), lambda n: (n + f) * f):
        stack = features[np.nonzero(keep[group])[1].reshape(group.size, size)]
        try:
            fits = _fit_stack(stack, threshold, mode)
        except ConvergenceError:
            fits = [_fit_alone(one, threshold, mode) for one in stack]
        del stack   # the next group's stack would otherwise sit beside it
        for b, model in zip(group.tolist(), fits):
            models[b] = model
    return models


def _fit_alone(features: np.ndarray, threshold: float, mode: str) -> PcaModel | None:
    """``_fit_stack`` of one matrix, None where the eigensolver fails."""
    try:
        return _fit_stack(features[None], threshold, mode)[0]
    except ConvergenceError:
        return None


def _fit_stack(stack: np.ndarray, threshold: float, mode: str) -> list[PcaModel | None]:
    """The reducer of each (n, f) matrix of ``stack`` (G, n, f), or None where
    its column statistics or its ``mode`` matrix overflow float64.  Raises
    ``ConvergenceError`` if LAPACK fails on any matrix.  Gram eigenvalues
    are padded with zeros to length f; the leading f-vectors are sign-fixed
    once, on either path, and each model keeps its ``retained`` columns.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean, scale, basis, rows = _basis(stack, mode)
    finite = (
        np.isfinite(mean).all(axis=1)
        & np.isfinite(scale).all(axis=1)
        & np.isfinite(basis).all(axis=(1, 2))
    )
    if not finite.all():
        basis = basis[finite]
        rows = None if rows is None else rows[finite]
    eig = linalg.symmetric_eigen(basis)
    eigenvalues = np.zeros((len(basis), stack.shape[-1]))
    eigenvalues[:, : basis.shape[-1]] = eig.eigenvalues
    retained = retained_for_threshold(eigenvalues, threshold)
    # two columns at least: numpy sums a lone column's map and norm in another
    # order, and a model that retains one must have the same bits in any stack
    vectors = eig.eigenvectors[..., : retained.max(initial=2)]
    vectors = linalg.fix_signs(vectors if rows is None else _snapshot(rows, vectors))
    models: list[PcaModel | None] = [None] * len(stack)
    fitted = zip(np.flatnonzero(finite).tolist(), eigenvalues, vectors, retained.tolist())
    for g, values, vecs, r in fitted:
        models[g] = PcaModel(
            mean=mean[g],
            scale=scale[g],
            components=vecs[:, :r] + 0.0,  # a zero is +0.0, whatever LAPACK's sign
            eigenvalues=values,
            retained=r,
        )
    return models


def _basis(features: np.ndarray, mode: str):
    """(column means, scales, matrices to decompose, centred rows) of
    ``features`` (..., n, f) under ``mode``, whose rows ``Z`` are the
    features or their z-scores.  With n >= f the matrix is the f x f
    covariance of ``Z`` and the rows are None; with n < f the rows are the
    centred ``Z`` and the matrix their n x n Gram matrix, whose eigenvalues
    are the covariance's nonzero ones and whose eigenvectors ``_snapshot``
    maps to the covariance's (Sirovich, 1987; Turk & Pentland, 1991)."""
    mean = features.mean(axis=-2)
    if mode == "covariance":
        scale, z = np.ones(mean.shape), features
    else:
        sd = features.std(axis=-2, ddof=1)
        scale = np.where(sd < SD_FLOOR, 1.0, sd)
        z = features - mean[..., None, :]
        z /= scale[..., None, :]
    if features.shape[-2] >= features.shape[-1]:
        return mean, scale, linalg.covariance_matrix(z), None
    rows, gram = linalg.gram_matrix(z)
    return mean, scale, gram, rows


def _snapshot(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The covariance eigenvectors ``rowsᵀ u`` of the Gram eigenvectors ``u``
    (G, n, m) of each matrix of centred ``rows`` (G, n, f), each divided by
    its norm (in exact arithmetic ``sqrt((n-1) λ)``), of ``u``'s sign.  A
    column of zeros, from rows that are all equal, becomes the unit vector
    the f x f path gives them."""
    v = np.swapaxes(rows, -1, -2) @ u
    norm = np.linalg.norm(v, axis=-2)
    g, j = np.nonzero(norm == 0.0)
    v[g, j, j] = 1.0
    norm[g, j] = 1.0
    v /= norm[:, None, :]
    return v


def project(model: PcaModel, features: np.ndarray) -> np.ndarray:
    """The rows of ``features`` (n, f) on the retained components."""
    z = (features - model.mean) / model.scale
    return z @ model.components


def transform(model: PcaModel, ds: Dataset) -> Dataset:
    """``ds`` projected onto the retained components, as features ``PC1 ..
    PCm``; labels and class names pass through unchanged."""
    if ds.n_features != model.n_features:
        raise ValueError(
            f"dataset has {ds.n_features} features, model expects {model.n_features}"
        )
    return replace(
        ds,
        features=project(model, ds.features),
        feature_names=tuple(f"PC{i}" for i in range(1, model.retained + 1)),
    )
