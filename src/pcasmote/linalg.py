"""Minimal dense linear algebra: column statistics and a symmetric eigensolver.

Matrices are plain 2-D ``numpy.ndarray`` of float64 in row-major order.
Everything here is deterministic: the eigensolver's output is sorted and
sign-fixed, so identical input bits give identical output bits on reruns and
across BLAS thread counts (a test pins 1 against 2 threads).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

#: Columns whose sample standard deviation falls below this are treated as
#: constant: their scale becomes 1 and they contribute zero correlation.
SD_FLOOR = 1e-12


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return a


def mean_vector(m) -> np.ndarray:
    """Column means of ``m`` (rows are observations)."""
    a = _as_matrix(m)
    if a.shape[0] < 1:
        raise ValueError("mean_vector needs at least one row")
    return a.mean(axis=0)


def covariance_matrix(m) -> np.ndarray:
    """Sample covariance (divisor n-1) of the columns of ``m``.

    The result is symmetrised explicitly so downstream symmetry checks hold
    to machine precision.
    """
    a = _as_matrix(m)
    n = a.shape[0]
    if n < 2:
        raise ValueError("covariance needs at least two rows")
    centered = a - a.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    return (cov + cov.T) / 2.0


def column_std(m) -> np.ndarray:
    """Per-column sample standard deviation (divisor n-1)."""
    a = _as_matrix(m)
    if a.shape[0] < 2:
        raise ValueError("column_std needs at least two rows")
    return a.std(axis=0, ddof=1)


def correlation_matrix(m) -> np.ndarray:
    """Correlation of the columns of ``m`` as covariance of z-scores.

    Columns with standard deviation below ``SD_FLOOR`` are scaled by 1
    instead, which zeroes their row and column (constant features carry no
    correlation information).
    """
    a = _as_matrix(m)
    if a.shape[0] < 2:
        raise ValueError("correlation needs at least two rows")
    sd = column_std(a)
    scale = np.where(sd < SD_FLOOR, 1.0, sd)
    z = (a - a.mean(axis=0)) / scale
    return covariance_matrix(z)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a symmetric matrix, eigenvalues sorted descending.

    Column ``j`` of ``eigenvectors`` pairs with ``eigenvalues[j]``.  Each
    column is sign-fixed so its entry of largest magnitude (lowest index on
    ties) is nonnegative.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _check_symmetric(a: np.ndarray) -> None:
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is not square: {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    if a.size and float(np.max(np.abs(a - a.T))) > 1e-9 * scale:
        raise ValueError("matrix is not symmetric within 1e-9")


def symmetric_eigen(a) -> EigenDecomposition:
    """Eigenpairs of a finite symmetric matrix via ``numpy.linalg.eigh``.

    Raises ``ValueError`` on non-finite entries (``eigh`` silently returns
    NaN for them) and ``ConvergenceError`` if LAPACK does not converge.
    """
    a = _as_matrix(a)
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    _check_symmetric(a)
    if a.shape[0] == 0:
        raise ValueError("cannot decompose an empty matrix")
    try:
        values, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from None
    return _finish(values, vecs)


def _finish(values: np.ndarray, vecs: np.ndarray) -> EigenDecomposition:
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vecs = vecs[:, order]
    # each column's entry of largest magnitude, lowest index on ties
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    vecs = np.where(lead < 0.0, -vecs, vecs)
    values.flags.writeable = False
    vecs.flags.writeable = False
    return EigenDecomposition(eigenvalues=values, eigenvectors=vecs)
