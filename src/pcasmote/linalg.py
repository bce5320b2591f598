"""Dense linear algebra: sample covariance and its n x n Gram dual, a
symmetric eigensolver, the eigenvector sign rule, and ``blocks``, the one
rule that sizes every batched kernel's blocks.

Matrices are float64 ``numpy.ndarray``; a stack of them (G, rows, cols) is
taken in one call, each matrix with the bits it gets alone.  The
eigensolver's output is sorted, so identical input bits give identical
output bits on reruns and across BLAS thread counts (a test pins 1 against
2 threads); its eigenvectors keep LAPACK's signs until ``fix_signs``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

#: float64 elements one block of a batched kernel may hold; ``blocks`` and
#: every other block loop read it at call time
BLOCK_ELEMENTS = 1 << 17


def blocks(keys, cost):
    """Yield ``(key, items)``: the indices of the items whose ``keys`` entry
    is ``key``, for each positive key in ascending order, cut into runs of
    ``max(1, BLOCK_ELEMENTS // cost(key))`` items, in item order.  Items
    whose key is 0 or below are skipped."""
    keys = np.asarray(keys)
    for key in sorted(set(keys[keys > 0].tolist())):
        members = np.flatnonzero(keys == key)
        step = max(1, BLOCK_ELEMENTS // cost(key))
        for lo in range(0, members.size, step):
            yield key, members[lo : lo + step]


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim not in (2, 3):
        raise ValueError(f"expected a 2-D matrix or a stack of them, got ndim={a.ndim}")
    return a


def covariance_matrix(m) -> np.ndarray:
    """Sample covariance (divisor n-1) of the columns of ``m`` (n, f), or of
    each matrix of a stack (G, n, f), with the bits of one at a time.

    The result is symmetrised explicitly so downstream symmetry checks hold
    to machine precision.
    """
    return _centred_products(m, gram=False)[1]


def gram_matrix(m):
    """``(C, C Cᵀ / (n-1))`` for the column-centred rows ``C`` of ``m`` (n, f),
    or of each matrix of a stack (G, n, f): the n x n dual of
    ``covariance_matrix``, centred and symmetrised the same way.  Its nonzero
    eigenvalues are the covariance's, and an eigenvector ``u`` of it gives the
    covariance's eigenvector ``Cᵀ u`` up to its norm."""
    return _centred_products(m, gram=True)


def _centred_products(m, gram: bool):
    a = _as_matrix(m)
    n = a.shape[-2]
    if n < 2:
        raise ValueError("covariance needs at least two rows")
    centered = a - a.mean(axis=-2, keepdims=True)
    transposed = np.swapaxes(centered, -1, -2)
    product = centered @ transposed if gram else transposed @ centered
    product /= n - 1   # in place, here and below: a stack's temporaries are large
    product = product + np.swapaxes(product, -1, -2)
    product /= 2.0
    return centered, product


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a symmetric matrix, or of each matrix of a stack,
    read-only: ``eigenvalues`` (..., f) sorted descending, and column ``j``
    of ``eigenvectors`` (..., f, f), of the sign LAPACK gives it, pairing
    with ``eigenvalues[..., j]``; ``fix_signs`` gives them a fixed sign."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _check_symmetric(a: np.ndarray) -> None:
    if a.shape[-2] != a.shape[-1]:
        raise ValueError(f"matrix is not square: {a.shape[-2:]}")
    if a.size:
        axes = (-2, -1)
        scale = np.maximum(1.0, np.maximum(a.max(axis=axes), -a.min(axis=axes)))
        gap = a - np.swapaxes(a, -1, -2)
        if (np.abs(gap, out=gap).max(axis=axes) > 1e-9 * scale).any():
            raise ValueError("matrix is not symmetric within 1e-9")


def symmetric_eigen(a) -> EigenDecomposition:
    """Eigenpairs of a finite symmetric matrix (f, f), or of each matrix of
    a stack (G, f, f), in one decomposition.  One ``numpy.linalg.eigh`` call
    runs LAPACK once per matrix, so each has the bits it has alone.

    Raises ``ValueError`` on non-finite entries (``eigh`` silently returns
    NaN for them) and ``ConvergenceError`` if LAPACK does not converge on
    some matrix.
    """
    a = _as_matrix(a)
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    _check_symmetric(a)
    if a.shape[-1] == 0:
        raise ValueError("cannot decompose an empty matrix")
    try:
        values, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from None
    order = np.argsort(-values, axis=-1, kind="stable")
    values = np.take_along_axis(values, order, axis=-1)
    vecs = np.take_along_axis(vecs, order[..., None, :], axis=-1)
    values.flags.writeable = vecs.flags.writeable = False
    return EigenDecomposition(eigenvalues=values, eigenvectors=vecs)


def fix_signs(vecs: np.ndarray) -> np.ndarray:
    """``vecs`` (..., n, m), each column negated whose largest-magnitude
    entry (lowest index on ties) is negative: every eigenvector's sign rule."""
    lead = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=-2)[..., None, :], axis=-2)
    return np.where(lead < 0.0, -vecs, vecs)
