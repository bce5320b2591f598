import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pcasmote import linalg
from pcasmote.errors import ConvergenceError


def naive_column_means(m):
    """Independent oracle: plain double loop, no numpy reductions."""
    rows, cols = m.shape
    out = []
    for j in range(cols):
        total = 0.0
        for i in range(rows):
            total += float(m[i, j])
        out.append(total / rows)
    return out


def naive_covariance(m):
    """Independent O(n^2 p^2)-ish oracle with explicit loops."""
    rows, cols = m.shape
    means = naive_column_means(m)
    cov = [[0.0] * cols for _ in range(cols)]
    for a in range(cols):
        for b in range(cols):
            s = 0.0
            for i in range(rows):
                s += (float(m[i, a]) - means[a]) * (float(m[i, b]) - means[b])
            cov[a][b] = s / (rows - 1)
    return np.array(cov)


class TestMeanVector:
    def test_two_by_two(self):
        assert linalg.mean_vector([[1, 3], [3, 5]]).tolist() == [2, 4]

    def test_single_row_is_identity(self):
        row = [[7.0, -2.0, 0.5]]
        assert linalg.mean_vector(row).tolist() == [7.0, -2.0, 0.5]

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            linalg.mean_vector(np.empty((0, 3)))

    def test_matches_naive_oracle_on_lung_features(self, lung):
        means = linalg.mean_vector(lung.features)
        assert means.shape == (56,)
        oracle = naive_column_means(lung.features)
        assert np.allclose(means, oracle, atol=1e-12)


class TestCovariance:
    def test_hand_case(self):
        cov = linalg.covariance_matrix([[0, 0], [2, 2]])
        assert np.allclose(cov, [[2, 2], [2, 2]])

    def test_symmetric_and_nonnegative_diagonal(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            m = rng.normal(size=(7, 4))
            cov = linalg.covariance_matrix(m)
            assert np.abs(cov - cov.T).max() < 1e-12
            assert (np.diag(cov) >= 0).all()

    def test_matches_double_loop_oracle(self):
        m = np.random.default_rng(7).normal(size=(5, 3))
        assert np.abs(linalg.covariance_matrix(m) - naive_covariance(m)).max() < 1e-12

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            linalg.covariance_matrix([[1.0, 2.0]])


class TestCorrelation:
    def test_perfectly_correlated_columns(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        assert np.allclose(linalg.correlation_matrix(m), [[1, 1], [1, 1]])

    def test_orthogonal_columns_uncorrelated(self):
        # columns constructed orthogonal after centering
        m = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        corr = linalg.correlation_matrix(m)
        assert abs(corr[0, 1]) < 1e-12
        assert np.allclose(np.diag(corr), 1.0)

    def test_matches_zscore_oracle(self):
        m = np.random.default_rng(11).normal(size=(6, 4))
        # oracle: covariance of z-scored columns, all loops
        means = naive_column_means(m)
        sds = [
            math.sqrt(sum((float(m[i, j]) - means[j]) ** 2 for i in range(6)) / 5)
            for j in range(4)
        ]
        z = np.array(
            [[(float(m[i, j]) - means[j]) / sds[j] for j in range(4)] for i in range(6)]
        )
        assert np.abs(linalg.correlation_matrix(m) - naive_covariance(z)).max() < 1e-10

    def test_entries_bounded(self):
        m = np.random.default_rng(3).normal(size=(9, 5))
        corr = linalg.correlation_matrix(m)
        assert (np.abs(corr) <= 1.0 + 1e-12).all()

    def test_constant_column_contributes_zero(self):
        m = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        corr = linalg.correlation_matrix(m)
        assert corr[0, 1] == 0.0 and corr[1, 1] == 0.0


def random_symmetric(rng, n):
    m = rng.normal(size=(n, n))
    return (m + m.T) / 2.0


class TestJacobi:
    """Properties of ``linalg.symmetric_eigen``; the class name predates it."""

    def test_identity(self):
        eig = linalg.symmetric_eigen(np.eye(3))
        assert np.allclose(eig.eigenvalues, [1, 1, 1])
        # columns form a signed permutation of the identity
        assert np.allclose(np.abs(eig.eigenvectors) @ np.abs(eig.eigenvectors).T, np.eye(3))

    def test_textbook_two_by_two(self):
        eig = linalg.symmetric_eigen([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(eig.eigenvalues, [3.0, 1.0])
        r = 1 / math.sqrt(2)
        assert np.allclose(eig.eigenvectors[:, 0], [r, r])
        assert np.allclose(eig.eigenvectors[:, 1], [r, -r])

    def test_trace_identity_random(self):
        rng = np.random.default_rng(5)
        a = random_symmetric(rng, 8)
        eig = linalg.symmetric_eigen(a)
        assert abs(eig.eigenvalues.sum() - np.trace(a)) < 1e-9 * max(abs(np.trace(a)), 1)

    def test_orthonormal_residual_reconstruction(self):
        rng = np.random.default_rng(17)
        for n in (2, 5, 12, 20):
            a = random_symmetric(rng, n)
            eig = linalg.symmetric_eigen(a)
            v = eig.eigenvectors
            assert np.abs(v.T @ v - np.eye(n)).max() < 1e-8
            for j in range(n):
                lam = eig.eigenvalues[j]
                residual = np.abs(a @ v[:, j] - lam * v[:, j]).max()
                assert residual < 1e-8 * max(1.0, abs(lam))
            assert np.abs(v @ np.diag(eig.eigenvalues) @ v.T - a).max() < 1e-8

    def test_descending_order(self):
        a = random_symmetric(np.random.default_rng(23), 10)
        values = linalg.symmetric_eigen(a).eigenvalues
        assert all(values[i] >= values[i + 1] for i in range(len(values) - 1))

    def test_covariance_eigenvalues_nonnegative(self, lung):
        for basis in (
            linalg.covariance_matrix(lung.features),
            linalg.correlation_matrix(lung.features),
        ):
            values = linalg.symmetric_eigen(basis).eigenvalues
            assert (values >= -1e-10).all()

    def test_reconstruction_at_sixtyfour(self):
        a = random_symmetric(np.random.default_rng(64), 64)
        eig = linalg.symmetric_eigen(a)
        v = eig.eigenvectors
        assert np.abs(v @ np.diag(eig.eigenvalues) @ v.T - a).max() < 1e-8

    def test_sign_convention(self):
        a = random_symmetric(np.random.default_rng(29), 6)
        v = linalg.symmetric_eigen(a).eigenvectors
        for j in range(6):
            lead = int(np.argmax(np.abs(v[:, j])))
            assert v[lead, j] >= 0

    def test_deterministic(self):
        a = random_symmetric(np.random.default_rng(31), 9)
        e1 = linalg.symmetric_eigen(a)
        e2 = linalg.symmetric_eigen(a)
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
        assert np.array_equal(e1.eigenvectors, e2.eigenvectors)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            linalg.symmetric_eigen(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            linalg.symmetric_eigen([[1.0, 2.0], [0.5, 1.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        a = np.eye(3)
        a[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            linalg.symmetric_eigen(a)

    def test_convergence_error_type_exists(self):
        # the CLI maps it to exit 4 (see test_cli); check it stays an Exception
        assert issubclass(ConvergenceError, Exception)


@pytest.mark.parametrize("n", [1, 2, 7, 33])
def test_sign_fix_matches_column_loop(n):
    # rounded entries give repeated magnitudes and zero columns give
    # signed zeros, so ties and -0.0 are compared bit for bit
    rng = np.random.default_rng(n)
    vecs = np.round(rng.normal(size=(n, n)), 1)
    vecs[:, n // 2] = 0.0
    vecs[0, n // 2] = -0.0
    values = np.round(rng.normal(size=n), 1)
    got = linalg._finish(values, vecs).eigenvectors
    order = np.argsort(-values, kind="stable")
    want = vecs[:, order].copy()
    for j in range(n):
        col = want[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            want[:, j] = -col
    assert got.tobytes() == want.tobytes()


_HASH_EIGEN_SCRIPT = """
import hashlib, sys
from pcasmote import linalg
from pcasmote.dataset import impute_missing, load_uci_lung_cancer
ds = impute_missing(load_uci_lung_cancer(sys.argv[1]), "mode")
h = hashlib.sha256()
for basis in (linalg.correlation_matrix(ds.features), linalg.covariance_matrix(ds.features)):
    eig = linalg.symmetric_eigen(basis)
    h.update(eig.eigenvalues.tobytes())
    h.update(eig.eigenvectors.tobytes())
print(h.hexdigest())
"""


def test_eigen_bits_independent_of_blas_threads(data_file):
    src = str(Path(linalg.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _HASH_EIGEN_SCRIPT, str(data_file)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]
