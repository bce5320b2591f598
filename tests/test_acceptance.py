"""Acceptance suite: runs every release criterion at its pinned tolerance and
prints one PASS/FAIL line per criterion (use ``pytest -s`` to see them live).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from pcasmote import linalg
from pcasmote.cli import main
from pcasmote.config import load_config
from pcasmote.dataset import Dataset, class_counts
from pcasmote.experiment import run_experiment
from pcasmote.metrics import (
    ConfusionMatrix,
    accuracy,
    confusion_matrix,
    one_vs_rest,
    recall,
    weighted_average,
)
from pcasmote.naive_bayes import NbModel, posterior, predict
from pcasmote.pca import fit_pca, transform
from pcasmote.smote import (
    SmoteConfig,
    balance_sequence,
    nearest_minority_neighbors,
    oversample_class,
)


@contextmanager
def criterion(label: str):
    try:
        yield
    except Exception:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


@pytest.fixture(scope="module")
def default_run(default_config):
    start = time.perf_counter()
    report = run_experiment(load_config(default_config))
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_1_table_structure(default_run):
    report, elapsed = default_run
    with criterion("1 table structure (exact counts, < 5 s)"):
        assert [s.n_samples for s in report.steps] == [32, 32, 41, 49, 54]
        assert [s.class_counts for s in report.steps] == [
            [9, 13, 10],
            [9, 13, 10],
            [18, 13, 10],
            [18, 13, 18],
            [18, 18, 18],
        ]
        assert [s.method_name for s in report.steps] == [
            "Initial",
            "PCA",
            "SMOTE1",
            "SMOTE2",
            "SMOTE3",
        ]
        assert elapsed < 5.0, f"default experiment took {elapsed:.2f}s"


def test_criterion_2_pca_component_count(lung):
    with criterion("2 PCA retained component count (18 +/- 2, < 5 s)"):
        start = time.perf_counter()
        corr_model = fit_pca(lung, threshold=0.90, mode="correlation")
        cov_model = fit_pca(lung, threshold=0.90, mode="covariance")
        elapsed = time.perf_counter() - start
        print(
            f"\n  retained (correlation mode): {corr_model.retained}; "
            f"covariance mode for comparison: {cov_model.retained}"
        )
        assert 16 <= corr_model.retained <= 20
        assert elapsed < 5.0, f"PCA fits took {elapsed:.2f}s"


def test_criterion_3_misclassification_trend(default_run):
    report, elapsed = default_run
    with criterion("3 misclassified-count trend over 20 seeds (< 60 s)"):
        medians = {
            s.method_name: s.summary.misclassified_median for s in report.steps
        }
        assert medians["PCA"] > medians["Initial"]
        assert medians["SMOTE1"] < medians["PCA"]
        assert medians["SMOTE2"] <= medians["SMOTE1"]
        assert medians["SMOTE3"] >= medians["SMOTE2"]
        targets = {"Initial": 12, "PCA": 16, "SMOTE1": 11, "SMOTE2": 9, "SMOTE3": 11}
        for method, target in targets.items():
            assert abs(medians[method] - target) <= 3, (
                f"{method}: median {medians[method]} vs target {target} +/- 3"
            )
        assert elapsed < 60.0, f"evaluation took {elapsed:.2f}s"


def test_criterion_4_rate_improvements(default_run):
    report, _ = default_run
    with criterion("4 SMOTE2 rate targets and gains over Initial"):
        by_name = {s.method_name: s.summary.mean for s in report.steps}
        initial, smote2 = by_name["Initial"], by_name["SMOTE2"]
        assert smote2.accuracy - initial.accuracy >= 0.05
        assert smote2.precision - initial.precision >= 0.05
        assert smote2.recall - initial.recall >= 0.05
        assert initial.fp_rate - smote2.fp_rate >= 0.05
        assert abs(smote2.accuracy - 0.80) <= 0.08
        assert abs(smote2.fp_rate - 0.10) <= 0.08
        assert abs(smote2.precision - 0.813) <= 0.08
        assert abs(smote2.recall - 0.80) <= 0.08


def _eigensolver_properties():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        n = int(rng.integers(2, 33))
        m = rng.normal(size=(n, n)) * rng.uniform(0.5, 3.0)
        a = (m + m.T) / 2.0
        eig = linalg.symmetric_eigen(a)
        v, lam = eig.eigenvectors, eig.eigenvalues
        assert np.abs(v.T @ v - np.eye(n)).max() < 1e-8
        for j in range(n):
            residual = np.abs(a @ v[:, j] - lam[j] * v[:, j]).max()
            assert residual < 1e-8 * max(1.0, abs(lam[j]))
        trace = float(np.trace(a))
        assert abs(lam.sum() - trace) < 1e-9 * max(1.0, abs(trace))
        assert np.abs(v @ np.diag(lam) @ v.T - a).max() < 1e-8


def _pca_properties(lung):
    model = fit_pca(lung, 1.0, "covariance")
    projected = transform(model, lung).features
    cov = linalg.covariance_matrix(projected)
    assert np.abs(cov - np.diag(np.diag(cov))).max() < 1e-8
    assert (
        abs(projected.var(axis=0, ddof=1).sum() - np.trace(linalg.covariance_matrix(lung.features)))
        < 1e-8
    )
    corr_model = fit_pca(lung, 0.90, "correlation")
    x, y = lung.features[3], lung.features[17]
    px = transform(corr_model, lung.subset([3])).features[0]
    py = transform(corr_model, lung.subset([17])).features[0]
    for a in (0.0, 0.3, 0.5, 0.77, 1.0):
        blend = Dataset(
            features=(a * x + (1 - a) * y)[None, :],
            labels=np.array([0]),
            class_names=lung.class_names,
            feature_names=lung.feature_names,
        )
        pb = transform(corr_model, blend).features[0]
        assert np.abs(pb - (a * px + (1 - a) * py)).max() < 1e-10


def _smote_properties(lung):
    model = fit_pca(lung, 0.90, "correlation")
    reduced = transform(model, lung)
    cfg = SmoteConfig(target_class=0, target_count=18, k=5, seed=101)
    once = oversample_class(reduced, cfg)
    again = oversample_class(reduced, cfg)
    assert np.array_equal(once.features, again.features)
    assert np.array_equal(once.labels, again.labels)
    assert np.array_equal(once.features[:32], reduced.features)

    runs = balance_sequence(reduced, [0, 2, 1], 18, k=5, seed=7)
    assert [class_counts(d) for d in runs] == [
        [18, 13, 10],
        [18, 13, 18],
        [18, 18, 18],
    ]

    # convexity of every synthetic row against its parent class
    previous = reduced
    order = [0, 2, 1]
    for run_idx, ds in enumerate(runs):
        target = order[run_idx]
        parents = previous.features[previous.labels == target]
        for row in ds.features[previous.n_samples :]:
            assert _on_some_segment(row, parents, tol=1e-9)
        previous = ds

    # k-NN against an exhaustive-sort oracle on 100 random point sets
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        d = int(rng.integers(1, 6))
        pts = rng.normal(size=(n, d))
        idx = int(rng.integers(n))
        k = int(rng.integers(1, 8))
        got = nearest_minority_neighbors(pts, idx, k)
        table = sorted(
            (float(((pts[j] - pts[idx]) ** 2).sum()), j) for j in range(n) if j != idx
        )
        assert got == [j for _, j in table[: min(k, n - 1)]]


def _on_some_segment(row, parents, tol):
    n = parents.shape[0]
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            diff = parents[b] - parents[a]
            us = []
            ok = True
            for j in range(parents.shape[1]):
                if abs(diff[j]) > tol:
                    us.append((row[j] - parents[a, j]) / diff[j])
                elif abs(row[j] - parents[a, j]) > tol:
                    ok = False
                    break
            if ok and us and max(us) - min(us) < tol and -tol <= us[0] < 1 + tol:
                return True
    return False


def _nb_properties():
    rng = np.random.default_rng(555)
    # posterior normalisation
    for _ in range(50):
        k = int(rng.integers(2, 5))
        f = int(rng.integers(1, 8))
        raw = rng.random(k) + 0.05
        model = NbModel(
            priors=raw / raw.sum(),
            means=rng.normal(size=(k, f)) * 5,
            stds=rng.random((k, f)) + 0.02,
            class_names=tuple(f"c{i}" for i in range(k)),
        )
        x = rng.normal(size=f) * 8
        assert abs(posterior(model, x).sum() - 1.0) < 1e-9

    # closed-form two-class ratio
    model = NbModel(
        priors=np.array([0.5, 0.5]),
        means=np.array([[0.0], [2.0]]),
        stds=np.array([[1.0], [1.0]]),
        class_names=("a", "b"),
    )
    probs = posterior(model, [0.5])
    assert abs(probs[0] - math.e / (math.e + 1)) < 1e-9

    # brute-force prediction oracle on 20 random models
    for _ in range(20):
        k = int(rng.integers(2, 4))
        f = int(rng.integers(1, 5))
        raw = rng.random(k) + 0.1
        model = NbModel(
            priors=raw / raw.sum(),
            means=rng.normal(size=(k, f)),
            stds=rng.random((k, f)) + 0.1,
            class_names=tuple(f"c{i}" for i in range(k)),
        )
        x = rng.normal(size=f) * 2
        densities = []
        for c in range(k):
            p = float(model.priors[c])
            for j in range(f):
                sd = float(model.stds[c, j])
                p *= math.exp(
                    -((x[j] - float(model.means[c, j])) ** 2) / (2 * sd * sd)
                ) / (sd * math.sqrt(2 * math.pi))
            densities.append(p)
        assert predict(model, x) == densities.index(max(densities))


def _metrics_properties():
    rng = np.random.default_rng(909)
    for _ in range(500):
        n = int(rng.integers(2, 6))
        cm = ConfusionMatrix(counts=rng.integers(0, 25, size=(n, n)))
        if cm.total == 0:
            continue
        assert abs(weighted_average(cm, recall) - accuracy(cm)) < 1e-12
        for c in range(n):
            tp, fp, fn, tn = one_vs_rest(cm, c)
            assert tp + fp + fn + tn == cm.total
    # one-vs-rest against a recount oracle
    actual = rng.integers(0, 4, size=200)
    predicted = rng.integers(0, 4, size=200)
    cm = confusion_matrix(actual, predicted, 4)
    for c in range(4):
        tp = int(np.sum((actual == c) & (predicted == c)))
        fp = int(np.sum((actual != c) & (predicted == c)))
        fn = int(np.sum((actual == c) & (predicted != c)))
        tn = int(np.sum((actual != c) & (predicted != c)))
        assert one_vs_rest(cm, c) == (tp, fp, fn, tn)


def test_criterion_5_property_suites(lung):
    with criterion("5 property suites (< 30 s)"):
        start = time.perf_counter()
        _eigensolver_properties()
        _pca_properties(lung)
        _smote_properties(lung)
        _nb_properties()
        _metrics_properties()
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"property suites took {elapsed:.2f}s"


def test_criterion_6_byte_identical_artifacts(tmp_path, default_config):
    with criterion("6 deterministic artifacts (byte-identical reruns)"):
        out_a = tmp_path / "run_a"
        out_b = tmp_path / "run_b"
        for out in (out_a, out_b):
            code = main(
                ["experiment", "--config", str(default_config), "-o", str(out)]
            )
            assert code == 0
        names = [
            "report.json",
            "report.csv",
            "accuracy.csv",
            "fp_rate.csv",
            "precision.csv",
            "recall.csv",
            "misclassified.csv",
        ]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        # the timestamp sidecar is the only artifact allowed to differ
        assert (out_a / "run_meta.json").exists()
