import numpy as np
import pytest

from pcasmote import linalg
from pcasmote.dataset import Dataset
from pcasmote.errors import DataError
from pcasmote.pca import (
    PcaModel,
    fit_pca,
    load_pca,
    retained_for_threshold,
    save_pca,
    transform,
)


def dataset_from(features, labels=None):
    features = np.asarray(features, dtype=float)
    n = features.shape[0]
    labels = labels if labels is not None else [i % 2 for i in range(n)]
    return Dataset(
        features=features,
        labels=np.array(labels),
        class_names=("a", "b"),
        feature_names=tuple(f"f{i}" for i in range(features.shape[1])),
    )


def brute_force_projection(ds, model):
    """Independent oracle: explicit per-row mean-subtract, scale, dot products."""
    out = np.zeros((ds.n_samples, model.retained))
    for i in range(ds.n_samples):
        centered = [
            (float(ds.features[i, j]) - float(model.mean[j])) / float(model.scale[j])
            for j in range(ds.n_features)
        ]
        for k in range(model.retained):
            out[i, k] = sum(
                centered[j] * float(model.components[j, k]) for j in range(ds.n_features)
            )
    return out


class TestFit:
    def test_threshold_one_keeps_full_rank(self):
        rng = np.random.default_rng(0)
        ds = dataset_from(rng.normal(size=(10, 4)))
        model = fit_pca(ds, threshold=1.0, mode="covariance")
        assert model.retained == 4  # n_features < n_samples - 1

        wide = dataset_from(rng.normal(size=(5, 9)))
        model = fit_pca(wide, threshold=1.0, mode="covariance")
        assert model.retained == 4  # rank limited by n_samples - 1

    def test_planar_data_needs_two_components(self):
        rng = np.random.default_rng(1)
        basis = np.array(
            [[1.0, 0.0, 1.0, -1.0, 0.5], [0.0, 1.0, -1.0, 0.5, 1.0]]
        )
        coords = rng.normal(size=(40, 2))
        ds = dataset_from(coords @ basis)
        model = fit_pca(ds, threshold=0.99, mode="covariance")
        assert model.retained == 2
        assert np.abs(model.eigenvalues[2:]).max() < 1e-10

    def test_lung_retained_within_band(self, lung):
        model = fit_pca(lung, threshold=0.90, mode="correlation")
        assert 16 <= model.retained <= 20

    def test_coverage_rule_boundary(self, lung):
        model = fit_pca(lung, threshold=0.90, mode="correlation")
        m = model.retained
        assert model.coverage(m) >= 0.90
        assert model.coverage(m - 1) < 0.90

    def test_coverage_ignores_eigenvalues_below_rank_tolerance(self):
        # the 40 tiny eigenvalues are numerical zeros: one component covers all
        eigenvalues = np.array([1.0] + [5e-13] * 40)
        model = PcaModel(
            mean=np.zeros(41),
            scale=np.ones(41),
            components=np.eye(41)[:, :1],
            eigenvalues=eigenvalues,
            retained=retained_for_threshold(eigenvalues, 1.0),
            variance_threshold=1.0,
            mode="covariance",
        )
        assert model.retained == 1
        assert model.coverage(1) == 1.0
        assert model.coverage(0) == 0.0

    def test_monotone_coverage(self, lung):
        previous = 0
        for threshold in (0.3, 0.5, 0.7, 0.9, 0.95, 1.0):
            retained = fit_pca(lung, threshold, "correlation").retained
            assert retained >= previous
            previous = retained

    def test_component_columns_orthonormal(self, lung):
        model = fit_pca(lung, 0.90, "correlation")
        gram = model.components.T @ model.components
        assert np.abs(gram - np.eye(model.retained)).max() < 1e-8

    def test_rejects_bad_threshold(self, lung):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                fit_pca(lung, bad, "correlation")

    def test_rejects_single_sample(self):
        ds = dataset_from([[1.0, 2.0]], labels=[0])
        with pytest.raises(DataError, match="at least two samples, found 1"):
            fit_pca(ds, 0.9, "covariance")

    def test_rejects_missing_cells(self):
        ds = dataset_from([[1.0, np.nan], [2.0, 3.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            fit_pca(ds, 0.9, "covariance")


class TestTransform:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        ds = dataset_from(rng.normal(size=(4, 3)))
        model = fit_pca(ds, 1.0, "covariance")
        projected = transform(model, ds)
        oracle = brute_force_projection(ds, model)
        assert np.abs(projected.features - oracle).max() < 1e-10

    def test_projected_variance_equals_eigenvalue(self):
        rng = np.random.default_rng(3)
        ds = dataset_from(rng.normal(size=(30, 6)) * [1, 2, 3, 1, 5, 1])
        model = fit_pca(ds, 1.0, "covariance")
        projected = transform(model, ds).features
        variances = projected.var(axis=0, ddof=1)
        assert np.abs(variances - model.eigenvalues[: model.retained]).max() < 1e-8

    def test_components_decorrelated(self, lung):
        model = fit_pca(lung, 0.90, "correlation")
        projected = transform(model, lung).features
        cov = linalg.covariance_matrix(projected)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 1e-8

    def test_variance_conservation_at_full_threshold(self, lung):
        model = fit_pca(lung, 1.0, "covariance")
        projected = transform(model, lung).features
        total_projected = projected.var(axis=0, ddof=1).sum()
        total_input = np.trace(linalg.covariance_matrix(lung.features))
        assert abs(total_projected - total_input) < 1e-8

    def test_zero_variance_dataset_maps_to_zero(self):
        ds = dataset_from(np.ones((5, 3)))
        model = fit_pca(ds, 0.9, "covariance")
        projected = transform(model, ds)
        assert np.abs(projected.features).max() == 0.0

    def test_affine_linearity_of_rows(self, lung):
        model = fit_pca(lung, 0.90, "correlation")
        x = lung.features[0]
        y = lung.features[1]
        for a in (0.0, 0.25, 0.5, 0.9, 1.0):
            blend = a * x + (1 - a) * y
            blend_ds = Dataset(
                features=blend[None, :],
                labels=np.array([0]),
                class_names=lung.class_names,
                feature_names=lung.feature_names,
            )
            px = transform(model, lung.subset([0])).features[0]
            py = transform(model, lung.subset([1])).features[0]
            pb = transform(model, blend_ds).features[0]
            assert np.abs(pb - (a * px + (1 - a) * py)).max() < 1e-10

    def test_labels_and_names_carried(self, lung):
        model = fit_pca(lung, 0.90, "correlation")
        projected = transform(model, lung)
        assert np.array_equal(projected.labels, lung.labels)
        assert projected.class_names == lung.class_names
        assert projected.feature_names[0] == "PC1"
        assert projected.feature_names[-1] == f"PC{model.retained}"

    def test_dimension_mismatch_rejected(self, lung):
        model = fit_pca(lung, 0.90, "correlation")
        small = dataset_from(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            transform(model, small)


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path, lung):
        model = fit_pca(lung, 0.90, "correlation")
        path = tmp_path / "pca_model.txt"
        save_pca(model, path)
        back = load_pca(path)
        assert back.mode == model.mode
        assert back.retained == model.retained
        assert back.variance_threshold == model.variance_threshold
        assert np.array_equal(back.mean, model.mean)
        assert np.array_equal(back.scale, model.scale)
        assert np.array_equal(back.eigenvalues, model.eigenvalues)
        assert np.array_equal(back.components, model.components)

    def test_reloaded_model_transforms_identically(self, tmp_path, lung):
        model = fit_pca(lung, 0.90, "correlation")
        path = tmp_path / "pca_model.txt"
        save_pca(model, path)
        back = load_pca(path)
        assert np.array_equal(
            transform(model, lung).features, transform(back, lung).features
        )

    def test_versioned_header(self, tmp_path, lung):
        model = fit_pca(lung, 0.90, "correlation")
        path = tmp_path / "pca_model.txt"
        save_pca(model, path)
        assert path.read_text().splitlines()[0] == "pcasmote-model v1"
