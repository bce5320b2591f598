import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pcasmote import naive_bayes
from pcasmote.dataset import Dataset
from pcasmote.errors import DataError
from pcasmote.naive_bayes import (
    NbModel,
    STD_FLOOR,
    cross_val_predict,
    fit_nb,
    load_nb,
    log_posterior,
    posterior,
    predict,
    predict_matrix,
    save_nb,
)


def make_dataset(features, labels, n_classes=2):
    features = np.asarray(features, dtype=float)
    return Dataset(
        features=features,
        labels=np.asarray(labels),
        class_names=tuple(f"c{i}" for i in range(n_classes)),
        feature_names=tuple(f"f{i}" for i in range(features.shape[1])),
    )


def make_model(priors, means, stds, names=None):
    means = np.asarray(means, dtype=float)
    return NbModel(
        priors=np.asarray(priors, dtype=float),
        means=means,
        stds=np.asarray(stds, dtype=float),
        class_names=names or tuple(f"c{i}" for i in range(means.shape[0])),
    )


class TestFit:
    def test_laplace_priors(self):
        ds = make_dataset([[0.0], [0.1], [0.2], [5.0]], [0, 0, 0, 1])
        model = fit_nb(ds)
        assert model.priors.tolist() == [(3 + 1) / 6, (1 + 1) / 6]

    def test_priors_sum_to_one(self, lung):
        model = fit_nb(lung)
        assert abs(model.priors.sum() - 1.0) < 1e-12
        assert (model.priors > 0).all()

    def test_singleton_class_gets_std_floor(self):
        ds = make_dataset([[1.0], [2.0], [7.0]], [0, 0, 1])
        model = fit_nb(ds)
        assert model.stds[1, 0] == STD_FLOOR
        assert model.means[1, 0] == 7.0

    def test_signed_zero_means(self):
        # a lone row is its own mean; a longer run's mean is np.mean's, summed from +0.0
        ds = make_dataset([[-0.0], [-0.0], [-0.0]], [0, 0, 1])
        model = fit_nb(ds)
        assert np.signbit(model.means[:, 0]).tolist() == [False, True]
        assert np.signbit(np.mean(ds.features[:2], axis=0)).tolist() == [False]

    def test_moments_match_two_pass_oracle(self):
        rng = np.random.default_rng(8)
        features = rng.normal(size=(12, 2))
        labels = [0, 1] * 6
        model = fit_nb(make_dataset(features, labels))
        for cls in (0, 1):
            rows = features[np.array(labels) == cls]
            for j in range(2):
                column = [float(v) for v in rows[:, j]]
                mean = sum(column) / len(column)
                var = sum((v - mean) ** 2 for v in column) / (len(column) - 1)
                assert abs(model.means[cls, j] - mean) < 1e-12
                assert abs(model.stds[cls, j] - math.sqrt(var)) < 1e-12

    def test_absent_class_still_defined(self):
        # degenerate training split: class c2 never observed
        ds = Dataset(
            features=np.array([[0.0], [1.0], [2.0], [3.0]]),
            labels=np.array([0, 0, 1, 1]),
            class_names=("c0", "c1", "c2"),
            feature_names=("f0",),
        )
        model = fit_nb(ds)
        assert model.priors.shape == (3,)
        assert abs(model.priors.sum() - 1.0) < 1e-12
        assert np.isfinite(log_posterior(model, [1.5])).all()

    @pytest.mark.parametrize("rows", [4, 1])
    def test_absent_class_takes_the_global_moments(self, rows):
        ds = Dataset(
            features=np.array([[0.0, 5.0], [1.0, 3.0], [2.5, 4.0], [3.0, 9.0]])[:rows],
            labels=np.array([0, 1, 0, 1])[:rows],
            class_names=("c0", "c1", "c2"),
            feature_names=("f0", "f1"),
        )
        model = fit_nb(ds)
        assert np.array_equal(model.means[2], ds.features.mean(axis=0))
        if rows >= 2:
            expected_std = np.maximum(ds.features.std(axis=0, ddof=1), STD_FLOOR)
        else:
            expected_std = np.full(2, STD_FLOOR)
        assert np.array_equal(model.stds[2], expected_std)

    @pytest.mark.parametrize(
        "column",
        [[1e200, 2e200, 3e200, 4e201], [1.7e308, 1.0, 1.6e308, 2.0]],
        ids=["variance", "mean"],
    )
    def test_overflowing_moments_are_a_data_error(self, column):
        ds = replace(
            make_dataset(np.array(column)[:, None], [0, 1, 0, 1]), provenance="huge.csv"
        )
        with pytest.raises(DataError, match=r"^huge\.csv: .* overflow float64"):
            fit_nb(ds)

    def test_empty_dataset_rejected(self):
        ds = Dataset(
            features=np.empty((0, 2)),
            labels=np.array([], dtype=int),
            class_names=("a",),
            feature_names=("x", "y"),
        )
        with pytest.raises(ValueError):
            fit_nb(ds)


class TestLogPosterior:
    def test_symmetric_midpoint(self):
        model = make_model(
            priors=[0.5, 0.5], means=[[-1.0], [1.0]], stds=[[0.5], [0.5]]
        )
        probs = posterior(model, [0.0])
        assert np.allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_query_at_class_mean_with_tiny_stds(self):
        model = make_model(
            priors=[0.5, 0.5],
            means=[[0.0, 0.0], [3.0, 3.0]],
            stds=[[1e-3, 1e-3], [1e-3, 1e-3]],
        )
        assert posterior(model, [0.0, 0.0])[0] > 0.999

    def test_closed_form_gaussian_ratio(self):
        # means 0 and 2, unit std, equal priors, query 0.5:
        # posterior odds = exp((1.5^2 - 0.5^2)/2) = e
        model = make_model(priors=[0.5, 0.5], means=[[0.0], [2.0]], stds=[[1.0], [1.0]])
        probs = posterior(model, [0.5])
        e = math.e
        assert abs(probs[0] - e / (e + 1)) < 1e-9
        assert abs(probs[1] - 1 / (e + 1)) < 1e-9

    def test_normalisation_property(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            f = int(rng.integers(1, 6))
            raw = rng.random(k) + 0.1
            model = make_model(
                priors=raw / raw.sum(),
                means=rng.normal(size=(k, f)),
                stds=rng.random((k, f)) + 0.05,
            )
            x = rng.normal(size=f) * 10
            assert abs(posterior(model, x).sum() - 1.0) < 1e-9

    def test_no_underflow_many_features(self):
        f = 60
        model = make_model(
            priors=[0.5, 0.5],
            means=[[0.0] * f, [4.0] * f],
            stds=[[0.3] * f, [0.3] * f],
        )
        scores = log_posterior(model, [2.0] * f)
        assert np.isfinite(scores).all()
        assert abs(posterior(model, [0.0] * f)[0] - 1.0) < 1e-9

    def test_dimension_mismatch_rejected(self):
        model = make_model(priors=[1.0], means=[[0.0, 0.0]], stds=[[1.0, 1.0]])
        with pytest.raises(ValueError):
            log_posterior(model, [0.0])


class TestPredict:
    def test_tie_breaks_to_lowest_index(self):
        model = make_model(
            priors=[0.5, 0.5], means=[[-1.0], [1.0]], stds=[[0.5], [0.5]]
        )
        assert predict(model, [0.0]) == 0

    def test_well_separated_means(self):
        model = make_model(
            priors=[0.25, 0.75], means=[[0.0], [10.0]], stds=[[1.0], [1.0]]
        )
        assert predict(model, [0.1]) == 0
        assert predict(model, [9.8]) == 1

    def test_matches_brute_force_density_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            k = int(rng.integers(2, 4))
            f = int(rng.integers(1, 5))
            raw = rng.random(k) + 0.1
            model = make_model(
                priors=raw / raw.sum(),
                means=rng.normal(size=(k, f)),
                stds=rng.random((k, f)) + 0.1,
            )
            x = rng.normal(size=f) * 3

            def density(cls):
                p = float(model.priors[cls])
                for j in range(f):
                    mu = float(model.means[cls, j])
                    sd = float(model.stds[cls, j])
                    p *= math.exp(-((x[j] - mu) ** 2) / (2 * sd * sd)) / (
                        sd * math.sqrt(2 * math.pi)
                    )
                return p

            densities = [density(c) for c in range(k)]
            assert predict(model, x) == densities.index(max(densities))

    def test_shift_equivariance_of_argmax(self):
        rng = np.random.default_rng(12)
        features = rng.normal(size=(20, 3))
        labels = rng.integers(0, 2, size=20).tolist()
        ds = make_dataset(features, labels)
        shifted = make_dataset(features + 100.0, labels)
        model = fit_nb(ds)
        model_shifted = fit_nb(shifted)
        for i in range(20):
            assert predict(model, features[i]) == predict(
                model_shifted, features[i] + 100.0
            )

    def test_prior_monotonicity(self):
        means = [[0.0], [0.0]]
        stds = [[1.0], [1.0]]
        assert predict(make_model([0.9, 0.1], means, stds), [0.3]) == 0
        assert predict(make_model([0.1, 0.9], means, stds), [0.3]) == 1

    def test_predict_matrix_matches_predict(self, lung):
        model = fit_nb(lung)
        batch = predict_matrix(model, lung.features)
        single = [predict(model, row) for row in lung.features]
        assert batch.tolist() == single


class TestSerialization:
    def test_round_trip(self, tmp_path, lung):
        model = fit_nb(lung)
        path = tmp_path / "nb_model.txt"
        save_nb(model, path)
        back = load_nb(path)
        assert back.class_names == model.class_names
        assert np.array_equal(back.priors, model.priors)
        assert np.array_equal(back.means, model.means)
        assert np.array_equal(back.stds, model.stds)

    def test_reloaded_model_predicts_identically(self, tmp_path, lung):
        model = fit_nb(lung)
        path = tmp_path / "nb_model.txt"
        save_nb(model, path)
        back = load_nb(path)
        assert np.array_equal(
            predict_matrix(model, lung.features), predict_matrix(back, lung.features)
        )


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def check_fold_batch(ds: Dataset, fold_of: np.ndarray, block: int) -> None:
    """The fold-batched fit and predictions against one ``fit_nb`` per fold.

    Priors, means and stds match bit for bit, whatever the feature count;
    predictions always match ``predict_matrix``.  ``block``
    replaces the fold block bound, so several blocks and a partial last one
    are exercised.
    """
    k = int(fold_of.max()) + 1
    keep = fold_of[None, :] != np.arange(k)[:, None]
    priors, means, stds = naive_bayes._fit_masked(ds, keep)
    expected = np.full(ds.n_samples, -1)
    for fold in range(k):
        model = fit_nb(ds.subset(np.flatnonzero(fold_of != fold)))
        assert _bits(priors[fold]) == _bits(model.priors)
        assert _bits(means[fold]) == _bits(model.means)
        assert _bits(stds[fold]) == _bits(model.stds)
        test_idx = np.flatnonzero(fold_of == fold)
        expected[test_idx] = predict_matrix(model, ds.features[test_idx])
    with mock.patch.object(naive_bayes, "_BLOCK_ELEMENTS", block):
        predicted = cross_val_predict(ds, fold_of)
    assert predicted.dtype == np.int64
    assert predicted.tolist() == expected.tolist()


@st.composite
def fold_problems(draw):
    """A dataset with duplicate rows, a fold assignment and a block bound."""
    n = draw(st.integers(4, 60))
    f = draw(st.integers(1, 8))
    n_classes = draw(st.integers(2, 4))
    value = st.one_of(
        st.integers(-3, 3).map(float),
        st.just(-0.0),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )
    distinct = draw(st.lists(st.lists(value, min_size=f, max_size=f), min_size=1, max_size=n))
    rows = draw(st.lists(st.sampled_from(distinct), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    k = draw(st.integers(2, n))
    fold_of = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    assume(len(set(fold_of)) >= 2)  # every training set keeps a row
    block = draw(st.integers(1, 2 * n * f))
    ds = make_dataset(rows, labels, n_classes)
    return ds, np.array(fold_of), block


class TestCrossValPredict:
    @settings(max_examples=100, deadline=None)
    @given(problem=fold_problems())
    def test_matches_one_fit_per_fold(self, problem):
        check_fold_batch(*problem)

    @pytest.mark.parametrize("f", [1, 3])
    def test_class_absent_from_a_training_fold(self, f):
        # class 2's rows all sit in fold 0, so fold 0's model takes the global moments
        rng = np.random.default_rng(21)
        labels = [0, 1, 2, 0, 1, 2, 0, 1, 0, 1]
        fold_of = np.array([0, 1, 0, 0, 1, 0, 1, 2, 2, 2])
        ds = make_dataset(rng.normal(size=(10, f)), labels, 3)
        assert 2 not in ds.labels[fold_of != 0]
        check_fold_batch(ds, fold_of, block=1 << 16)

    @pytest.mark.parametrize("f", [1, 3])
    def test_singleton_class_in_a_training_fold(self, f):
        rng = np.random.default_rng(22)
        labels = [0, 0, 0, 0, 1, 1, 0, 0]
        fold_of = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        ds = make_dataset(rng.normal(size=(8, f)), labels)
        # class 1 has one row in each training fold
        assert ds.labels[fold_of != 0].tolist().count(1) == 1
        check_fold_batch(ds, fold_of, block=f)
        _, means, stds = naive_bayes._fit_masked(ds, fold_of[None, :] != 0)
        assert _bits(means[0, 1]) == _bits(ds.features[5])
        assert stds[0, 1].tolist() == [STD_FLOOR] * f

    def test_one_feature_exact_tie(self):
        # fold 0 trains both classes on eight 0.0 rows and one 1.0, so their
        # scores tie and a last-bit difference in a std flips the prediction
        column = [[0.0]] * 25 + [[1.0]] * 2
        labels = [0] * 15 + [1] * 10 + [0, 1]
        fold_of = np.array([0] * 7 + [1] * 8 + [0, 0] + [1] * 10)
        check_fold_batch(make_dataset(column, labels), fold_of, block=1)

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_leave_one_out(self, block):
        rng = np.random.default_rng(23)
        n = 24
        ds = make_dataset(np.round(rng.normal(size=(n, 4)), 1), rng.integers(0, 3, n), 3)
        order = rng.permutation(n)
        check_fold_batch(ds, order, block)

    def test_overflow_is_a_data_error(self):
        column = np.array([1e200, 2e200, 3e200, 4e201, 5e200, 6e201])[:, None]
        ds = replace(make_dataset(column, [0, 1, 0, 1, 0, 1]), provenance="huge.csv")
        fold_of = np.array([0, 0, 1, 1, 2, 2])
        with pytest.raises(DataError, match=r"^huge\.csv: .* overflow float64"):
            cross_val_predict(ds, fold_of)
