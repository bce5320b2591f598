import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pcasmote import experiment, linalg, naive_bayes
from pcasmote.dataset import Dataset
from pcasmote.errors import DataError
from pcasmote.smote import balance_sequence
from pcasmote.naive_bayes import (
    NbModel,
    STD_FLOOR,
    chain_predict,
    class_moments,
    finite_fits,
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
        path = tmp_path / "nb_model.json"
        save_nb(model, path)
        back = load_nb(path)
        assert back.class_names == model.class_names
        assert np.array_equal(back.priors, model.priors)
        assert np.array_equal(back.means, model.means)
        assert np.array_equal(back.stds, model.stds)

    def test_reloaded_model_predicts_identically(self, tmp_path, lung):
        model = fit_nb(lung)
        path = tmp_path / "nb_model.json"
        save_nb(model, path)
        back = load_nb(path)
        assert np.array_equal(
            predict_matrix(model, lung.features), predict_matrix(back, lung.features)
        )


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def check_fold_batch(ds: Dataset, stack: np.ndarray, block: int) -> None:
    """The fits and predictions of ``experiment._fold_predictions`` against
    one ``fit_nb`` per (seed, fold) model of the fold ``stack``.

    ``class_moments`` of every model's kept rows give its training fold's
    ``fit_nb`` priors, means and stds bit for bit, whatever the feature
    count; its predictions, a chain of no stage, are ``predict_matrix``'s.
    ``block`` replaces the block budget, so several blocks and a partial
    last one are exercised.
    """
    k = int(stack.max()) + 1
    seed, fold = np.divmod(np.arange(len(stack) * k), k)
    keep = stack[seed] != fold[:, None]
    counts, means, stds = class_moments(ds, ds.features[None], keep)
    expected = np.full(stack.shape, -1)
    for b, in_train in enumerate(keep):
        model = fit_nb(ds.subset(np.flatnonzero(in_train)))
        assert _bits(naive_bayes._laplace_priors(counts[b])) == _bits(model.priors)
        assert _bits(means[b]) == _bits(model.means)
        assert _bits(stds[b]) == _bits(model.stds)
        expected[seed[b], ~in_train] = predict_matrix(model, ds.features[~in_train])
    with mock.patch.object(linalg, "BLOCK_ELEMENTS", block):
        predicted, widths = experiment._fold_predictions(ds, stack, range(len(stack)))
    assert predicted.dtype == np.int64 and predicted.shape == (len(stack), 1, ds.n_samples)
    assert predicted[:, 0].tolist() == expected.tolist()
    assert widths == [ds.n_features] * len(stack)


@st.composite
def moment_stacks(draw):
    """A rows-outermost (L, B, f) stack, B from 1 to 6 and f from 1 to 4,
    cut into segments of 0 to 12 rows, with -0.0 rows and magnitudes up to
    1e300, and an (L, B) mask whose density is drawn too."""
    n_sets, f = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(0, 12), min_size=1, max_size=4))
    rows = sum(sizes)
    value = st.one_of(
        st.integers(-3, 3).map(float),
        st.just(-0.0),
        st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
    )
    stack = draw(hnp.arrays(np.float64, (rows, n_sets, f), elements=value))
    stack[draw(hnp.arrays(bool, rows))] = -0.0
    keep = draw(hnp.arrays(np.int64, (rows, n_sets), elements=st.integers(0, 9)))
    keep = keep < draw(st.integers(0, 10))
    return stack, keep, sizes


class TestStackMoments:
    @settings(max_examples=100, deadline=None)
    @given(problem=moment_stacks())
    def test_each_set_as_a_batch_of_one(self, problem):
        """Every set's counts, means and stds equal, bit for bit, those of a
        batch of one of its column of the stack, and of its kept rows alone,
        whatever B * f, including the lone column that is copied."""
        stack, keep, sizes = problem
        counts, means, stds = naive_bayes.stack_moments(stack.copy(), keep, sizes)
        assert counts.shape == keep.shape[1:] + (len(sizes),)
        assert means.flags.c_contiguous and stds.flags.c_contiguous
        assert means.shape == stds.shape == counts.shape + stack.shape[2:]
        for b in range(stack.shape[1]):
            kept = stack[keep[:, b], b][:, None]
            for one_stack, one_keep, one_sizes in (
                (stack[:, b : b + 1], keep[:, b : b + 1], sizes),
                (kept, np.ones(kept.shape[:2], dtype=bool), counts[b].astype(int)),
            ):
                one = naive_bayes.stack_moments(one_stack.copy(), one_keep, one_sizes)
                assert counts[b].tolist() == one[0][0].tolist()
                assert means[b].tobytes() == one[1][0].tobytes()
                assert stds[b].tobytes() == one[2][0].tobytes()


@st.composite
def fold_problems(draw):
    """A dataset with duplicate rows and classes of at least two rows, a
    fold stack that ``_fold_stack`` draws for 1 to 4 seeds under either
    protocol, and a block budget."""
    f = draw(st.integers(1, 8))
    sizes = draw(st.lists(st.integers(2, 15), min_size=2, max_size=4))
    n = sum(sizes)
    value = st.one_of(
        st.integers(-3, 3).map(float),
        st.just(-0.0),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )
    distinct = draw(st.lists(st.lists(value, min_size=f, max_size=f), min_size=1, max_size=n))
    rows = draw(st.lists(st.sampled_from(distinct), min_size=n, max_size=n))
    labels = draw(st.permutations(np.repeat(np.arange(len(sizes)), sizes).tolist()))
    ds = make_dataset(rows, labels, len(sizes))
    protocol = draw(st.sampled_from(["k-fold", "leave-one-out"]))
    seeds = draw(st.lists(st.integers(0, 99), min_size=1, max_size=4, unique=True))
    stack = experiment._fold_stack(ds, protocol, draw(st.integers(2, n)), seeds)
    return ds, stack, draw(st.integers(1, 2 * n * f))


@st.composite
def fold_stacks(draw):
    """A dataset, a fold stack that ``_fold_stack`` draws for 2 to 5 seeds,
    and a block of ``step`` models that spans seeds (``step`` does not
    divide the fold count) and leaves a partial last block."""
    f = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(2, 12), min_size=2, max_size=3))
    n = sum(sizes)
    value = st.one_of(st.integers(-3, 3).map(float), st.just(-0.0), st.floats(-1e3, 1e3))
    rows = draw(st.lists(st.lists(value, min_size=f, max_size=f), min_size=n, max_size=n))
    labels = draw(st.permutations(np.repeat(np.arange(len(sizes)), sizes).tolist()))
    ds = make_dataset(rows, labels, len(sizes))
    k = draw(st.integers(2, n))
    seeds = draw(st.lists(st.integers(0, 99), min_size=2, max_size=5, unique=True))
    stack = experiment._fold_stack(ds, "k-fold", k, seeds)
    step = draw(st.integers(2, len(seeds) * k - 1))
    assume(len(seeds) * k % step and k % step)
    return ds, stack, step


class TestFoldPredictions:
    """``experiment._fold_predictions``, the one loop over (seed, fold)
    models, on a plain dataset, as Initial, each ``whole-dataset`` method
    and ``evaluate`` use it."""

    @settings(max_examples=100, deadline=None)
    @given(problem=fold_problems())
    def test_matches_one_fit_per_fold(self, problem):
        check_fold_batch(*problem)

    @settings(max_examples=100, deadline=None)
    @given(problem=fold_stacks())
    def test_stack_matches_one_call_per_seed(self, problem):
        """Blocks that share (seed, fold) models across seeds give each seed's
        predictions bit for bit as its own call does."""
        ds, stack, step = problem
        expected = [
            experiment._fold_predictions(ds, stack[s : s + 1], [s])[0] for s in range(len(stack))
        ]
        with mock.patch.object(linalg, "BLOCK_ELEMENTS", step * ds.n_samples * ds.n_features):
            predicted, _ = experiment._fold_predictions(ds, stack, range(len(stack)))
        assert predicted.tolist() == np.concatenate(expected).tolist()

    @pytest.mark.parametrize("f", [1, 3])
    def test_singleton_class_in_a_training_fold(self, f):
        rng = np.random.default_rng(22)
        labels = [0, 0, 0, 0, 1, 1, 0, 0]
        ds = make_dataset(rng.normal(size=(8, f)), labels)
        stack = experiment._fold_stack(ds, "k-fold", 2, (3,))
        # class 1 has one row in each training fold
        assert [ds.labels[stack[0] != fold].tolist().count(1) for fold in (0, 1)] == [1, 1]
        check_fold_batch(ds, stack, block=f)
        kept = np.flatnonzero((stack[0] != 0) & (ds.labels == 1))
        _, means, stds = class_moments(ds, ds.features[None], stack[:1] != 0)
        assert _bits(means[0, 1]) == _bits(ds.features[kept[0]])
        assert stds[0, 1].tolist() == [STD_FLOOR] * f

    def test_one_feature_exact_tie(self):
        # seed 2's training folds each hold eight 0.0 rows and one 1.0 of
        # both classes, so their scores tie and a last-bit difference in a
        # std flips the prediction
        column = [[0.0]] * 32 + [[1.0]] * 4
        ds = make_dataset(column, [0, 1] * 18)
        stack = experiment._fold_stack(ds, "k-fold", 2, (2,))
        for fold in (0, 1):
            train = stack[0] != fold
            ones = [ds.features[train & (ds.labels == c), 0].tolist().count(1.0) for c in (0, 1)]
            assert ones == [1, 1]
        check_fold_batch(ds, stack, block=1)

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_leave_one_out(self, block):
        rng = np.random.default_rng(23)
        n = 24
        labels = rng.permutation(np.arange(n) % 3)
        ds = make_dataset(np.round(rng.normal(size=(n, 4)), 1), labels, 3)
        check_fold_batch(ds, experiment._fold_stack(ds, "leave-one-out", 10, (1,)), block)

    def test_overflow_is_a_data_error(self):
        """An overflowing fit raises the ``DataError`` of ``fit_nb`` on the
        first failing model's training fold, which it names with its seed."""
        column = np.array([1e200, 2e200, 3e200, 4e201, 5e200, 6e201])[:, None]
        ds = replace(make_dataset(column, [0, 1, 0, 1, 0, 1]), provenance="huge.csv")
        stack = experiment._fold_stack(ds, "k-fold", 3, (5,))
        with pytest.raises(
            DataError, match=r"^huge\.csv, training fold 1 of seed 5: .* overflow float64"
        ):
            experiment._fold_predictions(ds, stack, (5,))


def set_fit(ds: Dataset):
    """``class_moments`` of every row of ``ds``, a batch of one."""
    return class_moments(ds, ds.features[None], np.ones((1, ds.n_samples), dtype=bool))


def check_chain(train: Dataset, order, target: int, k: int, seed: int, rows) -> None:
    """``chain_predict`` from the fits of ``train`` and of the last set of
    the SMOTE chain that ``balance_sequence`` builds from it, against one
    ``fit_nb`` per stage: equal predictions, or, where a stage's fit raises
    the overflow ``DataError``, one of the two fits not finite."""
    stages = [train] + balance_sequence(train, order, target, k=k, seed=seed)
    fits = [set_fit(ds) for ds in (train, stages[-1])]
    finite = all(finite_fits(*fit[1:])[0] for fit in fits)
    with np.errstate(over="ignore", invalid="ignore"):  # huge rows score -inf
        try:
            expected = np.stack([predict_matrix(fit_nb(ds), rows) for ds in stages])
        except DataError:
            assert not finite
            return
        assert finite
        got = chain_predict(rows, np.zeros(len(rows), dtype=np.int64), *fits, order)
    assert got.tolist() == expected.T.tolist()


@st.composite
def chain_problems(draw):
    """A training set with duplicate rows and classes of one row, a SMOTE
    order over the classes it can grow, a target, and rows to score."""
    f = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 8), min_size=2, max_size=4))
    target = max(sizes) + draw(st.integers(0, 5))
    # in about one problem of four, magnitudes whose squared deviations may overflow
    huge = [1e150, -2e153, 3e154, -1.2e155] if draw(st.sampled_from([1, 0, 0, 0])) else [0.5]
    value = st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        st.sampled_from(huge),
    )
    distinct = draw(st.lists(st.lists(value, min_size=f, max_size=f), min_size=1, max_size=12))
    rows = draw(st.lists(st.sampled_from(distinct), min_size=sum(sizes), max_size=sum(sizes)))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    shuffled = draw(st.permutations(range(labels.size)))
    growable = [c for c, size in enumerate(sizes) if size >= 2 or size == target]
    growable = draw(st.permutations(growable))
    order = growable[draw(st.integers(0, len(growable))) :]
    train = replace(
        make_dataset(np.array(rows)[shuffled], labels[shuffled], len(sizes)),
        provenance="chain.csv",
    )
    scored = np.array(draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=6)))
    return train, order, target, draw(st.integers(1, 4)), draw(st.integers(0, 99)), scored


class TestChainPredict:
    @settings(max_examples=150, deadline=None)
    @given(problem=chain_problems())
    def test_matches_one_fit_per_stage(self, problem):
        check_chain(*problem)

    @pytest.mark.parametrize(
        "f, order, target",
        [(1, [0, 2, 1], 12), (3, [2, 0], 12), (2, [], 7), (2, [1, 0, 2], 9)],
        ids=["one-feature", "partial-order", "empty-order", "class-at-target"],
    )
    def test_stages(self, f, order, target):
        rng = np.random.default_rng(24)
        labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 1, 1, 1, 1, 0, 2, 1, 1])
        train = make_dataset(np.round(rng.normal(size=(16, f)), 1), labels, 3)
        rows = np.round(rng.normal(size=(10, f)), 1)
        check_chain(train, order, target, k=3, seed=5, rows=rows)

    def test_tied_scores_break_toward_the_lowest_class(self):
        # classes 0 and 1 hold the same rows, so only their priors differ
        column = [[0.0], [1.0], [2.0]] * 2 + [[9.0], [8.0]]
        train = make_dataset(column, [0, 0, 0, 1, 1, 1, 2, 2], 3)
        check_chain(train, [2, 1, 0], 5, k=2, seed=3, rows=np.array([[1.0], [0.0]]))

    def test_singleton_class_outside_the_order(self):
        train = make_dataset([[0.0], [0.5], [3.0], [2.0], [7.0]], [0, 0, 1, 1, 2], 3)
        check_chain(train, [1, 0], 4, k=1, seed=8, rows=np.array([[7.0], [0.2], [2.5]]))

    @pytest.mark.parametrize(
        "column, finite",
        [
            ([1e154, -1e154, 1.5e154, 0.0, 1.0], [False, False]),
            ([1.2e154, 0.0, 1.1e154, 0.0, 1.0], [True, False]),
        ],
        ids=["training-set", "grown-class"],
    )
    def test_overflow_is_the_per_stage_data_error(self, column, finite):
        """A fit is flagged not finite exactly where ``fit_nb`` on its set
        raises the overflow ``DataError``."""
        train = replace(
            make_dataset(np.array(column)[:, None], [0, 0, 0, 1, 1]), provenance="huge.csv"
        )
        final = balance_sequence(train, [0], 40, k=2, seed=1)[-1]
        for ds, flag in zip((train, final), finite):
            assert finite_fits(*set_fit(ds)[1:]).tolist() == [flag]
            if not flag:
                with pytest.raises(DataError, match=r"^huge\.csv: .* overflow float64"):
                    fit_nb(ds)
        check_chain(train, [0], 40, k=2, seed=1, rows=np.array([[0.0]]))

    def test_class_absent_from_the_training_set_rejected(self):
        train = make_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1], 3)
        with pytest.raises(ValueError, match="each present in first"):
            chain_predict(np.zeros((1, 1)), [0], set_fit(train), set_fit(train), [])

    def test_class_outside_the_order_growing_rejected(self):
        train = make_dataset([[0.0], [1.0], [2.0], [3.0], [2.5]], [0, 0, 1, 1, 1])
        final = balance_sequence(train, [0], 4, k=1, seed=2)[-1]
        with pytest.raises(ValueError, match="grow only classes of order"):
            chain_predict(np.zeros((1, 1)), [0], set_fit(train), set_fit(final), [1])

    def test_each_row_scored_by_its_own_model(self):
        """A batch of two chains: each row's predictions equal those of its
        own chain scored alone."""
        rng = np.random.default_rng(25)
        labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 1, 1, 0, 2])
        trains = [make_dataset(np.round(rng.normal(size=(12, 2)), 1), labels, 3) for _ in range(2)]
        fits = [
            [set_fit(ds) for ds in (train, balance_sequence(train, [2, 0], 6, k=2, seed=s)[-1])]
            for s, train in enumerate(trains)
        ]
        first, last = ([np.concatenate(parts) for parts in zip(*(f[i] for f in fits))] for i in (0, 1))
        rows = np.round(rng.normal(size=(8, 2)), 1)
        model = np.array([0, 1, 1, 0, 0, 1, 0, 1])
        got = chain_predict(rows, model, first, last, [2, 0])
        for m in (0, 1):
            alone = chain_predict(rows[model == m], np.zeros((model == m).sum(), dtype=int), *fits[m], [2, 0])
            assert np.array_equal(got[model == m], alone)
