from collections import Counter

import numpy as np
import pytest

from pcasmote import experiment
from pcasmote.dataset import Dataset
from pcasmote.errors import DataError
from pcasmote.pca import fit_pca, transform
from pcasmote.experiment import (
    EvalSettings,
    ExperimentConfig,
    PcaSettings,
    SmoteSettings,
    evaluate_dataset,
    method_names,
    run_experiment,
)
from pcasmote.rng import Rng


def gaussian_blobs(rng, centers, n_per_class, spread):
    rows, labels = [], []
    for cls, center in enumerate(centers):
        for _ in range(n_per_class):
            rows.append([c + rng.gauss(0, spread) for c in center])
            labels.append(cls)
    return Dataset(
        features=np.array(rows),
        labels=np.array(labels),
        class_names=tuple(f"c{i}" for i in range(len(centers))),
        feature_names=tuple(f"f{i}" for i in range(len(centers[0]))),
    )


class _PyRandom:
    """Adapter: gauss() on top of the toolkit Rng for test data."""

    def __init__(self, seed):
        self.rng = Rng(seed)

    def gauss(self, mu, sigma):
        import math

        u1 = 1.0 - self.rng.random()
        u2 = self.rng.random()
        return mu + sigma * math.sqrt(-2 * math.log(u1)) * math.cos(2 * math.pi * u2)


def default_config(data_file, **eval_kwargs) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=str(data_file),
        imputation="mode",
        pca=PcaSettings(),
        smote=SmoteSettings(),
        eval=EvalSettings(**eval_kwargs) if eval_kwargs else EvalSettings(),
    )


class TestEvaluateDataset:
    def test_perfectly_separable_data(self):
        ds = gaussian_blobs(_PyRandom(1), [(0.0, 0.0), (50.0, 50.0)], 10, 0.5)
        for protocol in ("k-fold", "leave-one-out"):
            summary = evaluate_dataset(ds, protocol, k=5, seeds=(1, 2))
            assert summary.mean.accuracy == 1.0
            assert summary.mean.fp_rate == 0.0
            assert summary.mean.misclassified == 0

    def test_leave_one_out_pools_every_sample(self):
        ds = gaussian_blobs(_PyRandom(2), [(0.0,), (3.0,)], 8, 1.0)
        summary = evaluate_dataset(ds, "leave-one-out", k=10, seeds=(7,))
        assert summary.mean.n_samples == 16
        (seed, row), = summary.per_seed
        assert row.misclassified <= 16

    def test_leave_one_out_seed_independent(self):
        ds = gaussian_blobs(_PyRandom(3), [(0.0,), (2.0,)], 9, 1.0)
        summary = evaluate_dataset(ds, "leave-one-out", k=2, seeds=(1, 2, 3))
        accs = [row.accuracy for _, row in summary.per_seed]
        assert len(set(accs)) == 1

    def test_protocols_agree_near_bayes_rate(self):
        # blobs at +/-1 with sd 1: Bayes error = P(N(0,1) > 1) ~ 0.1587
        ds = gaussian_blobs(_PyRandom(4), [(-1.0, -1.0), (1.0, 1.0)], 60, 1.0)
        kfold = evaluate_dataset(ds, "k-fold", k=10, seeds=tuple(range(1, 6)))
        loo = evaluate_dataset(ds, "leave-one-out", k=10, seeds=(1,))
        # 2-D blobs at distance 2*sqrt(2): Bayes accuracy = Phi(sqrt(2)) ~ 0.921
        bayes = 0.921
        assert abs(kfold.mean.accuracy - loo.mean.accuracy) < 0.1
        assert abs(kfold.mean.accuracy - bayes) < 0.1
        assert abs(loo.mean.accuracy - bayes) < 0.1

    def test_pooled_matrix_total_per_seed(self, lung):
        summary = evaluate_dataset(lung, "k-fold", k=10, seeds=(1, 2, 3))
        for _, row in summary.per_seed:
            assert row.n_samples == 32
            assert 0 <= row.misclassified <= 32

    def test_mean_and_ranges(self):
        ds = gaussian_blobs(_PyRandom(5), [(0.0,), (1.5,)], 12, 1.0)
        summary = evaluate_dataset(ds, "k-fold", k=4, seeds=tuple(range(1, 9)))
        accs = [row.accuracy for _, row in summary.per_seed]
        assert abs(summary.mean.accuracy - sum(accs) / len(accs)) < 1e-12
        assert summary.ranges["accuracy"] == (min(accs), max(accs))

    def test_requires_two_samples_per_class(self):
        ds = gaussian_blobs(_PyRandom(6), [(0.0,), (4.0,)], 3, 0.1)
        lopsided = ds.subset([0, 1, 2, 3])  # class 1 keeps one sample
        with pytest.raises(DataError):
            evaluate_dataset(lopsided, "k-fold", k=2, seeds=(1,))

    def test_unknown_protocol_rejected(self, lung):
        with pytest.raises(ValueError):
            evaluate_dataset(lung, "bootstrap", k=2, seeds=(1,))


@pytest.fixture(scope="module")
def report(data_file):
    return run_experiment(default_config(data_file, seeds=tuple(range(1, 4))))


class TestRunExperiment:
    def test_five_steps_in_order(self, report):
        assert [s.method_name for s in report.steps] == [
            "Initial",
            "PCA",
            "SMOTE1",
            "SMOTE2",
            "SMOTE3",
        ]

    def test_sample_count_column(self, report):
        assert [s.n_samples for s in report.steps] == [32, 32, 41, 49, 54]

    def test_class_count_trajectory(self, report):
        assert [s.class_counts for s in report.steps] == [
            [9, 13, 10],
            [9, 13, 10],
            [18, 13, 10],
            [18, 13, 18],
            [18, 18, 18],
        ]

    def test_feature_count_column(self, report):
        n_initial = report.steps[0].n_features
        assert n_initial == 56
        reduced = [s.n_features for s in report.steps[1:]]
        assert all(n == report.pca_retained for n in reduced)

    def test_sample_column_nondecreasing_with_cumulative_synthesis(self, report):
        samples = [s.n_samples for s in report.steps[1:]]
        assert samples == sorted(samples)
        assert samples[-1] == 32 + (18 - 9) + (18 - 10) + (18 - 13)

    def test_retained_counts_reported(self, report):
        assert 1 <= report.pca_retained <= 56
        assert 1 <= report.pca_retained_other_mode <= 56
        assert report.pca_mode == "correlation"

    def test_dataset_checksum_present(self, report):
        assert len(report.dataset_sha256) == 64

    def test_deterministic_reports(self, data_file):
        cfg = default_config(data_file, seeds=(1, 2))
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a == b

    def test_empty_order_truncates_to_two_steps(self, data_file):
        cfg = default_config(data_file, seeds=(1,))
        cfg.smote = SmoteSettings(order=())
        report = run_experiment(cfg)
        assert [s.method_name for s in report.steps] == ["Initial", "PCA"]

    def test_method_names_helper(self):
        assert method_names(0) == ["Initial", "PCA"]
        assert method_names(3) == ["Initial", "PCA", "SMOTE1", "SMOTE2", "SMOTE3"]


@pytest.fixture(scope="module")
def refit_run(data_file):
    """The leak-free refit experiment, counting calls to the per-fold stages."""
    cfg = default_config(data_file, seeds=(1,), resample_scope="train-folds-only")
    cfg.pca = PcaSettings(fit_within_fold=True)
    calls = Counter()
    with pytest.MonkeyPatch.context() as mp:
        for name in ("fit_pca", "balance_sequence"):
            original = getattr(experiment, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            mp.setattr(experiment, name, counted)
        report = run_experiment(cfg)
    return report, calls


class TestTrainFoldsOnlyScope:
    def test_smoke_and_sample_counts(self, data_file):
        cfg = default_config(
            data_file, seeds=(1, 2), resample_scope="train-folds-only"
        )
        report = run_experiment(cfg)
        assert [s.method_name for s in report.steps] == [
            "Initial",
            "PCA",
            "SMOTE1",
            "SMOTE2",
            "SMOTE3",
        ]
        # tests stay original in this scope: every pooled count is 32
        assert [s.n_samples for s in report.steps] == [32] * 5
        for step in report.steps:
            # no synthetic row is ever scored, on any seed
            assert [row.n_samples for _, row in step.summary.per_seed] == [32, 32]
            assert 0.0 <= step.summary.mean.accuracy <= 1.0
        assert report.resample_scope == "train-folds-only"

    def test_fit_within_fold_runs(self, refit_run):
        report, _ = refit_run
        table = [
            (s.method_name, s.n_features, round(s.summary.mean.accuracy, 4))
            for s in report.steps
        ]
        assert table == [
            ("Initial", 56, 0.5938),
            ("PCA", 17, 0.5312),
            ("SMOTE1", 17, 0.5),
            ("SMOTE2", 17, 0.4375),
            ("SMOTE3", 17, 0.4688),
        ]

    @pytest.mark.parametrize("fit_within_fold", [False, True])
    def test_test_folds_hold_only_original_rows(
        self, data_file, lung, monkeypatch, fit_within_fold
    ):
        """Every matrix scored in a fold is exactly that fold's original test
        rows: raw for Initial, then reduced by the global model or the fold's
        refit for PCA and each SMOTE stage."""
        cfg = default_config(data_file, seeds=(1, 2), resample_scope="train-folds-only")
        cfg.pca = PcaSettings(fit_within_fold=fit_within_fold)
        assignments, scored = [], []
        stratified_folds = experiment.stratified_folds
        predict_matrix = experiment.predict_matrix

        def recording_folds(*args):
            assignments.append(stratified_folds(*args))
            return assignments[-1]

        def recording_predict(model, rows):
            scored.append(rows)
            return predict_matrix(model, rows)

        monkeypatch.setattr(experiment, "stratified_folds", recording_folds)
        monkeypatch.setattr(experiment, "predict_matrix", recording_predict)
        run_experiment(cfg)

        global_model = fit_pca(lung, cfg.pca.threshold, cfg.pca.mode)
        per_fold = 2 + len(cfg.smote.order)
        visited = []
        for seed_pos, fold_of in enumerate(assignments):
            for fold in range(int(fold_of.max()) + 1):
                test_idx = np.flatnonzero(fold_of == fold)
                model = global_model
                if fit_within_fold:
                    train = lung.subset(np.flatnonzero(fold_of != fold))
                    model = fit_pca(train, cfg.pca.threshold, cfg.pca.mode)
                reduced = transform(model, lung.subset(test_idx)).features
                expected = [lung.features[test_idx]] + [reduced] * (per_fold - 1)
                got = scored[len(visited) * per_fold :][:per_fold]
                assert len(got) == per_fold
                for test_x, want in zip(got, expected):
                    assert np.array_equal(test_x, want)
                visited.append((seed_pos, fold))
        assert len(scored) == len(visited) * per_fold
        assert visited == [(s, f) for s in range(2) for f in range(10)]

    @pytest.mark.parametrize(
        "fit_within_fold, table",
        [
            pytest.param(
                False,
                [
                    ("Initial", 56, 0.6375, 0.2267, 0.6931, 0.6375, 12),
                    ("PCA", 18, 0.4906, 0.2943, 0.5172, 0.4906, 16),
                    ("SMOTE1", 18, 0.5031, 0.2986, 0.5916, 0.5031, 16),
                    ("SMOTE2", 18, 0.5406, 0.2904, 0.6309, 0.5406, 15),
                    ("SMOTE3", 18, 0.5281, 0.2889, 0.5842, 0.5281, 15),
                ],
                id="global-pca",
            ),
            pytest.param(
                True,
                [
                    ("Initial", 56, 0.6375, 0.2267, 0.6931, 0.6375, 12),
                    ("PCA", 17, 0.5984, 0.2262, 0.6188, 0.5984, 13),
                    ("SMOTE1", 17, 0.5578, 0.2369, 0.5645, 0.5578, 14),
                    ("SMOTE2", 17, 0.5453, 0.2411, 0.5474, 0.5453, 15),
                    ("SMOTE3", 17, 0.5578, 0.2487, 0.5676, 0.5578, 14),
                ],
                id="fit-within-fold",
            ),
        ],
    )
    def test_twenty_seed_table_is_pinned(self, data_file, fit_within_fold, table):
        """The leak-free five-method tables of the default config, 20 seeds."""
        cfg = default_config(data_file, resample_scope="train-folds-only")
        cfg.pca = PcaSettings(fit_within_fold=fit_within_fold)
        report = run_experiment(cfg)
        got = []
        for step in report.steps:
            m = step.summary.mean
            rates = (m.accuracy, m.fp_rate, m.precision, m.recall)
            got.append(
                (step.method_name, step.n_features)
                + tuple(round(v, 4) for v in rates)
                + (m.misclassified,)
            )
        assert got == table

    def test_initial_does_not_depend_on_the_scope(self, data_file):
        """Initial trains on the original rows of each fold in every scope."""
        rows = []
        for scope, refit in [
            ("whole-dataset", False),
            ("train-folds-only", False),
            ("train-folds-only", True),
        ]:
            cfg = default_config(data_file, resample_scope=scope)
            cfg.pca = PcaSettings(fit_within_fold=refit)
            rows.append(run_experiment(cfg).steps[0].summary.per_seed)
        assert len(rows[0]) == 20
        assert rows[1] == rows[0]
        assert rows[2] == rows[0]

    def test_one_pca_fit_and_one_smote_chain_per_fold(self, refit_run):
        _, calls = refit_run
        # 2 global fits (both modes) + one per fold; one chain per fold
        assert calls == {"fit_pca": 2 + 10, "balance_sequence": 10}


class TestMisclassified:
    def test_perfect_accuracy_zero(self):
        ds = gaussian_blobs(_PyRandom(7), [(0.0,), (40.0,)], 6, 0.1)
        summary = evaluate_dataset(ds, "k-fold", k=3, seeds=(1,))
        assert summary.mean.misclassified == 0

    def test_counts_complement_accuracy(self, lung):
        summary = evaluate_dataset(lung, "k-fold", k=10, seeds=(5,))
        (_, row), = summary.per_seed
        assert row.misclassified == 32 - round(row.accuracy * 32)
