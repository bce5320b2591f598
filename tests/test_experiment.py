import hashlib
import importlib.util
import statistics
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pcasmote import cli, experiment, linalg, naive_bayes, pca
from pcasmote.cli import main
from pcasmote.config import (
    EvalSettings, ExperimentConfig, PcaSettings, SmoteSettings, load_config,
)
from pcasmote.dataset import Dataset, load_dataset, stratified_fold_stack, write_dataset_csv
from pcasmote.errors import ConfigError, DataError, ResampleError, ToolkitError
from pcasmote.metrics import confusion_matrix, metric_rows, tally
from pcasmote.pca import fit_pca, transform
from pcasmote.experiment import evaluate_dataset, method_names, run_experiment
from pcasmote.naive_bayes import fit_nb, predict_matrix
from pcasmote.reporting import write_report_json
from pcasmote.rng import Rng, derive_seed
from pcasmote.smote import balance_sequence


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
        runs = [("k-fold", (1, 2)), ("leave-one-out", (1,)), ("leave-one-out", (2,))]
        for protocol, seeds in runs:
            summary = evaluate_dataset(ds, EvalSettings(protocol, k=5, seeds=seeds))
            assert summary.mean.accuracy == 1.0
            assert summary.mean.fp_rate == 0.0
            assert summary.mean.misclassified == 0

    def test_leave_one_out_pools_every_sample(self):
        ds = gaussian_blobs(_PyRandom(2), [(0.0,), (3.0,)], 8, 1.0)
        summary = evaluate_dataset(ds, EvalSettings("leave-one-out", k=10, seeds=(7,)))
        assert summary.mean.n_samples == 16
        (seed, row), = summary.per_seed
        assert row.misclassified <= 16

    def test_leave_one_out_seed_independent(self):
        ds = gaussian_blobs(_PyRandom(3), [(0.0,), (2.0,)], 9, 1.0)
        rows = [
            evaluate_dataset(ds, EvalSettings("leave-one-out", k=2, seeds=(seed,))).mean
            for seed in (1, 2, 3)
        ]
        assert rows[1] == rows[0] and rows[2] == rows[0]

    def test_protocols_agree_near_bayes_rate(self):
        # blobs at +/-1 with sd 1: Bayes error = P(N(0,1) > 1) ~ 0.1587
        ds = gaussian_blobs(_PyRandom(4), [(-1.0, -1.0), (1.0, 1.0)], 60, 1.0)
        kfold = evaluate_dataset(ds, EvalSettings("k-fold", k=10, seeds=tuple(range(1, 6))))
        loo = evaluate_dataset(ds, EvalSettings("leave-one-out", k=10, seeds=(1,)))
        # 2-D blobs at distance 2*sqrt(2): Bayes accuracy = Phi(sqrt(2)) ~ 0.921
        bayes = 0.921
        assert abs(kfold.mean.accuracy - loo.mean.accuracy) < 0.1
        assert abs(kfold.mean.accuracy - bayes) < 0.1
        assert abs(loo.mean.accuracy - bayes) < 0.1

    def test_pooled_matrix_total_per_seed(self, lung):
        summary = evaluate_dataset(lung, EvalSettings("k-fold", k=10, seeds=(1, 2, 3)))
        for _, row in summary.per_seed:
            assert row.n_samples == 32
            assert 0 <= row.misclassified <= 32

    def test_mean_and_ranges(self):
        ds = gaussian_blobs(_PyRandom(5), [(0.0,), (1.5,)], 12, 1.0)
        summary = evaluate_dataset(ds, EvalSettings("k-fold", k=4, seeds=tuple(range(1, 9))))
        accs = [row.accuracy for _, row in summary.per_seed]
        assert abs(summary.mean.accuracy - sum(accs) / len(accs)) < 1e-12
        assert summary.ranges["accuracy"] == (min(accs), max(accs))
        for name in experiment.RATE_FIELDS:
            values = [getattr(row, name) for _, row in summary.per_seed]
            assert getattr(summary.median, name) == statistics.median(values)
        assert summary.misclassified_median == summary.median.misclassified

    def test_requires_two_samples_per_class(self):
        ds = gaussian_blobs(_PyRandom(6), [(0.0,), (4.0,)], 3, 0.1)
        lopsided = ds.subset([0, 1, 2, 3])  # class 1 keeps one sample
        with pytest.raises(DataError):
            evaluate_dataset(lopsided, EvalSettings("k-fold", k=2, seeds=(1,)))

    def test_unknown_protocol_rejected(self, default_config, monkeypatch, capsys):
        """``evaluate`` takes the settings of a validated config: an unknown
        protocol is rejected by the config check, before any scoring."""
        monkeypatch.setattr(cli, "evaluate_dataset", mock.Mock(side_effect=AssertionError))
        argv = ["evaluate", "--config", str(default_config), "--set", "eval.protocol=bootstrap"]
        assert main(argv) == 2
        assert "error[usage]: eval.protocol must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize("settings, overrides", [
        (EvalSettings(protocol="bootstrap"), ["eval.protocol=bootstrap"]),
        (EvalSettings(seeds=()), ["eval.seeds="]),
        (EvalSettings("leave-one-out", seeds=(1, 2)), [
            "eval.protocol=leave-one-out", "eval.seeds=1,2",
        ]),
        # the scope names where experiment draws SMOTE; evaluate draws none
        (EvalSettings("leave-one-out", seeds=(1, 2), resample_scope="train-folds-only"), [
            "eval.protocol=leave-one-out", "eval.seeds=1,2", "eval.resample_scope=train-folds-only",
        ]),
        (EvalSettings(seeds=(1 << 64,)), [f"eval.seeds={1 << 64}"]),
    ], ids=["protocol", "no-seeds", "loo-seeds", "loo-seeds-train-folds-only", "seed-range"])
    def test_settings_checked_as_the_cli_checks_them(
        self, lung, default_config, capsys, settings, overrides
    ):
        """A library call raises the ``ConfigError`` whose message the CLI
        prints for the same ``eval.*`` setting."""
        with pytest.raises(ConfigError) as raised:
            evaluate_dataset(lung, settings)
        argv = ["evaluate", "--config", str(default_config)]
        for pair in overrides:
            argv += ["--set", pair]
        assert main(argv) == 2
        assert f"error[usage]: {raised.value}" in capsys.readouterr().err


@st.composite
def prediction_stacks(draw):
    """Labels of 2 to 5 classes of at least two rows each, and random
    (seeds, methods, rows) predictions and (seeds, methods) widths."""
    n_classes = draw(st.integers(2, 5))
    sizes = draw(st.lists(st.integers(2, 8), min_size=n_classes, max_size=n_classes))
    labels = np.array(draw(st.permutations(np.repeat(np.arange(n_classes), sizes).tolist())))
    n_seeds, n_methods = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    predicted = draw(hnp.arrays(
        np.int64, (n_seeds, n_methods, labels.size), elements=st.integers(0, n_classes - 1)
    ))
    widths = draw(st.lists(
        st.lists(st.integers(1, 60), min_size=n_methods, max_size=n_methods),
        min_size=n_seeds, max_size=n_seeds,
    ))
    return labels, n_classes, predicted, widths


class TestCrossValidateMetrics:
    @settings(max_examples=100, deadline=None)
    @given(problem=prediction_stacks())
    def test_batched_rows_equal_one_confusion_matrix_each(self, problem):
        """Every per-seed row that the one batched tally and ``metric_rows``
        call give equals ``metric_rows`` of a batch of one: that seed's and
        method's own confusion matrix and width, and holds Python numbers, as the report
        writers take them."""
        labels, n_classes, predicted, widths = problem
        seeds = tuple(range(11, 11 + len(predicted)))
        names = [f"m{i}" for i in range(predicted.shape[1])]
        counts = tally(labels, predicted, n_classes)
        summaries = experiment._summaries(counts, names, widths, seeds)
        assert len(summaries) == len(names)
        for m, summary in enumerate(summaries):
            assert [seed for seed, _ in summary.per_seed] == list(seeds)
            for s, (_, row) in enumerate(summary.per_seed):
                cm = confusion_matrix(labels, predicted[s, m], n_classes)
                assert row == metric_rows(cm.counts[None, None], [names[m]], [[widths[s][m]]])[0][0]
                assert {type(v) for v in row.as_dict().values()} <= {str, int, float}


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
        assert report.config["pca"]["mode"] == "correlation"

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

    def test_one_fold_draw_and_one_scorer_call_per_dataset(self, data_file, monkeypatch):
        """A 20-seed ``whole-dataset`` run draws the folds of each distinct
        set of labels once, for all seeds: Initial's stack also serves PCA,
        whose reduction keeps the labels.  Each of the five datasets has all
        its (seed, fold) models scored by one ``_fold_predictions`` call,
        with no SMOTE chain."""
        draws, scored = [], []
        stratified_fold_stack = experiment.stratified_fold_stack
        fold_predictions = experiment._fold_predictions

        def recording_draw(ds, k, seeds):
            draws.append((ds.n_samples, k, tuple(seeds)))
            return stratified_fold_stack(ds, k, seeds)

        def recording_scorer(ds, stack, seeds, *chain):
            scored.append((stack.shape, chain))
            return fold_predictions(ds, stack, seeds, *chain)

        monkeypatch.setattr(experiment, "stratified_fold_stack", recording_draw)
        monkeypatch.setattr(experiment, "_fold_predictions", recording_scorer)
        run_experiment(default_config(data_file))
        assert draws == [(n, 10, tuple(range(1, 21))) for n in [32, 41, 49, 54]]
        assert scored == [((20, n), ()) for n in [32, 32, 41, 49, 54]]

    @pytest.mark.parametrize(
        "scope, refit, draws",
        [("whole-dataset", False, 4), ("train-folds-only", False, 1), ("train-folds-only", True, 1)],
        ids=["whole-dataset", "train-folds-only", "train-folds-only+fit_within_fold"],
    )
    def test_one_metric_rows_call_per_run(self, data_file, monkeypatch, scope, refit, draws):
        """Every method of a run, in either scope, is summarised by one
        ``metric_rows`` call on one (seeds, methods) stack of tables, and
        only the SMOTE datasets of ``whole-dataset`` draw folds of their own."""
        calls = Counter()
        for name in ("stratified_fold_stack", "metric_rows"):
            original = getattr(experiment, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(experiment, name, counted)
        cfg = default_config(data_file, seeds=(1, 2), resample_scope=scope)
        cfg.pca = PcaSettings(fit_within_fold=refit)
        run_experiment(cfg)
        assert calls == Counter(stratified_fold_stack=draws, metric_rows=1)

    @pytest.mark.parametrize(
        "override, section, changes",
        [
            ("smote.order=TypeA,TypeA", "smote", {"order": ("TypeA", "TypeA")}),
            ("eval.resample_scope=nowhere", "eval", {"resample_scope": "nowhere"}),
            ("pca.fit_within_fold=true", "pca", {"fit_within_fold": True}),
        ],
        ids=["repeated-order-class", "unknown-scope", "fit-within-fold-whole-dataset"],
    )
    def test_invalid_config_raises_the_cli_error(
        self, data_file, tmp_path, capsys, override, section, changes
    ):
        """A library caller's invalid config raises the ``ConfigError`` and
        message that the CLI reports for the same setting, before any work."""
        argv = ["experiment", "--config", "configs/default.cfg", "--set", override]
        assert main(argv + ["-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        cfg = default_config(data_file)
        setattr(cfg, section, replace(getattr(cfg, section), **changes))
        with pytest.raises(ConfigError) as raised:
            run_experiment(cfg)
        assert err == f"error[usage]: {raised.value}\n"

    def test_method_names_helper(self):
        assert method_names(0) == ["Initial", "PCA"]
        assert method_names(3) == ["Initial", "PCA", "SMOTE1", "SMOTE2", "SMOTE3"]


#: numpy version under which ``PINNED_REPORTS`` was taken, as for the
#: reducer's pins in ``test_pca``
PINNED_NUMPY = "2.4.6"

TFO = "eval.resample_scope=train-folds-only"

#: the benchmark's scripts, whose cohort generator ``test_readme_block_counts`` runs
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: run -> (the subcommand and its arguments after ``--config
#: configs/default.cfg``, the SHA-256 of each file it writes that is
#: pinned).  The CSV run reads the canonical export of the bundled file from
#: a temporary folder whose path report.json records, so only its
#: report.csv is pinned; it equals the default run's, since the export
#: reloads bit for bit.  ``evaluate`` cross-validates the bundled file alone.
PINNED_REPORTS = {
    "default": (
        ("experiment",),
        {
            "report.json": "80185d8beee07c80d73720ee60f3bd2c2031c34a9121f8f58c2fc9e88ab10d80",
            "report.csv": "dce20da3c5987ed8c8facc620f1c5bace43de0be3b8db6a9ef0acfba5b8495e3",
            "accuracy.csv": "81d66867c7cf35dd853b72e75cf0a1ac40c610d1dcd43e7cb003f7a772bee003",
            "fp_rate.csv": "dc83de5904f9f97c77660f05b3dbc5b7c2cf9047fc8ec93abed2be4cab36c47f",
            "precision.csv": "5ccb80af4d6bbbea4f4b2f53d96453e7588904cfd51ed4eedc1ca97d118f1f55",
            "recall.csv": "81d66867c7cf35dd853b72e75cf0a1ac40c610d1dcd43e7cb003f7a772bee003",
            "misclassified.csv": "32edffe3c394da0ef4973b63c1c51f8bc397714a230ca5e20292c7779dc56695",
        },
    ),
    "train-folds-only": (
        ("experiment", "--set", TFO),
        {
            "report.json": "f8acf81945692bfc3800fd065f806521ab34038591e2ac0da1352c30d8fbe39b",
            "report.csv": "3dac6cf9694899605ea36ce69aa095be7205667d34355e1c561f9a88c416747d",
        },
    ),
    "train-folds-only+fit_within_fold": (
        ("experiment", "--set", TFO, "--set", "pca.fit_within_fold=true"),
        {
            "report.json": "93b8aad88b87d86c8ad260f2fa511e06825bc8056e38e4051fc7ef04fe216d48",
            "report.csv": "cec10d6e7b8b126277fa38281b4dd73de1afc0e02c59e78e11954ed688fea725",
        },
    ),
    "whole-dataset+loo seed 1": (
        ("experiment", "--set", "eval.protocol=leave-one-out", "--set", "eval.seeds=1"),
        {
            "report.json": "41637926013a730efd0c48bcfa4b49538de0445cc5429ed71c59869dc8628d0b",
            "report.csv": "627740b372d993d07975fb042170d74febcd098c23e31d67892fb6ac5f751ad3",
        },
    ),
    # exact neighbour-distance ties, decided by the basis's last bits
    "covariance+pca.threshold=1.0": (
        ("experiment", "--set", "pca.mode=covariance", "--set", "pca.threshold=1.0"),
        {
            "report.json": "e426be20663d1b6c25aa22c72469f7a869841a201457b9ee4b2b3b3f33398835",
            "report.csv": "3242df0bba9a7ce2f51f5d9fc55fa3b0394e785550535c68709237ce92c4e0b5",
        },
    ),
    "csv export": (
        ("experiment", "--set", "dataset={csv}"),
        {"report.csv": "dce20da3c5987ed8c8facc620f1c5bace43de0be3b8db6a9ef0acfba5b8495e3"},
    ),
    "evaluate": (
        ("evaluate",),
        {"evaluation.csv": "cb7dc34219d60b9e7de682e8583ef78cc5193ac237895b991beaa61656f4047c"},
    ),
}


@pytest.mark.parametrize("name", list(PINNED_REPORTS))
def test_experiment_reports_pinned(tmp_path, default_config, lung_raw, name):
    """The artifacts of ``experiment`` (reports and figure CSVs) and
    of ``evaluate``, byte for byte: a change in any prediction, metric or
    number format shows here.  The bytes rest on numpy's LAPACK, so the pin
    holds only under the numpy version it was taken with."""
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"hashes taken under numpy {PINNED_NUMPY}, running numpy {np.__version__}")
    (command, *args), pinned = PINNED_REPORTS[name]
    csv = tmp_path / "lung.csv"
    write_dataset_csv(lung_raw, csv)
    out = tmp_path / "out"
    argv = [command, "--config", str(default_config), "-o", str(out)]
    assert main(argv + [arg.format(csv=csv) for arg in args]) == 0
    written = {
        file: hashlib.sha256((out / file).read_bytes()).hexdigest() for file in pinned
    }
    assert written == pinned


#: the naive Bayes entry point counted in ``naive_bayes`` itself: the
#: one-set fit, which only a failing model's rerun calls
NB_FITS = ((naive_bayes, "fit_nb"),)


def counted_run(data_file, fit_within_fold, targets):
    """One-seed leak-free experiment, counting calls to each ``(module, name)``
    target by name; a target never called counts 0."""
    cfg = default_config(data_file, seeds=(1,), resample_scope="train-folds-only")
    cfg.pca = PcaSettings(fit_within_fold=fit_within_fold)
    calls = Counter()
    with pytest.MonkeyPatch.context() as mp:
        for module, name in targets:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            mp.setattr(module, name, counted)
        report = run_experiment(cfg)
    return report, calls


@pytest.fixture(scope="module")
def refit_run(data_file):
    """The leak-free refit experiment, counting calls to the per-fold stages."""
    names = (
        "fit_pca", "fit_pca_subsets", "neighbor_ranking", "balance_sequence", "synthetic_rows",
        "class_moments", "stack_moments", "chain_predict",
    )
    targets = [(experiment, name) for name in names] + [(pca, "_fit_stack")] + list(NB_FITS)
    return counted_run(data_file, True, targets)


@pytest.fixture
def yielded_blocks(monkeypatch):
    """Records each ``linalg.blocks`` call the test makes: the module of its
    cost function (its caller's) and the (key, item list) of each block it
    yields.  An item is a model, numbered ``seed_pos * n_folds + fold``."""
    real, calls = linalg.blocks, []

    def recording(keys, cost):
        yielded = []
        calls.append((cost.__module__.rpartition(".")[2], yielded))
        for key, items in real(keys, cost):
            yielded.append((key, items.tolist()))
            yield key, items

    monkeypatch.setattr(linalg, "blocks", recording)
    return calls


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
        assert report.config["eval"]["resample_scope"] == "train-folds-only"

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
        """The rows that PCA and the SMOTE stages score for a (seed, fold)
        model are exactly that fold's original test rows: under the global
        PCA, their rows of the dataset reduced once; under a refit, the
        fold's test rows reduced by it.  The folds are drawn once, and
        Initial is scored on them beforehand."""
        cfg = default_config(data_file, seeds=(1, 2), resample_scope="train-folds-only")
        cfg.pca = PcaSettings(fit_within_fold=fit_within_fold)
        draws, stacks, blocks, scored = [], [], [], []
        stratified_fold_stack = experiment.stratified_fold_stack
        fold_predictions = experiment._fold_predictions
        score_models = experiment._score_models
        chain_predict = experiment.chain_predict

        def recording_folds(*args):
            draws.append(stratified_fold_stack(*args))
            return draws[-1]

        def recording_scorer(ds, stack, seeds, *chain):
            stacks.append(("leak-free" if chain else "Initial", stack))
            return fold_predictions(ds, stack, seeds, *chain)

        def recording_block(*args):
            if args[5]:   # a block of leak-free models, which grow the classes of the order
                blocks.append(list(zip(args[-3].tolist(), args[-2].tolist())))   # (seed, fold)
            return score_models(*args)

        def recording_chain(rows, model, first, last, order):
            if order:
                scored.append((rows, model))
            return chain_predict(rows, model, first, last, order)

        monkeypatch.setattr(experiment, "stratified_fold_stack", recording_folds)
        monkeypatch.setattr(experiment, "_fold_predictions", recording_scorer)
        monkeypatch.setattr(experiment, "_score_models", recording_block)
        monkeypatch.setattr(experiment, "chain_predict", recording_chain)
        run_experiment(cfg)

        # one draw, one fold assignment per seed, scores Initial first and
        # then the other methods
        assert len(draws) == 1 and draws[0].shape == (2, 32)
        assert [(name, stack is draws[0]) for name, stack in stacks] == [
            ("Initial", True), ("leak-free", True),
        ]
        assignments = list(draws[0])
        # the 20 leak-free models in order, in one block under the global
        # PCA; under a refit, 19 folds retain 17 components and seed 2's fold
        # 10 retains 18, so two blocks; a block's models are numbered from 0
        if fit_within_fold:
            in_order = [(s, f) for s in range(2) for f in range(10)]
            assert blocks == [in_order[:19], in_order[19:]]
        else:
            assert blocks == [[(s, f) for s in range(2) for f in range(10)]]
        assert len(scored) == len(blocks)
        by_model = {}
        for models, (rows, model) in zip(blocks, scored):
            by_model.update((key, rows[model == m]) for m, key in enumerate(models))
        assert len(by_model) == 20
        reduced_once = transform(fit_pca(lung, cfg.pca.threshold, cfg.pca.mode), lung)
        for seed_pos, fold_of in enumerate(assignments):
            for fold in range(10):
                test_idx = np.flatnonzero(fold_of == fold)
                reduced = reduced_once.features[test_idx]
                if fit_within_fold:
                    train = lung.subset(np.flatnonzero(fold_of != fold))
                    model = fit_pca(train, cfg.pca.threshold, cfg.pca.mode)
                    reduced = transform(model, lung.subset(test_idx)).features
                assert np.array_equal(by_model[seed_pos, fold], reduced)

    def test_refit_width_is_each_seeds_last_fold(self, data_file, lung):
        """Under ``pca.fit_within_fold`` each seed's row reports the count its
        own last fold retained, not the last seed's."""
        seeds = (1, 2, 3)
        cfg = default_config(data_file, seeds=seeds, resample_scope="train-folds-only")
        cfg.pca = PcaSettings(fit_within_fold=True)
        report = run_experiment(cfg)
        expected = [
            fit_pca(
                lung.subset(np.flatnonzero(stratified_fold_stack(lung, 10, (seed,))[0] != 9)),
                cfg.pca.threshold,
                cfg.pca.mode,
            ).retained
            for seed in seeds
        ]
        assert expected[1] != expected[2]
        for step in report.steps[1:]:
            assert [row.n_features for _, row in step.summary.per_seed] == expected

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
        # 2 global fits (both modes), then one batched refit of the 10
        # folds, 27 to a stack under the budget: the two 28-row training
        # folds in one stack, the eight 29-row ones in another;
        # every fold retains 17 components, so the 10 models are one block:
        # one ranking of each class for all of them; one moment pass of
        # every class's kept rows, and for each of the 3 classes of the order
        # one synthesis of every chain's run and one moment pass of the grown
        # class; one scoring of PCA and the 3 SMOTE stages; no per-stage set
        # is built; Initial's 10 folds are one block too (32 x 56 rows a
        # model), one moment pass and one scoring of no chain
        assert calls == Counter(
            fit_pca=2, fit_pca_subsets=1, _fit_stack=2 + 2, neighbor_ranking=3,
            balance_sequence=0, synthetic_rows=3, class_moments=1 + 1, stack_moments=3,
            chain_predict=1 + 1, fit_nb=0,
        )

    def test_global_pca_reduces_once_and_chains_once_per_fold(self, data_file):
        names = (
            "fit_pca", "transform", "neighbor_ranking", "balance_sequence", "synthetic_rows",
            "class_moments", "stack_moments", "chain_predict", "_fold_predictions",
        )
        targets = [(experiment, name) for name in names] + list(NB_FITS)
        _, calls = counted_run(data_file, False, targets)
        # both modes fitted once; one reduction and one ranking per class per
        # run; the 10 folds' chains are one block: one moment pass of every
        # class's kept rows, and per class of the order one synthesis and one
        # moment pass of the grown class; one scoring of PCA and the 3 SMOTE
        # stages; Initial, a ``_fold_predictions`` call of its own, is one block of one
        # moment pass and one scoring
        assert calls == Counter(
            fit_pca=2, transform=1, neighbor_ranking=3, balance_sequence=0, synthetic_rows=3,
            class_moments=1 + 1, stack_moments=3, chain_predict=1 + 1, _fold_predictions=2,
            fit_nb=0,
        )

    def test_blocks_follow_the_element_budget(self, data_file, monkeypatch, yielded_blocks):
        """A 20-seed run's 200 (seed, fold) models, seed * 10 + fold, are
        scored in consecutive blocks of as many models as the budget holds,
        Initial's and then the leak-free ones."""
        # a leak-free model holds its two fits' means and stds, 4 rows of 18
        # features for each of the 3 classes, and at its peak the stack of
        # its first fit, 32 rows (TypeA's last-fit stack is its 9 rows and
        # the 10 rows the most-shrunk fold grows it by, beside those 10
        # synthetic rows, 29 rows; TypeB's is 13 + 2 * 7, TypeC's 10 + 2 * 9;
        # the synthesis and the scoring of 4 test rows peak lower); 7 models
        # fit in the budget.  Initial's model costs its stack of 32 x 56
        # floats alone, so 3 fit
        monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", 7 * (4 * 3 + 32) * 18 + 5)
        run_experiment(default_config(data_file, resample_scope="train-folds-only"))
        initial, leak_free = ([items for _, items in blocks] for _, blocks in yielded_blocks)
        for blocks, step in ((initial, 3), (leak_free, 7)):
            assert blocks == [list(range(lo, min(lo + step, 200))) for lo in range(0, 200, step)]

def per_fold_reference(base, cfg, model, order_idx, fold_of, seed_pos):
    """The leak-free scorer as it was before the global reduction, the class
    rankings, the two-fit scoring and the blocks: every fold transforms its
    own rows by ``model`` (or by a refit on its training rows under
    ``pca.fit_within_fold``), builds its SMOTE chain with
    ``balance_sequence``, which ranks its own neighbours afresh, and fits one
    naive Bayes model per stage."""
    predicted = np.empty((1 + len(order_idx), base.n_samples), dtype=np.int64)
    for fold in range(int(fold_of.max()) + 1):
        test_idx = np.flatnonzero(fold_of == fold)
        train = base.subset(np.flatnonzero(fold_of != fold))
        if cfg.pca.fit_within_fold:
            model = fit_pca(train, cfg.pca.threshold, cfg.pca.mode)
        train = transform(model, train)
        test_x = transform(model, base.subset(test_idx)).features
        train_sets = [train] + balance_sequence(
            train,
            order_idx,
            cfg.smote.per_class_target,
            k=cfg.smote.k,
            seed=derive_seed(derive_seed(cfg.smote.seed, seed_pos), fold),
        )
        for row, ds in zip(predicted, train_sets):
            row[test_idx] = predict_matrix(fit_nb(ds), test_x)
    return predicted


class TestGlobalPcaScorerMatchesPerFoldPath:
    """Three integer-coded classes of 60, 75 and 90 rows: many tied distances."""

    @pytest.fixture(scope="class")
    def cohort_file(self, tmp_path_factory):
        rng = np.random.default_rng(20)
        sizes = (60, 75, 90)
        centers = rng.normal(scale=1.5, size=(3, 9))
        rows = np.vstack(
            [np.round(c + rng.normal(size=(n, 9))) for c, n in zip(centers, sizes)]
        )
        labels = np.repeat(np.arange(3), sizes)
        order = rng.permutation(labels.size)
        path = tmp_path_factory.mktemp("cohort") / "cohort.csv"
        write_dataset_csv(
            Dataset(
                features=rows[order],
                labels=labels[order],
                class_names=("c0", "c1", "c2"),
                feature_names=tuple(f"f{i}" for i in range(9)),
            ),
            path,
        )
        return path

    @pytest.mark.parametrize(
        "protocol, k, seeds, smote_k, refit, budget",
        [
            ("k-fold", 10, (1, 2, 3), 5, False, None),
            ("k-fold", 10, (1, 2, 3), 5, False, 1),
            ("k-fold", 2, (4,), 5, False, None),
            ("k-fold", 5, (5,), 70, False, None),
            ("k-fold", 3, (7, 8), 70, False, 1),
            ("leave-one-out", 10, (6,), 5, False, None),
            ("leave-one-out", 10, (6,), 5, False, 1),
            ("k-fold", 10, (1, 2), 5, True, None),
            ("k-fold", 2, (4,), 70, True, None),
            ("leave-one-out", 10, (6,), 5, True, None),
        ],
        ids=[
            "10-fold", "10-fold-one-model-per-block", "2-fold", "k-above-class-size",
            "k-above-class-size-one-model-per-block", "leave-one-out",
            "leave-one-out-one-model-per-block", "fit-within-fold-10-fold",
            "fit-within-fold-2-fold-k-above-class-size", "fit-within-fold-leave-one-out",
        ],
    )
    def test_predictions_equal(
        self, cohort_file, monkeypatch, protocol, k, seeds, smote_k, refit, budget
    ):
        self.check_scorer(cohort_file, monkeypatch, protocol, k, seeds, smote_k, refit, budget)

    @pytest.mark.parametrize(
        "protocol, k, seeds, mode, budget, n_widths",
        [
            ("k-fold", 10, (1, 2), "correlation", 1, 2),
            ("k-fold", 10, (1, 2, 3), "correlation", None, 2),
            ("leave-one-out", 10, (6,), "covariance", None, 1),
        ],
        ids=["one-model-per-block", "blocks-split-by-width", "covariance-leave-one-out"],
    )
    def test_refit_predictions_equal(
        self, cohort_file, monkeypatch, yielded_blocks, protocol, k, seeds, mode, budget,
        n_widths,
    ):
        """Under ``pca.fit_within_fold`` the models are blocked by retained
        count.  On the 10-fold cases the folds retain 4 or 5 components, so
        with the default budget the blocks split by width and span seeds."""
        stack = self.check_scorer(
            cohort_file, monkeypatch, protocol, k, seeds, 5, True, budget, mode
        )
        # the run's last call blocks its leak-free models, after Initial's and the refits
        module, leak_free = yielded_blocks[-1]
        assert module == "experiment"
        n_folds = int(stack.max()) + 1
        # (width, seed positions) of each block
        blocks = [(width, {b // n_folds for b in items}) for width, items in leak_free]
        base = experiment.load_dataset(str(cohort_file))
        widths = [
            fit_pca(base.subset(np.flatnonzero(fold_of != fold)), 0.8, mode).retained
            for fold_of in stack
            for fold in range(int(fold_of.max()) + 1)
        ]
        assert len(set(widths)) == n_widths
        if budget is None:
            assert {width for width, _ in blocks} == set(widths)
            assert len(seeds) == 1 or all(len(spanned) > 1 for _, spanned in blocks)
        else:
            assert len(blocks) == len(widths)

    @pytest.mark.parametrize("bundled", [True, False], ids=["bundled-data", "tie-heavy-cohort"])
    def test_a_stack_of_one_scores_as_its_rows_repeated(
        self, data_file, cohort_file, monkeypatch, bundled
    ):
        """A global-PCA block reads the reduced rows as a stack of one that
        every model shares.  Scored again on those rows repeated once per
        model, with the class rankings tiled to match, each block gives the
        same predictions and finite flags, bit for bit."""
        if bundled:
            cfg = default_config(data_file, seeds=(1, 2), resample_scope="train-folds-only")
        else:
            cfg = ExperimentConfig(
                dataset=str(cohort_file),
                pca=PcaSettings(threshold=0.8),
                smote=SmoteSettings(order=("c0", "c2", "c1"), per_class_target=100),
                eval=EvalSettings(seeds=(1, 2, 3), resample_scope="train-folds-only"),
            )
        score_models = experiment._score_models
        blocks = []

        def both_layouts(base, cfg, features, rankings, members, order_idx, keep, *rest):
            *models_of, predicted = rest
            models = len(keep)
            repeated = predicted.copy()
            finite = score_models(
                base, cfg, features, rankings, members, order_idx, keep, *models_of, predicted,
            )
            again = score_models(
                base, cfg, np.repeat(features, models, axis=0),
                [np.tile(ranking, (models, 1)) for ranking in rankings],
                members, order_idx, keep, *models_of, repeated,
            )
            blocks.append((len(features), models, finite, again, predicted.copy(), repeated))
            return finite

        monkeypatch.setattr(experiment, "_score_models", both_layouts)
        run_experiment(cfg)
        assert blocks and max(models for _, models, *_ in blocks) > 1
        for matrices, _, finite, again, predicted, repeated in blocks:
            assert matrices == 1
            assert finite.all() and finite.tobytes() == again.tobytes()
            assert predicted.tobytes() == repeated.tobytes()

    @staticmethod
    def check_scorer(
        cohort_file, monkeypatch, protocol, k, seeds, smote_k, refit, budget, mode="correlation"
    ):
        """Runs the experiment and checks the scorer's predictions against
        ``per_fold_reference``, seed by seed; returns the fold stack."""
        cfg = ExperimentConfig(
            dataset=str(cohort_file),
            pca=PcaSettings(threshold=0.8, mode=mode, fit_within_fold=refit),
            smote=SmoteSettings(k=smote_k, order=("c0", "c2", "c1"), per_class_target=100),
            eval=EvalSettings(
                protocol=protocol, k=k, seeds=seeds, resample_scope="train-folds-only"
            ),
        )
        calls = []
        scorer = experiment._fold_predictions

        def recording(ds, stack, seeds, *chain):
            result = scorer(ds, stack, seeds, *chain)
            if chain:   # the leak-free models, not Initial's
                calls.append((stack, result[0]))
            return result

        monkeypatch.setattr(experiment, "_fold_predictions", recording)
        if budget is not None:
            monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", budget)
        run_experiment(cfg)
        base = experiment.load_dataset(cfg.dataset)
        model = fit_pca(base, cfg.pca.threshold, cfg.pca.mode)
        assert 1 < model.retained < base.n_features
        order_idx = [0, 2, 1]
        (stack, predicted), = calls   # one scorer call for every seed
        assert predicted.shape == (len(seeds), 4, base.n_samples)
        for seed_pos, fold_of in enumerate(stack):
            expected = per_fold_reference(base, cfg, model, order_idx, fold_of, seed_pos)
            assert np.array_equal(predicted[seed_pos], expected), seed_pos
        return stack


@st.composite
def degenerate_runs(draw):
    """(dataset, PCA, SMOTE and eval settings) of a small run: two or three
    classes of 2 to 12 rows; 1 to 6 features of integers 0..3, so distances
    tie, perhaps a constant column and duplicated rows; settings over both
    scopes and protocols, both PCA modes and ``fit_within_fold``, most with
    a ``per_class_target`` at or above the largest class."""
    sizes = draw(st.lists(st.integers(2, 12), min_size=2, max_size=3))
    n, f = sum(sizes), draw(st.integers(1, 6))
    x = draw(hnp.arrays(np.int64, (n, f), elements=st.integers(0, 3))).astype(float)
    if draw(st.booleans()):
        x[:, draw(st.integers(0, f - 1))] = draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 3))):
        x[draw(st.integers(0, n - 1))] = x[draw(st.integers(0, n - 1))]
    labels = np.array(draw(st.permutations(np.repeat(np.arange(len(sizes)), sizes).tolist())))
    names = tuple(f"c{i}" for i in range(len(sizes)))
    ds = Dataset(
        features=x, labels=labels, class_names=names,
        feature_names=tuple(f"f{i}" for i in range(f)),
    )
    scope = draw(st.sampled_from(["train-folds-only", "whole-dataset"]))
    protocol = draw(st.sampled_from(["k-fold", "leave-one-out"]))
    order = tuple(draw(st.permutations(names))[draw(st.integers(0, len(names))) :])
    # leave-one-out deals every seed the same folds unless SMOTE is drawn in them
    one_seed = protocol == "leave-one-out" and (scope == "whole-dataset" or not order)
    seeds = draw(st.lists(st.integers(0, 99), min_size=1, max_size=3 - 2 * one_seed, unique=True))
    largest = max(sizes)
    # hypothesis leans towards small draws: the smallest here is the usual case
    below = draw(st.integers(0, 4)) == 4
    target = draw(st.integers(1, largest - 1) if below else st.integers(largest, largest + 8))
    return (
        ds,
        PcaSettings(
            threshold=draw(st.floats(0.05, 1.0)),
            mode=draw(st.sampled_from(["covariance", "correlation"])),
            fit_within_fold=scope == "train-folds-only" and draw(st.booleans()),
        ),
        SmoteSettings(
            k=draw(st.integers(1, 6)),
            order=order,
            per_class_target=target,
            seed=draw(st.integers(0, 99)),
        ),
        EvalSettings(
            protocol=protocol, k=draw(st.integers(2, 6)), seeds=tuple(seeds),
            resample_scope=scope,
        ),
    )


def per_fold_predictions(ds: Dataset, fold_of: np.ndarray) -> np.ndarray:
    """Each row's prediction by a naive Bayes fit on the other folds' rows."""
    predicted = np.empty(ds.n_samples, dtype=np.int64)
    for fold in range(int(fold_of.max()) + 1):
        test = fold_of == fold
        predicted[test] = predict_matrix(
            fit_nb(ds.subset(np.flatnonzero(~test))), ds.features[test]
        )
    return predicted


@settings(max_examples=60, deadline=None)
@given(run=degenerate_runs())
def test_a_degenerate_run_is_rejected_or_matches_the_per_fold_path(tmp_path_factory, run):
    """A run either raises a ``ToolkitError`` the CLI exits 2 or 3 on, or
    its predictions are those of the per-fold path, seed by seed:
    ``per_fold_reference`` under ``train-folds-only``, and for Initial and
    every ``whole-dataset`` dataset a naive Bayes fit per fold; and a rerun
    writes the same ``report.json``, byte for byte."""
    ds, pca_settings, smote_settings, eval_settings = run
    out = tmp_path_factory.mktemp("run")
    write_dataset_csv(ds, out / "data.csv")
    cfg = ExperimentConfig(
        dataset=str(out / "data.csv"), pca=pca_settings, smote=smote_settings, eval=eval_settings,
    )
    scored, leak_free = [], []
    scorer = experiment._fold_predictions

    def recording_scorer(ds, stack, seeds, *chain):
        result = scorer(ds, stack, seeds, *chain)
        if chain:   # the leak-free models
            leak_free.append((stack, result[0]))
        else:       # Initial, or a dataset of ``whole-dataset``
            scored.append(result[0][:, 0])
        return result

    try:
        with mock.patch.object(experiment, "_fold_predictions", recording_scorer):
            report = run_experiment(cfg)
    except ToolkitError as exc:
        codes = [code for kind, (code, _) in cli.FAILURES.items() if isinstance(exc, kind)]
        assert codes[:1] in ([2], [3]), exc
        return
    base = load_dataset(cfg.dataset)
    order_idx = experiment.resolve_order(base, cfg.smote.order)
    model = fit_pca(base, cfg.pca.threshold, cfg.pca.mode)
    reduced = transform(model, base)
    if cfg.eval.resample_scope == "whole-dataset":
        datasets = [base, reduced] + balance_sequence(
            reduced, order_idx, cfg.smote.per_class_target, k=cfg.smote.k, seed=cfg.smote.seed
        )
    else:
        datasets = [base]
        (stack, predicted), = leak_free
        for seed_pos, fold_of in enumerate(stack):
            expected = per_fold_reference(base, cfg, model, order_idx, fold_of, seed_pos)
            assert np.array_equal(predicted[seed_pos], expected), seed_pos
    assert len(scored) == len(datasets)
    for step, (data, predicted) in enumerate(zip(datasets, scored)):
        n_folds = data.n_samples if cfg.eval.protocol == "leave-one-out" else cfg.eval.k
        for seed_pos, fold_of in enumerate(stratified_fold_stack(data, n_folds, cfg.eval.seeds)):
            expected = per_fold_predictions(data, fold_of)
            assert np.array_equal(predicted[seed_pos], expected), (step, seed_pos)
    write_report_json(report, out / "report.json")
    write_report_json(run_experiment(cfg), out / "again.json")
    assert (out / "report.json").read_bytes() == (out / "again.json").read_bytes()


def test_readme_block_counts(tmp_path, default_config, yielded_blocks):
    """The block counts the README gives ("The pipeline"), read by wrapping
    the public ``linalg.blocks``: per call, the module of its cost function
    (its caller's) and the item count of each block it yields."""
    spec = importlib.util.spec_from_file_location("cohort", PERFBENCH / "cohort.py")
    cohort = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cohort)
    cohort.write_cohort_csv(0, tmp_path / "cohort.csv")

    def run(*overrides):
        yielded_blocks.clear()
        run_experiment(load_config(default_config, list(overrides)))
        return [(module, [len(items) for _, items in blocks]) for module, blocks in yielded_blocks]

    # the bundled file's 200 Initial models, 73 to a block
    initial = ("experiment", [73, 73, 54])
    assert run()[0] == initial
    # its 200 leak-free models in 2 blocks under the global PCA
    (first, _), (module, leak_free) = run(TFO)
    assert (first, module, len(leak_free), sum(leak_free)) == ("experiment", "experiment", 2, 200)
    # ... and in 5 under fit_within_fold, whose refits stack at most 27 folds
    (first, _), (module, refits), (_, leak_free) = run(TFO, "pca.fit_within_fold=true")
    assert (first, module, max(refits), sum(refits)) == ("experiment", "pca", 27, 200)
    assert (len(leak_free), sum(leak_free)) == (5, 200)
    # the benchmark cohort's 50 Initial models, 7 to a block, and its 50
    # leak-free models in 5 blocks of up to 12
    cohort = f"dataset={tmp_path / 'cohort.csv'}"
    initial, (_, leak_free) = run(TFO, cohort, "eval.seeds=1..5", "smote.per_class_target=180")
    assert initial == ("experiment", [7] * 7 + [1])
    assert (len(leak_free), max(leak_free), sum(leak_free)) == (5, 12, 50)


class TestLeakFreeBlockMemory:
    """A block's traced memory peak stays near its float budget, Initial's
    and the leak-free ones.

    Three integer-coded classes of 90, 130 and 100 rows and 24 features,
    grown to 180 rows each; the block cost counts each model's first-fit
    stack, its largest class stack, its synthesis temporaries and its
    scoring.  The peak is traced
    around ``_score_models`` alone, or around a refit block's
    ``_class_rankings``, so it holds every array that call makes and none
    that the run holds beside it.
    """

    #: the traced peak may exceed ``BLOCK_ELEMENTS * 8`` bytes by this
    #: factor; a block's fixed costs weigh most on a block of one model,
    #: which only the leak-free models are cut into here: an Initial model
    #: of 320 x 24 floats alone would weigh numpy's ufunc buffers, up to 8192
    #: floats a call, at half its cost
    MULTIPLE = 1.5

    @pytest.fixture(scope="class")
    def cohort_file(self, tmp_path_factory):
        rng = np.random.default_rng(20)
        sizes = (90, 130, 100)
        centers = rng.normal(scale=1.5, size=(3, 24))
        rows = np.vstack([np.round(c + rng.normal(size=(n, 24))) for c, n in zip(centers, sizes)])
        path = tmp_path_factory.mktemp("memory") / "cohort.csv"
        write_dataset_csv(
            Dataset(
                features=rows,
                labels=np.repeat(np.arange(3), sizes),
                class_names=("a", "b", "c"),
                feature_names=tuple(f"f{i}" for i in range(24)),
            ),
            path,
        )
        return path

    @pytest.mark.parametrize("one_model", [False, True], ids=["default-budget", "one-model-budget"])
    def test_traced_peak_within_the_budget(self, cohort_file, monkeypatch, one_model):
        cfg = ExperimentConfig(
            dataset=str(cohort_file),
            pca=PcaSettings(threshold=0.8),
            smote=SmoteSettings(order=("a", "c", "b"), per_class_target=180),
            eval=EvalSettings(seeds=(1, 2, 3), resample_scope="train-folds-only"),
        )
        width = fit_pca(experiment.load_dataset(cfg.dataset), 0.8, "correlation").retained
        block_cost, score_models = experiment._block_cost, experiment._score_models
        peaks = []

        def one_model_budget(refit, members, order_idx, *args):
            cost = block_cost(refit, members, order_idx, *args)
            if order_idx:   # the leak-free models, scored after Initial's
                monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", cost(width))
            return cost

        def traced(*args):
            tracemalloc.start()
            try:
                finite = score_models(*args)
                peak = tracemalloc.get_traced_memory()[1]
                peaks.append((len(args[-3]), peak / (linalg.BLOCK_ELEMENTS * 8)))
            finally:
                tracemalloc.stop()
            return finite

        if one_model:
            monkeypatch.setattr(experiment, "_block_cost", one_model_budget)
        monkeypatch.setattr(experiment, "_score_models", traced)
        run_experiment(cfg)
        sizes = [models for models, _ in peaks]
        # Initial's 30 models cost 320 x 24 floats each, 17 to a block
        assert sizes == [17, 13] + ([1] * 30 if one_model else [28, 2])
        assert max(ratio for _, ratio in peaks) <= self.MULTIPLE

    def test_refit_rankings_within_the_budget(self, cohort_file, monkeypatch):
        """Under ``pca.fit_within_fold`` each block ranks its models' classes
        in one ``neighbor_ranking`` call a class, whose row-block temporary
        shares the budget with the block's distance matrices."""
        cfg = ExperimentConfig(
            dataset=str(cohort_file),
            pca=PcaSettings(threshold=0.8, fit_within_fold=True),
            smote=SmoteSettings(order=("a", "c", "b"), per_class_target=180),
            eval=EvalSettings(seeds=(1, 2, 3), resample_scope="train-folds-only"),
        )
        class_rankings = experiment._class_rankings
        peaks = []

        def traced(features, members, order_idx, widths):
            tracemalloc.start()
            try:
                rankings = class_rankings(features, members, order_idx, widths)
                if order_idx:   # not Initial's call, which ranks no class
                    peaks.append((len(features), tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
            return rankings

        monkeypatch.setattr(experiment, "_class_rankings", traced)
        run_experiment(cfg)
        assert [models for models, _ in peaks] == [5] * 6
        budget = linalg.BLOCK_ELEMENTS * 8
        assert max(peak for _, peak in peaks) <= self.MULTIPLE * budget


#: three ``a`` rows and six ``b`` rows; SMOTE grows ``a`` to 5 rows
_ERROR_ROWS = b"x,y,class\n" + b"".join(
    b"%.1f,%.1f,%s\n" % (i + 0.5 * (i % 3), 0.3 * i * i, cls)
    for i, cls in enumerate([b"a"] * 3 + [b"b"] * 6)
)
#: seed 4's fold of each row a0..a2, b0..b5: every training fold is sound
_SOUND = [0, 1, 2, 0, 0, 1, 1, 2, 2]
#: test rows a0, a1 and b0: the training fold keeps one ``a`` row to grow,
#: a ResampleError
_SINGLETON = (0, 1, 3)
#: test row a2: the training fold keeps six ``b`` rows, above the target of
#: 5, a DataError
_ABOVE_TARGET = (2,)


def _folds(first: tuple, second: tuple) -> list[int]:
    """Seed 9's folds: fold 0 tests the rows ``first``, fold 1 the rows
    ``second``, fold 2 the rest."""
    fold_of = [2] * 9
    for fold, rows in ((0, first), (1, second)):
        for row in rows:
            fold_of[row] = fold
    return fold_of


class TestLeakFreeErrorOrder:
    """Under ``train-folds-only`` the first failing (seed, fold) model, in
    the order the per-fold loop visited them, names its fold, whichever
    check its error comes from and however the models are blocked."""

    @pytest.mark.parametrize("refit", [False, True], ids=["global-pca", "fit-within-fold"])
    @pytest.mark.parametrize("budget", [None, 1], ids=["one-block", "one-model-per-block"])
    @pytest.mark.parametrize(
        "first, second, message",
        [
            (_SINGLETON, _ABOVE_TARGET, "training fold 1 of seed 9: class a has 1 sample(s)"),
            (_ABOVE_TARGET, _SINGLETON,
             "training fold 1 of seed 9: smote.per_class_target=5 is below the largest class"),
        ],
        ids=["singleton-first", "target-first"],
    )
    def test_the_earlier_fold_is_named(
        self, tmp_path, monkeypatch, capsys, refit, budget, first, second, message
    ):
        data = tmp_path / "nine.csv"
        data.write_bytes(_ERROR_ROWS)
        config = tmp_path / "run.cfg"
        config.write_text(
            f"dataset = {data}\nsmote.order = a\nsmote.k = 2\nsmote.per_class_target = 5\n"
            f"eval.k = 3\neval.seeds = 4,9\neval.resample_scope = train-folds-only\n"
            f"pca.fit_within_fold = {str(refit).lower()}\n"
        )
        stack = np.array([_SOUND, _folds(first, second)])
        monkeypatch.setattr(experiment, "stratified_fold_stack", lambda ds, k, seeds: stack)
        if budget is not None:
            monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", budget)
        assert main(["experiment", "--config", str(config), "-o", str(tmp_path / "out")]) == 3
        assert f"error[data]: {data}, {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "failed_refit, error, message",
        [
            (0, AssertionError, "training fold 1 of seed 4: the per-fold path raised no error"),
            (5, ResampleError, "training fold 1 of seed 9: class a has 1 sample(s)"),
        ],
        ids=["refit-first", "refit-after-the-singleton"],
    )
    def test_a_failed_refit_takes_its_place_in_model_order(
        self, tmp_path, monkeypatch, failed_refit, error, message
    ):
        """A refit that ``fit_pca_subsets`` could not make (here marked by
        hand, so its rerun finds no error) is rerun only if no earlier model
        failed: model 3, seed 9's first fold, holds a singleton class."""
        data = tmp_path / "nine.csv"
        data.write_bytes(_ERROR_ROWS)
        cfg = ExperimentConfig(
            dataset=str(data),
            pca=PcaSettings(fit_within_fold=True),
            smote=SmoteSettings(k=2, order=("a",), per_class_target=5),
            eval=EvalSettings(k=3, seeds=(4, 9), resample_scope="train-folds-only"),
        )
        stack = np.array([_SOUND, _folds(_SINGLETON, _ABOVE_TARGET)])
        monkeypatch.setattr(experiment, "stratified_fold_stack", lambda ds, k, seeds: stack)
        fit_pca_subsets = experiment.fit_pca_subsets

        def failing(*args):
            fits = fit_pca_subsets(*args)
            fits[failed_refit] = None
            return fits

        monkeypatch.setattr(experiment, "fit_pca_subsets", failing)
        with pytest.raises(error) as raised:
            run_experiment(cfg)
        assert f"{data}, {message}" in str(raised.value)

    def test_the_error_types(self, tmp_path, monkeypatch):
        data = tmp_path / "nine.csv"
        data.write_bytes(_ERROR_ROWS)
        cfg = ExperimentConfig(
            dataset=str(data),
            smote=SmoteSettings(k=2, order=("a",), per_class_target=5),
            eval=EvalSettings(k=3, seeds=(4, 9), resample_scope="train-folds-only"),
        )
        for first, second, error in [
            (_SINGLETON, _ABOVE_TARGET, ResampleError),
            (_ABOVE_TARGET, _SINGLETON, DataError),
        ]:
            stack = np.array([_SOUND, _folds(first, second)])
            monkeypatch.setattr(experiment, "stratified_fold_stack", lambda ds, k, seeds: stack)
            with pytest.raises(error) as raised:
                run_experiment(cfg)
            assert type(raised.value) is error


class TestMisclassified:
    def test_perfect_accuracy_zero(self):
        ds = gaussian_blobs(_PyRandom(7), [(0.0,), (40.0,)], 6, 0.1)
        summary = evaluate_dataset(ds, EvalSettings("k-fold", k=3, seeds=(1,)))
        assert summary.mean.misclassified == 0

    def test_counts_complement_accuracy(self, lung):
        summary = evaluate_dataset(lung, EvalSettings("k-fold", k=10, seeds=(5,)))
        (_, row), = summary.per_seed
        assert row.misclassified == 32 - round(row.accuracy * 32)
