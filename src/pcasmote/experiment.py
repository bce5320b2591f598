"""Five-method comparison harness.

The default flow evaluates, in order: the imputed raw dataset (Initial), its
PCA reduction (PCA), and the chained oversampling stages (SMOTE1..n), each
under seeded stratified cross-validation with naive Bayes.  One loop runs
over the seeds: per seed it draws the fold assignment, asks a scorer for one
held-out prediction per row and method, and pools each method's predictions
into one confusion matrix; the reported row is the mean over seeds with
min/max and medians retained.  A fixed dataset is scored once per seed with
every fold's model fitted at once (``naive_bayes.cross_val_predict``); under
``train-folds-only`` one function scores a seed fold by fold, since each
fold builds its own training sets.  Leave-one-out gives every seed the same
folds, so under ``whole-dataset`` a config may give it only one seed.

``resample_scope`` controls where oversampling happens: ``whole-dataset``
resamples once up front (synthetic neighbours of test points may then appear
in training — the historical protocol this harness reproduces) and
cross-validates each of the five datasets on its own, while
``train-folds-only`` resamples inside each training fold and tests only on
original samples.  There all methods share each fold's split, one PCA fit
(the global model, or a refit on the training fold under
``pca.fit_within_fold``) and one SMOTE chain; SMOTEi is the first i stages
of that chain.  Under ``fit_within_fold`` the reported ``n_features`` is the
retained count of the last fold scored.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from . import __version__
from .dataset import (
    Dataset,
    class_counts,
    impute_missing,
    load_dataset,
    stratified_folds,
)
from .errors import DataError
from .metrics import MetricRow, confusion_matrix, metric_row
from .naive_bayes import cross_val_predict, fit_nb, predict_matrix
from .pca import PcaModel, fit_pca, transform
from .rng import derive_seed
from .smote import balance_sequence

PROTOCOLS = ("k-fold", "leave-one-out")
RESAMPLE_SCOPES = ("whole-dataset", "train-folds-only")

RATE_FIELDS = ("accuracy", "fp_rate", "precision", "recall", "misclassified")


@dataclass
class PcaSettings:
    threshold: float = 0.90
    mode: str = "correlation"
    fit_within_fold: bool = False


@dataclass
class SmoteSettings:
    k: int = 5
    order: tuple[str, ...] = ("TypeA", "TypeC", "TypeB")
    per_class_target: int = 18
    seed: int = 7


@dataclass
class EvalSettings:
    protocol: str = "k-fold"
    k: int = 10
    seeds: tuple[int, ...] = tuple(range(1, 21))
    resample_scope: str = "whole-dataset"


@dataclass
class ExperimentConfig:
    dataset: str
    imputation: str = "mode"
    pca: PcaSettings = field(default_factory=PcaSettings)
    smote: SmoteSettings = field(default_factory=SmoteSettings)
    eval: EvalSettings = field(default_factory=EvalSettings)


@dataclass(frozen=True)
class EvalSummary:
    """Mean metrics over seeds plus the per-seed rows and spreads."""

    mean: MetricRow
    per_seed: tuple[tuple[int, MetricRow], ...]
    ranges: dict            # field -> (min, max) over seeds
    misclassified_median: float


@dataclass(frozen=True)
class StepResult:
    method_name: str
    n_features: int
    n_samples: int
    class_counts: list[int]
    summary: EvalSummary


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    steps: tuple[StepResult, ...]
    dataset_sha256: str
    toolkit_version: str
    resample_scope: str
    pca_mode: str
    pca_retained: int
    pca_retained_other_mode: int


def _summarise(
    rows: list[tuple[int, MetricRow]], method_name: str, n_samples: int, n_features: int
) -> EvalSummary:
    def values(name):
        return [getattr(row, name) for _, row in rows]

    acc = statistics.fmean(values("accuracy"))
    mean_row = MetricRow(
        method_name=method_name,
        n_samples=n_samples,
        n_features=n_features,
        accuracy=acc,
        fp_rate=statistics.fmean(values("fp_rate")),
        precision=statistics.fmean(values("precision")),
        recall=statistics.fmean(values("recall")),
        misclassified=round(statistics.fmean(values("misclassified"))),
    )
    ranges = {name: (min(values(name)), max(values(name))) for name in RATE_FIELDS}
    return EvalSummary(
        mean=mean_row,
        per_seed=tuple(rows),
        ranges=ranges,
        misclassified_median=float(statistics.median(values("misclassified"))),
    )


def _cross_validate(
    base: Dataset, protocol: str, k: int, seeds, names: list[str], scorer
) -> list[EvalSummary]:
    """The one seeded cross-validation loop: every method scored per seed.

    ``scorer(fold_of, seed_pos)`` returns, per name in ``names``, one
    held-out prediction per row of ``base`` and the feature count the method
    was scored with; each method's predictions are pooled into one confusion
    matrix per seed.  A method's reported ``n_features`` is its last seed's.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    for name, count in zip(base.class_names, class_counts(base)):
        if count < 2:
            raise DataError(
                f"{base.provenance}: class {name} has {count} sample(s); "
                "need at least 2"
            )
    n_folds = base.n_samples if protocol == "leave-one-out" else k
    rows: list[list] = [[] for _ in names]
    n_features = [base.n_features] * len(names)
    for seed_pos, seed in enumerate(seeds):
        fold_of = stratified_folds(base, n_folds, seed)
        for m, (predicted, width) in enumerate(scorer(fold_of, seed_pos)):
            n_features[m] = width
            cm = confusion_matrix(base.labels, predicted, base.n_classes, base.class_names)
            rows[m].append((seed, metric_row(cm, names[m], width)))
    return [
        _summarise(rows[m], name, base.n_samples, n_features[m])
        for m, name in enumerate(names)
    ]


def evaluate_dataset(
    ds: Dataset, protocol: str, k: int, seeds, method_name: str = ""
) -> EvalSummary:
    """Seeded cross-validation of naive Bayes on one fixed dataset; every
    fold of a seed is fitted and scored at once."""

    def scorer(fold_of, seed_pos: int):
        return [(cross_val_predict(ds, fold_of), ds.n_features)]

    return _cross_validate(ds, protocol, k, seeds, [method_name], scorer)[0]


def _leak_free_predictions(
    base: Dataset,
    cfg: ExperimentConfig,
    pca_model: PcaModel | None,
    order_idx: list[int],
    fold_of: np.ndarray,
    seed_pos: int,
):
    """Scorer for ``train-folds-only``: per fold, Initial, PCA, then each SMOTE stage.

    Every method is trained on the fold's training rows and scored on its
    original test rows.  The fold's reducer is ``pca_model``, or a refit on
    the training fold when it is None; the SMOTE chain runs once over the
    full order and stage i is SMOTE(i+1).  The training fold's provenance
    names the fold (counted from 1) and the seed, so an error raised on it
    says that its counts are the fold's, not the file's.  A method's feature
    count is its last fold's.
    """
    predicted = np.empty((2 + len(order_idx), base.n_samples), dtype=np.int64)
    width = base.n_features
    for fold in range(int(fold_of.max()) + 1):
        test_idx = np.flatnonzero(fold_of == fold)
        train = replace(
            base.subset(np.flatnonzero(fold_of != fold)),
            provenance=f"{base.provenance}, training fold {fold + 1} "
            f"of seed {cfg.eval.seeds[seed_pos]}",
        )
        test = base.subset(test_idx)
        predicted[0, test_idx] = predict_matrix(fit_nb(train), test.features)
        model = pca_model or fit_pca(train, cfg.pca.threshold, cfg.pca.mode)
        train = transform(model, train)
        test_x = transform(model, test).features
        width = test_x.shape[1]
        predicted[1, test_idx] = predict_matrix(fit_nb(train), test_x)
        stages = balance_sequence(
            train,
            order_idx,
            cfg.smote.per_class_target,
            k=cfg.smote.k,
            seed=derive_seed(derive_seed(cfg.smote.seed, seed_pos), fold),
        )
        del train  # each stage is dropped once scored, to keep the memory peak low
        for m in range(2, len(predicted)):
            predicted[m, test_idx] = predict_matrix(fit_nb(stages.pop(0)), test_x)
    return [(predicted[0], base.n_features)] + [(p, width) for p in predicted[1:]]


def resolve_order(ds: Dataset, order: tuple[str, ...]) -> list[int]:
    """Map class names from the config onto label indices; a name that is
    not a class of ``ds`` raises ``DataError`` naming its provenance."""
    indices = []
    for name in order:
        if name not in ds.class_names:
            raise DataError(
                f"smote.order class {name!r} is not in {ds.provenance}, "
                f"whose classes are {', '.join(ds.class_names)}"
            )
        indices.append(ds.class_names.index(name))
    return indices


def method_names(n_smote_runs: int) -> list[str]:
    return ["Initial", "PCA"] + [f"SMOTE{i}" for i in range(1, n_smote_runs + 1)]


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute the full comparison described by ``cfg``."""
    raw = load_dataset(cfg.dataset)
    imputed = impute_missing(raw, cfg.imputation)
    order_idx = resolve_order(imputed, cfg.smote.order)

    pca_model = fit_pca(imputed, cfg.pca.threshold, cfg.pca.mode)
    other_mode = "covariance" if cfg.pca.mode == "correlation" else "correlation"
    other_model = fit_pca(imputed, cfg.pca.threshold, other_mode)

    names = method_names(len(order_idx))
    ev = cfg.eval
    if ev.resample_scope == "whole-dataset":
        reduced = transform(pca_model, imputed)
        datasets = [imputed, reduced] + balance_sequence(
            reduced,
            order_idx,
            cfg.smote.per_class_target,
            k=cfg.smote.k,
            seed=cfg.smote.seed,
        )
        scored = [
            (ds, evaluate_dataset(ds, ev.protocol, ev.k, ev.seeds, method_name=name))
            for ds, name in zip(datasets, names)
        ]
    elif ev.resample_scope == "train-folds-only":
        fold_pca = None if cfg.pca.fit_within_fold else pca_model
        scorer = partial(_leak_free_predictions, imputed, cfg, fold_pca, order_idx)
        summaries = _cross_validate(imputed, ev.protocol, ev.k, ev.seeds, names, scorer)
        scored = [(imputed, summary) for summary in summaries]
    else:
        raise ValueError(f"unknown resample scope {ev.resample_scope!r}")

    steps = tuple(
        StepResult(
            method_name=summary.mean.method_name,
            n_features=summary.mean.n_features,
            n_samples=summary.mean.n_samples,
            class_counts=class_counts(ds),
            summary=summary,
        )
        for ds, summary in scored
    )
    return ExperimentReport(
        config=asdict(cfg),
        steps=steps,
        dataset_sha256=_sha256_of(cfg.dataset),
        toolkit_version=__version__,
        resample_scope=cfg.eval.resample_scope,
        pca_mode=cfg.pca.mode,
        pca_retained=pca_model.retained,
        pca_retained_other_mode=other_model.retained,
    )


def _sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()
