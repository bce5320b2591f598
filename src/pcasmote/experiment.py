"""Five-method comparison harness.

The default flow evaluates, in order: the imputed raw dataset (Initial), its
PCA reduction (PCA), and the chained oversampling stages (SMOTE1..n), each
under seeded stratified cross-validation with naive Bayes.  A
cross-validation draws every seed's fold assignment in one call, as one
``(seeds, rows)`` stack, and asks a scorer for one held-out prediction per
seed, row and method; each seed's predictions of a method are pooled into one
confusion matrix, and the reported row is the mean over seeds with min/max
and medians retained.  A fixed dataset, Initial in every scope, is scored by
one ``naive_bayes.cross_val_predict`` call for all seeds, which fits the
(seed, fold) models in shared blocks.  Leave-one-out gives every seed the
same folds, so under ``whole-dataset`` a config may give it only one seed.

``resample_scope`` controls where oversampling happens: ``whole-dataset``
resamples once up front (synthetic neighbours of test points may then appear
in training — the historical protocol this harness reproduces) and
cross-validates each of the five datasets on its own, while
``train-folds-only`` resamples inside each training fold and tests only on
original samples.  There one function scores the SMOTE stages fold by fold:
they share each fold's split and one SMOTE chain; SMOTEi is the first i
stages of that chain.  Each fold fits naive Bayes twice, on its training
rows and on the chain's last set, and scores PCA and every stage from the
two (``naive_bayes.chain_predict``).  With the global PCA the data is
reduced once, each training fold is a row slice of it, and each class's
neighbours are ranked once per run, so a fold's neighbour table is a masked
read of that ranking.  Under ``pca.fit_within_fold`` each fold refits PCA
and ranks its own neighbours; each seed's reported ``n_features`` is then
its last fold's.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (
    Dataset,
    class_counts,
    impute_missing,
    load_dataset,
    stratified_fold_stack,
)
from .errors import DataError
from .metrics import MetricRow, confusion_matrix, metric_row
from .naive_bayes import chain_predict, cross_val_predict
from .pca import fit_pca, transform
from .rng import derive_seed
from .smote import balance_sequence, neighbor_ranking, restrict_ranking

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


def _summarise(rows: list[tuple[int, MetricRow]]) -> EvalSummary:
    """Mean, spread and median of one method's per-seed rows; the mean row
    keeps the last seed's method name, sample count and feature count."""

    def values(name):
        return [getattr(row, name) for _, row in rows]

    means = {name: statistics.fmean(values(name)) for name in RATE_FIELDS}
    means["misclassified"] = round(means["misclassified"])
    ranges = {name: (min(values(name)), max(values(name))) for name in RATE_FIELDS}
    return EvalSummary(
        mean=replace(rows[-1][1], **means),
        per_seed=tuple(rows),
        ranges=ranges,
        misclassified_median=float(statistics.median(values("misclassified"))),
    )


def _cross_validate(
    base: Dataset, protocol: str, k: int, seeds, names: list[str], scorer
) -> list[EvalSummary]:
    """The one seeded cross-validation driver: every method scored for every seed.

    ``scorer(stack)`` takes the ``(len(seeds), n)`` stack of fold
    assignments and returns ``(predictions, widths)``: int64 predictions of
    shape ``(len(seeds), len(names), n)``, one held-out prediction per seed,
    method and row of ``base``, and each seed's feature count.  Each
    method's predictions are pooled into one confusion matrix per seed; its
    summary's ``n_features`` is the last seed's width.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    for name, count in zip(base.class_names, class_counts(base)):
        if count < 2:
            raise DataError(
                f"{base.provenance}: class {name} has {count} sample(s); "
                "need at least 2"
            )
    stack = stratified_fold_stack(base, _n_folds(base, protocol, k), seeds)
    predicted, widths = scorer(stack)
    return [
        _summarise([
            (seed, metric_row(confusion_matrix(base.labels, row, base.n_classes), name, width))
            for seed, row, width in zip(seeds, predicted[:, m], widths)
        ])
        for m, name in enumerate(names)
    ]


def evaluate_dataset(
    ds: Dataset, protocol: str, k: int, seeds, method_name: str = ""
) -> EvalSummary:
    """Seeded cross-validation of naive Bayes on one fixed dataset; every
    (seed, fold) model is fitted and scored by one ``cross_val_predict`` call."""

    def scorer(stack):
        return cross_val_predict(ds, stack)[:, None], [ds.n_features] * len(stack)

    return _cross_validate(ds, protocol, k, seeds, [method_name], scorer)[0]


def _leak_free_predictions(
    base: Dataset, cfg: ExperimentConfig, reduced: Dataset, rankings: dict,
    order_idx: list[int], fold_of: np.ndarray, seed_pos: int,
):
    """One seed's scoring for ``train-folds-only``: PCA, then each SMOTE
    stage, per fold of ``fold_of``, row ``seed_pos`` of the fold stack.

    Returns a ``(1 + len(order_idx), n)`` int64 prediction array, PCA's row
    first, and the last fold's retained count.  Each method is trained on
    the fold's training rows and scored on its original test rows: rows of
    ``reduced``, with each class's neighbour table read from its ranking in
    ``rankings``, or under ``pca.fit_within_fold`` reduced by a refit on the
    training fold.  The SMOTE chain runs once over the full order;
    ``chain_predict`` scores PCA and stage i, SMOTE(i+1), from the training
    fold and the chain's last set.  The training fold's provenance names the
    fold (counted from 1) and the seed, so an error raised on it says its
    counts are the fold's.
    """
    refit = cfg.pca.fit_within_fold
    predicted = np.empty((1 + len(order_idx), base.n_samples), dtype=np.int64)
    for fold in range(int(fold_of.max()) + 1):
        test_idx = np.flatnonzero(fold_of == fold)
        in_train = fold_of != fold
        train = replace(
            (base if refit else reduced).subset(np.flatnonzero(in_train)),
            provenance=f"{base.provenance}, training fold {fold + 1} "
            f"of seed {cfg.eval.seeds[seed_pos]}",
        )
        test_x = reduced.features[test_idx]
        if refit:
            model = fit_pca(train, cfg.pca.threshold, cfg.pca.mode)
            train = transform(model, train)
            test_x = transform(model, base.subset(test_idx)).features
        final = ([train] + balance_sequence(
            train,
            order_idx,
            cfg.smote.per_class_target,
            k=cfg.smote.k,
            seed=derive_seed(derive_seed(cfg.smote.seed, seed_pos), fold),
            neighbors=None if refit else (
                lambda cls, k: restrict_ranking(rankings[cls], in_train[base.labels == cls], k)
            ),
        ))[-1]
        predicted[:, test_idx] = chain_predict(train, final, order_idx, test_x)
        del train, final  # else they outlive the next fold's chain and raise the memory peak
    return predicted, test_x.shape[1]


def _n_folds(ds: Dataset, protocol: str, k: int) -> int:
    return ds.n_samples if protocol == "leave-one-out" else k


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
    scored = [(imputed, evaluate_dataset(imputed, ev.protocol, ev.k, ev.seeds, "Initial"))]
    reduced = transform(pca_model, imputed)
    if ev.resample_scope == "whole-dataset":
        datasets = [reduced] + balance_sequence(
            reduced,
            order_idx,
            cfg.smote.per_class_target,
            k=cfg.smote.k,
            seed=cfg.smote.seed,
        )
        scored += [
            (ds, evaluate_dataset(ds, ev.protocol, ev.k, ev.seeds, name))
            for ds, name in zip(datasets, names[1:])
        ]
    elif ev.resample_scope == "train-folds-only":
        # wide enough for any training fold: a test fold holds <= ceil(n / n_folds) of n rows
        n_folds = _n_folds(imputed, ev.protocol, ev.k)
        rankings = {}
        for cls in [] if cfg.pca.fit_within_fold else order_idx:
            pts = reduced.features[reduced.labels == cls]
            width = cfg.smote.k + 1 - (-len(pts) // n_folds)
            rankings[cls] = neighbor_ranking(pts, min(len(pts), width))

        def scorer(stack):
            predicted, widths = zip(*(
                _leak_free_predictions(
                    imputed, cfg, reduced, rankings, order_idx, fold_of, seed_pos
                )
                for seed_pos, fold_of in enumerate(stack)
            ))
            return np.stack(predicted), widths

        summaries = _cross_validate(imputed, ev.protocol, ev.k, ev.seeds, names[1:], scorer)
        scored += [(imputed, summary) for summary in summaries]
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
        dataset_sha256=hashlib.sha256(Path(cfg.dataset).read_bytes()).hexdigest(),
        toolkit_version=__version__,
        resample_scope=cfg.eval.resample_scope,
        pca_mode=cfg.pca.mode,
        pca_retained=pca_model.retained,
        pca_retained_other_mode=other_model.retained,
    )
