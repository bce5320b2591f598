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
original samples.  There one scorer call handles every (seed, fold) model:
each model runs one SMOTE chain on its training fold, so SMOTEi is the
first i stages of that chain, and needs two naive Bayes fits, of the
training fold and of the chain's last set, from which
``naive_bayes.chain_predict`` scores PCA and every stage.  Models that
retain the same number of components are scored in blocks: one
``smote.synthetic_rows`` call grows every model's classes, one
``naive_bayes.stack_moments`` pass gives both fits of every model, and each
test row is scored against its own model.  With the global PCA the data is
reduced once, each class's neighbours are ranked once per run, and a block
is a run of consecutive models that share the reduced rows.  Under
``pca.fit_within_fold`` one ``pca.fit_pca_subsets`` call refits every
fold's PCA, a stack of training folds at a time; a block holds each of its
models' rows reduced by the model's own refit, and one ranking of each
class per model, made for the whole block at once.  Each seed's reported
``n_features`` is its last fold's.  Once every block is scored, the first
failing model is rerun alone by the per-fold path (its PCA refit,
``balance_sequence``, then ``fit_nb``), so the error raised is the first
failing model's first, as fold after fold.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, linalg
from .config import (  # the settings are importable from here as well
    PROTOCOLS, RESAMPLE_SCOPES, EvalSettings, ExperimentConfig, PcaSettings, SmoteSettings,
    validate_config,
)
from .dataset import (
    Dataset,
    class_counts,
    impute_missing,
    load_dataset,
    stratified_fold_stack,
)
from .errors import DataError
from .metrics import MetricRow, metric_rows, tally
from .naive_bayes import chain_predict, cross_val_predict, finite_fits, fit_nb, stack_moments
from .pca import fit_pca, fit_pca_subsets, project, transform
from .rng import derive_seed
from .smote import balance_sequence, neighbor_ranking, synthetic_rows

RATE_FIELDS = ("accuracy", "fp_rate", "precision", "recall", "misclassified")


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
    method's predictions are pooled into one confusion matrix per seed, all
    of them tallied at once and summarised by one ``metric_rows`` call; a
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
    n_folds = base.n_samples if protocol == "leave-one-out" else k
    stack = stratified_fold_stack(base, n_folds, seeds)
    predicted, widths = scorer(stack)
    rows = metric_rows(tally(base.labels, predicted, base.n_classes), names, widths)
    return [
        _summarise([(seed, by_method[m]) for seed, by_method in zip(seeds, rows)])
        for m in range(len(names))
    ]


def evaluate_dataset(
    ds: Dataset, protocol: str, k: int, seeds, method_name: str = ""
) -> EvalSummary:
    """Seeded cross-validation of naive Bayes on one fixed dataset; every
    (seed, fold) model is fitted and scored by one ``cross_val_predict`` call."""

    def scorer(stack):
        return cross_val_predict(ds, stack)[:, None], [ds.n_features] * len(stack)

    return _cross_validate(ds, protocol, k, seeds, [method_name], scorer)[0]


def _fold_provenance(base: Dataset, cfg: ExperimentConfig, seed_pos: int, fold: int) -> str:
    """Names a training fold (counted from 1) and its seed, so an error
    raised on it says its counts are the fold's."""
    return f"{base.provenance}, training fold {fold + 1} of seed {cfg.eval.seeds[seed_pos]}"


def _chain_seed(cfg: ExperimentConfig, seed_pos: int, fold: int) -> int:
    """The seed of the SMOTE chain of seed ``seed_pos``'s fold ``fold``."""
    return derive_seed(derive_seed(cfg.smote.seed, seed_pos), fold)


def _leak_free_predictions(
    base: Dataset, cfg: ExperimentConfig, reduced: Dataset, order_idx: list[int],
    stack: np.ndarray,
):
    """Every seed's scoring for ``train-folds-only``: PCA, then each SMOTE stage.

    Model ``s * n_folds + fold`` is trained on seed s's training fold and
    scored on its original test rows.  Returns int64 predictions of shape
    ``(len(stack), 1 + len(order_idx), n)``, PCA's row first, and each
    seed's feature count, its last fold's.  Each model reduces the rows by
    the global PCA (``reduced``) or, under ``pca.fit_within_fold``, by its
    own refit, all folds' refits fitted by ``fit_pca_subsets``.  Models with
    the same retained count are scored in ``linalg.blocks``, a model
    counting ``2n + len(order_idx) * per_class_target`` stacked rows of
    that width; under the global PCA the blocks are runs of consecutive
    models that share the rows of ``reduced`` and one ranking of each class
    of the order.  Once every block is scored, the first model that failed,
    in model order, is rerun alone to raise its error.
    """
    n_folds = int(stack.max()) + 1
    seed_pos, fold = np.divmod(np.arange(len(stack) * n_folds), n_folds)
    keep = stack[seed_pos] != fold[:, None]                              # (models, n)
    counts = keep @ np.eye(base.n_classes, dtype=np.int64)[base.labels]  # (models, classes)
    target = cfg.smote.per_class_target
    needed = target - counts[:, order_idx]                               # (models, order)
    failed = np.zeros(len(keep), dtype=bool)
    if order_idx:
        below_two = (needed > 0) & (counts[:, order_idx] < 2)
        failed = (counts.max(axis=1) > target) | below_two.any(axis=1)
    needed[failed] = 0
    if cfg.pca.fit_within_fold:
        fits = fit_pca_subsets(base.features, keep, cfg.pca.threshold, cfg.pca.mode)
        widths = np.array([0 if fit is None else fit.retained for fit in fits])
        failed |= widths == 0
    else:
        widths = np.full(len(keep), reduced.n_features)
        ranking = _class_ranking(reduced.features, base.labels, order_idx, cfg.smote.k, n_folds)
    per_model = 2 * base.n_samples + len(order_idx) * target
    predicted = np.empty((len(stack), 1 + len(order_idx), base.n_samples), dtype=np.int64)
    for _, models in linalg.blocks(np.where(failed, 0, widths), lambda w: per_model * w):
        features = reduced.features
        if cfg.pca.fit_within_fold:
            features, ranking = _refit_rows(
                base, [fits[b] for b in models.tolist()], keep[models], order_idx, cfg.smote.k,
                n_folds,
            )
        failed[models] = ~_score_models(
            base, cfg, features, ranking, order_idx, keep[models], needed[models],
            seed_pos[models], fold[models], predicted,
        )
    if failed.any():
        b = int(np.argmax(failed))
        _raise_fold_error(base, cfg, reduced, order_idx, keep[b], *divmod(b, n_folds))
    return predicted, widths[n_folds - 1 :: n_folds].tolist()


def _refit_rows(base: Dataset, fits, keep, order_idx: list[int], k: int, n_folds: int):
    """Each model's rows reduced by its own PCA ``fits[b]``, as a
    ``(models, n, retained)`` stack, and their ``_class_ranking``s, stacked
    as ``(models * n, width)``.  A model's training rows and test rows are
    projected apart, as ``transform`` of each set would."""
    features = np.empty((len(fits), base.n_samples, fits[0].retained))
    for reduced, fit, in_train in zip(features, fits, keep):
        reduced[in_train] = project(fit, base.features[in_train])
        reduced[~in_train] = project(fit, base.features[~in_train])
    ranking = _class_ranking(features, base.labels, order_idx, k, n_folds)
    return features, ranking.reshape(-1, ranking.shape[-1])


def _class_ranking(features, labels, order_idx, k, n_folds) -> np.ndarray:
    """Each row's ``neighbor_ranking`` within its class, for the classes of
    the order, as row indices of ``features`` (n, f), padded with -1 (rows
    of a label outside the order are all -1); of a stack (models, n, f),
    each matrix's ranking.

    A class is ranked wide enough for any training fold of a stratified
    assignment into ``n_folds``: a test fold removes at most
    ``ceil(n / n_folds)`` of a class's n rows, and a run reads ``k + 1``.
    """
    widths = {}
    for cls in order_idx:
        size = int(np.count_nonzero(labels == cls))
        widths[cls] = min(size, k + 1 - (-size // n_folds))
    ranking = np.full((*features.shape[:-1], max(widths.values(), default=0)), -1)
    for cls, width in widths.items():
        members = np.flatnonzero(labels == cls)
        ranking[..., members, :width] = members[neighbor_ranking(features[..., members, :], width)]
    return ranking


def _score_models(
    base: Dataset, cfg: ExperimentConfig, features: np.ndarray, ranking: np.ndarray,
    order_idx: list[int], keep: np.ndarray, needed: np.ndarray, seed_pos: np.ndarray,
    fold: np.ndarray, predicted: np.ndarray,
) -> np.ndarray:
    """PCA's and every SMOTE stage's predictions by a block of models,
    written to ``predicted``; returns whether each model's fits are finite.

    Model b is seed ``seed_pos[b]``'s fold ``fold[b]``: it trains on the
    rows ``keep[b]`` of ``features``, one (n, f) matrix that every model
    shares or a (models, n, f) stack of one per model, and grows class
    ``order_idx[i]`` by ``needed[b, i]`` rows.  ``ranking`` ranks each class
    of the order within the shared matrix, or, stacked, within each model's
    own.  One ``synthetic_rows`` call grows every model's classes; run i of
    model b draws from ``derive_seed(chain seed, i)``, as
    ``balance_sequence`` does.  ``_chain_fits`` fits each model's training
    fold and its chain's last set, and ``chain_predict`` scores every test
    row against its own model from the two.  Nothing is written if a fit
    overflows.
    """
    n = base.n_samples
    at = np.arange(len(keep)) * n if features.ndim == 3 else np.zeros(len(keep), dtype=np.int64)
    flat = features.reshape(-1, features.shape[-1])
    chain_seeds = [_chain_seed(cfg, s, f) for s, f in zip(seed_pos.tolist(), fold.tolist())]
    synthetic = synthetic_rows(
        flat,
        ranking,
        (keep[:, None, :] & (base.labels == np.array(order_idx)[:, None])).reshape(-1, n),
        needed.reshape(-1),
        cfg.smote.k,
        [derive_seed(seed, i) for seed in chain_seeds for i in range(len(order_idx))],
        np.repeat(at, len(order_idx)),
    )
    first, last = _chain_fits(features, base, keep, order_idx, synthetic, needed)
    finite = finite_fits(*first[1:]) & finite_fits(*last[1:])
    if finite.all():
        model, test_rows = np.nonzero(~keep)
        predicted[seed_pos[model], :, test_rows] = chain_predict(
            flat[at[model] + test_rows], model, first, last, order_idx
        )
    return finite


def _chain_fits(features: np.ndarray, base: Dataset, keep, order_idx: list[int], synthetic, needed):
    """``class_moments`` of each model's training fold, the rows ``keep[b]``
    of ``features`` (shared, or its own of a stack), and of its chain's
    last set, from one ``stack_moments`` pass.

    ``synthetic`` holds ``synthetic_rows`` of the runs (model b, order
    position i), ``needed[b, i]`` rows each.  The last set keeps the other
    classes' moments; a grown class's are those of its kept rows followed
    by its synthetic rows, which is its run of rows in that set.
    """
    models, n_classes, width = len(keep), base.n_classes, synthetic.shape[1]
    n_features = features.shape[-1]
    synthetic = synthetic.reshape(models, len(order_idx), width, n_features)
    rows = features.swapaxes(0, 1) if features.ndim == 3 else features[:, None]   # rows outermost
    by_class = np.argsort(base.labels, kind="stable")
    sizes = np.bincount(base.labels, minlength=n_classes).tolist()
    parts = [(rows[by_class], keep[:, by_class])]
    for i, cls in enumerate(order_idx):
        members = np.flatnonzero(base.labels == cls)
        parts += [
            (rows[members], keep[:, members]),
            (synthetic[:, i].swapaxes(0, 1), np.arange(width) < needed[:, i, None]),
        ]
        sizes.append(len(members) + width)
    sets = np.empty((sum(sizes), models, n_features))
    kept = np.empty(sets.shape[:2], dtype=bool)
    lo = 0
    for part, mask in parts:
        hi = lo + mask.shape[1]
        sets[lo:hi], kept[lo:hi] = part, mask.T
        lo = hi
    del parts, synthetic   # else they stay beside the stacked sets and raise the memory peak
    moments = stack_moments(sets, kept, sizes)
    first = [a[:, :n_classes] for a in moments]
    last = [a.copy() for a in first]
    for whole, grown in zip(last, moments):
        whole[:, order_idx] = grown[:, n_classes:]
    return first, last


def _raise_fold_error(
    base: Dataset, cfg: ExperimentConfig, reduced: Dataset, order_idx: list[int],
    in_train: np.ndarray, seed_pos: int, fold: int,
):
    """Rerun one failed model by the per-fold path: its PCA refit under
    ``pca.fit_within_fold``, its SMOTE chain, then a naive Bayes fit of its
    training fold and of the chain's last set, which raises the error the
    model's fold meets first."""
    rows = np.flatnonzero(in_train)
    provenance = _fold_provenance(base, cfg, seed_pos, fold)
    if cfg.pca.fit_within_fold:
        train = replace(base.subset(rows), provenance=provenance)
        train = transform(fit_pca(train, cfg.pca.threshold, cfg.pca.mode), train)
    else:
        train = replace(reduced.subset(rows), provenance=provenance)
    final = ([train] + balance_sequence(
        train, order_idx, cfg.smote.per_class_target, k=cfg.smote.k,
        seed=_chain_seed(cfg, seed_pos, fold),
    ))[-1]
    fit_nb(train)
    fit_nb(final)
    raise AssertionError(f"{train.provenance}: the per-fold path raised no error")


def resolve_order(ds: Dataset, order: tuple[str, ...]) -> list[int]:
    """Map the class names of a validated config's ``smote.order`` onto
    label indices; a name that is not a class of ``ds`` raises
    ``DataError`` naming its provenance."""
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
    """Execute the full comparison described by ``cfg``; an invalid ``cfg``
    raises the ``ConfigError`` that ``validate_config`` gives the CLI."""
    validate_config(cfg)
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
    else:
        def scorer(stack):
            return _leak_free_predictions(imputed, cfg, reduced, order_idx, stack)

        summaries = _cross_validate(imputed, ev.protocol, ev.k, ev.seeds, names[1:], scorer)
        scored += [(imputed, summary) for summary in summaries]

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
