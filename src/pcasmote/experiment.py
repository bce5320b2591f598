"""Five-method comparison: Initial, PCA and SMOTE1..n, each scored by
Gaussian naive Bayes under seeded stratified cross-validation (README, "The
pipeline", step 4, and the ``eval.resample_scope`` paragraph after it).

Each set of labels draws every seed's folds once, as one ``(seeds, rows)``
stack.  Under ``whole-dataset`` each dataset is scored by one
``naive_bayes.cross_val_predict`` call; under ``train-folds-only`` one
``_leak_free_predictions`` call scores PCA and every SMOTE stage of every
(seed, fold) model.  One ``metric_rows`` call summarises every (seed,
method) confusion table of a run.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import linalg
from .config import PROTOCOLS, ExperimentConfig, validate_config
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
from .pca import PCA_MODES, fit_pca, fit_pca_subsets, project, transform
from .rng import derive_seed
from .smote import balance_sequence, neighbor_ranking, synthetic_rows

RATE_FIELDS = ("accuracy", "fp_rate", "precision", "recall", "misclassified")


@dataclass(frozen=True)
class EvalSummary:
    """A method's per-seed rows and their statistics over seeds: the mean
    row, the median row (float medians of every field of ``RATE_FIELDS``)
    and each such field's (min, max) in ``ranges``."""

    mean: MetricRow
    median: MetricRow
    per_seed: tuple[tuple[int, MetricRow], ...]
    ranges: dict

    @property
    def misclassified_median(self) -> float:
        return self.median.misclassified


@dataclass(frozen=True)
class StepResult:
    method_name: str
    n_features: int
    n_samples: int
    class_counts: list[int]
    summary: EvalSummary


@dataclass(frozen=True)
class ExperimentReport:
    """A run's results; what ``config`` and ``__version__`` hold is not repeated."""

    config: dict
    steps: tuple[StepResult, ...]
    dataset_sha256: str
    pca_retained: int
    pca_retained_other_mode: int


def _summarise(rows: list[tuple[int, MetricRow]]) -> EvalSummary:
    """Mean, median and spread of one method's per-seed rows, the one place
    they are computed; the mean and median rows keep the last seed's method
    name, sample count and feature count."""

    def values(name):
        return [getattr(row, name) for _, row in rows]

    means = {name: statistics.fmean(values(name)) for name in RATE_FIELDS}
    means["misclassified"] = round(means["misclassified"])
    medians = {name: float(statistics.median(values(name))) for name in RATE_FIELDS}
    last = rows[-1][1]
    return EvalSummary(
        mean=replace(last, **means),
        median=replace(last, **medians),
        per_seed=tuple(rows),
        ranges={name: (min(values(name)), max(values(name))) for name in RATE_FIELDS},
    )


def _fold_stack(ds: Dataset, protocol: str, k: int, seeds) -> np.ndarray:
    """Every seed's fold assignment of ``ds``, as one ``(len(seeds), n)``
    stack; a class of fewer than two rows raises ``DataError``."""
    for name, count in zip(ds.class_names, class_counts(ds)):
        if count < 2:
            raise DataError(
                f"{ds.provenance}: class {name} has {count} sample(s); need at least 2"
            )
    n_folds = ds.n_samples if protocol == "leave-one-out" else k
    return stratified_fold_stack(ds, n_folds, seeds)


def _summaries(counts: np.ndarray, names: list[str], widths, seeds) -> list[EvalSummary]:
    """Each method's summary of the confusion tables ``counts`` (S, M, C, C),
    one per seed and method, table (s, m) ``widths[s][m]`` features wide; all
    are summarised by one ``metric_rows`` call."""
    rows = metric_rows(counts, names, widths)
    return [
        _summarise([(seed, by_method[m]) for seed, by_method in zip(seeds, rows)])
        for m in range(len(names))
    ]


def evaluate_dataset(
    ds: Dataset, protocol: str, k: int, seeds, method_name: str = ""
) -> EvalSummary:
    """Seeded cross-validation of naive Bayes on one fixed dataset; every
    (seed, fold) model is fitted and scored by one ``cross_val_predict`` call.
    Raises ``ValueError`` on a protocol outside ``PROTOCOLS``, the check
    ``validate_config`` makes for ``run_experiment``."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    predicted = cross_val_predict(ds, _fold_stack(ds, protocol, k, seeds))
    counts = tally(ds.labels, predicted[:, None], ds.n_classes)
    return _summaries(counts, [method_name], [[ds.n_features]] * len(seeds), seeds)[0]


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
    """Every seed's ``train-folds-only`` predictions: PCA, then each SMOTE stage.

    Model ``s * n_folds + fold`` trains on seed s's training fold of the
    fold ``stack`` and scores its test rows, reduced by the global PCA
    (``reduced``) or, under ``pca.fit_within_fold``, by its own refit.
    Returns int64 predictions ``(len(stack), 1 + len(order_idx), n)``, PCA's
    first, and each seed's feature count, its last fold's.  Models with the
    same retained count share ``linalg.blocks`` sized by ``_block_cost``.

    Raises the error of the first failing model, in model order, as its
    rerun by ``_raise_fold_error`` gives it.
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
    members = [np.flatnonzero(base.labels == cls) for cls in range(base.n_classes)]
    # a class is ranked wide enough for any training fold of a stratified
    # assignment: a test fold removes at most ceil(n_c / n_folds) of its
    # n_c rows, and a run reads k + 1
    sizes = [members[cls].size for cls in order_idx]
    widths = [min(size, cfg.smote.k + 1 - (-size // n_folds)) for size in sizes]
    if cfg.pca.fit_within_fold:
        fits = fit_pca_subsets(base.features, keep, cfg.pca.threshold, cfg.pca.mode)
        retained = np.array([0 if fit is None else fit.retained for fit in fits])
        failed |= retained == 0
    else:
        retained = np.full(len(keep), reduced.n_features)
        features = reduced.features[None]
        rankings = _class_rankings(features, members, order_idx, widths)
    cost = _block_cost(
        base.n_samples if cfg.pca.fit_within_fold else 0, members, order_idx, widths,
        needed.max(axis=0, initial=0).tolist(), int((~keep).sum(axis=1).max()),
    )
    predicted = np.empty((len(stack), 1 + len(order_idx), base.n_samples), dtype=np.int64)
    for _, models in linalg.blocks(np.where(failed, 0, retained), cost):
        if cfg.pca.fit_within_fold:
            features = _refit_rows(base, [fits[b] for b in models.tolist()], keep[models])
            rankings = _class_rankings(features, members, order_idx, widths)
        failed[models] = ~_score_models(
            base, cfg, features, rankings, members, order_idx, keep[models], needed[models],
            seed_pos[models], fold[models], predicted,
        )
    if failed.any():
        b = int(np.argmax(failed))
        _raise_fold_error(base, cfg, reduced, order_idx, keep[b], *divmod(b, n_folds))
    return predicted, retained[n_folds - 1 :: n_folds].tolist()


def _block_cost(refit_rows: int, members, order_idx: list[int], widths, grown, tests: int):
    """A model's float count at its block's peak, as a function of the
    retained count f, for ``linalg.blocks``.

    A model holds its two fits' means and stds, and at its peak the largest
    of: its scoring of at most ``tests`` rows; a class's last-fit stack (its
    rows, the ``grown[i]`` rows most any model adds to ``order_idx[i]`` and
    their copies); or that class's synthesis (each grown row's base and
    neighbour, or twice its ``widths[i]`` ranking entries, and 16 index
    words).  Under a refit (``refit_rows``, the n rows a model reduces) it
    also holds its reduced rows, the class rows gathered from them, its
    int32 rankings and one class's n_c x n_c distances; the ranking's
    row-block temporary takes the rest of the block's budget.
    """
    sizes = [rows.size for rows in members]
    grows = dict(zip(order_idx, zip(grown, widths)))
    ranked = sum(sizes[cls] * width for cls, width in zip(order_idx, widths)) // 2
    distances = max((sizes[cls] ** 2 for cls in order_idx), default=0) if refit_rows else 0

    def cost(f: int) -> int:
        peaks = [2 * tests * len(sizes) * f, distances]
        for cls, size in enumerate(sizes):
            extra, width = grows.get(cls, (0, 0))
            gathered = size * f if refit_rows else 0
            peaks += [
                gathered + (size + 2 * extra) * f,
                gathered + extra * (2 * max(f, width) + 16),
            ]
        held = refit_rows * f + ranked if refit_rows else 0
        return 4 * len(sizes) * f + held + max(peaks)

    return cost


def _refit_rows(base: Dataset, fits, keep) -> np.ndarray:
    """``(models, n, retained)``: each model's rows reduced by its own PCA
    ``fits[b]``, its training rows ``keep[b]`` and test rows projected
    apart, as ``transform`` of each set would."""
    features = np.empty((len(fits), base.n_samples, fits[0].retained))
    for reduced, fit, in_train in zip(features, fits, keep):
        reduced[in_train] = project(fit, base.features[in_train])
        reduced[~in_train] = project(fit, base.features[~in_train])
    return features


def _class_rankings(features, members, order_idx: list[int], widths) -> list[np.ndarray]:
    """For each class ``order_idx[i]``, the ``(M * n_c, widths[i])``
    ``neighbor_ranking`` of its rows ``members[cls]`` in each matrix of
    ``features`` (M, n, f), one matrix after another."""
    return [
        neighbor_ranking(features[:, members[cls]], width).reshape(-1, width)
        for cls, width in zip(order_idx, widths)
    ]


def _score_models(
    base: Dataset, cfg: ExperimentConfig, features: np.ndarray, rankings, members,
    order_idx: list[int], keep: np.ndarray, needed: np.ndarray, seed_pos: np.ndarray,
    fold: np.ndarray, predicted: np.ndarray,
) -> np.ndarray:
    """Write a block's PCA and SMOTE-stage predictions to ``predicted``;
    return whether each model's fits are finite.  Nothing is written if a
    fit overflows.

    Model b is seed ``seed_pos[b]``'s fold ``fold[b]``: it trains on the
    rows ``keep[b]`` of matrix ``b % M`` of ``features`` (M, n, f), M being
    1 or the block's model count, and grows class ``order_idx[i]`` by
    ``needed[b, i]`` rows, from ``rankings`` as ``_class_rankings`` lays
    them out, run i drawing from ``derive_seed(chain seed, i)`` as
    ``balance_sequence`` does.  Class by class, one ``stack_moments`` call
    fits every model's kept rows, and one more its kept and synthetic rows.
    """
    models, n_features = len(keep), features.shape[-1]
    matrix = np.arange(models) % len(features)   # the matrix each model reads
    chain_seeds = [_chain_seed(cfg, s, f) for s, f in zip(seed_pos.tolist(), fold.tolist())]
    first, last = [], []   # each class's (counts, means, stds) of every model
    for cls, rows in enumerate(members):
        pts = features[:, rows]                          # (M, n_c, f)
        kept = keep[:, rows]
        fits = stack_moments(_class_stack(pts, models, 0), kept.T, [rows.size])
        first.append(fits)
        if cls in order_idx:
            i = order_idx.index(cls)
            synthetic = synthetic_rows(
                pts.reshape(-1, n_features), rankings[i], kept, needed[:, i], cfg.smote.k,
                [derive_seed(seed, i) for seed in chain_seeds],
                matrix * rows.size,
            )
            grown = synthetic.shape[1]
            stack = _class_stack(pts, models, grown)
            stack[rows.size :] = synthetic.swapaxes(0, 1)
            del synthetic   # else it stays beside the stack and raises the memory peak
            mask = np.concatenate([kept.T, (np.arange(grown) < needed[:, i, None]).T])
            fits = stack_moments(stack, mask, [rows.size + grown])
            del stack
        last.append(fits)
    first, last = ([np.concatenate(part, axis=1) for part in zip(*fits)] for fits in (first, last))
    finite = finite_fits(*first[1:]) & finite_fits(*last[1:])
    if finite.all():
        model, test_rows = np.nonzero(~keep)
        predicted[seed_pos[model], :, test_rows] = chain_predict(
            features[matrix[model], test_rows], model, first, last, order_idx
        )
    return finite


def _class_stack(pts: np.ndarray, models: int, extra: int) -> np.ndarray:
    """A rows-outermost ``(n_c + extra, models, f)`` stack whose first n_c
    rows are each model's class rows of ``pts`` (M, n_c, f), a stack of one
    broadcast to every model; the ``extra`` rows are left unset."""
    stack = np.empty((pts.shape[1] + extra, models, pts.shape[2]))
    stack[: pts.shape[1]] = pts.swapaxes(0, 1)
    return stack


def _raise_fold_error(
    base: Dataset, cfg: ExperimentConfig, reduced: Dataset, order_idx: list[int],
    in_train: np.ndarray, seed_pos: int, fold: int,
):
    """Raise the error that one failed model's fold meets first, by the
    per-fold path: its PCA refit under ``pca.fit_within_fold``, its SMOTE
    chain, then naive Bayes fits of its training fold and the last set."""
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
    other_mode, = set(PCA_MODES) - {cfg.pca.mode}
    other_model = fit_pca(imputed, cfg.pca.threshold, other_mode)

    names = method_names(len(order_idx))
    ev = cfg.eval
    stack = _fold_stack(imputed, ev.protocol, ev.k, ev.seeds)
    initial = cross_val_predict(imputed, stack)
    reduced = transform(pca_model, imputed)
    if ev.resample_scope == "whole-dataset":
        datasets = [imputed, reduced] + balance_sequence(
            reduced, order_idx, cfg.smote.per_class_target, k=cfg.smote.k, seed=cfg.smote.seed
        )
        # ``transform`` keeps the labels, so PCA's folds are Initial's
        predicted = [initial, cross_val_predict(reduced, stack)] + [
            cross_val_predict(ds, _fold_stack(ds, ev.protocol, ev.k, ev.seeds))
            for ds in datasets[2:]
        ]
        counts = np.stack(
            [tally(ds.labels, p, ds.n_classes) for ds, p in zip(datasets, predicted)], axis=1
        )
        widths = [[ds.n_features for ds in datasets]] * len(ev.seeds)
    else:
        datasets = [imputed] * len(names)
        leak_free, retained = _leak_free_predictions(imputed, cfg, reduced, order_idx, stack)
        predicted = np.concatenate([initial[:, None], leak_free], axis=1)
        counts = tally(imputed.labels, predicted, imputed.n_classes)
        widths = [[imputed.n_features] + [width] * (len(names) - 1) for width in retained]

    steps = tuple(
        StepResult(
            method_name=summary.mean.method_name,
            n_features=summary.mean.n_features,
            n_samples=summary.mean.n_samples,
            class_counts=class_counts(ds),
            summary=summary,
        )
        for ds, summary in zip(datasets, _summaries(counts, names, widths, ev.seeds))
    )
    return ExperimentReport(
        config=asdict(cfg),
        steps=steps,
        dataset_sha256=hashlib.sha256(Path(cfg.dataset).read_bytes()).hexdigest(),
        pca_retained=pca_model.retained,
        pca_retained_other_mode=other_model.retained,
    )
