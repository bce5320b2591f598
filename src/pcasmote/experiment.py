"""Five-method comparison: Initial, PCA and SMOTE1..n, each scored by
Gaussian naive Bayes under seeded stratified cross-validation (README, "The
pipeline", step 4, and the ``eval.resample_scope`` paragraph after it).

Each set of labels draws every seed's folds once, as one ``(seeds, rows)``
stack.  One function, ``_fold_predictions``, fits and scores every (seed,
fold) model of a call in blocks: Initial and each ``whole-dataset`` dataset
are a call with no SMOTE chain, and under ``train-folds-only`` one call
scores PCA and every SMOTE stage of every model.  One ``metric_rows`` call
summarises every (seed, method) confusion table of a run.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import linalg
from .config import (
    EvalSettings, ExperimentConfig, PcaSettings, SmoteSettings, validate_config, validate_eval,
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
from .naive_bayes import chain_predict, class_moments, finite_fits, fit_nb, stack_moments
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
    """A method's class counts and summary; its name, feature count and
    sample count are its mean row's."""

    class_counts: list[int]
    summary: EvalSummary

    @property
    def method_name(self) -> str:
        return self.summary.mean.method_name

    @property
    def n_features(self) -> int:
        return self.summary.mean.n_features

    @property
    def n_samples(self) -> int:
        return self.summary.mean.n_samples


@dataclass(frozen=True)
class ExperimentReport:
    """A run's results; what ``config`` and ``__version__`` hold is not repeated."""

    config: dict
    steps: tuple[StepResult, ...]
    dataset_sha256: str
    pca_retained: int
    pca_retained_other_mode: int


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
    one per seed and method, table (s, m) ``widths[s][m]`` features wide: the
    one place statistics over seeds are computed.  Every row comes from one
    ``metric_rows`` call; the mean and median rows keep the last seed's
    method name, sample count and feature count."""
    summaries = []
    for rows in metric_rows(counts, names, widths):
        columns = {name: [getattr(row, name) for row in rows] for name in RATE_FIELDS}
        means = {name: statistics.fmean(values) for name, values in columns.items()}
        means["misclassified"] = round(means["misclassified"])
        medians = {name: float(statistics.median(values)) for name, values in columns.items()}
        summaries.append(EvalSummary(
            mean=replace(rows[-1], **means),
            median=replace(rows[-1], **medians),
            per_seed=tuple(zip(seeds, rows)),
            ranges={name: (min(values), max(values)) for name, values in columns.items()},
        ))
    return summaries


def evaluate_dataset(ds: Dataset, ev: EvalSettings, method_name: str = "") -> EvalSummary:
    """Seeded cross-validation of naive Bayes on one fixed dataset under the
    settings ``ev``; every (seed, fold) model is fitted and scored by one
    ``_fold_predictions`` call.  Invalid settings raise the ``ConfigError``
    that ``validate_eval`` gives the CLI."""
    validate_eval(ev)
    predicted, _ = _fold_predictions(ds, _fold_stack(ds, ev.protocol, ev.k, ev.seeds), ev.seeds)
    counts = tally(ds.labels, predicted, ds.n_classes)
    return _summaries(counts, [method_name], [[ds.n_features]] * len(ev.seeds), ev.seeds)[0]


def _chain_seed(smote: SmoteSettings, seed_pos: int, fold: int) -> int:
    """The seed of the SMOTE chain of seed ``seed_pos``'s fold ``fold``."""
    return derive_seed(derive_seed(smote.seed, seed_pos), fold)


def _fold_predictions(
    ds: Dataset, stack: np.ndarray, seeds, order_idx=(), smote: SmoteSettings | None = None,
    refit: PcaSettings | None = None,
):
    """Every seed's cross-validated naive Bayes predictions of ``ds``: the
    one loop over (seed, fold) models, for every method in either scope.

    Model ``s * n_folds + fold`` trains on seed s's training fold of the
    fold ``stack`` and scores its test rows, by itself and then by each
    stage of its SMOTE chain over the classes ``order_idx`` under
    ``smote``.  Under ``refit``, the PCA settings of ``pca.fit_within_fold``,
    a PCA refit on its training rows reduces them and its test rows first.
    Returns int64 predictions ``(len(stack), 1 + len(order_idx), n)`` and
    each seed's feature count, its last fold's.  Models with the same
    feature count share ``linalg.blocks`` sized by ``_block_cost``.

    Raises the error of the first failing model, in model order, as its
    rerun by ``_raise_fold_error`` gives it, naming its fold and its seed of
    ``seeds``.
    """
    order_idx = list(order_idx)
    n_folds = int(stack.max()) + 1
    seed_pos, fold = np.divmod(np.arange(len(stack) * n_folds), n_folds)
    keep = stack[seed_pos] != fold[:, None]                              # (models, n)
    needed = np.zeros((len(keep), len(order_idx)), dtype=np.int64)      # (models, order)
    failed = np.zeros(len(keep), dtype=bool)
    if order_idx:
        counts = keep @ np.eye(ds.n_classes, dtype=np.int64)[ds.labels]  # (models, classes)
        needed = smote.per_class_target - counts[:, order_idx]
        below_two = (needed > 0) & (counts[:, order_idx] < 2)
        failed = (counts.max(axis=1) > smote.per_class_target) | below_two.any(axis=1)
        needed[failed] = 0
    members = [np.flatnonzero(ds.labels == cls) for cls in range(ds.n_classes)]
    # a class is ranked wide enough for any training fold of a stratified
    # assignment: a test fold removes at most ceil(n_c / n_folds) of its
    # n_c rows, and a run reads k + 1
    sizes = [members[cls].size for cls in order_idx]
    widths = [min(size, smote.k + 1 - (-size // n_folds)) for size in sizes]
    if refit:
        fits = fit_pca_subsets(ds.features, keep, refit.threshold, refit.mode)
        retained = np.array([0 if fit is None else fit.retained for fit in fits])
        failed |= retained == 0
    else:
        retained = np.full(len(keep), ds.n_features)
        features = ds.features[None]
        rankings = _class_rankings(features, members, order_idx, widths)
    cost = _block_cost(
        bool(refit), members, order_idx, widths, needed.max(axis=0, initial=0).tolist(),
        int((~keep).sum(axis=1).max()),
    )
    predicted = np.empty((len(stack), 1 + len(order_idx), ds.n_samples), dtype=np.int64)
    for _, models in linalg.blocks(np.where(failed, 0, retained), cost):
        if refit:
            features = _refit_rows(ds, [fits[b] for b in models.tolist()], keep[models])
            rankings = _class_rankings(features, members, order_idx, widths)
        failed[models] = ~_score_models(
            ds, smote, features, rankings, members, order_idx, keep[models], needed[models],
            seed_pos[models], fold[models], predicted,
        )
    if failed.any():
        b = int(np.argmax(failed))
        _raise_fold_error(ds, seeds, smote, refit, order_idx, keep[b], *divmod(b, n_folds))
    return predicted, retained[n_folds - 1 :: n_folds].tolist()


def _block_cost(refit: bool, members, order_idx: list[int], widths, grown, tests: int):
    """A model's float count at its block's peak, as a function of the
    retained count f, for ``linalg.blocks``.

    At its peak a model holds the largest of: its scoring of at most
    ``tests`` rows; its first fit's stack of all n rows; a grown class's
    last-fit stack (its rows, the ``grown[i]`` rows most any model adds to
    ``order_idx[i]`` and their copies); or that class's synthesis (each
    grown row's base and neighbour, or twice its ``widths[i]`` ranking
    entries, and 16 index words).  With a chain it also holds its two
    fits' means and stds; without one, its one fit's are left out, so the
    blocks of a plain dataset hold ``BLOCK_ELEMENTS // (n x f)`` models or
    fewer.  Under a ``refit`` it also holds its n reduced rows, its int32
    rankings and one class's n_c x n_c distances, and a class stack's rows
    are first gathered from its reduced rows; the ranking's row-block
    temporary takes the rest of the block's budget.
    """
    sizes = [rows.size for rows in members]
    n = sum(sizes)
    ranked = sum(sizes[cls] * width for cls, width in zip(order_idx, widths)) // 2
    distances = max((sizes[cls] ** 2 for cls in order_idx), default=0) if refit else 0

    def cost(f: int) -> int:
        peaks = [2 * tests * len(sizes) * f, distances, n * f]
        for cls, extra, width in zip(order_idx, grown, widths):
            gathered = sizes[cls] * f if refit else 0
            peaks += [
                gathered + (sizes[cls] + 2 * extra) * f,
                gathered + extra * (2 * max(f, width) + 16),
            ]
        fits = 4 * len(sizes) * f if order_idx else 0
        held = n * f + ranked if refit else 0
        return fits + held + max(peaks)

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
    ds: Dataset, smote: SmoteSettings | None, features: np.ndarray, rankings, members,
    order_idx: list[int], keep: np.ndarray, needed: np.ndarray, seed_pos: np.ndarray,
    fold: np.ndarray, predicted: np.ndarray,
) -> np.ndarray:
    """Write a block's predictions, every stage's, to ``predicted``; return
    whether each model's fits are finite.  Nothing is written if a fit
    overflows.

    Model b is seed ``seed_pos[b]``'s fold ``fold[b]``: it trains on the
    rows ``keep[b]`` of matrix ``b % M`` of ``features`` (M, n, f), M being
    1 or the block's model count, and grows class ``order_idx[i]`` by
    ``needed[b, i]`` rows, from ``rankings`` as ``_class_rankings`` lays
    them out, run i drawing from ``derive_seed(chain seed, i)`` as
    ``balance_sequence`` does.  One ``class_moments`` call fits every
    model's kept rows of every class, and one ``stack_moments`` call a
    grown class's kept and synthetic rows.
    """
    models, n_features = len(keep), features.shape[-1]
    matrix = np.arange(models) % len(features)   # the matrix each model reads
    first = class_moments(ds, features, keep)
    finite = finite_fits(*first[1:])
    last = first
    if order_idx:
        chain_seeds = [_chain_seed(smote, s, f) for s, f in zip(seed_pos.tolist(), fold.tolist())]
        last = tuple(part.copy() for part in first)
    for i, cls in enumerate(order_idx):
        rows = members[cls]
        pts = features[:, rows]                          # (M, n_c, f)
        kept = keep[:, rows]
        synthetic = synthetic_rows(
            pts.reshape(-1, n_features), rankings[i], kept, needed[:, i], smote.k,
            [derive_seed(seed, i) for seed in chain_seeds], matrix * rows.size,
        )
        grown = synthetic.shape[1]
        # rows outermost: each model's class rows of ``pts``, a stack of one
        # broadcast to every model, then its synthetic rows
        stack = np.empty((rows.size + grown, models, n_features))
        stack[: rows.size] = pts.swapaxes(0, 1)
        stack[rows.size :] = synthetic.swapaxes(0, 1)
        del synthetic   # else it stays beside the stack and raises the memory peak
        mask = np.concatenate([kept.T, (np.arange(grown) < needed[:, i, None]).T])
        fits = stack_moments(stack, mask, [rows.size + grown])
        del stack
        finite &= finite_fits(*fits[1:])
        for whole, part in zip(last, fits):
            whole[:, cls] = part[:, 0]
    if finite.all():
        model, test_rows = np.nonzero(~keep)
        predicted[seed_pos[model], :, test_rows] = chain_predict(
            features[matrix[model], test_rows], model, first, last, order_idx
        )
    return finite


def _raise_fold_error(
    ds: Dataset, seeds, smote: SmoteSettings | None, refit: PcaSettings | None,
    order_idx: list[int], in_train: np.ndarray, seed_pos: int, fold: int,
):
    """Raise the error that one failed model's fold meets first, by the
    per-fold path: its PCA refit under ``refit``, its SMOTE chain, then
    naive Bayes fits of its training fold and the last set.  The error
    names the training fold (counted from 1) and its seed, so its counts
    read as the fold's."""
    provenance = f"{ds.provenance}, training fold {fold + 1} of seed {seeds[seed_pos]}"
    train = replace(ds.subset(np.flatnonzero(in_train)), provenance=provenance)
    if refit:
        train = transform(fit_pca(train, refit.threshold, refit.mode), train)
    final = train
    if order_idx:
        final = balance_sequence(
            train, order_idx, smote.per_class_target, k=smote.k,
            seed=_chain_seed(smote, seed_pos, fold),
        )[-1]
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
    scored = [(imputed, _fold_predictions(imputed, stack, ev.seeds))]
    if ev.resample_scope == "whole-dataset":
        reduced = transform(pca_model, imputed)
        datasets = [imputed, reduced] + balance_sequence(
            reduced, order_idx, cfg.smote.per_class_target, k=cfg.smote.k, seed=cfg.smote.seed
        )
        # ``transform`` keeps the labels, so PCA's folds are Initial's
        stacks = [stack] + [_fold_stack(ds, ev.protocol, ev.k, ev.seeds) for ds in datasets[2:]]
        scored += [(ds, _fold_predictions(ds, s, ev.seeds)) for ds, s in zip(datasets[1:], stacks)]
    else:
        datasets = [imputed] * len(names)
        refit = cfg.pca if cfg.pca.fit_within_fold else None
        base = imputed if refit else transform(pca_model, imputed)
        leak_free = _fold_predictions(base, stack, ev.seeds, order_idx, cfg.smote, refit)
        scored.append((imputed, leak_free))
    # each call's predictions (seeds, stages, n) and widths (seeds,), stage by stage
    counts = np.concatenate([tally(ds.labels, p, ds.n_classes) for ds, (p, _) in scored], axis=1)
    widths = np.concatenate(
        [np.repeat(np.array(w)[:, None], p.shape[1], axis=1) for _, (p, w) in scored], axis=1
    ).tolist()

    steps = tuple(
        StepResult(class_counts=class_counts(ds), summary=summary)
        for ds, summary in zip(datasets, _summaries(counts, names, widths, ev.seeds))
    )
    return ExperimentReport(
        config=asdict(cfg),
        steps=steps,
        dataset_sha256=hashlib.sha256(Path(cfg.dataset).read_bytes()).hexdigest(),
        pca_retained=pca_model.retained,
        pca_retained_other_mode=other_model.retained,
    )
