"""Gaussian naive Bayes on continuous features (README, "The pipeline", step 4).

A class's score is its log prior plus the sum of its per-feature Gaussian
log densities.  Priors are Laplace smoothed, ``(count + 1) / (N +
n_classes)``, so every class is defined even in degenerate training splits.

:func:`stack_moments` states the moments once, for a batch of stacked
training sets, and :func:`class_moments` makes each set's classes its
segments: :func:`fit_nb` fits a batch of one, and
``experiment._fold_predictions`` a block of (seed, fold) models, whose
test rows :func:`chain_predict` scores by every stage of each model's SMOTE
chain from two fits, or by the model alone from one fit when it has no
chain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import model_io
from .dataset import Dataset
from .errors import DataError

STD_FLOOR = 1e-6
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class NbModel:
    """Fitted classifier: priors plus per-class Gaussian feature parameters."""

    priors: np.ndarray       # (n_classes,)
    means: np.ndarray        # (n_classes, n_features)
    stds: np.ndarray         # (n_classes, n_features), floored at STD_FLOOR
    class_names: tuple[str, ...]

    @property
    def n_classes(self) -> int:
        return self.priors.shape[0]

    @property
    def n_features(self) -> int:
        return self.means.shape[1]


def _segment_sums(stack: np.ndarray, segments) -> np.ndarray:
    """(S, B, f) sums of ``stack`` (L, B, f) over each ``(lo, hi)`` segment
    of rows, added in row order from ``-0.0``."""
    sums = np.empty((len(segments), *stack.shape[1:]))
    for s, (lo, hi) in enumerate(segments):
        np.add.reduce(stack[lo:hi], axis=0, out=sums[s], initial=-0.0)
    return sums


def stack_moments(stack: np.ndarray, keep: np.ndarray, sizes):
    """Counts (B, S), means and floored stds (B, S, f) of B stacked sets.

    The rows of ``stack`` (L, B, f) are cut into S consecutive segments of
    ``sizes`` rows; entry (b, s) describes the rows of segment s that the
    mask ``keep[:, b]`` (L, B) keeps.  The std uses divisor ``count - 1`` and
    is the floor below two rows; a segment with no kept row has a NaN mean.
    ``stack`` is overwritten; the results are C-contiguous.

    Each set's moments equal a fit on its kept rows alone, bit for bit: a
    left-out row is ``-0.0``, the exact additive identity (``s + -0.0 == s``
    for every ``s``, signed zeros included), or ``0.0`` among the squared
    deviations, and numpy adds the rows of a non-innermost axis one after
    another.  Rows go outermost so that each pass runs over contiguous (B,
    f) rows.  A lone column (``B * f == 1``) would make the row axis the
    inner loop, summed pairwise, where the inserted zeros regroup the sum;
    it is summed beside a copy of itself.
    """
    n_sets, n_features = stack.shape[1:]
    if n_sets * n_features == 1:
        stack = np.concatenate([stack, stack], axis=2)   # two columns: summed row after row
    bounds = [0, *itertools.accumulate(sizes)]
    segments = list(zip(bounds, bounds[1:]))
    left_out = ~keep
    stack[left_out] = -0.0
    counts = np.repeat(np.eye(len(segments)), sizes, axis=1) @ keep   # (S, B) whole numbers
    per_set = counts[:, :, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # summed from -0.0, a lone row is its own mean, -0.0 included; adding
        # +0.0 gives a longer run the +0.0 start that np.mean's sum has
        means = _segment_sums(stack, segments)
        np.add(means, 0.0, out=means, where=per_set != 1)
        means /= per_set
        for s, (lo, hi) in enumerate(segments):
            stack[lo:hi] -= means[s]
        np.square(stack, out=stack)
        # squared deviations and left-out rows are >= +0.0: from -0.0 they sum as from +0.0
        stack[left_out] = 0.0
        stds = _segment_sums(stack, segments)
        stds /= per_set - 1
        np.sqrt(stds, out=stds)
        np.maximum(stds, STD_FLOOR, out=stds)
    stds[counts < 2] = STD_FLOOR
    means, stds = (np.ascontiguousarray(a[..., :n_features].swapaxes(0, 1)) for a in (means, stds))
    return counts.T, means, stds


def class_moments(ds: Dataset, features: np.ndarray, keep: np.ndarray):
    """``stack_moments`` of the classes of each row mask ``keep[b]`` (B, n)
    of the rows of ``features[b % M]``, ``features`` (M, n, f) holding the
    rows of ``ds`` (M is 1 or B): the rows are grouped by ``ds``'s class, in
    their order within each class, so a class is one segment.  A class with
    no kept row has a NaN mean."""
    order = np.argsort(ds.labels, kind="stable")
    sizes = np.bincount(ds.labels, minlength=ds.n_classes)
    stack = features.swapaxes(0, 1)[order]   # (n, M, f), rows outermost
    if len(features) < len(keep):
        stack = np.repeat(stack, len(keep), axis=1)
    return stack_moments(stack, keep[:, order].T, sizes)


def finite_fits(means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """(B,) whether each of B fits' means and stds (B, C, f) fit in float64."""
    return np.isfinite(means).all(axis=(1, 2)) & np.isfinite(stds).all(axis=(1, 2))


def _laplace_priors(counts: np.ndarray) -> np.ndarray:
    """Priors ``(count + 1) / (N + C)`` of class counts (..., C)."""
    return (counts + 1.0) / (counts.sum(axis=-1) + counts.shape[-1])[..., None]


def fit_nb(ds: Dataset) -> NbModel:
    """Priors, per-class means and stds of a dataset.

    A class's std uses divisor ``n_c - 1``, and is ``STD_FLOOR`` below two
    samples; a class absent from the data takes the global column mean and
    std, so its Laplace prior still gives a defined score.

    Raises ``DataError`` naming the provenance when a mean or a variance
    overflows float64, ``ValueError`` on an empty dataset.
    """
    if ds.n_samples == 0 or ds.n_features == 0:
        raise ValueError("cannot fit on an empty dataset")
    every_row = np.ones((1, ds.n_samples), dtype=bool)
    (counts,), (means,), (stds,) = class_moments(ds, ds.features[None], every_row)
    absent = counts == 0
    if absent.any():
        stack = ds.features[:, None].copy()
        _, global_means, global_stds = stack_moments(stack, every_row.T, [ds.n_samples])
        # + 0.0: the global mean of a lone row is np.mean's, from +0.0
        means[absent] = global_means[0] + 0.0
        stds[absent] = global_stds[0]
    if not finite_fits(means[None], stds[None]).all():
        raise DataError(
            f"{ds.provenance}: the class means or variances of the features "
            "overflow float64"
        )
    return NbModel(
        priors=_laplace_priors(counts), means=means, stds=stds, class_names=ds.class_names
    )


def chain_predict(rows, model, first, last, order) -> np.ndarray:
    """(n_rows, 1 + len(order)) int64 predictions of row i by each stage of
    the SMOTE chain of model ``model[i]``, stage j having grown ``order[:j]``.

    ``first`` and ``last`` are ``class_moments`` (counts, means, stds) of
    every model's training set and of its chain's last set.  A grown class
    takes ``last``'s counts and moments, the others ``first``'s, which is
    bit for bit a fit per stage; with an empty ``order`` each row is scored
    once, by ``first`` alone, and ``last`` is not read.  Raises
    ``ValueError`` where that fails: a class absent from a training set
    (its fallback moments would depend on the stage's rows), or grown but
    not in ``order``.
    """
    counts = first[0]
    done = np.zeros((1 + len(order), counts.shape[1]), dtype=bool)   # (stage, class)
    for i, cls in enumerate(order):
        done[i + 1 :, cls] = True
    if (counts == 0).any() or (len(order) and (counts != last[0])[:, ~done[-1]].any()):
        raise ValueError("last must grow only classes of order, each present in first")
    stage_counts = counts[:, None]                                 # (models, stage, class)
    densities = _log_densities(rows, *first[1:], model)[:, None]   # (rows, stage, class)
    if len(order):
        stage_counts = np.where(done, last[0][:, None], stage_counts)
        densities = np.where(done, _log_densities(rows, *last[1:], model)[:, None], densities)
    return np.argmax(np.log(_laplace_priors(stage_counts))[model] + densities, axis=2)


def _check_vector(model: NbModel, x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != model.n_features:
        raise ValueError(
            f"expected a vector of length {model.n_features}, got shape {v.shape}"
        )
    return v


def _log_scores(rows, priors, means, stds) -> np.ndarray:
    """(n_rows, n_classes) log scores of ``rows`` (n, f) against one model's
    ``priors`` (C,), ``means`` and ``stds`` (C, f)."""
    return np.log(priors) + _log_densities(rows, means, stds)


def _log_densities(rows, means, stds, model=None) -> np.ndarray:
    """``_log_scores`` without the log priors: per class, the sum of the
    per-feature Gaussian log densities, built in place in one (n, C, f)
    array; the logs of the stds are taken once per model, not per row."""
    x = np.asarray(rows, dtype=np.float64)[:, None, :]      # (n, 1, f)

    def per_row(a):
        return a if model is None else a[model]

    z = x - per_row(means)
    z /= per_row(stds)
    z *= z
    z *= -0.5
    z -= per_row(np.log(stds))
    z -= 0.5 * _LOG_2PI
    return z.sum(axis=2)


def log_posterior(model: NbModel, x) -> np.ndarray:
    """Per-class log scores for one feature vector (unnormalised)."""
    v = _check_vector(model, x)
    return _log_scores(v[None, :], model.priors, model.means, model.stds)[0]


def posterior(model: NbModel, x) -> np.ndarray:
    """Normalised class probabilities (softmax of the log scores)."""
    scores = log_posterior(model, x)
    shifted = np.exp(scores - scores.max())
    return shifted / shifted.sum()


def predict(model: NbModel, x) -> int:
    """Most probable class index; ties break toward the lowest index."""
    return int(np.argmax(log_posterior(model, x)))


def predict_matrix(model: NbModel, rows: np.ndarray) -> np.ndarray:
    """Vectorised ``predict`` over the rows of a matrix."""
    scores = _log_scores(rows, model.priors, model.means, model.stds)
    return np.argmax(scores, axis=1).astype(np.int64)


#: each field of a model file, with its shape as ``model_io.read_model`` takes it
_FILE_FIELDS = {
    "class_names": None,
    "priors": ("class_names",), "means": ("class_names", "f"), "stds": ("class_names", "f"),
}


#: each bounded field of a model file, as ``model_io.read_model`` takes its rules
_FILE_RULES = {
    "class_names": (
        "a list of strings",
        lambda names: isinstance(names, list) and all(isinstance(n, str) for n in names),
    ),
    "priors": model_io.POSITIVE,
    "stds": model_io.POSITIVE,
}


def save_nb(model: NbModel, path) -> None:
    fields = {name: getattr(model, name) for name in _FILE_FIELDS}
    model_io.write_model(path, "naive-bayes", fields)


def load_nb(path) -> NbModel:
    """The model ``save_nb`` wrote to ``path``; raises ``DataError`` as
    ``model_io.read_model`` does."""
    fields = model_io.read_model(path, "naive-bayes", _FILE_FIELDS, _FILE_RULES)
    return NbModel(**{**fields, "class_names": tuple(fields["class_names"])})
