"""SMOTE: minority oversampling by interpolation between nearest neighbours
(README, "The pipeline", step 3).

A synthetic row is ``base + u * (neighbour - base)``, the neighbour one of
the base's k nearest same-class rows and u uniform in [0, 1).  Generation
cycles over the class's rows in index order, drawing the neighbour choice
and then u for each row, so a run is fully determined by its seed;
synthetic rows follow the originals.  ``synthetic_rows`` states the rule
once, for a batch of runs; ``oversample_class`` is its batch of one.  A
class's neighbour table is read from its ``neighbor_ranking``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .dataset import Dataset, class_counts
from .errors import DataError, ResampleError
from .rng import derive_seed, next_u64_array


@dataclass(frozen=True)
class SmoteConfig:
    """One oversampling run: grow ``target_class`` to ``target_count`` rows."""

    target_class: int
    target_count: int
    k: int
    seed: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.target_count < 0:
            raise ValueError("target_count must be nonnegative")


def neighbor_ranking(pts: np.ndarray, width: int) -> np.ndarray:
    """Row i lists the first ``width`` rows by (distance to ``pts[i]``, index),
    for ``pts`` (n, f), or for each matrix of a stack (..., n, f), as int32;
    each row ranks itself first, even where distances overflow.

    Squared distances fill an n x n matrix a block of rows at a time, each
    block against itself and the later rows, mirrored into their columns
    since ``(a - b)**2`` equals ``(b - a)**2`` bit for bit; memory is
    quadratic in n.  A block's rows are then whole and are sorted at once.
    """
    n = pts.shape[-2]
    dist2 = np.empty((*pts.shape[:-1], n), dtype=np.float64)
    # a block's temporary is step x pts; it gets what the distances leave of the budget
    step = max(1, (linalg.BLOCK_ELEMENTS - dist2.size) // max(1, pts.size))
    ranking = np.empty((*pts.shape[:-1], width), dtype=np.int32)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        deltas = pts[..., None, lo:, :] - pts[..., lo:hi, None, :]
        dist2[..., lo:hi, lo:] = np.einsum("...ijk,...ijk->...ij", deltas, deltas)
        del deltas
        dist2[..., hi:, lo:hi] = dist2[..., lo:hi, hi:].swapaxes(-1, -2)
        dist2[..., np.arange(lo, hi), np.arange(lo, hi)] = -1.0
        ranking[..., lo:hi, :] = np.argsort(dist2[..., lo:hi, :], axis=-1, kind="stable")[..., :width]
    return ranking


def nearest_minority_neighbors(points: np.ndarray, idx: int, k: int) -> list[int]:
    """Indices of the ``min(k, rows-1)`` nearest rows to ``points[idx]``.

    Euclidean distance; the query row itself is excluded; ties break toward
    the lower index; the result is sorted by (distance, index).  Duplicate
    points are admitted as zero-distance neighbours.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < 2:
        raise ValueError("need at least two rows to find neighbours")
    if not 0 <= idx < n:
        raise ValueError(f"row index {idx} out of range")
    if k < 1:
        raise ValueError("k must be at least 1")
    return neighbor_ranking(pts, min(k, n - 1) + 1)[idx, 1:].tolist()


def _interpolate(sample, neighbor, u):
    """``sample + u * (neighbor - sample)``, elementwise; the SMOTE formula.
    Computed in place in ``neighbor``, which is overwritten and returned."""
    neighbor -= sample
    neighbor *= u
    neighbor += sample
    return neighbor


def synthetic_rows(pts, ranking, kept, needed, k, seeds, offset) -> np.ndarray:
    """Synthetic rows of a batch of B SMOTE runs over rows of ``pts``.

    Run b reads the n rows of ``pts`` and of ``ranking`` from ``offset[b]``
    on, ``offset`` a (B,) int array, and keeps those that ``kept[b]`` (n,)
    masks, of one class, at least two if it grows any.  It grows them by
    ``needed[b]`` rows from the stream of ``seeds[b]``: row j has base
    ``j % count``, neighbour choice ``draw(2j) % min(k, count - 1)`` and
    ``u = draw(2j + 1)`` as ``Rng.random`` reads it.  ``ranking[i]`` lists
    rows from the run's offset as ``neighbor_ranking`` ranks row i's class,
    padded with -1; the neighbour is the base's ``choice + 1``-th kept entry
    after itself, which is the kept rows' own table, since a stable order
    restricted to a subset keeps its order.

    Returns a ``(B, max(needed), f)`` array, padded with ``-0.0`` past each
    run's rows.  Raises ``ValueError`` if a ranking holds too few kept rows.
    """
    needed = np.asarray(needed, dtype=np.int64)
    width = int(needed.max(initial=0))
    grown = np.arange(width) < needed[:, None]
    run, j = np.nonzero(grown)
    per_run = kept.sum(axis=1)
    counts = per_run[run]
    k_eff = np.minimum(k, counts - 1)
    # draws 2j and 2j+1 of a stream are row j's Rng.randrange(k_eff) and
    # Rng.random(), as the rng module defines them
    draws = next_u64_array(seeds, 2 * width).reshape(len(kept), width, 2)[run, j]
    choice = (draws[:, 0] % k_eff.astype(np.uint64)).astype(np.int64)
    u = (draws[:, 1] >> 11) * 2.0**-53
    del draws
    kept_at = np.nonzero(kept)[1]   # each run's kept rows, in order, run after run
    base = kept_at[(np.cumsum(per_run) - per_run)[run] + j % counts]
    del kept_at
    at = offset[run]
    ranked = ranking[at + base].astype(np.intp)   # else each index below copies it to intp
    usable = kept[run[:, None], ranked] & (ranked >= 0)
    seen = usable.sum(axis=1)
    if (seen <= k_eff).any():
        raise ValueError(f"ranking of width {ranking.shape[1]} holds too few kept rows")
    # the (choice + 2)-th usable entry: the base itself comes first
    neighbor = ranked.reshape(-1)[np.flatnonzero(usable)[np.cumsum(seen) - seen + choice + 1]]
    del ranked, usable
    rows = _interpolate(pts[at + base], pts[at + neighbor], u[:, None])
    out = np.full((len(kept), width, pts.shape[1]), -0.0)
    out[grown] = rows
    return out


def oversample_class(ds: Dataset, cfg: SmoteConfig) -> Dataset:
    """``ds`` with synthetic rows of ``target_class`` appended, up to
    ``target_count`` (``ds`` itself if the class has that many):
    ``synthetic_rows`` of a batch of one keeping the whole class.

    Raises:
        ResampleError: the class has fewer than two samples (names the
                       provenance).
        ValueError:    ``target_count`` is below the current count.
    """
    if not 0 <= cfg.target_class < ds.n_classes:
        raise ValueError(f"class index {cfg.target_class} out of range")
    member_idx = np.nonzero(ds.labels == cfg.target_class)[0]
    current = int(member_idx.size)
    if cfg.target_count < current:
        raise ValueError(
            f"target_count {cfg.target_count} is below the current count {current}"
        )
    if cfg.target_count == current:
        return ds
    if current < 2:
        raise ResampleError(
            f"{ds.provenance}: class {ds.class_names[cfg.target_class]} has "
            f"{current} sample(s); need at least 2 to interpolate"
        )

    minority = ds.features[member_idx]
    needed = cfg.target_count - current
    synthetic = synthetic_rows(
        minority,
        neighbor_ranking(minority, min(cfg.k, current - 1) + 1),
        np.ones((1, current), dtype=bool),
        [needed],
        cfg.k,
        [cfg.seed],
        np.zeros(1, dtype=np.int64),
    )[0]
    features = np.vstack([ds.features, synthetic])
    labels = np.concatenate(
        [ds.labels, np.full(needed, cfg.target_class, dtype=np.int64)]
    )
    return replace(ds, features=features, labels=labels)


def balance_sequence(
    ds: Dataset, order: list[int], per_class_target: int, k: int, seed: int
) -> list[Dataset]:
    """Every dataset of a chain of ``oversample_class`` runs, one per class
    of ``order``, run i seeded ``derive_seed(seed, i)``.  Raises
    ``DataError`` naming the provenance if ``per_class_target`` is below the
    largest class."""
    if len(set(order)) != len(order):
        raise ValueError("order must list distinct classes")
    counts = class_counts(ds)
    if order and per_class_target < max(counts):
        largest = int(np.argmax(counts))
        raise DataError(
            f"{ds.provenance}: smote.per_class_target={per_class_target} is below "
            f"the largest class, {ds.class_names[largest]} with {counts[largest]} "
            "samples"
        )
    results: list[Dataset] = []
    current = ds
    for i, cls in enumerate(order):
        cfg = SmoteConfig(
            target_class=cls,
            target_count=per_class_target,
            k=k,
            seed=derive_seed(seed, i),
        )
        current = oversample_class(current, cfg)
        results.append(current)
    return results
