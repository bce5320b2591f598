"""Minority oversampling by interpolation between nearest neighbours.

A synthetic row is ``base + u * (neighbour - base)`` where the neighbour is
one of the base sample's k nearest same-class neighbours and u is uniform in
[0, 1).  Generation cycles over the minority samples in index order, drawing
the neighbour choice and then u for each synthetic row, so a run is fully
determined by its seed.  Synthetic rows are appended after the originals.

A class's neighbour table comes from one n x n squared-distance matrix and
one stable row-wise sort, so ties go to the lower index; memory is quadratic
in the class size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, class_counts
from .errors import DataError, ResampleError
from .rng import Rng, derive_seed


@dataclass(frozen=True)
class SmoteConfig:
    """One oversampling run: grow ``target_class`` to ``target_count`` rows."""

    target_class: int
    target_count: int
    k: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.target_count < 0:
            raise ValueError("target_count must be nonnegative")


def _neighbor_table(pts: np.ndarray, k: int) -> np.ndarray:
    """Row i lists the ``k`` nearest other rows to ``pts[i]`` by (distance, index).

    Squared Euclidean distances fill an n x n matrix row by row and a stable
    sort breaks distance ties toward the lower index.  The diagonal is set
    below every distance, so each row sorts itself first and is sliced off,
    even where distances overflow to infinity.
    """
    n = pts.shape[0]
    dist2 = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        deltas = pts - pts[i]
        dist2[i] = np.einsum("ij,ij->i", deltas, deltas)
    np.fill_diagonal(dist2, -1.0)
    return np.argsort(dist2, axis=1, kind="stable")[:, 1 : k + 1]


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
    return _neighbor_table(pts, min(k, n - 1))[idx].tolist()


def synthesize(sample: np.ndarray, neighbor: np.ndarray, rng: Rng) -> np.ndarray:
    """One synthetic point on the segment from ``sample`` toward ``neighbor``."""
    s = np.asarray(sample, dtype=np.float64)
    nb = np.asarray(neighbor, dtype=np.float64)
    if s.shape != nb.shape:
        raise ValueError(f"length mismatch: {s.shape} vs {nb.shape}")
    u = rng.random()
    return s + u * (nb - s)


def oversample_class(ds: Dataset, cfg: SmoteConfig) -> Dataset:
    """Append synthetic rows until ``target_class`` has ``target_count`` samples.

    Original rows are preserved in order; ``k`` is clamped to the class size
    minus one.  Returns the input unchanged when the class already has the
    target count.

    Raises:
        ResampleError: the target class has fewer than two samples.
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
            f"class {ds.class_names[cfg.target_class]} has {current} sample(s); "
            "need at least 2 to interpolate"
        )

    minority = ds.features[member_idx]
    k_eff = min(cfg.k, current - 1)
    neighbor_lists = _neighbor_table(minority, k_eff).tolist()

    rng = Rng(cfg.seed)
    needed = cfg.target_count - current
    synthetic = np.empty((needed, ds.n_features), dtype=np.float64)
    for j in range(needed):
        base = j % current
        choices = neighbor_lists[base]
        neighbor = choices[rng.randrange(len(choices))]
        synthetic[j] = synthesize(minority[base], minority[neighbor], rng)

    features = np.vstack([ds.features, synthetic])
    labels = np.concatenate(
        [ds.labels, np.full(needed, cfg.target_class, dtype=np.int64)]
    )
    return Dataset(
        features=features,
        labels=labels,
        class_names=ds.class_names,
        feature_names=ds.feature_names,
        provenance=ds.provenance,
    )


def balance_sequence(
    ds: Dataset,
    order: list[int],
    per_class_target: int,
    k: int = 5,
    seed: int = 0,
) -> list[Dataset]:
    """Run one oversampling pass per class in ``order``, chaining outputs.

    Run ``i`` uses the deterministic sub-seed ``derive_seed(seed, i)``.
    Returns every intermediate dataset (empty list for an empty order).
    Raises ``DataError`` if ``per_class_target`` is below the largest class.
    """
    if len(set(order)) != len(order):
        raise ValueError("order must list distinct classes")
    counts = class_counts(ds)
    if order and per_class_target < max(counts):
        largest = int(np.argmax(counts))
        raise DataError(
            f"smote.per_class_target={per_class_target} is below the largest class, "
            f"{ds.class_names[largest]} with {counts[largest]} samples"
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
