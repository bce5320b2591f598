"""Tabular dataset container plus loading, imputation, and fold assignment.

Missing cells are represented by NaN until :func:`impute_missing` runs; a
complete dataset contains no NaN.  Datasets are treated as immutable: the
backing arrays are marked read-only and every operation returns a new value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, ImputationError
from .rng import Rng

LUNG_CLASS_NAMES = ("TypeA", "TypeB", "TypeC")
LUNG_N_FEATURES = 56


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix with integer class labels and naming metadata.

    Args:
        features:      (n_samples, n_features) float64 matrix; NaN = missing.
        labels:        (n_samples,) integer class indices in [0, n_classes).
        class_names:   ordered class names; defines the label alphabet.
        feature_names: one name per feature column.
        provenance:    free-text source tag, not part of equality.
    """

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]
    feature_names: tuple[str, ...]
    provenance: str = ""

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labs = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        names = tuple(self.class_names)
        fnames = tuple(self.feature_names)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
            raise ValueError("labels length must equal the number of rows")
        if feats.shape[1] != len(fnames):
            raise ValueError("feature_names length must equal the number of columns")
        if labs.size and (labs.min() < 0 or labs.max() >= len(names)):
            raise ValueError("labels must lie in [0, n_classes)")
        feats.flags.writeable = False
        labs.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "class_names", names)
        object.__setattr__(self, "feature_names", fnames)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def has_missing(self) -> bool:
        return bool(np.isnan(self.features).any())

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return replace(self, features=self.features[idx], labels=self.labels[idx])

    def equals(self, other: "Dataset") -> bool:
        """Bitwise feature equality plus identical labels and names."""
        return (
            self.class_names == other.class_names
            and self.feature_names == other.feature_names
            and self.features.shape == other.features.shape
            and bool(np.array_equal(self.features, other.features, equal_nan=True))
            and bool(np.array_equal(self.labels, other.labels))
        )


def _ascii_lines(path):
    """(line number, stripped line) pairs; ``DataError`` on a non-ASCII byte."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                raise DataError(f"{path}: line {lineno}: non-ASCII byte")
            yield lineno, line.strip()


def load_uci_lung_cancer(path) -> Dataset:
    """Load a UCI lung-cancer style ``.data`` file.

    Expected format: comma-separated lines of 57 fields; the first field is
    the class label (1, 2 or 3 -> TypeA, TypeB, TypeC) and the remaining 56
    are integer attribute codes or ``?`` for a missing cell.

    Raises:
        DataError: a non-ASCII byte, empty file, wrong field count (with line
            number), a value that is neither an integer within float range
            nor ``?``, an unknown label, or a class that never appears.
    """
    rows: list[list[float]] = []
    labels: list[int] = []
    for lineno, line in _ascii_lines(path):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != LUNG_N_FEATURES + 1:
            raise DataError(
                f"{path}: line {lineno}: expected {LUNG_N_FEATURES + 1} "
                f"fields, found {len(fields)}"
            )
        if fields[0] not in ("1", "2", "3"):
            raise DataError(f"{path}: line {lineno}: unknown class label {fields[0]!r}")
        labels.append(int(fields[0]) - 1)
        row = []
        for col, tok in enumerate(fields[1:], start=1):
            tok = tok.strip()
            if tok == "?":
                row.append(math.nan)
            else:
                try:
                    row.append(float(int(tok)))
                except (ValueError, OverflowError):
                    raise DataError(
                        f"{path}: line {lineno}: attribute {col}: expected an "
                        f"integer code within float range or '?', found {tok!r}"
                    ) from None
        rows.append(row)

    if not rows:
        raise DataError(f"{path}: no data lines")

    present = set(labels)
    for idx, name in enumerate(LUNG_CLASS_NAMES):
        if idx not in present:
            raise DataError(f"{path}: class {name} has no samples")

    feature_names = tuple(f"attr{i}" for i in range(1, LUNG_N_FEATURES + 1))
    return Dataset(
        features=np.array(rows, dtype=np.float64),
        labels=np.array(labels, dtype=np.int64),
        class_names=LUNG_CLASS_NAMES,
        feature_names=feature_names,
        provenance=str(path),
    )


def write_dataset_csv(ds: Dataset, path) -> None:
    """Write the canonical CSV export: feature names then ``class`` header,
    one row per sample, class emitted as its name, floats via ``repr`` so a
    reload is bit-exact."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(ds.feature_names) + ",class\n")
        for i in range(ds.n_samples):
            cells = [repr(float(v)) for v in ds.features[i]]
            cells.append(ds.class_names[ds.labels[i]])
            fh.write(",".join(cells) + "\n")


def read_dataset_csv(path) -> Dataset:
    """Reload a canonical CSV export.

    Class names are ordered lexicographically, which matches every dataset
    this toolkit produces (loaders emit sorted names), making the round trip
    exact.  A ``nan`` cell is missing, as :func:`write_dataset_csv` writes
    it; an infinite cell raises ``DataError`` naming file, line and column,
    as do a non-ASCII byte (file and line) and a header without a feature
    column.
    """
    lines = _ascii_lines(path)
    _, header = next(lines, (1, ""))
    if not header:
        raise DataError(f"{path}: empty file")
    columns = header.split(",")
    if columns[-1] != "class":
        raise DataError(f"{path}: last header column must be 'class'")
    if len(columns) < 2:
        raise DataError(f"{path}: line 1: no feature column before 'class'")
    feature_names = tuple(columns[:-1])
    rows = []
    names_seen = []
    for lineno, line in lines:
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            raise DataError(
                f"{path}: line {lineno}: expected {len(columns)} fields, "
                f"found {len(cells)}"
            )
        try:
            values = [float(v) for v in cells[:-1]]
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
        infinite = [n for n, v in zip(feature_names, values) if math.isinf(v)]
        if infinite:
            raise DataError(f"{path}: line {lineno}: column {infinite[0]!r} is infinite")
        rows.append(values)
        names_seen.append(cells[-1])
    if not rows:
        raise DataError(f"{path}: no data rows")
    class_names = tuple(sorted(set(names_seen)))
    index = {name: i for i, name in enumerate(class_names)}
    return Dataset(
        features=np.array(rows, dtype=np.float64),
        labels=np.array([index[n] for n in names_seen], dtype=np.int64),
        class_names=class_names,
        feature_names=feature_names,
        provenance=str(path),
    )


def load_dataset(path) -> Dataset:
    """Dispatch on extension: ``.csv`` canonical export, anything else UCI format."""
    if str(path).endswith(".csv"):
        return read_dataset_csv(path)
    return load_uci_lung_cancer(path)


IMPUTE_STRATEGIES = ("mode", "mean")


def impute_missing(ds: Dataset, strategy: str) -> Dataset:
    """Fill NaN cells per feature; non-missing cells are left untouched.

    ``mode`` uses the most frequent non-missing value, ties broken toward
    the smallest value; ``mean`` uses the column mean of non-missing cells.

    Raises:
        ImputationError: a feature has no observed values at all.
    """
    if strategy not in IMPUTE_STRATEGIES:
        raise ValueError(f"unknown imputation strategy {strategy!r}")
    if not ds.has_missing():
        return ds
    feats = ds.features.copy()
    for col in range(ds.n_features):
        column = feats[:, col]
        missing = np.isnan(column)
        if not missing.any():
            continue
        observed = column[~missing]
        if observed.size == 0:
            raise ImputationError(
                f"{ds.provenance}: feature {ds.feature_names[col]!r} is entirely missing"
            )
        if strategy == "mode":
            values, counts = np.unique(observed, return_counts=True)
            fill = float(values[np.argmax(counts)])  # unique() sorts, so ties pick smallest
        else:
            fill = float(observed.mean())
        column[missing] = fill
    return replace(ds, features=feats)


def class_counts(ds: Dataset) -> list[int]:
    """Per-class sample counts in ``class_names`` order."""
    return np.bincount(ds.labels, minlength=ds.n_classes).tolist()


def stratified_folds(ds: Dataset, k: int, seed: int) -> np.ndarray:
    """Deterministic, stratified k-fold assignment: a read-only int64 array
    whose entry i is row i's fold, in 0..k-1.

    Per class, samples are shuffled with the seeded generator and dealt so
    per-class fold counts differ by at most one; leftover samples go to the
    folds with the smallest total load (ties to the lowest fold index),
    keeping overall fold sizes balanced too.

    Raises:
        ValueError: ``k`` is below 2.
        DataError:  ``k`` exceeds the number of samples.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > ds.n_samples:
        raise DataError(f"k={k} exceeds the number of samples ({ds.n_samples})")
    counts = class_counts(ds)
    for name, c in zip(ds.class_names, counts):
        if c < 1:
            raise ValueError(f"class {name} has no samples")

    rng = Rng(seed)
    loads = np.zeros(k, dtype=np.int64)
    fold_of = np.empty(ds.n_samples, dtype=np.int64)
    for cls in range(ds.n_classes):
        members = np.flatnonzero(ds.labels == cls).tolist()
        rng.shuffle(members)
        base, extra = divmod(len(members), k)
        quota = np.full(k, base)
        # the remainder goes onto the lightest folds, ties to the lowest index
        quota[np.argsort(loads, kind="stable")[:extra]] += 1
        fold_of[members] = np.repeat(np.arange(k), quota)
        loads += quota
    fold_of.flags.writeable = False
    return fold_of
