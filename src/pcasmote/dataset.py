"""Tabular dataset container plus loading, imputation, and fold assignment
(README, "The pipeline", steps 1 and 4).

Missing cells are NaN until :func:`impute_missing` runs.  Datasets are
immutable: each keeps its own read-only copy of the arrays it is given,
and every operation returns a new value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, ImputationError
from .model_io import write_text
from .rng import next_u64_array

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
        feats = np.array(self.features, dtype=np.float64, order="C")
        labs = np.array(self.labels, dtype=np.int64, order="C")
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


def _ascii_lines(path):
    """(line number, stripped line) pairs; ``DataError`` on a non-ASCII byte."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                raise DataError(f"{path}: line {lineno}: non-ASCII byte")
            yield lineno, line.strip()


def _read_rows(path, lines, names, label_at: int, label, cell):
    """Feature rows and labels of the non-blank ``lines`` of ``path``.

    A line holds a cell per name in ``names`` and a label field at index
    ``label_at`` (0 or -1).  ``label(text)`` returns the line's label and
    ``cell(col, text)`` a cell's value, ``col`` counted from 1; each raises
    ``ValueError`` with its message.  Each distinct cell text is parsed once.

    Raises:
        DataError: naming the file and line, checked line by line: a wrong
            field count, a bad label, the line's first bad cell, then its
            first infinite cell; or, naming the file, no data line at all.
    """
    width = len(names) + 1
    cells = slice(1, None) if label_at == 0 else slice(None, -1)
    rows, labels = [], []
    known: dict[str, float] = {}
    for lineno, line in lines:
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise DataError(
                f"{path}: line {lineno}: expected {width} fields, found {len(fields)}"
            )
        texts = fields[cells]
        try:
            labels.append(label(fields[label_at]))
            try:
                row = [known[text] for text in texts]
            except KeyError:
                # a line whose texts were all seen before holds no infinite
                # cell (its first sight raised), so only this line is checked
                for col, text in enumerate(texts, start=1):
                    if text not in known:
                        known[text] = cell(col, text)
                row = [known[text] for text in texts]
                infinite = [n for n, v in zip(names, row) if math.isinf(v)]
                if infinite:
                    raise ValueError(f"column {infinite[0]!r} is infinite")
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data lines")
    return np.array(rows, dtype=np.float64), labels


def _uci_label(text: str) -> int:
    if text not in ("1", "2", "3"):
        raise ValueError(f"unknown class label {text!r}")
    return int(text) - 1


def _uci_cell(col: int, text: str) -> float:
    code = text.strip()
    try:
        return math.nan if code == "?" else float(int(code))
    except (ValueError, OverflowError):
        raise ValueError(
            f"attribute {col}: expected an integer code within float range or '?', "
            f"found {code!r}"
        ) from None


def load_uci_lung_cancer(path) -> Dataset:
    """Load a UCI lung-cancer style ``.data`` file.

    Each line holds 57 comma-separated fields: the class label (1, 2 or 3
    -> TypeA, TypeB, TypeC), then 56 integer attribute codes or ``?`` for a
    missing cell.

    Raises:
        DataError: a non-ASCII byte, an empty file, or a bad line as
            ``_read_rows`` names it; or a class that never appears.
    """
    names = tuple(f"attr{i}" for i in range(1, LUNG_N_FEATURES + 1))
    features, labels = _read_rows(path, _ascii_lines(path), names, 0, _uci_label, _uci_cell)
    present = set(labels)
    for idx, name in enumerate(LUNG_CLASS_NAMES):
        if idx not in present:
            raise DataError(f"{path}: class {name} has no samples")
    return Dataset(features, np.array(labels), LUNG_CLASS_NAMES, names, str(path))


def write_dataset_csv(ds: Dataset, path) -> None:
    """Write the canonical CSV export: feature names then ``class`` header,
    one row per sample, class emitted as its name, floats via ``repr`` so a
    reload is bit-exact."""
    lines = [",".join(ds.feature_names) + ",class"] + [
        ",".join([*map(repr, row), ds.class_names[label]])
        for row, label in zip(ds.features.tolist(), ds.labels.tolist())
    ]
    write_text(path, "\n".join(lines) + "\n")


def _csv_label(text: str) -> str:
    if not text:
        raise ValueError("empty class cell")
    return text


def read_dataset_csv(path) -> Dataset:
    """Reload a canonical CSV export.

    Class names are sorted, as every dataset of this toolkit has them, so
    the round trip is exact.  A ``nan`` cell is missing, as
    :func:`write_dataset_csv` writes it.

    Raises:
        DataError: a non-ASCII byte, an empty file, a header whose last
            column is not ``class`` or that has no feature column, or a bad
            line as ``_read_rows`` names it.
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
    names = tuple(columns[:-1])
    features, labels = _read_rows(
        path, lines, names, -1, _csv_label, lambda col, text: float(text)
    )
    class_names = tuple(sorted(set(labels)))
    index = {name: i for i, name in enumerate(class_names)}
    return Dataset(
        features, np.array([index[n] for n in labels]), class_names, names, str(path)
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
    for col in np.flatnonzero(np.isnan(feats).any(axis=0)):
        column = feats[:, col]
        missing = np.isnan(column)
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


def stratified_fold_stack(ds: Dataset, k: int, seeds) -> np.ndarray:
    """Stratified k-fold assignments for every seed at once: a read-only
    ``(len(seeds), n)`` int64 array whose entry (s, i) is row i's fold under
    ``seeds[s]``, in 0..k-1.

    Per class in turn, its rows are shuffled as ``Rng(seed).shuffle`` would
    and dealt so per-class fold counts differ by at most one; leftover rows
    go to the lightest folds (ties to the lowest index), so fold sizes also
    differ by at most one.

    Raises:
        ValueError: ``k`` is below 2, or a class has no samples.
        DataError:  ``k`` exceeds the number of samples.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > ds.n_samples:
        raise DataError(
            f"{ds.provenance}: eval.k={k} exceeds the number of samples ({ds.n_samples})"
        )
    counts = class_counts(ds)
    if 0 in counts:
        raise ValueError(f"class {ds.class_names[counts.index(0)]} has no samples")

    grouped = np.argsort(ds.labels, kind="stable").tolist()  # each class's rows, in order
    dealt = np.empty(ds.n_samples, dtype=np.int64)           # fold of each place in grouped
    loads = np.zeros(k, dtype=np.int64)
    swap_at, span, first = [], [], []                        # one entry per draw
    lo = 0
    for size in counts:
        base, extra = divmod(size, k)
        quota = np.full(k, base)
        # the remainder goes onto the lightest folds, ties to the lowest index
        quota[np.argsort(loads, kind="stable")[:extra]] += 1
        dealt[lo : lo + size] = np.repeat(np.arange(k), quota)
        loads += quota
        # Fisher-Yates within the class: place lo + i swaps with one of lo..lo + i
        swap_at += range(lo + size - 1, lo, -1)
        span += range(size, 1, -1)
        first += [lo] * (size - 1)
        lo += size
    draws = next_u64_array(seeds, len(swap_at))
    partners = (draws % np.array(span, dtype=np.uint64)).astype(np.int64) + first
    shuffled = []
    for row in partners.tolist():
        members = grouped.copy()
        for i, j in zip(swap_at, row):
            members[i], members[j] = members[j], members[i]
        shuffled.append(members)
    fold_of = np.empty((len(shuffled), ds.n_samples), dtype=np.int64)
    fold_of[np.arange(len(shuffled))[:, None], shuffled] = dealt
    fold_of.flags.writeable = False
    return fold_of
