import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcasmote.dataset import (
    Dataset,
    class_counts,
    impute_missing,
    load_uci_lung_cancer,
    read_dataset_csv,
    stratified_folds,
    write_dataset_csv,
)
from pcasmote.errors import DataError, ImputationError
from pcasmote.rng import Rng


def make_dataset(features, labels, n_classes=None):
    features = np.asarray(features, dtype=float)
    labels = list(labels)
    n_classes = n_classes or (max(labels) + 1)
    return Dataset(
        features=features,
        labels=np.array(labels),
        class_names=tuple(f"c{i}" for i in range(n_classes)),
        feature_names=tuple(f"f{i}" for i in range(features.shape[1])),
    )


class TestLoader:
    def test_generator_reproduces_the_bundled_file(self, tmp_path, data_file):
        script = data_file.parent.parent / "tools" / "generate_standin_dataset.py"
        out = tmp_path / "lung-cancer.data"
        subprocess.run(
            [sys.executable, str(script), str(out)],
            capture_output=True, check=True, timeout=120,
        )
        assert out.read_bytes() == data_file.read_bytes()

    def test_bundled_file_shape_and_counts(self, lung_raw):
        assert lung_raw.n_samples == 32
        assert lung_raw.n_features == 56
        assert class_counts(lung_raw) == [9, 13, 10]
        assert lung_raw.class_names == ("TypeA", "TypeB", "TypeC")

    def test_missing_cells_match_file_scan(self, data_file, lung_raw):
        # oracle: count '?' tokens per attribute column straight off the file
        per_column = {}
        total = 0
        for line in data_file.read_text().splitlines():
            fields = line.split(",")
            for col, tok in enumerate(fields[1:], start=1):
                if tok == "?":
                    per_column[col] = per_column.get(col, 0) + 1
                    total += 1
        assert set(per_column) == {5, 39}
        assert int(np.isnan(lung_raw.features).sum()) == total
        nan_cols = {c + 1 for c in np.nonzero(np.isnan(lung_raw.features).any(axis=0))[0]}
        assert nan_cols == {5, 39}

    def test_three_line_synthetic_file(self, tmp_path):
        zeros = ",".join(["0"] * 56)
        path = tmp_path / "tiny.data"
        path.write_text(f"1,{zeros}\n2,{zeros}\n3,{zeros}\n")
        ds = load_uci_lung_cancer(path)
        assert class_counts(ds) == [1, 1, 1]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.data"
        path.write_text("")
        with pytest.raises(DataError):
            load_uci_lung_cancer(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        zeros = ",".join(["0"] * 56)
        path = tmp_path / "bad.data"
        path.write_text(f"1,{zeros}\n2,{zeros}\n3,0,0\n")
        with pytest.raises(DataError, match="line 3"):
            load_uci_lung_cancer(path)

    def test_unknown_label_rejected(self, tmp_path):
        zeros = ",".join(["0"] * 56)
        path = tmp_path / "bad.data"
        path.write_text(f"7,{zeros}\n")
        with pytest.raises(DataError, match="label"):
            load_uci_lung_cancer(path)

    def test_missing_class_rejected(self, tmp_path):
        zeros = ",".join(["0"] * 56)
        path = tmp_path / "twoclass.data"
        path.write_text(f"1,{zeros}\n2,{zeros}\n")
        with pytest.raises(DataError, match="TypeC"):
            load_uci_lung_cancer(path)

    def test_non_integer_code_rejected(self, tmp_path):
        fields = ["1"] + ["0"] * 56
        fields[3] = "x"
        path = tmp_path / "bad.data"
        path.write_text(",".join(fields) + "\n")
        with pytest.raises(DataError, match="attribute 3"):
            load_uci_lung_cancer(path)


class TestImpute:
    def test_mode_column(self):
        ds = make_dataset([[1], [math.nan], [1], [2]], [0, 0, 1, 1])
        out = impute_missing(ds, "mode")
        assert out.features[:, 0].tolist() == [1, 1, 1, 2]

    def test_mode_tie_breaks_to_smallest(self):
        ds = make_dataset([[2], [1], [math.nan]], [0, 0, 1])
        assert impute_missing(ds, "mode").features[2, 0] == 1.0

    def test_mean_strategy(self):
        ds = make_dataset([[1.0], [3.0], [math.nan]], [0, 0, 1])
        assert impute_missing(ds, "mean").features[2, 0] == 2.0

    def test_no_missing_returns_same_dataset(self):
        ds = make_dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1])
        assert impute_missing(ds, "mode") is ds

    def test_idempotent(self, lung_raw):
        once = impute_missing(lung_raw, "mode")
        twice = impute_missing(once, "mode")
        assert once.equals(twice)

    def test_lung_complete_after_impute(self, lung):
        assert not lung.has_missing()
        assert lung.features.shape == (32, 56)

    def test_non_missing_cells_unchanged(self, lung_raw, lung):
        mask = ~np.isnan(lung_raw.features)
        assert np.array_equal(lung_raw.features[mask], lung.features[mask])

    def test_entirely_missing_feature_rejected(self):
        ds = make_dataset([[math.nan, 1.0], [math.nan, 2.0]], [0, 1])
        with pytest.raises(ImputationError, match="f0"):
            impute_missing(ds, "mode")

    def test_unknown_strategy_rejected(self, lung_raw):
        with pytest.raises(ValueError):
            impute_missing(lung_raw, "median")


class TestClassCounts:
    def test_lung_counts(self, lung):
        assert class_counts(lung) == [9, 13, 10]

    def test_counts_sum_to_n(self, lung):
        assert sum(class_counts(lung)) == lung.n_samples

    def test_single_sample(self):
        ds = make_dataset([[0.0]], [0], n_classes=1)
        assert class_counts(ds) == [1]


class TestCsvRoundTrip:
    def test_bitwise_round_trip(self, tmp_path, lung):
        path = tmp_path / "export.csv"
        write_dataset_csv(lung, path)
        back = read_dataset_csv(path)
        assert lung.equals(back)

    def test_round_trip_awkward_floats(self, tmp_path):
        ds = make_dataset(
            [[0.1 + 0.2, -1e-17], [math.pi, 1e300], [2**-1074, -0.0]],
            [0, 1, 0],
        )
        path = tmp_path / "x.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
        assert np.array_equal(ds.features, back.features)
        assert np.array_equal(ds.labels, back.labels)

    def test_nan_cell_round_trips_as_missing(self, tmp_path, lung_raw):
        path = tmp_path / "raw.csv"
        write_dataset_csv(lung_raw, path)
        back = read_dataset_csv(path)
        assert back.has_missing()
        assert lung_raw.equals(back)

    @pytest.mark.parametrize("token", ["inf", "-inf", "infinity", "-Infinity"])
    def test_infinite_cell_rejected(self, tmp_path, token):
        path = tmp_path / "x.csv"
        path.write_text(f"a,b,class\n1.0,2.0,p\n3.0,{token},q\n")
        with pytest.raises(DataError, match=r"x\.csv: line 3: column 'b'"):
            read_dataset_csv(path)

    def test_header_row(self, tmp_path, lung):
        path = tmp_path / "export.csv"
        write_dataset_csv(lung, path)
        header = path.read_text().splitlines()[0]
        assert header.split(",")[-1] == "class"
        assert header.split(",")[0] == "attr1"

    def test_class_emitted_as_name(self, tmp_path, lung):
        path = tmp_path / "export.csv"
        write_dataset_csv(lung, path)
        first_row = path.read_text().splitlines()[1]
        assert first_row.rsplit(",", 1)[1] in ("TypeA", "TypeB", "TypeC")


class TestStratifiedFolds:
    def test_lung_two_folds(self, lung):
        fold_of = stratified_folds(lung, 2, seed=1)
        sizes = [len(np.flatnonzero(fold_of == f)) for f in range(2)]
        assert sorted(sizes) == [16, 16]
        for cls, total in enumerate(class_counts(lung)):
            per_fold = [
                sum(1 for i in np.flatnonzero(fold_of == f) if lung.labels[i] == cls)
                for f in range(2)
            ]
            assert sum(per_fold) == total
            assert max(per_fold) - min(per_fold) <= 1

    def test_leave_one_out_assignment(self, lung):
        fold_of = stratified_folds(lung, lung.n_samples, seed=3)
        sizes = [len(np.flatnonzero(fold_of == f)) for f in range(lung.n_samples)]
        assert sizes == [1] * lung.n_samples

    def test_deterministic(self, lung):
        a = stratified_folds(lung, 5, seed=99)
        b = stratified_folds(lung, 5, seed=99)
        assert np.array_equal(a, b)

    def test_seed_changes_assignment(self, lung):
        a = stratified_folds(lung, 5, seed=1)
        b = stratified_folds(lung, 5, seed=2)
        assert not np.array_equal(a, b)

    def test_stratification_property_many_seeds(self, lung):
        for k in (2, 3, 5, 10):
            for seed in range(6):
                fold_of = stratified_folds(lung, k, seed)
                for cls in range(lung.n_classes):
                    per_fold = [
                        sum(1 for i in np.flatnonzero(fold_of == f) if lung.labels[i] == cls)
                        for f in range(k)
                    ]
                    assert max(per_fold) - min(per_fold) <= 1

    def test_every_sample_assigned_once(self, lung):
        fold_of = stratified_folds(lung, 7, seed=5)
        seen = sorted(i for f in range(7) for i in np.flatnonzero(fold_of == f))
        assert seen == list(range(lung.n_samples))

    def test_k_too_large_rejected(self, lung):
        with pytest.raises(DataError, match=r"k=33 exceeds the number of samples \(32\)"):
            stratified_folds(lung, 33, seed=0)

    def test_k_too_small_rejected(self, lung):
        with pytest.raises(ValueError):
            stratified_folds(lung, 1, seed=0)

    def test_small_class_spread_without_error(self):
        ds = make_dataset([[float(i)] for i in range(8)], [0, 0, 1, 1, 1, 1, 1, 1])
        fold_of = stratified_folds(ds, 4, seed=0)
        assert fold_of.dtype == np.int64 and fold_of.shape == (8,)
        assert not fold_of.flags.writeable


@st.composite
def fold_cases(draw):
    """(dataset with every class present, k in 2..n, seed)."""
    n_classes = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 15), min_size=n_classes, max_size=n_classes))
    labels = [cls for cls, size in enumerate(sizes) for _ in range(size)]
    labels = draw(st.permutations(labels))
    n = len(labels)
    if n < 2:
        labels, n = labels * 2, 2
    k = draw(st.integers(2, n))
    seed = draw(st.integers(-(2**64), 2**65))
    return make_dataset(np.zeros((n, 1)), labels, n_classes), k, seed


def dealt_one_by_one(ds: Dataset, k: int, seed: int) -> tuple[int, ...]:
    """Reference for ``stratified_folds``: the same dealing, one sample at a
    time in plain Python (the package's implementation before numpy)."""
    rng = Rng(seed)
    loads = [0] * k
    fold_of_sample = [-1] * ds.n_samples
    for cls in range(ds.n_classes):
        members = [i for i in range(ds.n_samples) if ds.labels[i] == cls]
        rng.shuffle(members)
        base, extra = divmod(len(members), k)
        quota = [base] * k
        for f in sorted(range(k), key=lambda f: (loads[f], f))[:extra]:
            quota[f] += 1
        pos = 0
        for f in range(k):
            for _ in range(quota[f]):
                fold_of_sample[members[pos]] = f
                pos += 1
            loads[f] += quota[f]
    return tuple(fold_of_sample)


class TestStratifiedFoldsProperties:
    @settings(max_examples=150, deadline=None)
    @given(case=fold_cases())
    def test_matches_dealing_one_sample_at_a_time(self, case):
        ds, k, seed = case
        expected = dealt_one_by_one(ds, k, seed)
        assert tuple(stratified_folds(ds, k, seed).tolist()) == expected

    @settings(max_examples=150, deadline=None)
    @given(case=fold_cases())
    def test_fold_sizes_differ_by_at_most_one(self, case):
        ds, k, seed = case
        sizes = np.bincount(stratified_folds(ds, k, seed), minlength=k)
        assert sizes.max() - sizes.min() <= 1

    @settings(max_examples=150, deadline=None)
    @given(case=fold_cases())
    def test_every_row_in_exactly_one_fold(self, case):
        ds, k, seed = case
        fold_of = stratified_folds(ds, k, seed)
        assert fold_of.shape == (ds.n_samples,)
        assert set(fold_of.tolist()) == set(range(k))

    @settings(max_examples=150, deadline=None)
    @given(case=fold_cases())
    def test_per_class_fold_counts_differ_by_at_most_one(self, case):
        ds, k, seed = case
        fold_of = stratified_folds(ds, k, seed)
        for cls in range(ds.n_classes):
            per_fold = np.bincount(fold_of[ds.labels == cls], minlength=k)
            assert per_fold.max() - per_fold.min() <= 1

    @settings(max_examples=100, deadline=None)
    @given(case=fold_cases())
    def test_same_seed_same_assignment(self, case):
        ds, k, seed = case
        first, again = stratified_folds(ds, k, seed), stratified_folds(ds, k, seed)
        assert np.array_equal(first, again)

    @settings(max_examples=150, deadline=None)
    @given(case=fold_cases())
    def test_test_and_train_indices_partition_the_rows(self, case):
        ds, k, seed = case
        fold_of = stratified_folds(ds, k, seed)
        for fold in range(k):
            test = np.flatnonzero(fold_of == fold)
            train = np.flatnonzero(fold_of != fold)
            assert test.dtype == np.int64 and train.dtype == np.int64
            assert (np.diff(test) > 0).all() and (np.diff(train) > 0).all()
            assert sorted(test.tolist() + train.tolist()) == list(range(ds.n_samples))
            assert test.size > 0  # so the fold loops never meet an empty test fold
            assert fold_of[test].tolist() == [fold] * test.size
            assert fold not in fold_of[train].tolist()


class TestDatasetType:
    def test_label_range_validated(self):
        with pytest.raises(ValueError):
            make_dataset([[0.0]], [5], n_classes=2)

    def test_shape_consistency_validated(self):
        with pytest.raises(ValueError):
            Dataset(
                features=np.zeros((2, 2)),
                labels=np.array([0]),
                class_names=("a",),
                feature_names=("x", "y"),
            )

    def test_arrays_read_only(self, lung):
        with pytest.raises(ValueError):
            lung.features[0, 0] = 99.0

    def test_subset(self, lung):
        sub = lung.subset([0, 5, 9])
        assert sub.n_samples == 3
        assert np.array_equal(sub.features[1], lung.features[5])
