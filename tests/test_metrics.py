import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pcasmote.metrics import (
    ConfusionMatrix,
    MetricRow,
    accuracy,
    confusion_matrix,
    fp_rate,
    metric_rows,
    one_vs_rest,
    precision,
    recall,
    tally,
    weighted_average,
)


def metric_row(cm, method_name, n_features):
    """The record of one confusion matrix: ``metric_rows`` of a batch of one."""
    return metric_rows(cm.counts[None, None], [method_name], [[n_features]])[0][0]


def random_cm(rng, n_classes=3, high=20):
    return ConfusionMatrix(counts=rng.integers(0, high, size=(n_classes, n_classes)))


class TestConfusionMatrix:
    def test_perfect_predictions_are_diagonal(self):
        cm = confusion_matrix([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert np.array_equal(cm.counts, np.diag([1, 2, 1]))

    def test_binary_hand_count(self):
        # positives = class 1: actual [+,+,-], predicted [+,-,-]
        cm = confusion_matrix([1, 1, 0], [1, 0, 0], 2)
        tp, fp, fn, tn = one_vs_rest(cm, 1)
        assert (tp, fp, fn, tn) == (1, 0, 1, 1)

    def test_entries_sum_to_sample_count(self):
        rng = np.random.default_rng(1)
        actual = rng.integers(0, 3, size=32)
        predicted = rng.integers(0, 3, size=32)
        cm = confusion_matrix(actual, predicted, 3)
        assert cm.total == 32

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0], 2)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 3], [0, 1], 2)

    def test_keeps_its_own_copy(self):
        """The table keeps a read-only int64 copy: the caller's array stays
        writeable and writing it leaves the table as it was; Fortran-ordered
        and int32 counts compare equal."""
        counts = np.array([[3, 1], [0, 2]])
        cm = ConfusionMatrix(counts=counts)
        counts[0, 0] = 9
        assert cm.counts.tolist() == [[3, 1], [0, 2]] and not cm.counts.flags.writeable
        for other in (np.asfortranarray([[3, 1], [0, 2]]), np.array([[3, 1], [0, 2]], np.int32)):
            copied = ConfusionMatrix(counts=other).counts
            assert copied.dtype == np.int64 and copied.flags.c_contiguous
            assert np.array_equal(copied, cm.counts)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        actual = rng.integers(0, 3, size=40)
        predicted = rng.integers(0, 3, size=40)
        perm = [2, 0, 1]  # new label = perm[old label]
        cm = confusion_matrix(actual, predicted, 3)
        cm_perm = confusion_matrix(
            [perm[a] for a in actual], [perm[p] for p in predicted], 3
        )
        for a in range(3):
            for p in range(3):
                assert cm.counts[a, p] == cm_perm.counts[perm[a], perm[p]]


class TestOneVsRest:
    def test_diagonal_matrix(self):
        cm = ConfusionMatrix(counts=np.diag([9, 13, 10]))
        assert one_vs_rest(cm, 0) == (9, 0, 0, 23)

    def test_all_ones_two_by_two(self):
        cm = ConfusionMatrix(counts=np.ones((2, 2), dtype=int))
        assert one_vs_rest(cm, 0) == (1, 1, 1, 1)

    def test_partition_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            cm = random_cm(rng)
            for c in range(3):
                tp, fp, fn, tn = one_vs_rest(cm, c)
                assert tp + fp + fn + tn == cm.total

    def test_matches_label_pair_recount_oracle(self):
        rng = np.random.default_rng(4)
        actual = rng.integers(0, 3, size=60)
        predicted = rng.integers(0, 3, size=60)
        cm = confusion_matrix(actual, predicted, 3)
        for c in range(3):
            tp = sum(1 for a, p in zip(actual, predicted) if a == c and p == c)
            fp = sum(1 for a, p in zip(actual, predicted) if a != c and p == c)
            fn = sum(1 for a, p in zip(actual, predicted) if a == c and p != c)
            tn = sum(1 for a, p in zip(actual, predicted) if a != c and p != c)
            assert one_vs_rest(cm, c) == (tp, fp, fn, tn)

    def test_invalid_class_rejected(self):
        cm = ConfusionMatrix(counts=np.eye(2, dtype=int))
        with pytest.raises(ValueError):
            one_vs_rest(cm, 2)


class TestRates:
    def test_perfect_predictions(self):
        cm = ConfusionMatrix(counts=np.diag([4, 5, 6]))
        assert accuracy(cm) == 1.0
        for c in range(3):
            assert fp_rate(cm, c) == 0.0
            assert recall(cm, c) == 1.0
            assert precision(cm, c) == 1.0

    def test_twenty_correct_of_thirtytwo(self):
        counts = np.array([[5, 2, 2], [2, 8, 3], [1, 2, 7]])
        cm = ConfusionMatrix(counts=counts)
        assert cm.total == 32
        assert accuracy(cm) == 20 / 32 == 0.625
        assert metric_row(cm, "x", 56).misclassified == 12

    def test_balanced_binary_rates(self):
        cm = ConfusionMatrix(counts=np.array([[1, 1], [1, 1]]))
        for c in range(2):
            assert fp_rate(cm, c) == 0.5
            assert recall(cm, c) == 0.5
            assert precision(cm, c) == 0.5

    def test_never_predicted_class_has_zero_precision(self):
        cm = ConfusionMatrix(counts=np.array([[0, 3], [0, 5]]))
        assert precision(cm, 0) == 0.0

    def test_absent_class_has_zero_recall(self):
        cm = ConfusionMatrix(counts=np.array([[0, 0], [1, 5]]))
        assert recall(cm, 0) == 0.0

    def test_uniform_random_accuracy_near_third(self):
        rng = np.random.default_rng(5)
        n = 30000
        actual = rng.integers(0, 3, size=n)
        predicted = rng.integers(0, 3, size=n)
        cm = confusion_matrix(actual, predicted, 3)
        assert abs(accuracy(cm) - 1 / 3) < 0.02

    def test_empty_matrix_rejected(self):
        cm = ConfusionMatrix(counts=np.zeros((2, 2), dtype=int))
        with pytest.raises(ValueError):
            accuracy(cm)


class TestWeightedAverage:
    def test_weighted_recall_equals_accuracy(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            cm = random_cm(rng, n_classes=int(rng.integers(2, 6)))
            if cm.total == 0:
                continue
            assert abs(weighted_average(cm, recall) - accuracy(cm)) < 1e-12

    def test_balanced_diagonal_weighted_equals_plain_mean(self):
        cm = ConfusionMatrix(counts=np.diag([5, 5, 5]))
        weighted = weighted_average(cm, precision)
        plain = sum(precision(cm, c) for c in range(3)) / 3
        assert abs(weighted - plain) < 1e-12

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(7)
        cm = random_cm(rng, n_classes=4)
        row_sums = cm.counts.sum(axis=1)
        expected = sum(
            (row_sums[c] / cm.total) * fp_rate(cm, c) for c in range(4)
        )
        assert abs(weighted_average(cm, fp_rate) - expected) < 1e-12

    def test_rates_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            cm = random_cm(rng)
            if cm.total == 0:
                continue
            row = metric_row(cm, "r", 1)
            for value in (row.accuracy, row.fp_rate, row.precision, row.recall):
                assert 0.0 <= value <= 1.0

    def test_perfect_accuracy_iff_zero_fp_everywhere(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            cm = random_cm(rng)
            if cm.total == 0:
                continue
            zero_fp = all(fp_rate(cm, c) == 0.0 for c in range(cm.n_classes))
            assert (accuracy(cm) == 1.0) == zero_fp


class TestMetricRow:
    def test_misclassified_consistent_with_accuracy(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            cm = random_cm(rng)
            if cm.total == 0:
                continue
            row = metric_row(cm, "m", 3)
            assert row.misclassified == row.n_samples - round(
                row.accuracy * row.n_samples
            )

    def test_as_dict_fields(self):
        cm = ConfusionMatrix(counts=np.diag([2, 2]))
        d = metric_row(cm, "method", 7).as_dict()
        assert d["method"] == "method"
        assert d["n_features"] == 7
        assert d["n_samples"] == 4

    @settings(max_examples=300, deadline=None)
    @given(
        counts=st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 400), min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    def test_equals_the_per_class_functions(self, counts):
        """The one-pass row equals one built from the per-class functions, each
        average summed as ``sum(row_sum[c] / total * metric(cm, c))``."""
        cm = ConfusionMatrix(counts=np.array(counts))
        assume(cm.total > 0)
        row_sums = cm.counts.sum(axis=1)

        def average(metric):
            return float(sum(row_sums[c] / cm.total * metric(cm, c) for c in range(cm.n_classes)))

        assert metric_row(cm, "m", 4) == MetricRow(
            method_name="m",
            n_samples=cm.total,
            n_features=4,
            accuracy=accuracy(cm),
            fp_rate=average(fp_rate),
            precision=average(precision),
            recall=average(recall),
            misclassified=cm.total - int(np.trace(cm.counts)),
        )

    @settings(max_examples=100, deadline=None)
    @given(
        tables=st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.lists(st.sampled_from([0, 0, 1, 3, 400]), min_size=n, max_size=n),
                    min_size=n, max_size=n,
                ),
                min_size=1, max_size=12,
            )
        ),
        n_methods=st.integers(1, 3),
    )
    def test_batch_equals_one_table_at_a_time(self, tables, n_methods):
        """``metric_rows`` of a (seeds, methods) stack of tables, empty rows and
        columns included, and a width per seed and method, gives each table
        the record ``metric_row`` gives it at its width, method by method."""
        tables = [t for t in tables if sum(map(sum, t))]
        assume(len(tables) >= n_methods)
        n_seeds = len(tables) // n_methods
        counts = np.array(tables[: n_seeds * n_methods])
        counts = counts.reshape(n_seeds, n_methods, *counts.shape[1:])
        names = [f"m{m}" for m in range(n_methods)]
        widths = [[3 + s * n_methods + m for m in range(n_methods)] for s in range(n_seeds)]
        rows = metric_rows(counts, names, widths)
        assert rows == [
            [
                metric_row(ConfusionMatrix(counts=counts[s, m]), name, widths[s][m])
                for s in range(n_seeds)
            ]
            for m, name in enumerate(names)
        ]


def test_tally_counts_each_row_as_confusion_matrix_does():
    rng = np.random.default_rng(11)
    actual = rng.integers(0, 4, size=30)
    predicted = rng.integers(0, 4, size=(3, 2, 30))
    counts = tally(actual, predicted, 4)
    assert counts.shape == (3, 2, 4, 4)
    for s in range(3):
        for m in range(2):
            expected = confusion_matrix(actual, predicted[s, m], 4).counts
            assert counts[s, m].tolist() == expected.tolist()
