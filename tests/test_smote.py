import numpy as np
import pytest

from pcasmote.dataset import Dataset, class_counts
from pcasmote.errors import DataError, ResampleError
from pcasmote.pca import fit_pca, transform
from pcasmote.rng import Rng
from pcasmote.smote import (
    SmoteConfig,
    balance_sequence,
    nearest_minority_neighbors,
    oversample_class,
    synthesize,
)


class FixedRng:
    """Test double feeding a scripted sequence of uniform draws."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def make_dataset(features, labels, n_classes=3):
    return Dataset(
        features=np.asarray(features, dtype=float),
        labels=np.asarray(labels),
        class_names=tuple(f"c{i}" for i in range(n_classes)),
        feature_names=tuple(f"f{i}" for i in range(np.asarray(features).shape[1])),
    )


@pytest.fixture(scope="module")
def lung_pca(lung):
    model = fit_pca(lung, 0.90, "correlation")
    return transform(model, lung)


class TestNearestNeighbors:
    def test_points_on_a_line(self):
        points = np.array([[0.0], [1.0], [2.0], [5.0]])
        assert nearest_minority_neighbors(points, 0, 2) == [1, 2]

    def test_duplicate_admitted_at_zero_distance(self):
        points = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
        neighbors = nearest_minority_neighbors(points, 0, 1)
        assert neighbors == [1]

    def test_tie_breaks_to_lower_index(self):
        points = np.array([[0.0], [1.0], [-1.0], [3.0]])
        # rows 1 and 2 are both at distance 1 from row 0
        assert nearest_minority_neighbors(points, 0, 2) == [1, 2]

    def test_k_clamped_to_available_rows(self):
        points = np.array([[0.0], [1.0], [2.0]])
        assert nearest_minority_neighbors(points, 0, 10) == [1, 2]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            points = rng.normal(size=(9, 18))
            idx = int(rng.integers(9))
            got = nearest_minority_neighbors(points, idx, 5)
            # oracle: full pairwise distance table, stable sort on (d2, j)
            d2 = [
                (float(((points[j] - points[idx]) ** 2).sum()), j)
                for j in range(9)
                if j != idx
            ]
            expected = [j for _, j in sorted(d2)[:5]]
            assert got == expected

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            nearest_minority_neighbors(np.array([[1.0]]), 0, 1)


class TestSynthesize:
    def test_u_zero_returns_sample(self):
        sample = np.array([1.0, 2.0])
        neighbor = np.array([5.0, -2.0])
        out = synthesize(sample, neighbor, FixedRng([0.0]))
        assert np.array_equal(out, sample)

    def test_identical_points_fixed(self):
        p = np.array([3.0, 3.0])
        out = synthesize(p, p.copy(), FixedRng([0.7]))
        assert np.array_equal(out, p)

    def test_convexity_per_coordinate(self):
        rng = Rng(5)
        sample = np.array([0.0, 10.0, -3.0])
        neighbor = np.array([1.0, -10.0, 4.0])
        for _ in range(50):
            out = synthesize(sample, neighbor, rng)
            low = np.minimum(sample, neighbor)
            high = np.maximum(sample, neighbor)
            assert ((out >= low) & (out <= high)).all()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            synthesize(np.zeros(2), np.zeros(3), FixedRng([0.5]))


def recover_interpolation(row, originals, tol=1e-9):
    """Oracle: find original pair (a, b) and u with row == a + u*(b-a)."""
    n = originals.shape[0]
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            diff = originals[b] - originals[a]
            us = []
            consistent = True
            for j in range(originals.shape[1]):
                if abs(diff[j]) > tol:
                    us.append((row[j] - originals[a, j]) / diff[j])
                elif abs(row[j] - originals[a, j]) > tol:
                    consistent = False
                    break
            if not consistent or not us:
                continue
            if max(us) - min(us) < tol and -tol <= us[0] < 1 + tol:
                return a, b, us[0]
    return None


class TestOversample:
    def test_lung_first_run_counts(self, lung_pca):
        cfg = SmoteConfig(target_class=0, target_count=18, k=5, seed=7)
        out = oversample_class(lung_pca, cfg)
        assert class_counts(out) == [18, 13, 10]
        assert out.n_samples == 41

    def test_zero_synthesis_returns_input_unchanged(self, lung_pca):
        cfg = SmoteConfig(target_class=1, target_count=13, k=5, seed=1)
        assert oversample_class(lung_pca, cfg) is lung_pca

    def test_originals_preserved_in_order(self, lung_pca):
        cfg = SmoteConfig(target_class=0, target_count=18, k=5, seed=3)
        out = oversample_class(lung_pca, cfg)
        assert np.array_equal(out.features[:32], lung_pca.features)
        assert np.array_equal(out.labels[:32], lung_pca.labels)

    def test_synthetic_rows_pure_label(self, lung_pca):
        cfg = SmoteConfig(target_class=2, target_count=18, k=5, seed=9)
        out = oversample_class(lung_pca, cfg)
        assert (out.labels[32:] == 2).all()

    def test_synthetic_rows_are_segment_points(self, lung_pca):
        cfg = SmoteConfig(target_class=0, target_count=18, k=5, seed=11)
        out = oversample_class(lung_pca, cfg)
        originals = lung_pca.features[lung_pca.labels == 0]
        for row in out.features[32:]:
            match = recover_interpolation(row, originals)
            assert match is not None, "synthetic row is not on a segment between originals"

    def test_deterministic(self, lung_pca):
        cfg = SmoteConfig(target_class=0, target_count=18, k=5, seed=21)
        a = oversample_class(lung_pca, cfg)
        b = oversample_class(lung_pca, cfg)
        assert np.array_equal(a.features, b.features)

    def test_seed_changes_output(self, lung_pca):
        a = oversample_class(lung_pca, SmoteConfig(0, 18, 5, seed=1))
        b = oversample_class(lung_pca, SmoteConfig(0, 18, 5, seed=2))
        assert not np.array_equal(a.features, b.features)

    def test_k_clamped_for_tiny_class(self):
        ds = make_dataset([[0.0], [1.0], [5.0], [6.0], [7.0]], [0, 0, 1, 1, 1], 2)
        out = oversample_class(ds, SmoteConfig(target_class=0, target_count=4, k=5, seed=0))
        assert class_counts(out) == [4, 3]
        # with only one neighbour available, synthetics lie on the 0-1 segment
        assert ((out.features[5:] >= 0.0) & (out.features[5:] <= 1.0)).all()

    def test_target_below_current_rejected(self, lung_pca):
        with pytest.raises(ValueError):
            oversample_class(lung_pca, SmoteConfig(1, 5, 5, seed=0))

    def test_singleton_class_rejected(self):
        ds = make_dataset([[0.0], [5.0], [6.0]], [0, 1, 1], 2)
        with pytest.raises(ResampleError):
            oversample_class(ds, SmoteConfig(target_class=0, target_count=3, k=5, seed=0))


def reference_synthetic(minority, k, seed, needed):
    """The per-row loop the neighbour table replaced, kept as its reference.

    Each row's neighbours come from a Python sort of (distance, index) pairs
    over the other rows; then the same draw loop as ``oversample_class``.
    """
    n = minority.shape[0]
    k_eff = min(k, n - 1)
    neighbor_lists = []
    for i in range(n):
        deltas = minority - minority[i]
        dist2 = np.einsum("ij,ij->i", deltas, deltas)
        order = sorted((float(dist2[j]), j) for j in range(n) if j != i)
        neighbor_lists.append([j for _, j in order[:k_eff]])
    rng = Rng(seed)
    synthetic = np.empty((needed, minority.shape[1]))
    for j in range(needed):
        base = j % n
        choices = neighbor_lists[base]
        neighbor = choices[rng.randrange(len(choices))]
        synthetic[j] = synthesize(minority[base], minority[neighbor], rng)
    return neighbor_lists, synthetic


def random_class(rng, trial):
    """A seeded minority class; the kinds cycle through tie-heavy layouts."""
    n = int(rng.integers(2, 25))
    f = int(rng.integers(1, 6))
    kind = trial % 5
    if kind == 0:
        return rng.normal(size=(n, f))
    if kind == 1:  # integer grid: many equal distances
        return rng.integers(0, 3, size=(n, f)).astype(float)
    if kind == 2:  # duplicate rows: zero-distance ties
        rows = rng.normal(size=(max(1, n // 3), f))
        return rows[rng.integers(0, rows.shape[0], size=n)]
    if kind == 3:  # all rows identical: every distance ties at 0
        return np.tile(rng.normal(size=f), (n, 1))
    # huge magnitudes: squared distances overflow to inf and tie there
    return rng.choice([-1.0, 1.0], size=(n, f)) * 1e200


class TestNeighborTableMatchesReference:
    def test_sixty_seeded_classes(self):
        rng = np.random.default_rng(2002)
        for trial in range(60):
            minority = random_class(rng, trial)
            n = minority.shape[0]
            k = int(rng.integers(1, n + 3))  # often k >= class size
            others = rng.normal(size=(3, minority.shape[1]))
            labels = np.array([0] * n + [1] * 3)
            order = rng.permutation(n + 3)  # interleave the two classes
            ds = make_dataset(
                np.vstack([minority, others])[order], labels[order], 2
            )
            needed = int(rng.integers(1, 3 * n + 2))
            seed = int(rng.integers(2**63))
            lists, synthetic = reference_synthetic(
                ds.features[ds.labels == 0], k, seed, needed
            )
            out = oversample_class(ds, SmoteConfig(0, n + needed, k, seed))
            assert np.array_equal(out.features[n + 3 :], synthetic), trial
            assert np.array_equal(out.features[: n + 3], ds.features), trial
            members = ds.features[ds.labels == 0]
            for i in range(n):
                assert nearest_minority_neighbors(members, i, k) == lists[i], trial


class TestBalanceSequence:
    def test_lung_trajectory(self, lung_pca):
        runs = balance_sequence(lung_pca, [0, 2, 1], 18, k=5, seed=7)
        assert [class_counts(ds) for ds in runs] == [
            [18, 13, 10],
            [18, 13, 18],
            [18, 18, 18],
        ]
        assert [ds.n_samples for ds in runs] == [41, 49, 54]

    def test_empty_order(self, lung_pca):
        assert balance_sequence(lung_pca, [], 18, k=5, seed=7) == []

    def test_already_balanced_unchanged(self):
        ds = make_dataset(
            [[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]], [0, 0, 1, 1, 2, 2], 3
        )
        runs = balance_sequence(ds, [0, 1, 2], 2, k=5, seed=0)
        assert all(run is ds for run in runs)

    def test_runs_chain(self, lung_pca):
        runs = balance_sequence(lung_pca, [0, 2], 18, k=5, seed=7)
        assert np.array_equal(runs[1].features[:41], runs[0].features)

    def test_duplicate_order_rejected(self, lung_pca):
        with pytest.raises(ValueError):
            balance_sequence(lung_pca, [0, 0], 18, k=5, seed=7)

    def test_target_below_majority_rejected(self, lung_pca):
        with pytest.raises(
            DataError,
            match=r"smote\.per_class_target=12 is below the largest class, TypeB with 13",
        ):
            balance_sequence(lung_pca, [0], 12, k=5, seed=7)
