import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcasmote import linalg
from pcasmote.dataset import Dataset, class_counts
from pcasmote.errors import DataError, ResampleError
from pcasmote.pca import fit_pca, transform
from pcasmote.rng import Rng
from pcasmote.smote import (
    SmoteConfig,
    _interpolate,
    balance_sequence,
    nearest_minority_neighbors,
    neighbor_ranking,
    oversample_class,
    synthetic_rows,
)


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
    """The SMOTE formula, ``smote._interpolate``."""

    def test_u_zero_returns_sample(self):
        sample = np.array([1.0, 2.0])
        neighbor = np.array([5.0, -2.0])
        out = _interpolate(sample, neighbor, 0.0)
        assert np.array_equal(out, sample)

    def test_identical_points_fixed(self):
        p = np.array([3.0, 3.0])
        out = _interpolate(p, p.copy(), 0.7)
        assert np.array_equal(out, p)

    def test_convexity_per_coordinate(self):
        rng = Rng(5)
        sample = np.array([0.0, 10.0, -3.0])
        neighbor = np.array([1.0, -10.0, 4.0])
        for _ in range(50):
            out = _interpolate(sample, neighbor.copy(), rng.random())   # overwrites its copy
            low = np.minimum(sample, neighbor)
            high = np.maximum(sample, neighbor)
            assert ((out >= low) & (out <= high)).all()


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
        u = rng.random()
        synthetic[j] = minority[base] + u * (minority[neighbor] - minority[base])
    return neighbor_lists, synthetic


def random_class(rng, trial, f=None):
    """A seeded minority class; the kinds cycle through tie-heavy layouts."""
    n = int(rng.integers(2, 25))
    f = int(rng.integers(1, 6)) if f is None else f
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


def full_matrix_ranking(pts: np.ndarray, width: int) -> np.ndarray:
    """``neighbor_ranking`` from the whole distance matrix, every row
    measured against every row in one broadcast: the reference for the
    half matrix that ``neighbor_ranking`` fills and mirrors."""
    n = pts.shape[-2]
    deltas = pts[..., None, :, :] - pts[..., :, None, :]
    dist2 = np.einsum("...ijk,...ijk->...ij", deltas, deltas)
    dist2[..., np.arange(n), np.arange(n)] = -1.0
    return np.argsort(dist2, axis=-1, kind="stable")[..., :width]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 139),
    f=st.integers(1, 6),
    stack=st.integers(0, 3),
    kind=st.integers(0, 3),
    budget=st.sampled_from([None, 1, 100, 3000]),
    data=st.data(),
)
def test_half_matrix_ranking_equals_the_full_matrix(seed, n, f, stack, kind, budget, data):
    """Tie-heavy rows (rounded, integer-coded, duplicated, or so large that
    distances overflow), alone or stacked, in one row block or many, the
    last one partial: the ranking equals the whole matrix's."""
    rng = np.random.default_rng(seed)
    shape = (stack, n, f) if stack else (n, f)
    pts = [
        np.round(rng.normal(size=shape), 1),
        rng.integers(0, 3, size=shape).astype(float),
        rng.normal(size=(*shape[:-2], max(1, n // 3), f))[..., rng.integers(0, max(1, n // 3), n), :],
        rng.choice([-1.0, 1.0], size=shape) * 1e200,
    ][kind]
    width = data.draw(st.integers(1, n))
    saved = linalg.BLOCK_ELEMENTS
    try:
        if budget is not None:
            linalg.BLOCK_ELEMENTS = budget
        got = neighbor_ranking(pts, width)
    finally:
        linalg.BLOCK_ELEMENTS = saved
    assert np.array_equal(got, full_matrix_ranking(pts, width))


def test_ranking_of_a_stack_is_each_matrix_ranking():
    rng = np.random.default_rng(77)
    for n, f in [(1, 3), (5, 1), (9, 4), (40, 7)]:
        stack = np.round(rng.normal(size=(3, n, f)), 1)   # rounded: tied distances
        stack[1] *= 1e200                                   # distances overflow
        got = neighbor_ranking(stack, n)
        for pts, ranking in zip(stack, got):
            assert np.array_equal(ranking, neighbor_ranking(pts, n))


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


def appended_rows(ds: Dataset, cls: int, needed: int, k: int, seed: int) -> np.ndarray:
    """The rows ``oversample_class`` appends to grow class ``cls`` of ``ds`` by ``needed``."""
    current = int((ds.labels == cls).sum())
    return oversample_class(ds, SmoteConfig(cls, current + needed, k, seed)).features[ds.n_samples :]


def class_ranking(features, labels, widths) -> np.ndarray:
    """Each row's ``neighbor_ranking`` within its class, as row indices of
    ``features`` padded with -1; ``widths[c]`` is class c's width."""
    ranking = np.full((len(features), max(widths)), -1)
    for cls, width in enumerate(widths):
        members = np.flatnonzero(labels == cls)
        ranking[members, :width] = members[neighbor_ranking(features[members], width)]
    return ranking


@st.composite
def synthesis_batches(draw):
    """Two classes of tie-heavy rows, ``k``, and a batch of SMOTE runs.

    Each run grows one class of one model's training fold; a model's test
    fold removes at most ``ceil(n / n_folds)`` rows of a class of n, as a
    stratified assignment does, so the class ranking is that wide beyond
    ``k + 1``.  ``k`` often reaches a class's size, so ``k_eff`` differs
    between the runs of one batch; a run whose class keeps one row needs
    none, as in the leak-free scorer.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = draw(st.integers(1, 4))
    classes = [random_class(rng, draw(st.integers(0, 4)), f) for _ in range(2)]
    sizes = [len(rows) for rows in classes]
    labels = np.repeat([0, 1], sizes)
    order = rng.permutation(labels.size)   # interleave the classes
    features, labels = np.vstack(classes)[order], labels[order]
    k = draw(st.integers(1, max(sizes) + 2))
    n_folds = draw(st.integers(2, max(sizes)))
    widths = [min(n, k + 1 - (-n // n_folds)) for n in sizes]
    masks, runs = [], []
    for _ in range(draw(st.integers(1, 4))):
        mask = np.ones(labels.size, dtype=bool)
        for cls, n in enumerate(sizes):
            members = np.flatnonzero(labels == cls)
            removed = draw(st.sets(st.integers(0, n - 1), max_size=-(-n // n_folds)))
            mask[members[sorted(removed)]] = False
        masks.append(mask)
        for cls in draw(st.permutations([0, 1])):
            count = int((mask & (labels == cls)).sum())
            needed = draw(st.integers(0, 3 * sizes[cls])) if count >= 2 else 0
            runs.append((len(masks) - 1, cls, needed, draw(st.integers(0, 2**64 - 1))))
    return features, labels, k, class_ranking(features, labels, widths), masks, runs


class TestSyntheticRows:
    """One ``synthetic_rows`` call for a batch of runs against
    ``oversample_class`` on each run's own training rows."""

    @settings(max_examples=300, deadline=None)
    @given(batch=synthesis_batches())
    def test_batch_equals_oversample_on_each_subset(self, batch):
        features, labels, k, ranking, masks, runs = batch
        kept = np.array([masks[m] & (labels == cls) for m, cls, _, _ in runs])
        got = synthetic_rows(
            features, ranking, kept, [r[2] for r in runs], k, [r[3] for r in runs],
            np.zeros(len(runs), dtype=np.int64),
        )
        assert got.shape == (len(runs), max(r[2] for r in runs), features.shape[1])
        ds = make_dataset(features, labels, 2)
        for rows, (m, cls, needed, seed) in zip(got, runs):
            if needed:
                expected = appended_rows(ds.subset(np.flatnonzero(masks[m])), cls, needed, k, seed)
                assert np.array_equal(rows[:needed], expected)
            pad = rows[needed:]
            assert (pad == 0).all() and np.signbit(pad).all()

    @settings(max_examples=100, deadline=None)
    @given(
        batch=synthesis_batches(),
        scales=st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=1, max_size=3),
    )
    def test_runs_over_a_stack_read_their_own_matrix(self, batch, scales):
        """Runs of several models, each on its own matrix and ranking at an
        offset of a stack, equal one call per run on that matrix alone."""
        features, labels, k, _, masks, runs = batch
        widths = [int((labels == c).sum()) for c in (0, 1)]   # each class ranked in full
        stack = np.stack([np.round(features * scale, 1) for scale in scales])
        ranking = np.concatenate([class_ranking(m, labels, widths) for m in stack])
        owner = [i % len(scales) for i in range(len(runs))]
        kept = np.array([masks[m] & (labels == cls) for m, cls, _, _ in runs])
        needed, seeds = [r[2] for r in runs], [r[3] for r in runs]
        n = len(labels)
        got = synthetic_rows(
            stack.reshape(-1, stack.shape[2]), ranking, kept, needed, k, seeds,
            np.array(owner) * n,
        )
        for b, m in enumerate(owner):
            alone = synthetic_rows(
                stack[m], ranking[m * n : (m + 1) * n], kept[b : b + 1], needed[b : b + 1], k,
                seeds[b : b + 1], np.zeros(1, dtype=np.int64),
            )[0]
            assert got[b, : needed[b]].tobytes() == alone[: needed[b]].tobytes()

    def test_runs_with_different_k_eff_in_one_batch(self):
        # k = 6 reaches every kept class: k_eff is 5, 4 and 3 in the three runs
        rng = np.random.default_rng(31)
        pts = np.round(rng.normal(size=(7, 2)), 1)
        kept = np.ones((3, 7), dtype=bool)
        kept[1, 2] = kept[2, [0, 5]] = False
        ds = make_dataset(pts, [0] * 7, 1)
        got = synthetic_rows(
            pts, neighbor_ranking(pts, 7), kept, [9, 9, 9], 6, [1, 2, 3], np.zeros(3, dtype=np.int64)
        )
        for rows, mask, seed in zip(got, kept, [1, 2, 3]):
            assert np.array_equal(rows, appended_rows(ds.subset(np.flatnonzero(mask)), 0, 9, 6, seed))

    # a run reads its neighbours from a ranking of more rows than it keeps

    @settings(max_examples=300, deadline=None)
    @given(batch=synthesis_batches())
    def test_equals_the_table_of_the_kept_rows(self, batch):
        # the same run, read from the class ranking or from its own rows' table
        features, labels, k, ranking, masks, runs = batch
        m, cls, needed, seed = runs[0]
        kept = masks[m] & (labels == cls)
        own = features[kept]
        at = np.zeros(1, dtype=np.int64)
        got = synthetic_rows(features, ranking, kept[None], [needed], k, [seed], at)[0]
        count = len(own)
        table = neighbor_ranking(own, min(count, k + 1))
        every = np.ones((1, count), dtype=bool)
        expected = synthetic_rows(own, table, every, [needed], k, [seed], at)
        assert np.array_equal(got, expected[0])

    def test_full_ranking_restricted_to_every_row_is_the_table(self):
        pts = random_class(np.random.default_rng(3), 2)
        n = pts.shape[0]
        every = np.ones((1, n), dtype=bool)
        at = np.zeros(1, dtype=np.int64)
        wide = synthetic_rows(pts, neighbor_ranking(pts, n), every, [2 * n], 5, [11], at)
        narrow = synthetic_rows(pts, neighbor_ranking(pts, min(6, n)), every, [2 * n], 5, [11], at)
        assert np.array_equal(wide, narrow)
        ds = make_dataset(pts, [0] * n, 1)
        assert np.array_equal(wide[0], appended_rows(ds, 0, 2 * n, 5, 11))

    def test_a_ranking_too_narrow_raises(self):
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        ranking = neighbor_ranking(pts, 2)  # each row and its nearest
        kept = np.array([[True, False, True, True]])
        # row 0, the first base, has only row 1 as a neighbour in the ranking, and it is not kept
        with pytest.raises(ValueError, match="width 2 holds too few kept rows"):
            synthetic_rows(pts, ranking, kept, [1], 1, [0], np.zeros(1, dtype=np.int64))


class TestOversampleLargeClassMatchesReference:
    """Classes whose distance matrix takes several blocks, the last one partial."""

    @pytest.mark.parametrize("n, f", [(400, 56), (100, 7)])
    def test_matches_reference(self, n, f):
        rng = np.random.default_rng(n * f)
        minority = rng.normal(size=(n, f))
        minority[1::7] = minority[0::7][: minority[1::7].shape[0]]  # duplicate rows
        ds = make_dataset(
            np.vstack([minority, rng.normal(size=(5, f))]), [0] * n + [1] * 5, 2
        )
        needed = 2 * n + 3
        seed = 2**64 - 1
        lists, synthetic = reference_synthetic(minority, 5, seed, needed)
        out = oversample_class(ds, SmoteConfig(0, n + needed, 5, seed))
        assert np.array_equal(out.features[n + 5 :], synthetic)
        for i in range(0, n, 37):
            assert nearest_minority_neighbors(minority, i, 5) == lists[i]

    def test_no_numpy_warning_near_the_top_of_the_seed_range(self):
        # uint64 stream arithmetic wraps by design; it must not warn
        ds = make_dataset([[0.0], [1.0], [2.0], [9.0], [8.0]], [0, 0, 0, 1, 1], 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in (2**64 - 1, 2**64 + 5, -1):
                oversample_class(ds, SmoteConfig(0, 40, 2, seed))


class TestErrorsNameTheProvenance:
    def test_singleton_class(self):
        ds = replace(
            make_dataset([[0.0], [5.0], [6.0]], [0, 1, 1], 2),
            provenance="cohort.csv, training fold 2 of seed 4",
        )
        with pytest.raises(
            ResampleError,
            match=r"^cohort\.csv, training fold 2 of seed 4: class c0 has 1 sample",
        ):
            oversample_class(ds, SmoteConfig(0, 3, 5, seed=0))

    def test_target_below_largest_class(self, lung_pca):
        with pytest.raises(DataError, match=r"lung-cancer\.data: smote\.per_class"):
            balance_sequence(lung_pca, [0], 12, k=5, seed=7)


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
