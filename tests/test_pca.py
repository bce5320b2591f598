import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pcasmote import linalg, pca
from pcasmote.cli import main
from pcasmote.config import load_config
from pcasmote.dataset import (
    Dataset,
    impute_missing,
    load_dataset,
    read_dataset_csv,
    stratified_fold_stack,
    write_dataset_csv,
)
from pcasmote.errors import ConvergenceError, DataError
from pcasmote.pca import (
    PcaModel,
    fit_pca,
    fit_pca_subsets,
    retained_for_threshold,
    transform,
)


def dataset_from(features, labels=None, provenance=""):
    features = np.asarray(features, dtype=float)
    n = features.shape[0]
    labels = labels if labels is not None else [i % 2 for i in range(n)]
    return Dataset(
        features=features,
        labels=np.array(labels),
        class_names=("a", "b"),
        feature_names=tuple(f"f{i}" for i in range(features.shape[1])),
        provenance=provenance,
    )


def brute_force_projection(ds, model):
    """Independent oracle: explicit per-row mean-subtract, scale, dot products."""
    out = np.zeros((ds.n_samples, model.retained))
    for i in range(ds.n_samples):
        centered = [
            (float(ds.features[i, j]) - float(model.mean[j])) / float(model.scale[j])
            for j in range(ds.n_features)
        ]
        for k in range(model.retained):
            out[i, k] = sum(
                centered[j] * float(model.components[j, k]) for j in range(ds.n_features)
            )
    return out


class TestFit:
    def test_threshold_one_keeps_full_rank(self):
        rng = np.random.default_rng(0)
        ds = dataset_from(rng.normal(size=(10, 4)))
        model = fit_pca(ds, threshold=1.0, mode="covariance")
        assert model.retained == 4  # n_features < n_samples - 1

        wide = dataset_from(rng.normal(size=(5, 9)))
        model = fit_pca(wide, threshold=1.0, mode="covariance")
        assert model.retained == 4  # rank limited by n_samples - 1

    def test_planar_data_needs_two_components(self):
        rng = np.random.default_rng(1)
        basis = np.array(
            [[1.0, 0.0, 1.0, -1.0, 0.5], [0.0, 1.0, -1.0, 0.5, 1.0]]
        )
        coords = rng.normal(size=(40, 2))
        ds = dataset_from(coords @ basis)
        model = fit_pca(ds, threshold=0.99, mode="covariance")
        assert model.retained == 2
        assert np.abs(model.eigenvalues[2:]).max() < 1e-10

    def test_lung_retained_within_band(self, lung):
        model = fit_pca(lung, threshold=0.90, mode="correlation")
        assert 16 <= model.retained <= 20

    def test_coverage_rule_boundary(self, lung):
        model = fit_pca(lung, threshold=0.90, mode="correlation")
        m = model.retained
        coverage = pca._cumulative_coverage(model.eigenvalues)
        assert coverage[m - 1] >= 0.90
        assert coverage[m - 2] < 0.90

    def test_coverage_ignores_eigenvalues_below_rank_tolerance(self):
        # the 40 tiny eigenvalues are numerical zeros: one component covers all
        eigenvalues = np.array([1.0] + [5e-13] * 40)
        model = PcaModel(
            mean=np.zeros(41),
            scale=np.ones(41),
            components=np.eye(41)[:, :1],
            eigenvalues=eigenvalues,
            retained=int(retained_for_threshold(eigenvalues[None], 1.0)[0]),
        )
        assert model.retained == 1
        assert pca._cumulative_coverage(model.eigenvalues)[0] == 1.0

    def test_retained_counts_are_ints(self, lung):
        """A stack of eigenvalues gives an int array, and a model's count is
        an int, as ``report.json`` encodes it."""
        values = np.array([[3.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        counts = retained_for_threshold(values, 0.9)
        assert counts.dtype.kind == "i" and counts.tolist() == [2, 3, 1]
        assert [retained_for_threshold(row[None], 0.9)[0] for row in values] == [2, 3, 1]
        assert type(fit_pca(lung, 0.9, "correlation").retained) is int
        keep = training_folds(lung, 10, [1])
        fits = fit_pca_subsets(lung.features, keep, 0.9, "covariance")
        assert all(type(fit.retained) is int for fit in fits)

    def test_monotone_coverage(self, lung):
        previous = 0
        for threshold in (0.3, 0.5, 0.7, 0.9, 0.95, 1.0):
            retained = fit_pca(lung, threshold, "correlation").retained
            assert retained >= previous
            previous = retained

    @pytest.mark.parametrize("mode", ["covariance", "correlation"])
    @pytest.mark.parametrize("columns", [56, 12], ids=["gram-path", "f-by-f-path"])
    def test_each_component_leads_with_a_nonnegative_entry(self, lung, mode, columns):
        """Each component's entry of largest magnitude (the first on ties)
        is nonnegative: on the Gram path (32 or fewer rows of 56 features)
        and on the f x f path (12 features), for the whole dataset and for
        every training fold of a ``fit_pca_subsets`` stack."""
        ds = dataset_from(lung.features[:, :columns])
        keep = training_folds(lung, 10, [1, 2])
        fits = [fit_pca(ds, 1.0, mode)] + fit_pca_subsets(ds.features, keep, 1.0, mode)
        for fit in fits:
            v = fit.components
            assert (v.shape[0] > len(lung.features)) == (columns == 56)
            assert (v[np.argmax(np.abs(v), axis=0), np.arange(fit.retained)] >= 0.0).all()

    def test_component_columns_orthonormal(self, lung):
        model = fit_pca(lung, 0.90, "correlation")
        gram = model.components.T @ model.components
        assert np.abs(gram - np.eye(model.retained)).max() < 1e-8

    def test_rejects_bad_threshold(self, lung):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                fit_pca(lung, bad, "correlation")

    def test_rejects_single_sample(self):
        ds = dataset_from([[1.0, 2.0]], labels=[0])
        with pytest.raises(DataError, match="at least two samples, found 1"):
            fit_pca(ds, 0.9, "covariance")

    def test_rejects_missing_cells(self):
        ds = dataset_from([[1.0, np.nan], [2.0, 3.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            fit_pca(ds, 0.9, "covariance")


#: fewer samples than features: PCA takes the Gram path
WIDE = [[1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 1.0, 0.0, 3.0, 3.0], [0.0, 0.0, 1.0, 1.0, 2.0]]
EQUAL_ROWS = [[5.0, 1.0]] * 4

#: (fit rule, rows at its edge, check of the fitted model, or None where the
#: fit refuses the rows)
EDGES = [
    ("an-overflowing-column-mean-is-a-data-error",
     [[1.7e308, 1.0], [1.7e308, 2.0], [0.0, 3.0], [0.0, 4.0]], None),
    ("an-overflowing-column-sd-is-a-data-error",
     [[1e200, 1.0], [-1e200, 2.0], [0.0, 3.0], [0.0, 4.0]], None),
    ("a-constant-column-keeps-a-positive-scale",
     [[5.0, 1.0], [5.0, 2.0], [5.0, 3.0], [5.0, 4.0]], lambda m: m.scale.min() > 0.0),
    ("equal-rows-retain-a-component", EQUAL_ROWS, lambda m: m.retained >= 1),
    ("equal-rows-keep-a-column-per-retained-component", EQUAL_ROWS,
     lambda m: m.components.shape == (m.n_features, m.retained)),
    ("wide-rows-keep-an-eigenvalue-per-feature", WIDE,
     lambda m: m.eigenvalues.shape == (m.n_features,)),
    ("wide-rows-keep-a-component-row-per-feature", WIDE,
     lambda m: m.components.shape[0] == m.n_features),
]


@pytest.mark.parametrize(
    "rows,rule", [edge[1:] for edge in EDGES], ids=[edge[0] for edge in EDGES]
)
def test_fit_at_an_edge(rows, rule):
    """The fit refuses rows that would give a non-finite entry with a
    ``DataError`` naming the data; at every other edge the fitted model
    keeps the rule."""
    data = dataset_from(rows, provenance="edge.data")
    if rule is None:
        with pytest.raises(DataError, match=r"edge\.data"):
            fit_pca(data, 0.9, "correlation")
        return
    model = fit_pca(data, 0.9, "correlation")
    assert model.n_features == data.n_features
    assert rule(model)


def training_folds(ds, k, seeds):
    """(models, n) masks of the training rows of every (seed, fold)."""
    stack = stratified_fold_stack(ds, k, seeds)
    return np.concatenate([[fold_of != fold for fold in range(k)] for fold_of in stack])


MODEL_ARRAYS = ("mean", "scale", "eigenvalues", "components")


class TestFitSubsets:
    @pytest.mark.parametrize("mode", ["correlation", "covariance"])
    @pytest.mark.parametrize("threshold", [0.9, 1.0])
    @pytest.mark.parametrize("k", [10, 32], ids=["10-fold", "leave-one-out"])
    def test_bits_equal_fit_pca_per_fold(self, lung, mode, threshold, k):
        """Every training fold's batched refit, seeds 1..5, is its own
        ``fit_pca`` bit for bit; the folds have two row counts at k = 10."""
        keep = training_folds(lung, k, range(1, 6))
        fits = fit_pca_subsets(lung.features, keep, threshold, mode)
        assert len(set(keep.sum(axis=1).tolist())) == (2 if k == 10 else 1)
        for in_train, fit in zip(keep, fits):
            alone = fit_pca(lung.subset(np.flatnonzero(in_train)), threshold, mode)
            assert fit.retained == alone.retained
            for name in MODEL_ARRAYS:
                assert getattr(fit, name).tobytes() == getattr(alone, name).tobytes(), name

    def test_stacks_follow_the_element_budget(self, lung, monkeypatch):
        """Leave-one-out's 32 training folds of 31 rows are stacked as many
        at a time as the budget holds."""
        stacks = []
        fit_stack = pca._fit_stack

        def recording(stack, threshold, mode):
            stacks.append(len(stack))
            return fit_stack(stack, threshold, mode)

        monkeypatch.setattr(pca, "_fit_stack", recording)
        # a subset counts its 31 rows and its 56 x 56 matrix, of 56 features
        monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", 5 * (31 + 56) * 56 + 7)
        fits = fit_pca_subsets(lung.features, training_folds(lung, 32, [1]), 0.9, "correlation")
        assert stacks == [5] * 6 + [2]
        assert all(fit is not None for fit in fits)

    def test_a_failing_subset_is_none(self):
        """A subset under two rows, or whose covariance overflows, is None,
        and so is each subset fit_pca would raise on; the others fit."""
        features = np.array([[1.0, 2.0], [2.0, 0.0], [3.0, 1.0], [1e200, 3.0]])
        keep = np.array([
            [True, False, False, False],   # one row
            [True, True, False, True],     # the square of 1e200 overflows
            [True, True, True, False],
            [False, True, True, False],
        ])
        fits = fit_pca_subsets(features, keep, 0.9, "covariance")
        for in_train, fit in zip(keep, fits):
            rows = dataset_from(features[in_train], labels=[0] * int(in_train.sum()))
            if fit is None:
                with pytest.raises(DataError):
                    fit_pca(rows, 0.9, "covariance")
            else:
                alone = fit_pca(rows, 0.9, "covariance")
                assert fit.components.tobytes() == alone.components.tobytes()
        assert [fit is None for fit in fits] == [True, True, False, False]

    @pytest.mark.parametrize("mode", ["covariance", "correlation"])
    def test_a_mixed_stack_matches_each_fit_pca(self, mode):
        """One stack of four-row subsets of nine features, so of Gram
        matrices: equal rows (zero-norm snapshot columns, mapped to unit
        vectors), rows near a line (one component), a row whose square
        overflows, and ordinary rows (several components).  Each subset is
        its own ``fit_pca`` bit for bit, or None where that raises."""
        rng = np.random.default_rng(7)
        equal = np.tile(rng.normal(size=9), (4, 1))
        line = np.outer(rng.normal(size=4), rng.normal(size=9)) + 1e-3 * rng.normal(size=(4, 9))
        ordinary = rng.normal(size=(8, 9))
        overflow = ordinary[:1].copy()
        overflow[0, 2] = 1e200
        features = np.vstack([equal, line, ordinary, overflow])
        subsets = [range(0, 4), range(4, 8), [8, 9, 10, 11], [12, 13, 14, 16], [8, 10, 13, 15]]
        keep = np.zeros((len(subsets), len(features)), dtype=bool)
        for in_train, rows in zip(keep, subsets):
            in_train[list(rows)] = True
        fits = fit_pca_subsets(features, keep, 0.9, mode)
        assert [fit is None for fit in fits] == [False, False, False, True, False]
        assert fits[0].retained == fits[1].retained == 1
        assert max(fit.retained for fit in fits if fit is not None) > 1
        assert fits[0].components[:, 0].tolist() == [1.0] + [0.0] * 8
        for in_train, fit in zip(keep, fits):
            rows = dataset_from(features[in_train])
            if fit is None:
                with pytest.raises(DataError, match="overflows"):
                    fit_pca(rows, 0.9, mode)
                continue
            alone = fit_pca(rows, 0.9, mode)
            assert fit.retained == alone.retained
            for name in MODEL_ARRAYS:
                assert getattr(fit, name).tobytes() == getattr(alone, name).tobytes(), name

    def test_an_eigensolver_failure_marks_only_its_subset(self, lung, monkeypatch):
        """LAPACK failing on one fold's matrix fails the stack's ``eigh``;
        the subsets are then refitted alone, and only that one is None.  The
        folds' Gram matrices are 28 x 28 and 29 x 29, so a stack is matched
        on shape before its matrices are compared."""
        keep = training_folds(lung, 10, [1])
        bad = pca._basis(lung.features[keep[3]], "correlation")[2]
        eigh = np.linalg.eigh

        def failing(a):
            if a.shape[-2:] == bad.shape and any(
                np.array_equal(m, bad) for m in np.reshape(a, (-1, *bad.shape))
            ):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", failing)
        fits = fit_pca_subsets(lung.features, keep, 0.9, "correlation")
        assert [fit is None for fit in fits] == [b == 3 for b in range(10)]
        for in_train, fit in zip(keep, fits):
            rows = lung.subset(np.flatnonzero(in_train))
            if fit is None:
                with pytest.raises(ConvergenceError, match="did not converge"):
                    fit_pca(rows, 0.9, "correlation")
            else:
                alone = fit_pca(rows, 0.9, "correlation")
                assert fit.components.tobytes() == alone.components.tobytes()


_HASH_SUBSETS_SCRIPT = """
import hashlib, sys
import numpy as np
from pcasmote.dataset import impute_missing, load_uci_lung_cancer, stratified_fold_stack
from pcasmote.pca import fit_pca_subsets
ds = impute_missing(load_uci_lung_cancer(sys.argv[1]), "mode")
stack = stratified_fold_stack(ds, 10, range(1, 6))
keep = np.concatenate([[fold_of != fold for fold in range(10)] for fold_of in stack])
h = hashlib.sha256()
for mode in ("correlation", "covariance"):
    for fit in fit_pca_subsets(ds.features, keep, 1.0, mode):
        for a in (fit.eigenvalues, fit.components, fit.mean, fit.scale):
            h.update(a.tobytes())
print(h.hexdigest())
"""


def test_subset_bits_independent_of_blas_threads(data_file):
    src = str(Path(pca.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _HASH_SUBSETS_SCRIPT, str(data_file)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


class TestTransform:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        ds = dataset_from(rng.normal(size=(4, 3)))
        model = fit_pca(ds, 1.0, "covariance")
        projected = transform(model, ds)
        oracle = brute_force_projection(ds, model)
        assert np.abs(projected.features - oracle).max() < 1e-10

    def test_projected_variance_equals_eigenvalue(self):
        rng = np.random.default_rng(3)
        ds = dataset_from(rng.normal(size=(30, 6)) * [1, 2, 3, 1, 5, 1])
        model = fit_pca(ds, 1.0, "covariance")
        projected = transform(model, ds).features
        variances = projected.var(axis=0, ddof=1)
        assert np.abs(variances - model.eigenvalues[: model.retained]).max() < 1e-8

    def test_components_decorrelated(self, lung):
        model = fit_pca(lung, 0.90, "correlation")
        projected = transform(model, lung).features
        cov = linalg.covariance_matrix(projected)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 1e-8

    def test_variance_conservation_at_full_threshold(self, lung):
        model = fit_pca(lung, 1.0, "covariance")
        projected = transform(model, lung).features
        total_projected = projected.var(axis=0, ddof=1).sum()
        total_input = np.trace(linalg.covariance_matrix(lung.features))
        assert abs(total_projected - total_input) < 1e-8

    def test_zero_variance_dataset_maps_to_zero(self):
        ds = dataset_from(np.ones((5, 3)))
        model = fit_pca(ds, 0.9, "covariance")
        projected = transform(model, ds)
        assert np.abs(projected.features).max() == 0.0

    @pytest.mark.parametrize("mode", ["covariance", "correlation"])
    def test_constant_wide_dataset_maps_to_zero(self, mode):
        """Fewer rows than features, all equal: the Gram matrix is zero, and
        the one retained component is the first unit vector, as the 5 x 5
        matrix gives, with no division of zero by zero."""
        ds = dataset_from(np.ones((3, 5)))
        model = fit_pca(ds, 0.9, mode)
        assert model.retained == 1
        assert model.components[:, 0].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
        assert model.eigenvalues.tolist() == [0.0] * 5
        assert np.abs(transform(model, ds).features).max() == 0.0

    @pytest.mark.parametrize("mode", ["covariance", "correlation"])
    def test_wide_duplicated_rows_retain_their_rank(self, mode):
        """Four distinct rows of nine features, each twice: the centred rows
        have rank 3, and threshold 1.0 keeps exactly 3 components."""
        distinct = np.random.default_rng(5).normal(size=(4, 9))
        model = fit_pca(dataset_from(np.repeat(distinct, 2, axis=0)), 1.0, mode)
        assert model.retained == 3
        assert model.eigenvalues.shape == (9,)
        gram = model.components.T @ model.components
        assert np.abs(gram - np.eye(3)).max() < 1e-12

    @pytest.mark.parametrize("mode", ["covariance", "correlation"])
    def test_zero_entries_of_components_are_positive(self, mode):
        """Five rows of eight integer features, one constant: on the Gram
        path the constant feature's entries of every component are exact
        zeros, and each is +0.0 whatever sign LAPACK's eigenvectors gave it,
        so the basis has the same bytes on any LAPACK build."""
        x = np.random.default_rng(0).integers(0, 4, size=(5, 8)).astype(float)
        x[:, 2] = 3.0
        model = fit_pca(dataset_from(x), 1.0, mode)
        zeros = model.components == 0.0
        assert model.retained == 4 and zeros[2].all()
        assert not np.signbit(model.components[zeros]).any()

    def test_affine_linearity_of_rows(self, lung):
        model = fit_pca(lung, 0.90, "correlation")
        x = lung.features[0]
        y = lung.features[1]
        for a in (0.0, 0.25, 0.5, 0.9, 1.0):
            blend = a * x + (1 - a) * y
            blend_ds = Dataset(
                features=blend[None, :],
                labels=np.array([0]),
                class_names=lung.class_names,
                feature_names=lung.feature_names,
            )
            px = transform(model, lung.subset([0])).features[0]
            py = transform(model, lung.subset([1])).features[0]
            pb = transform(model, blend_ds).features[0]
            assert np.abs(pb - (a * px + (1 - a) * py)).max() < 1e-10

    def test_labels_and_names_carried(self, lung):
        model = fit_pca(lung, 0.90, "correlation")
        projected = transform(model, lung)
        assert np.array_equal(projected.labels, lung.labels)
        assert projected.class_names == lung.class_names
        assert projected.feature_names[0] == "PC1"
        assert projected.feature_names[-1] == f"PC{model.retained}"

    def test_dimension_mismatch_rejected(self, lung):
        model = fit_pca(lung, 0.90, "correlation")
        small = dataset_from(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            transform(model, small)


class TestSerialization:
    """The reducer's output is what ``reduce`` writes to disk: the reduced
    CSV reads back as ``transform``'s result, bit for bit, under any numpy."""

    def test_reduced_csv_reads_back_bitwise(self, tmp_path, lung):
        reduced = transform(fit_pca(lung, 0.90, "correlation"), lung)
        path = tmp_path / "reduced.csv"
        write_dataset_csv(reduced, path)
        back = read_dataset_csv(path)
        # bytes, not values: a -0.0 written for a +0.0 fails
        assert back.features.tobytes() == reduced.features.tobytes()
        assert np.array_equal(back.labels, reduced.labels)
        assert (back.class_names, back.feature_names) == (
            reduced.class_names, reduced.feature_names,
        )


#: numpy version under which ``PINNED_REDUCE`` was taken
PINNED_NUMPY = "2.4.6"

#: mode -> SHA-256 of the reducer's ``basis_bytes`` and of ``reduce``'s
#: reduced.csv, for the bundled file and configs/default.cfg, whose 32 x 56
#: fit takes the Gram path
PINNED_REDUCE = {
    "correlation": (
        "6ad353dd4d228619b529c4984bd359a07431e6bfabada60608ee875f657d7b7e",
        "be1b574b61a0819ea939f71fd1a9b6b20f306e6148c467bd20e7b22c074ad5d6",
    ),
    "covariance": (
        "dc53fe4e4dd8e49de89c84c2139f9d2925b2a9548049f61bb094d4f84b596071",
        "326a10273897a7342544a3b7d6830292d715f2713cbb3755fd66d0c98ddbd8ea",
    ),
}


def basis_bytes(model: PcaModel) -> bytes:
    """The bytes of the model's mean, scale, eigenvalues and components, one
    array after another: bytes, not values, so a -0.0 for a +0.0 shows."""
    arrays = (model.mean, model.scale, model.eigenvalues, model.components)
    return b"".join(a.tobytes() for a in arrays)


@pytest.mark.parametrize("mode", sorted(PINNED_REDUCE))
def test_reduce_artifacts_pinned(tmp_path, default_config, mode):
    """The reducer of the bundled data and ``reduce``'s reduced.csv, bit for
    bit: a last-bit change in the basis, the mean or the scale shows here
    even when no prediction of the experiment moves.  The bits depend on
    numpy's LAPACK, so the pin holds only under the numpy version it was
    taken with."""
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"hashes taken under numpy {PINNED_NUMPY}, running numpy {np.__version__}")
    override = f"pca.mode={mode}"
    cfg = load_config(default_config, [override])
    model = fit_pca(
        impute_missing(load_dataset(cfg.dataset), cfg.imputation), cfg.pca.threshold, cfg.pca.mode
    )
    out = tmp_path / "out"
    assert main(["reduce", "--config", str(default_config), "--set", override, "-o", str(out)]) == 0
    digests = tuple(
        hashlib.sha256(data).hexdigest()
        for data in (basis_bytes(model), (out / "reduced.csv").read_bytes())
    )
    assert digests == PINNED_REDUCE[mode]


def eigh_oracle(features, threshold, mode):
    """(retained, eigenvalues, components) from ``np.linalg.eigh`` of the
    f x f covariance of the features, or of their z-scores: the decomposition
    ``fit_pca`` made before it took the Gram matrix of a wide one."""
    z = features - features.mean(axis=0)
    if mode == "correlation":
        sd = features.std(axis=0, ddof=1)
        z = z / np.where(sd < pca.SD_FLOOR, 1.0, sd)
        z = z - z.mean(axis=0)
    values, vectors = np.linalg.eigh(z.T @ z / (len(z) - 1))
    values, vectors = values[::-1], vectors[:, ::-1]
    retained = int(retained_for_threshold(values[None], threshold)[0])
    return retained, values, vectors[:, :retained]


@pytest.mark.parametrize("mode", ["correlation", "covariance"])
@pytest.mark.parametrize("threshold", [0.9, 1.0])
def test_gram_path_matches_eigh_oracle(lung, mode, threshold):
    """Every training fold of seeds 1..20 (k = 10) and of leave-one-out
    seed 1, 28 to 31 rows of 56 features, against the f x f oracle: equal
    retained counts, eigenvalues within 1e-13 of the largest, orthonormal
    components within 1e-10 of the oracle's up to sign."""
    keep = np.concatenate([
        training_folds(lung, 10, range(1, 21)), training_folds(lung, 32, [1]),
    ])
    for in_train, fit in zip(keep, fit_pca_subsets(lung.features, keep, threshold, mode)):
        retained, values, vectors = eigh_oracle(lung.features[in_train], threshold, mode)
        assert fit.retained == retained
        assert np.abs(fit.eigenvalues - values).max() <= 1e-13 * values[0]
        v = fit.components
        assert np.abs(v.T @ v - np.eye(retained)).sum(axis=1).max() <= 1e-12
        apart = np.minimum(np.abs(v - vectors).max(axis=0), np.abs(v + vectors).max(axis=0))
        assert apart.max() <= 1e-10
