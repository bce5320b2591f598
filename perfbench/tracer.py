"""Span tracer that wraps the package's layer-boundary functions from outside.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces each
target function with a wrapper in every ``pcasmote`` module that holds a
reference to it (modules import names with ``from .x import y``, so one
function can live in several namespaces) and ``Tracer.uninstall`` puts the
originals back.  Each wrapped call appends a span (name, parent span,
start, end) to an in-memory list; per-layer metrics are computed from the
spans when an operation ends.

Hooks add counts and checks at the same boundaries: input digests for the
unique ratios, synthetic and predicted row counts, and a cross-check of
every ``jacobi_eigen`` result against ``numpy.linalg.eigh``.  Hook time is
kept off the span clock, so it shows only in ``trace.overhead_s``.

The package is single-threaded and has no queues, so no layer ever waits
on another; no waiting time is recorded.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

#: a jacobi_eigen result whose eigenvalue error or residual, relative to the
#: Frobenius norm of its input, exceeds this counts as a failed call
EIGEN_CHECK_TOL = 1e-9

#: (metric prefix, module, attribute path) of each wrapped function; several
#: targets may share a prefix and then report as one layer function
TARGETS = (
    ("config.load_config", "pcasmote.config", "load_config"),
    ("dataset.load_dataset", "pcasmote.dataset", "load_dataset"),
    ("dataset.impute_missing", "pcasmote.dataset", "impute_missing"),
    ("dataset.stratified_folds", "pcasmote.dataset", "stratified_folds"),
    ("dataset.fold_indices", "pcasmote.dataset", "FoldAssignment.test_indices"),
    ("dataset.fold_indices", "pcasmote.dataset", "FoldAssignment.train_indices"),
    ("dataset.subset", "pcasmote.dataset", "Dataset.subset"),
    ("linalg.correlation_matrix", "pcasmote.linalg", "correlation_matrix"),
    ("linalg.covariance_matrix", "pcasmote.linalg", "covariance_matrix"),
    ("linalg.jacobi_eigen", "pcasmote.linalg", "jacobi_eigen"),
    ("pca.fit_pca", "pcasmote.pca", "fit_pca"),
    ("pca.transform", "pcasmote.pca", "transform"),
    ("smote.balance_sequence", "pcasmote.smote", "balance_sequence"),
    ("smote.oversample_class", "pcasmote.smote", "oversample_class"),
    ("smote.nearest_minority_neighbors", "pcasmote.smote", "nearest_minority_neighbors"),
    ("naive_bayes.fit_nb", "pcasmote.naive_bayes", "fit_nb"),
    ("naive_bayes.predict_matrix", "pcasmote.naive_bayes", "predict_matrix"),
    ("metrics.confusion_matrix", "pcasmote.metrics", "confusion_matrix"),
    ("metrics.metric_row", "pcasmote.metrics", "metric_row"),
    ("experiment.run_experiment", "pcasmote.experiment", "run_experiment"),
    ("experiment.evaluate_dataset", "pcasmote.experiment", "evaluate_dataset"),
    ("experiment.evaluate_fold_pipeline", "pcasmote.experiment", "evaluate_fold_pipeline"),
    ("reporting.write", "pcasmote.reporting", "write_report_json"),
    ("reporting.write", "pcasmote.reporting", "write_report_csv"),
    ("reporting.write", "pcasmote.reporting", "write_figure_csvs"),
    ("reporting.write", "pcasmote.reporting", "write_run_metadata"),
)

#: the two cross-validation drivers report their time as one layer, so that
#: no timing reads a constant zero on a workload that uses only one of them
CV_DRIVERS = ("experiment.evaluate_dataset", "experiment.evaluate_fold_pipeline")

#: (name, unit, better) of every per-layer metric, in output order
PER_LAYER = (
    ("linalg.jacobi_eigen.calls", "count", "lower"),
    ("linalg.jacobi_eigen.busy_s", "s", "lower"),
    ("linalg.jacobi_eigen.failed", "count", "lower"),
    ("linalg.jacobi_eigen.eig_err_max", "rel", "lower"),
    ("linalg.jacobi_eigen.residual_max", "rel", "lower"),
    ("linalg.correlation_matrix.busy_s", "s", "lower"),
    ("linalg.covariance_matrix.busy_s", "s", "lower"),
    ("pca.fit_pca.calls", "count", "lower"),
    ("pca.fit_pca.busy_s", "s", "lower"),
    ("pca.fit_pca.self_s", "s", "lower"),
    ("pca.fit_pca.unique_ratio", "ratio", "higher"),
    ("pca.transform.calls", "count", "lower"),
    ("pca.transform.busy_s", "s", "lower"),
    ("smote.balance_sequence.calls", "count", "lower"),
    ("smote.balance_sequence.busy_s", "s", "lower"),
    ("smote.oversample_class.calls", "count", "lower"),
    ("smote.oversample_class.busy_s", "s", "lower"),
    ("smote.oversample_class.self_s", "s", "lower"),
    ("smote.oversample_class.synthetic_rows", "count", "lower"),
    ("smote.oversample_class.unique_ratio", "ratio", "higher"),
    ("smote.nearest_minority_neighbors.calls", "count", "lower"),
    ("smote.nearest_minority_neighbors.busy_s", "s", "lower"),
    ("naive_bayes.fit_nb.calls", "count", "lower"),
    ("naive_bayes.fit_nb.busy_s", "s", "lower"),
    ("naive_bayes.predict_matrix.calls", "count", "lower"),
    ("naive_bayes.predict_matrix.rows", "count", "lower"),
    ("naive_bayes.predict_matrix.busy_s", "s", "lower"),
    ("dataset.stratified_folds.calls", "count", "lower"),
    ("dataset.stratified_folds.busy_s", "s", "lower"),
    ("dataset.fold_indices.calls", "count", "lower"),
    ("dataset.fold_indices.busy_s", "s", "lower"),
    ("dataset.subset.calls", "count", "lower"),
    ("dataset.subset.busy_s", "s", "lower"),
    ("dataset.load_dataset.busy_s", "s", "lower"),
    ("dataset.impute_missing.busy_s", "s", "lower"),
    ("config.load_config.busy_s", "s", "lower"),
    ("experiment.run_experiment.calls", "count", "lower"),
    ("experiment.run_experiment.busy_s", "s", "lower"),
    ("experiment.run_experiment.self_s", "s", "lower"),
    ("experiment.evaluate_dataset.calls", "count", "lower"),
    ("experiment.evaluate_fold_pipeline.calls", "count", "lower"),
    ("experiment.cv_driver.busy_s", "s", "lower"),
    ("experiment.cv_driver.self_s", "s", "lower"),
    ("metrics.confusion_matrix.calls", "count", "lower"),
    ("metrics.confusion_matrix.busy_s", "s", "lower"),
    ("metrics.metric_row.calls", "count", "lower"),
    ("metrics.metric_row.busy_s", "s", "lower"),
    ("reporting.write.busy_s", "s", "lower"),
    ("reporting.write.bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _check_eigen(tracer, fn, args, kwargs, result) -> None:
    a = np.asarray(next(iter(_bound(fn, args, kwargs).values())), dtype=np.float64)
    scale = float(np.linalg.norm(a)) or 1.0
    reference = np.linalg.eigh(a)[0][::-1]
    values = np.asarray(result.eigenvalues)
    vectors = np.asarray(result.eigenvectors)
    eig_err = float(np.max(np.abs(values - reference))) / scale
    residual = float(np.linalg.norm(a @ vectors - vectors * values)) / scale
    tracer.extra["linalg.jacobi_eigen.eig_err_max"] = max(
        tracer.extra["linalg.jacobi_eigen.eig_err_max"], eig_err
    )
    tracer.extra["linalg.jacobi_eigen.residual_max"] = max(
        tracer.extra["linalg.jacobi_eigen.residual_max"], residual
    )
    if not (eig_err <= EIGEN_CHECK_TOL and residual <= EIGEN_CHECK_TOL):
        tracer.failed["linalg.jacobi_eigen"] += 1
        tracer.problems.append(
            f"jacobi_eigen check: eig_err {eig_err:.3e}, residual {residual:.3e}"
        )


def _fit_pca_input(tracer, fn, args, kwargs, result) -> None:
    bound = _bound(fn, args, kwargs)
    ds = bound["ds"]
    tracer.inputs["pca.fit_pca"].append(
        _digest(ds.features.shape, ds.features.tobytes(), bound["mode"], bound["threshold"])
    )


def _oversample_input(tracer, fn, args, kwargs, result) -> None:
    bound = _bound(fn, args, kwargs)
    ds, cfg = bound["ds"], bound["cfg"]
    tracer.inputs["smote.oversample_class"].append(
        _digest(
            ds.features.shape,
            ds.features.tobytes(),
            ds.labels.tobytes(),
            cfg.target_class,
            cfg.target_count,
            cfg.k,
            cfg.seed,
        )
    )
    tracer.extra["smote.oversample_class.synthetic_rows"] += result.n_samples - ds.n_samples


def _predict_rows(tracer, fn, args, kwargs, result) -> None:
    tracer.extra["naive_bayes.predict_matrix.rows"] += len(result)


HOOKS = {
    "linalg.jacobi_eigen": _check_eigen,
    "pca.fit_pca": _fit_pca_input,
    "smote.oversample_class": _oversample_input,
    "naive_bayes.predict_matrix": _predict_rows,
}


class Tracer:
    """Collects spans and counts for one operation at a time."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.reset()

    def reset(self) -> None:
        """Forget the previous operation's spans and counts."""
        self.spans: list[list] = []  # [name, parent index, start, end]
        self._stack: list[int] = []
        self._hook_s = 0.0
        self.extra: Counter = Counter()
        self.failed: Counter = Counter()
        self.inputs: defaultdict = defaultdict(list)
        self.problems: list[str] = []

    def _now(self) -> float:
        return time.perf_counter() - self._hook_s

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else -1, self._now(), 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                span[3] = self._now()
                self._stack.pop()
            if hook is not None:
                start = time.perf_counter()
                hook(self, fn, args, kwargs, result)
                self._hook_s += time.perf_counter() - start
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that the loaded package still defines."""
        self.absent = []
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == "pcasmote" or key.startswith("pcasmote.")
        ]
        for name, module_name, attr in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                owner = None
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            if outer:  # a method: patch the class only
                self._patch(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _totals(self) -> tuple[Counter, Counter, Counter]:
        """Calls, busy seconds and self seconds per span name."""
        child_s = [0.0] * len(self.spans)
        for _name, parent, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: Counter = Counter()
        busy: Counter = Counter()
        own: Counter = Counter()
        for i, (name, _parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child_s[i]
        return calls, busy, own

    def layer_metrics(self, out_dir: Path) -> dict[str, float]:
        """Per-layer metrics of the operation traced since the last reset.

        ``trace.overhead_s`` needs an untraced run and is left to the caller.
        """
        calls, busy, own = self._totals()
        for driver in CV_DRIVERS:
            busy["experiment.cv_driver"] += busy[driver]
            own["experiment.cv_driver"] += own[driver]
        values: dict[str, float] = {}
        for metric, _unit, _better in PER_LAYER:
            prefix, stat = metric.rsplit(".", 1)
            if prefix == "trace":
                continue
            if stat == "calls":
                values[metric] = calls[prefix]
            elif stat == "busy_s":
                values[metric] = busy[prefix]
            elif stat == "self_s":
                values[metric] = own[prefix]
            elif stat == "failed":
                values[metric] = self.failed[prefix]
            elif stat == "unique_ratio":
                seen = self.inputs[prefix]
                values[metric] = len(set(seen)) / len(seen) if seen else 0.0
            elif stat == "bytes":
                values[metric] = sum(p.stat().st_size for p in out_dir.iterdir())
            else:
                values[metric] = self.extra[metric]
        return values

    def self_time_shares(self) -> dict[str, float]:
        """Self time per wrapped function, as a share of all traced time."""
        own = self._totals()[2]
        total = sum(own.values()) or 1.0
        return {name: value / total for name, value in own.most_common()}


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced operations, as one measured value."""
    return {key: statistics.median_low(op[key] for op in per_op) for key in per_op[0]}
