"""Report artifacts, each written by ``dataset.write_text``: JSON documents
(one line from a one-shot ``json.dumps`` without ``indent``, the call that
runs json's C encoder), flat CSV, per-metric CSVs.

All writers are deterministic for a given report; timestamps live only in
the sidecar metadata file so repeated runs produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from . import __version__
from .dataset import write_text
from .experiment import EvalSummary, ExperimentReport, StepResult

SCHEMA_VERSION = 1

#: metric -> the ``EvalSummary`` row the figure CSVs read it from
FIGURE_METRICS = {
    "accuracy": "mean",
    "fp_rate": "mean",
    "precision": "mean",
    "recall": "mean",
    "misclassified": "median",
}


def _step_dict(step: StepResult) -> dict:
    s = step.summary
    return {
        "method": step.method_name,
        "n_features": step.n_features,
        "n_samples": step.n_samples,
        "class_counts": step.class_counts,
        "metrics_mean": s.mean.as_dict(),
        "metrics_range": {k: list(v) for k, v in s.ranges.items()},
        "misclassified_median": s.median.misclassified,
        "per_seed": [
            {"seed": seed, **row.as_dict()} for seed, row in s.per_seed
        ],
    }


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": __version__,
        "dataset_sha256": report.dataset_sha256,
        "resample_scope": report.config["eval"]["resample_scope"],
        "pca": {
            "mode": report.config["pca"]["mode"],
            "retained": report.pca_retained,
            "retained_other_mode": report.pca_retained_other_mode,
        },
        "config": report.config,
        "steps": [_step_dict(step) for step in report.steps],
    }


def write_report_json(report: ExperimentReport, path) -> None:
    write_text(path, json.dumps(report_to_dict(report)) + "\n")


CSV_HEADER = (
    "method,seed,n_features,n_samples,accuracy,fp_rate,precision,recall,misclassified"
)


def csv_line(seed, row) -> str:
    return (
        f"{row.method_name},{seed},{row.n_features},{row.n_samples},"
        f"{row.accuracy!r},{row.fp_rate!r},{row.precision!r},{row.recall!r},"
        f"{row.misclassified}"
    )


def write_summaries_csv(summaries: list[EvalSummary], aggregates: tuple[str, ...], path) -> None:
    """One row per method per seed, then each method's rows named in
    ``aggregates`` (``EvalSummary`` fields, such as "mean"), methods in order."""
    lines = [CSV_HEADER]
    lines += [csv_line(seed, row) for s in summaries for seed, row in s.per_seed]
    lines += [csv_line(name, getattr(s, name)) for s in summaries for name in aggregates]
    write_text(path, "\n".join(lines) + "\n")


def write_report_csv(report: ExperimentReport, path) -> None:
    """One row per method per seed, then mean and median aggregate rows."""
    write_summaries_csv([step.summary for step in report.steps], ("mean", "median"), path)


def write_figure_csvs(report: ExperimentReport, out_dir) -> None:
    """One two-column CSV per metric: method name, value of its ``FIGURE_METRICS`` row."""
    for metric, row in FIGURE_METRICS.items():
        lines = ["method,value"] + [
            f"{step.method_name},{float(getattr(getattr(step.summary, row), metric))!r}"
            for step in report.steps
        ]
        write_text(Path(out_dir) / f"{metric}.csv", "\n".join(lines) + "\n")


def write_run_metadata(out_dir, argv: list[str]) -> None:
    """Timestamped sidecar; the only artifact allowed to differ between runs."""
    payload = {"written_at_unix": time.time(), "argv": argv}
    write_text(Path(out_dir) / "run_meta.json", json.dumps(payload) + "\n")
