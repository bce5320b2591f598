"""Report artifacts: JSON document, flat CSV, per-metric CSVs, optional SVGs.

All writers are deterministic for a given report; timestamps live only in
the sidecar metadata file so repeated runs produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from . import __version__
from .experiment import EvalSummary, ExperimentReport, StepResult
from .model_io import write_text

SCHEMA_VERSION = 1

#: metric -> the ``EvalSummary`` row the figure CSVs and SVGs read it from
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


def figure_values(report: ExperimentReport, metric: str) -> list[tuple[str, float]]:
    """Each method's ``metric``, read from the summary row ``FIGURE_METRICS`` names."""
    row = FIGURE_METRICS[metric]
    return [
        (step.method_name, float(getattr(getattr(step.summary, row), metric)))
        for step in report.steps
    ]


def write_figure_csvs(report: ExperimentReport, out_dir) -> None:
    """One two-column CSV per metric: method name, aggregated value."""
    for metric in FIGURE_METRICS:
        lines = ["method,value"] + [f"{m},{v!r}" for m, v in figure_values(report, metric)]
        write_text(Path(out_dir) / f"{metric}.csv", "\n".join(lines) + "\n")


def _svg_bar_chart(title: str, pairs: list[tuple[str, float]]) -> str:
    width, height = 480, 300
    margin_left, margin_bottom, margin_top = 50, 40, 30
    plot_w = width - margin_left - 20
    plot_h = height - margin_top - margin_bottom
    top = max((v for _, v in pairs), default=1.0)
    top = top if top > 0 else 1.0
    bar_w = plot_w / max(len(pairs), 1) * 0.6
    gap = plot_w / max(len(pairs), 1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="{width / 2}" y="18" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
        f'<line x1="{margin_left}" y1="{margin_top}" x2="{margin_left}" '
        f'y2="{margin_top + plot_h}" stroke="black"/>',
        f'<line x1="{margin_left}" y1="{margin_top + plot_h}" '
        f'x2="{margin_left + plot_w}" y2="{margin_top + plot_h}" stroke="black"/>',
    ]
    for i, (name, value) in enumerate(pairs):
        h = plot_h * (value / top)
        x = margin_left + i * gap + (gap - bar_w) / 2
        y = margin_top + plot_h - h
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" height="{h:.2f}" '
            f'fill="#4878a8"/>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.2f}" y="{y - 4:.2f}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{value:.4g}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.2f}" y="{margin_top + plot_h + 16}" '
            f'text-anchor="middle" font-size="11" font-family="sans-serif">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_figure_svgs(report: ExperimentReport, out_dir) -> None:
    for metric in FIGURE_METRICS:
        chart = _svg_bar_chart(metric.replace("_", " "), figure_values(report, metric))
        write_text(Path(out_dir) / f"{metric}.svg", chart)


def write_run_metadata(out_dir, argv: list[str]) -> None:
    """Timestamped sidecar; the only artifact allowed to differ between runs."""
    payload = {"written_at_unix": time.time(), "argv": argv}
    write_text(Path(out_dir) / "run_meta.json", json.dumps(payload) + "\n")
