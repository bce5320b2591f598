"""Command-line front end (README, "Quick start").

Every subcommand reads a config file (``--config``), patched by ``--set
key=value`` overrides, and writes its artifacts into the output directory.
``COMMANDS`` declares each subcommand once, and ``FAILURES`` each exit code:
2 usage or config, 3 data (an ``OSError`` reading the dataset or writing
artifacts included), 4 numerical non-convergence.  Any other exception, a
bare ``ValueError`` included, is a toolkit bug: a traceback and exit 1.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, reporting
from .config import load_config, validate_eval
from .dataset import class_counts, impute_missing, load_dataset, write_dataset_csv
from .errors import ConfigError, ConvergenceError, DataError
from .experiment import evaluate_dataset, resolve_order, run_experiment
from .naive_bayes import fit_nb, save_nb
from .pca import fit_pca, save_pca, transform
from .smote import balance_sequence

#: failure type -> (exit code, stderr tag); a subclass maps as its base.
FAILURES = {
    ConfigError: (2, "usage"),
    DataError: (3, "data"),
    OSError: (3, "data"),
    ConvergenceError: (4, "numeric"),
}


def _resolve_output_dir(args) -> Path:
    out = args.output_dir or os.environ.get("PCASMOTE_OUTPUT_DIR", "out")
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(
            f"output directory {out} (--output-dir, else $PCASMOTE_OUTPUT_DIR, "
            f"else ./out): {exc.strerror}"
        ) from exc
    return path


def _load_imputed(cfg):
    return impute_missing(load_dataset(cfg.dataset), cfg.imputation)


def _cmd_inspect(args, cfg) -> None:
    ds = load_dataset(cfg.dataset)
    counts = class_counts(ds)
    missing = int(np.isnan(ds.features).sum())
    print(f"dataset: {cfg.dataset}")
    print(f"samples: {ds.n_samples}  features: {ds.n_features}  missing cells: {missing}")
    pairs = " ".join(f"{n}={c}" for n, c in zip(ds.class_names, counts))
    print(f"class counts: {pairs} -> {counts}")


def _cmd_reduce(args, cfg) -> None:
    out = _resolve_output_dir(args)
    ds = _load_imputed(cfg)
    model = fit_pca(ds, cfg.pca.threshold, cfg.pca.mode)
    save_pca(model, out / "pca_model.json")
    write_dataset_csv(transform(model, ds), out / "reduced.csv")
    print(
        f"retained {model.retained} of {ds.n_features} components "
        f"({cfg.pca.mode} mode, threshold {cfg.pca.threshold})"
    )
    print(f"wrote {out / 'pca_model.json'} and {out / 'reduced.csv'}")


def _cmd_resample(args, cfg) -> None:
    out = _resolve_output_dir(args)
    ds = _load_imputed(cfg)
    order = resolve_order(ds, cfg.smote.order)
    runs = balance_sequence(
        ds, order, cfg.smote.per_class_target, k=cfg.smote.k, seed=cfg.smote.seed
    )
    for i, run_ds in enumerate(runs, start=1):
        write_dataset_csv(run_ds, out / f"smote{i}.csv")
    final = runs[-1] if runs else ds
    write_dataset_csv(final, out / "resampled.csv")
    print(f"class counts: {class_counts(final)}")
    print(f"wrote {len(runs)} run file(s) and {out / 'resampled.csv'}")


def _cmd_train(args, cfg) -> None:
    out = _resolve_output_dir(args)
    ds = _load_imputed(cfg)
    model = fit_nb(ds)
    save_nb(model, out / "nb_model.json")
    priors = " ".join(f"{n}={p:.4f}" for n, p in zip(model.class_names, model.priors))
    print(f"priors: {priors}")
    print(f"wrote {out / 'nb_model.json'}")


def _cmd_evaluate(args, cfg) -> None:
    validate_eval(cfg.eval)   # no SMOTE here, whatever eval.resample_scope says
    out = _resolve_output_dir(args)
    ds = _load_imputed(cfg)
    summary = evaluate_dataset(ds, cfg.eval, method_name="dataset")
    reporting.write_summaries_csv([summary], ("mean",), out / "evaluation.csv")
    mean = summary.mean
    print(
        f"accuracy={mean.accuracy:.4f} fp_rate={mean.fp_rate:.4f} "
        f"precision={mean.precision:.4f} recall={mean.recall:.4f} "
        f"misclassified={mean.misclassified}/{mean.n_samples}"
    )
    print(f"wrote {out / 'evaluation.csv'}")


def _cmd_experiment(args, cfg) -> None:
    out = _resolve_output_dir(args)
    report = run_experiment(cfg)
    reporting.write_report_json(report, out / "report.json")
    reporting.write_report_csv(report, out / "report.csv")
    reporting.write_figure_csvs(report, out)
    if args.svg:
        reporting.write_figure_svgs(report, out)
    reporting.write_run_metadata(out, args.argv)
    print(f"pca retained: {report.pca_retained} ({cfg.pca.mode} mode); "
          f"other mode: {report.pca_retained_other_mode}")
    print("method      feat  samp  accuracy  fp_rate  precision  recall  miscl")
    for step in report.steps:
        m = step.summary.mean
        print(
            f"{step.method_name:<10} {step.n_features:>5} {step.n_samples:>5} "
            f"{m.accuracy:>9.4f} {m.fp_rate:>8.4f} {m.precision:>10.4f} "
            f"{m.recall:>7.4f} {m.misclassified:>6}"
        )
    print(f"wrote report and figure data to {out}")


#: subcommand -> (help text, handler); a handler takes the parsed arguments
#: and the loaded config, and raises on failure.
COMMANDS = {
    "inspect": ("print a summary of the configured dataset", _cmd_inspect),
    "reduce": ("fit the PCA reducer and export the reduced dataset", _cmd_reduce),
    "resample": ("run the configured oversampling sequence", _cmd_resample),
    "train": ("fit the naive Bayes classifier and save it", _cmd_train),
    "evaluate": ("cross-validate naive Bayes on the configured dataset", _cmd_evaluate),
    "experiment": ("run the full multi-stage comparison", _cmd_experiment),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser, built on first use, not at import, and then kept."""
    parser = argparse.ArgumentParser(
        prog="pcasmote",
        description="PCA reduction + SMOTE resampling + naive Bayes evaluation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"pcasmote {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
        p.add_argument("--output-dir", "-o", default="", help="artifact directory")
        if handler is _cmd_experiment:
            p.add_argument(
                "--svg", action="store_true", help="also emit SVG bar charts"
            )
    return parser


def parse_invocation(argv: list[str]) -> argparse.Namespace:
    """Parse argv into ``subcommand``, ``handler``, ``config``, ``overrides``,
    ``output_dir``, ``argv`` itself and, for ``experiment``, ``svg``.
    Raises SystemExit(2) on usage errors (argparse behaviour)."""
    args = _build_parser().parse_args(argv, argparse.Namespace(argv=argv))
    args.overrides = list(args.overrides)   # else every parse shares the parser's default list
    return args


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; returns the process exit status."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parse_invocation(argv)
    except SystemExit as exc:  # argparse has printed the usage or the version
        return exc.code
    try:
        args.handler(args, load_config(args.config, args.overrides))
    except tuple(FAILURES) as exc:
        code, tag = next(v for t, v in FAILURES.items() if isinstance(exc, t))
        print(f"error[{tag}]: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
