"""Experiment configuration: a flat key=value file and overrides.

A config file holds one ``key = value`` pair per line with dotted section
keys (``pca.threshold = 0.90``); ``#`` starts a comment.  ``--set
key=value`` overrides apply on top of the file.  Unknown keys are rejected
by name.  Seed lists accept either comma-separated integers or an
inclusive, ascending range like ``1..20`` of at most ``MAX_SEEDS`` seeds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .dataset import IMPUTE_STRATEGIES
from .errors import ConfigError
from .pca import PCA_MODES

PROTOCOLS = ("k-fold", "leave-one-out")
RESAMPLE_SCOPES = ("whole-dataset", "train-folds-only")

#: seeds are 64-bit: the random streams would read a larger one mod 2^64
_SEED_LIMIT = 1 << 64

#: the most seeds an ``eval.seeds`` range may hold, 500 times the paper's 20
MAX_SEEDS = 10_000


@dataclass
class PcaSettings:
    threshold: float = 0.90
    mode: str = "correlation"
    fit_within_fold: bool = False


@dataclass
class SmoteSettings:
    k: int = 5
    order: tuple[str, ...] = ("TypeA", "TypeC", "TypeB")
    per_class_target: int = 18
    seed: int = 7


@dataclass
class EvalSettings:
    protocol: str = "k-fold"
    k: int = 10
    seeds: tuple[int, ...] = tuple(range(1, 21))
    resample_scope: str = "whole-dataset"


@dataclass
class ExperimentConfig:
    dataset: str
    imputation: str = "mode"
    pca: PcaSettings = field(default_factory=PcaSettings)
    smote: SmoteSettings = field(default_factory=SmoteSettings)
    eval: EvalSettings = field(default_factory=EvalSettings)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, found {text!r}")


def _parse_seeds(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ".." in text:
        lo, hi = (int(end) for end in text.split("..", 1))
        if lo > hi:
            raise ConfigError(
                f"eval.seeds range {text!r} runs backwards ({lo} > {hi}); "
                f"write it as {hi}..{lo}"
            )
        if hi - lo >= _SEED_LIMIT:   # over 2^64 seeds: check the end before building
            _check_seed_range("eval.seeds", [hi])
        if hi - lo + 1 > MAX_SEEDS:
            raise ValueError(
                f"range {text!r} holds {hi - lo + 1} seeds; at most {MAX_SEEDS} are allowed"
            )
        return tuple(range(lo, hi + 1))
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_order(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


#: known keys and their value parsers; defaults live on the dataclasses.
KEYS = {
    "dataset": str,
    "imputation": str,
    "pca.threshold": float,
    "pca.mode": str,
    "pca.fit_within_fold": _parse_bool,
    "smote.k": int,
    "smote.order": _parse_order,
    "smote.per_class_target": int,
    "smote.seed": int,
    "eval.protocol": str,
    "eval.k": int,
    "eval.seeds": _parse_seeds,
    "eval.resample_scope": str,
}


def read_config_file(path) -> dict:
    """Raw key -> value-text mapping from a config file; a file that cannot
    be read, is not UTF-8, has a line that is not ``key = value`` or sets a
    key twice raises ``ConfigError`` naming it (and the line)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from None
    values: dict = {}
    set_on: dict = {}   # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in set_on:
            raise ConfigError(
                f"{path}: config key {key!r} is set twice, on lines {set_on[key]} and {lineno}"
            )
        set_on[key] = lineno
        values[key] = value
    return values


def apply_overrides(values: dict, pairs: list[str]) -> dict:
    """Apply ``key=value`` override strings on top of file values."""
    merged = dict(values)
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        key, value = (part.strip() for part in pair.split("=", 1))
        merged[key] = value
    return merged


def build_config(values: dict) -> ExperimentConfig:
    """Parse, type-check, and validate a flat key -> text mapping."""
    for key in values:
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    top: dict = {}
    sections: dict = {"pca": {}, "smote": {}, "eval": {}}
    for key, text in values.items():
        section, _, name = key.rpartition(".")
        try:
            (sections[section] if section else top)[name] = KEYS[key](text)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from None

    if not top.get("dataset"):
        raise ConfigError("config key 'dataset' is required")

    cfg = ExperimentConfig(
        **top,
        pca=PcaSettings(**sections["pca"]),
        smote=SmoteSettings(**sections["smote"]),
        eval=EvalSettings(**sections["eval"]),
    )
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ``ConfigError`` on the first setting of ``cfg`` that is out of
    range or inconsistent with another; ``run_experiment`` calls it too."""
    if cfg.imputation not in IMPUTE_STRATEGIES:
        raise ConfigError(f"imputation must be one of {IMPUTE_STRATEGIES}")
    if not 0.0 < cfg.pca.threshold <= 1.0:
        raise ConfigError("pca.threshold must lie in (0, 1]")
    if cfg.pca.mode not in PCA_MODES:
        raise ConfigError("pca.mode must be 'covariance' or 'correlation'")
    if cfg.smote.k < 1:
        raise ConfigError("smote.k must be at least 1")
    if cfg.smote.per_class_target < 1:
        raise ConfigError("smote.per_class_target must be positive")
    if cfg.smote.seed < 0:
        raise ConfigError("smote.seed must be nonnegative")
    _check_seed_range("smote.seed", [cfg.smote.seed])
    if len(set(cfg.smote.order)) != len(cfg.smote.order):
        raise ConfigError("smote.order must list distinct classes")
    smote_in_folds = cfg.eval.resample_scope == "train-folds-only" and bool(cfg.smote.order)
    validate_eval(cfg.eval, smote_in_folds)
    if cfg.pca.fit_within_fold and cfg.eval.resample_scope != "train-folds-only":
        raise ConfigError(
            "pca.fit_within_fold requires eval.resample_scope = train-folds-only"
        )


def validate_eval(ev: EvalSettings, smote_in_folds: bool = False) -> None:
    """Raise ``ConfigError`` on the first ``eval.*`` setting of ``ev`` that is
    out of range or inconsistent with another; ``evaluate_dataset`` calls it too.
    Leave-one-out deals every seed the same folds, so it takes one seed
    unless SMOTE is drawn in each training fold (``smote_in_folds``, as
    ``experiment`` does under ``train-folds-only`` with a nonempty
    ``smote.order``)."""
    if ev.protocol not in PROTOCOLS:
        raise ConfigError(f"eval.protocol must be one of {PROTOCOLS}")
    if ev.k < 2:
        raise ConfigError("eval.k must be at least 2")
    if not ev.seeds:
        raise ConfigError("eval.seeds must be nonempty")
    if any(s < 0 for s in ev.seeds):
        raise ConfigError("eval.seeds must be nonnegative")
    repeated = [s for s, count in Counter(ev.seeds).items() if count > 1]
    if repeated:
        raise ConfigError(
            f"eval.seeds lists seed {repeated[0]} more than once; each seed is "
            "one repetition of the cross-validation"
        )
    _check_seed_range("eval.seeds", ev.seeds)
    if ev.resample_scope not in RESAMPLE_SCOPES:
        raise ConfigError(f"eval.resample_scope must be one of {RESAMPLE_SCOPES}")
    if ev.protocol == "leave-one-out" and not smote_in_folds and len(ev.seeds) > 1:
        raise ConfigError(
            f"eval.seeds lists {len(ev.seeds)} seeds, but leave-one-out gives every "
            "seed the same result unless SMOTE is drawn in each training fold "
            "(experiment under eval.resample_scope = train-folds-only with a "
            "nonempty smote.order); give one seed"
        )


def _check_seed_range(key: str, seeds) -> None:
    """Raise ``ConfigError`` on the first of ``seeds`` not below 2^64."""
    for seed in seeds:
        if seed >= _SEED_LIMIT:
            raise ConfigError(
                f"{key} holds {seed}, not below 2^64: it would act as seed {seed % _SEED_LIMIT}"
            )


def load_config(path, overrides: list[str] | None = None) -> ExperimentConfig:
    return build_config(apply_overrides(read_config_file(path), overrides or []))
