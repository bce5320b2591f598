"""Experiment configuration: flat key=value files, JSON, and overrides.

The text format is one ``key = value`` pair per line with dotted section
keys (``pca.threshold = 0.90``); ``#`` starts a comment.  JSON files (by
``.json`` extension or a leading ``{``) may nest sections or use the same
dotted keys.  Unknown keys are rejected by name.  Seed lists accept either
comma-separated integers or an inclusive, ascending range like ``1..20``.
"""

from __future__ import annotations

import json

from .errors import ConfigError
from .experiment import (
    PROTOCOLS,
    RESAMPLE_SCOPES,
    EvalSettings,
    ExperimentConfig,
    PcaSettings,
    SmoteSettings,
)
from .dataset import IMPUTE_STRATEGIES


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


def parse_kv_text(text: str, source: str = "<config>") -> dict:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


def _flatten_json(obj: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for key, value in obj.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten_json(value, prefix=f"{dotted}."))
        elif isinstance(value, list):
            flat[dotted] = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            flat[dotted] = "true" if value else "false"
        else:
            flat[dotted] = str(value)
    return flat


def read_config_file(path) -> dict:
    """Raw key -> value-text mapping from a config file; a file that cannot
    be read, is not UTF-8 or is malformed raises ``ConfigError`` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from None
    if str(path).endswith(".json") or text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: JSON config must be an object")
        return _flatten_json(data)
    return parse_kv_text(text, source=str(path))


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
        except (TypeError, ValueError) as exc:
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
    if cfg.imputation not in IMPUTE_STRATEGIES:
        raise ConfigError(f"imputation must be one of {IMPUTE_STRATEGIES}")
    if not 0.0 < cfg.pca.threshold <= 1.0:
        raise ConfigError("pca.threshold must lie in (0, 1]")
    if cfg.pca.mode not in ("covariance", "correlation"):
        raise ConfigError("pca.mode must be 'covariance' or 'correlation'")
    if cfg.smote.k < 1:
        raise ConfigError("smote.k must be at least 1")
    if cfg.smote.per_class_target < 1:
        raise ConfigError("smote.per_class_target must be positive")
    if cfg.smote.seed < 0:
        raise ConfigError("smote.seed must be nonnegative")
    if len(set(cfg.smote.order)) != len(cfg.smote.order):
        raise ConfigError("smote.order must list distinct classes")
    if cfg.eval.protocol not in PROTOCOLS:
        raise ConfigError(f"eval.protocol must be one of {PROTOCOLS}")
    if cfg.eval.k < 2:
        raise ConfigError("eval.k must be at least 2")
    if not cfg.eval.seeds:
        raise ConfigError("eval.seeds must be nonempty")
    if any(s < 0 for s in cfg.eval.seeds):
        raise ConfigError("eval.seeds must be nonnegative")
    if cfg.eval.resample_scope not in RESAMPLE_SCOPES:
        raise ConfigError(f"eval.resample_scope must be one of {RESAMPLE_SCOPES}")
    if cfg.pca.fit_within_fold and cfg.eval.resample_scope != "train-folds-only":
        raise ConfigError(
            "pca.fit_within_fold requires eval.resample_scope = train-folds-only"
        )


def load_config(path, overrides: list[str] | None = None) -> ExperimentConfig:
    values = read_config_file(path)
    if overrides:
        values = apply_overrides(values, overrides)
    return build_config(values)
