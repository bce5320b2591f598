"""Experiment configuration: flat key=value files, JSON, and overrides.

The text format is one ``key = value`` pair per line with dotted section
keys (``pca.threshold = 0.90``); ``#`` starts a comment.  JSON files (by
``.json`` extension or a leading ``{``) may nest sections or use the same
dotted keys.  Unknown keys are rejected by name.  Seed lists accept either
comma-separated integers or an inclusive, ascending range like ``1..20``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from .dataset import IMPUTE_STRATEGIES
from .errors import ConfigError
from .pca import PCA_MODES

PROTOCOLS = ("k-fold", "leave-one-out")
RESAMPLE_SCOPES = ("whole-dataset", "train-folds-only")

#: seeds are 64-bit: the random streams would read a larger one mod 2^64
_SEED_LIMIT = 1 << 64


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
    set_on: dict = {}   # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in set_on:
            raise ConfigError(
                f"{source}: config key {key!r} is set twice, on lines {set_on[key]} and {lineno}"
            )
        set_on[key] = lineno
        values[key] = value
    return values


def _spelling(keys: tuple) -> str:
    """A key path as written in JSON: ``{"eval": {"seeds": …}}``."""
    return "".join(f"{{{json.dumps(k)}: " for k in keys) + "…" + "}" * len(keys)


def _json_settings(obj: tuple, source: str, path: tuple = ()):
    """(key path, value text) of each setting in a JSON object parsed with
    ``object_pairs_hook=tuple``: an object is a tuple of (key, value) pairs,
    so a key written twice is seen, not merged away."""
    for key, value in obj:
        keys = (*path, key)
        dotted = ".".join(keys)
        if value is None or (isinstance(value, list) and None in value):
            raise ConfigError(f"{source}: config key {dotted!r} is null")
        if isinstance(value, tuple):
            yield from _json_settings(value, source, keys)
        elif isinstance(value, list):
            nested = any(isinstance(v, (list, tuple)) for v in value)
            if nested or KEYS.get(dotted, _parse_order) not in (_parse_order, _parse_seeds):
                what = "a nested list" if nested else "a list, but takes one value"
                raise ConfigError(f"{source}: config key {dotted!r} is {what}")
            yield keys, ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            yield keys, "true" if value else "false"
        else:
            yield keys, str(value)


def read_config_file(path) -> dict:
    """Raw key -> value-text mapping from a config file; a file that cannot
    be read, is not UTF-8, is malformed or sets a key twice raises
    ``ConfigError`` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from None
    if str(path).endswith(".json") or text.lstrip().startswith("{"):
        try:
            data = json.loads(text, object_pairs_hook=tuple)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(data, tuple):
            raise ConfigError(f"{path}: JSON config must be an object")
        values, spelled = {}, {}   # dotted key -> value text, and the key path that set it
        for keys, value in _json_settings(data, str(path)):
            dotted = ".".join(keys)
            if dotted in spelled:
                raise ConfigError(
                    f"{path}: config key {dotted!r} is set twice, as "
                    f"{_spelling(spelled[dotted])} and as {_spelling(keys)}"
                )
            values[dotted], spelled[dotted] = value, keys
        return values
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
    validate_eval(cfg.eval)
    if cfg.pca.fit_within_fold and cfg.eval.resample_scope != "train-folds-only":
        raise ConfigError(
            "pca.fit_within_fold requires eval.resample_scope = train-folds-only"
        )


def validate_eval(ev: EvalSettings) -> None:
    """Raise ``ConfigError`` on the first ``eval.*`` setting of ``ev`` that is
    out of range or inconsistent with another; ``evaluate_dataset`` calls it too."""
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
    if ev.protocol == "leave-one-out" and ev.resample_scope == "whole-dataset" and len(ev.seeds) > 1:
        raise ConfigError(
            f"eval.seeds lists {len(ev.seeds)} seeds, but leave-one-out under "
            "eval.resample_scope = whole-dataset gives every seed the same result; "
            "give one seed"
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
