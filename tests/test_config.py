import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcasmote.config import (
    KEYS, MAX_SEEDS, PROTOCOLS, RESAMPLE_SCOPES, ExperimentConfig, build_config, load_config,
)
from pcasmote.dataset import IMPUTE_STRATEGIES
from pcasmote.errors import ConfigError

# text the `key = value` format can carry: no '#', no line break, no edge space
_plain_text = st.text(
    st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters="#"),
    min_size=1,
).filter(lambda s: s == s.strip())
_class_name = st.text(
    st.characters(min_codepoint=33, max_codepoint=126, blacklist_characters="#,"),
    min_size=1,
)
_bool_words = {True: ("true", "yes", "1", "True"), False: ("false", "no", "0", "NO")}

ROOT = Path(__file__).resolve().parents[1]


@st.composite
def config_settings(draw):
    """The text form of each drawn setting, by dotted key.

    Each key but ``dataset`` is present or left to its default; the drawn
    settings always pass validation."""
    values = {
        "dataset": draw(_plain_text),
        "imputation": draw(st.sampled_from(IMPUTE_STRATEGIES)),
        "pca.threshold": draw(st.floats(0.0, 1.0, exclude_min=True)),
        "pca.mode": draw(st.sampled_from(("covariance", "correlation"))),
        "pca.fit_within_fold": draw(st.booleans()),
        "smote.k": draw(st.integers(1, 50)),
        "smote.order": draw(st.lists(_class_name, max_size=4, unique=True)),
        "smote.per_class_target": draw(st.integers(1, 10**6)),
        "smote.seed": draw(st.integers(0, 2**64 - 1)),
        "eval.protocol": draw(st.sampled_from(PROTOCOLS)),
        "eval.k": draw(st.integers(2, 50)),
        "eval.seeds": draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5, unique=True)),
        "eval.resample_scope": draw(st.sampled_from(RESAMPLE_SCOPES)),
    }
    present = {"dataset"} | {key for key in KEYS if draw(st.booleans())}
    values = {key: value for key, value in values.items() if key in present}
    if values.get("pca.fit_within_fold"):
        values["eval.resample_scope"] = "train-folds-only"
    smote_in_folds = (
        values.get("eval.resample_scope") == "train-folds-only"
        and values.get("smote.order") != []   # an absent order is the default, nonempty
    )
    if values.get("eval.protocol") == "leave-one-out" and not smote_in_folds:
        values["eval.seeds"] = values.get("eval.seeds", [1])[:1]

    text = {}
    for key, value in values.items():
        if isinstance(value, bool):
            text[key] = draw(st.sampled_from(_bool_words[value]))
        elif isinstance(value, list):
            text[key] = draw(st.sampled_from((",", ", "))).join(map(str, value))
        else:
            text[key] = repr(value) if isinstance(value, float) else str(value)
    return text


class TestConfigProperties:
    @settings(max_examples=150, deadline=None)
    @given(text=config_settings())
    def test_file_and_overrides_build_equal_configs(self, tmp_path_factory, text):
        """Drawn settings give one config whether the file holds them all or
        holds only ``dataset`` and ``--set`` overrides give the rest."""
        folder = tmp_path_factory.mktemp("cfg")
        kv_path, base_path = folder / "run.cfg", folder / "base.cfg"
        kv_path.write_text("".join(f"{key} = {value}\n" for key, value in text.items()))
        base_path.write_text(f"dataset = {text['dataset']}\n")
        overrides = [f"{key}={value}" for key, value in text.items() if key != "dataset"]
        assert load_config(kv_path) == load_config(base_path, overrides)

    @given(lo=st.integers(-(2**70), 2**70), width=st.integers(0, 200))
    def test_seed_range_is_inclusive(self, lo, width):
        parsed = KEYS["eval.seeds"](f"{lo}..{lo + width}")
        assert parsed == tuple(range(lo, lo + width + 1))

    @given(hi=st.integers(-(2**70), 2**70), gap=st.integers(1, 2**70))
    def test_reversed_seed_range_is_rejected(self, hi, gap):
        text = f"{hi + gap}..{hi}"
        with pytest.raises(ConfigError, match=re.escape(repr(text))):
            KEYS["eval.seeds"](text)

    def test_seed_range_capped_at_max_seeds(self):
        """A range may hold ``MAX_SEEDS`` seeds; a longer one is rejected by
        its length, before it is built."""
        assert KEYS["eval.seeds"](f"1..{MAX_SEEDS}") == tuple(range(1, MAX_SEEDS + 1))
        text = f"1..{MAX_SEEDS + 1}"
        named = f"range {text!r} holds {MAX_SEEDS + 1} seeds; at most {MAX_SEEDS} are allowed"
        with pytest.raises(ValueError, match=re.escape(named)):
            KEYS["eval.seeds"](text)


@pytest.mark.parametrize(
    "seeds, repeated",
    [("3,3,4", 3), ("1, 2, 1", 1), ("5,7,7,5", 5), ("0,0", 0), (f"{2**64},{2**64}", 2**64)],
)
def test_repeated_seed_rejected(seeds, repeated):
    """A seed listed twice would count twice in every mean over seeds."""
    values = {"dataset": "data/lung-cancer.data", "eval.seeds": seeds}
    with pytest.raises(ConfigError, match=rf"eval\.seeds lists seed {repeated} more than once"):
        build_config(values)


def test_key_set_twice_in_text_file_rejected(tmp_path):
    """The second setting would silently win; both lines are named."""
    path = tmp_path / "run.cfg"
    path.write_text("dataset = x\neval.seeds = 1..3\n# later\n\neval.seeds = 4..5\n")
    message = f"{path}: config key 'eval.seeds' is set twice, on lines 2 and 5"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(path)


def test_readme_table_default_config_and_dataclasses_agree():
    """The README's Configuration table, configs/default.cfg and the
    dataclass defaults state the same defaults for exactly the known keys."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    table = dict(re.findall(r"^\| `([^`]+)` \| (.+?) \|", section, flags=re.MULTILINE))
    assert list(table) == list(KEYS)
    defaults = {key: cell.strip("`") for key, cell in table.items()}
    defaults["dataset"] = "data/lung-cancer.data"
    from_readme = build_config(defaults)
    assert from_readme == load_config(ROOT / "configs" / "default.cfg")
    assert from_readme == ExperimentConfig(dataset="data/lung-cancer.data")
