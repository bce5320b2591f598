import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcasmote.config import KEYS, load_config
from pcasmote.dataset import IMPUTE_STRATEGIES
from pcasmote.errors import ConfigError
from pcasmote.experiment import PROTOCOLS, RESAMPLE_SCOPES

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


@st.composite
def config_settings(draw):
    """(settings as {section: {name: value}}, the text form of each value).

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
        "smote.seed": draw(st.integers(0, 2**64)),
        "eval.protocol": draw(st.sampled_from(PROTOCOLS)),
        "eval.k": draw(st.integers(2, 50)),
        "eval.seeds": draw(st.lists(st.integers(0, 2**64), min_size=1, max_size=5)),
        "eval.resample_scope": draw(st.sampled_from(RESAMPLE_SCOPES)),
    }
    present = {"dataset"} | {key for key in KEYS if draw(st.booleans())}
    values = {key: value for key, value in values.items() if key in present}
    if values.get("pca.fit_within_fold"):
        values["eval.resample_scope"] = "train-folds-only"
    if (
        values.get("eval.protocol") == "leave-one-out"
        and values.get("eval.resample_scope", "whole-dataset") == "whole-dataset"
    ):
        values["eval.seeds"] = values.get("eval.seeds", [1])[:1]

    text = {}
    for key, value in values.items():
        if isinstance(value, bool):
            text[key] = draw(st.sampled_from(_bool_words[value]))
        elif isinstance(value, list):
            text[key] = draw(st.sampled_from((",", ", "))).join(map(str, value))
        else:
            text[key] = repr(value) if isinstance(value, float) else str(value)
    nested: dict = {}
    for key, value in values.items():
        section, _, name = key.rpartition(".")
        (nested.setdefault(section, {}) if section else nested)[name] = value
    return nested, text


class TestConfigProperties:
    @settings(max_examples=150, deadline=None)
    @given(case=config_settings())
    def test_text_and_nested_json_build_equal_configs(self, tmp_path_factory, case):
        nested, text = case
        folder = tmp_path_factory.mktemp("cfg")
        kv_path, json_path = folder / "run.cfg", folder / "run.json"
        kv_path.write_text("".join(f"{key} = {value}\n" for key, value in text.items()))
        json_path.write_text(json.dumps(nested))
        assert load_config(kv_path) == load_config(json_path)

    @given(lo=st.integers(-(2**70), 2**70), width=st.integers(0, 200))
    def test_seed_range_is_inclusive(self, lo, width):
        parsed = KEYS["eval.seeds"](f"{lo}..{lo + width}")
        assert parsed == tuple(range(lo, lo + width + 1))

    @given(hi=st.integers(-(2**70), 2**70), gap=st.integers(1, 2**70))
    def test_reversed_seed_range_is_rejected(self, hi, gap):
        text = f"{hi + gap}..{hi}"
        with pytest.raises(ConfigError, match=re.escape(repr(text))):
            KEYS["eval.seeds"](text)
