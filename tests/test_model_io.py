"""Model files: ``load_pca`` and ``load_nb`` reject a file that is not JSON,
has another ``format`` or ``kind``, lacks a field, holds a ragged array, an
entry that is not finite or arrays whose shapes disagree, or holds a value no
fit writes, with a ``DataError`` that names it."""

import json
import re

import pytest

from pcasmote.errors import DataError
from pcasmote.naive_bayes import fit_nb, load_nb, save_nb
from pcasmote.pca import fit_pca, load_pca, save_pca

#: a small model of each kind in the block format the loaders read before
V1 = {
    "pca": (
        "pcasmote-model v1\nkind: pca\nmode: covariance\nthreshold: 0.9\nretained: 1\n"
        "mean: vector 2\n0.5 1.0\nscale: vector 2\n1.0 1.0\n"
        "eigenvalues: vector 2\n2.0 0.0\ncomponents: matrix 2 1\n1.0\n0.0\nend\n"
    ),
    "naive-bayes": (
        "pcasmote-model v1\nkind: naive-bayes\nclasses: a,b\npriors: vector 2\n0.5 0.5\n"
        "means: matrix 2 1\n0.0\n1.0\nstds: matrix 2 1\n1.0\n1.0\nend\n"
    ),
}


def edited(change):
    """A text edit that applies ``change`` to the decoded object."""
    def edit(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return edit


def setting(key, value):
    return edited(lambda doc: doc.__setitem__(key, value))


def dropping(key):
    return edited(lambda doc: doc.pop(key))


def popping(key, row=None):
    """Drop the last entry (a number, or a matrix's last row) of a field, or
    of one row of it."""
    return edited(lambda doc: (doc[key] if row is None else doc[key][row]).pop())


def entry(key, value, row=None):
    """Set the first entry of a field, or of one row of it, to ``value``."""
    return edited(lambda doc: (doc[key] if row is None else doc[key][row]).__setitem__(0, value))


def common_cases(kind, other, fields):
    """(kind, case, edit) of the rejections every loader shares."""
    return [
        (kind, "v1 file", lambda text: V1[kind]),
        (kind, "truncated", lambda text: text[: len(text) // 2]),
        (kind, "not an object", lambda text: "[1, 2]\n"),
        (kind, "not ascii", lambda text: text.replace('"', '"\u00e9', 1)),
        (kind, "v1 format tag", setting("format", "pcasmote-model v1")),
        (kind, "no format tag", dropping("format")),
        (kind, "wrong kind", setting("kind", other)),
    ] + [(kind, f"missing {name}", dropping(name)) for name in fields]


#: (model kind, case, edit of the saved file's text): each gives a file the
#: kind's loader must reject
CASES = common_cases("pca", "naive-bayes", [
    "mode", "variance_threshold", "retained", "mean", "scale", "eigenvalues", "components",
]) + [
    ("pca", "ragged components", popping("components", row=3)),
    ("pca", "text in mean", edited(lambda doc: doc["mean"].__setitem__(0, "x"))),
    ("pca", "short mean", popping("mean")),
    ("pca", "short scale", popping("scale")),
    ("pca", "short eigenvalues", popping("eigenvalues")),
    ("pca", "a matrix of eigenvalues", edited(
        lambda doc: doc.__setitem__("eigenvalues", [doc["eigenvalues"]])
    )),
    ("pca", "components missing a feature", popping("components")),
    ("pca", "retained beyond the components", edited(
        lambda doc: doc.__setitem__("retained", doc["retained"] + 1)
    )),
    ("pca", "retained as text", edited(
        lambda doc: doc.__setitem__("retained", str(doc["retained"]))
    )),
    ("pca", "a zero retained", edited(
        lambda doc: doc.update(retained=0, components=[[] for _ in doc["components"]])
    )),
    ("pca", "retained of true", edited(
        lambda doc: doc.update(retained=True, components=[r[:1] for r in doc["components"]])
    )),
    ("pca", "retained as a float", edited(
        lambda doc: doc.__setitem__("retained", float(doc["retained"]))
    )),
    ("pca", "Infinity in mean", entry("mean", float("inf"))),
    ("pca", "NaN in components", entry("components", float("nan"), row=0)),
    ("pca", "a zero scale", entry("scale", 0.0)),
    ("pca", "a negative scale", entry("scale", -1.0)),
    ("pca", "an unknown mode", setting("mode", "bogus")),
    ("pca", "a threshold as text", setting("variance_threshold", "high")),
    ("pca", "a threshold above one", setting("variance_threshold", 7.0)),
    ("pca", "a zero threshold", setting("variance_threshold", 0)),
    ("pca", "a threshold of true", setting("variance_threshold", True)),
] + common_cases("naive-bayes", "pca", ["class_names", "priors", "means", "stds"]) + [
    ("naive-bayes", "ragged stds", popping("stds", row=1)),
    ("naive-bayes", "text in priors", edited(lambda doc: doc["priors"].__setitem__(0, "x"))),
    ("naive-bayes", "short priors", popping("priors")),
    ("naive-bayes", "means missing a class", popping("means")),
    ("naive-bayes", "a vector of means", edited(
        lambda doc: doc.__setitem__("means", doc["means"][0])
    )),
    ("naive-bayes", "stds missing a feature", edited(lambda doc: [r.pop() for r in doc["stds"]])),
    ("naive-bayes", "an extra class name", edited(lambda doc: doc["class_names"].append("z"))),
    ("naive-bayes", "NaN in means", entry("means", float("nan"), row=1)),
    ("naive-bayes", "-Infinity in priors", entry("priors", float("-inf"))),
    ("naive-bayes", "a zero prior", entry("priors", 0.0)),
    ("naive-bayes", "a zero std", entry("stds", 0.0, row=2)),
    ("naive-bayes", "a negative std", entry("stds", -1.0, row=0)),
    ("naive-bayes", "integer class names", edited(
        lambda doc: doc.__setitem__("class_names", list(range(len(doc["class_names"]))))
    )),
    ("naive-bayes", "class names as a count", edited(
        lambda doc: doc.__setitem__("class_names", len(doc["class_names"]))
    )),
]


@pytest.fixture(scope="module")
def saved(lung, tmp_path_factory):
    """kind -> (text of the saved lung model, its loader)"""
    out = tmp_path_factory.mktemp("models")
    save_pca(fit_pca(lung, 0.9, "correlation"), out / "pca.json")
    save_nb(fit_nb(lung), out / "nb.json")
    return {
        "pca": ((out / "pca.json").read_text(), load_pca),
        "naive-bayes": ((out / "nb.json").read_text(), load_nb),
    }


@pytest.mark.parametrize(
    "kind,edit", [(kind, edit) for kind, _, edit in CASES],
    ids=[f"{kind}-{case}" for kind, case, _ in CASES],
)
def test_a_malformed_file_is_a_data_error_naming_it(saved, tmp_path, kind, edit):
    text, load = saved[kind]
    path = tmp_path / "model.json"
    path.write_bytes(edit(text).encode("utf-8"))
    with pytest.raises(DataError, match=re.escape(str(path))):
        load(path)
