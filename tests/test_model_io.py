"""Model files hold no malformation: the ids name files a model-file reader
would reject.  The toolkit writes model files and never reads them back, so
each case fits data at the edge of one: the fit refuses data that would give
a non-finite entry with a ``DataError`` naming the data, before any file is
written, and at every other edge the file ``save_pca`` or ``save_nb`` writes
keeps the rule."""

import json
import re

import numpy as np
import pytest

from pcasmote.dataset import Dataset
from pcasmote.errors import DataError
from pcasmote.naive_bayes import fit_nb, save_nb
from pcasmote.pca import fit_pca, save_pca

FIT = {"pca": lambda ds: fit_pca(ds, 0.9, "correlation"), "naive-bayes": fit_nb}
SAVE = {"pca": save_pca, "naive-bayes": save_nb}


def edge(rows, names=("a", "b")):
    """Rows labelled a, b, a, b, ... of the classes ``names``."""
    rows = np.array(rows, dtype=np.float64)
    return Dataset(
        rows, [i % 2 for i in range(len(rows))], names,
        tuple(f"x{j}" for j in range(rows.shape[1])), provenance="edge.data",
    )


CONSTANT_COLUMN = edge([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0], [5.0, 4.0]])
EQUAL_ROWS = edge([[5.0, 1.0]] * 4)
#: fewer samples than features: PCA takes the Gram path
WIDE = edge([[1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 1.0, 0.0, 3.0, 3.0], [0.0, 0.0, 1.0, 1.0, 2.0]])
ABSENT_CLASS = edge([[5.0, 1.0], [6.0, 2.0], [1.0, 1.0], [2.0, 2.0]], names=("a", "b", "c"))

#: (model kind, case, edge data, rule the written file keeps, or None where
#: the fit refuses the data)
CASES = [
    ("pca", "Infinity in mean", edge([[1.7e308, 1.0], [1.7e308, 2.0], [0.0, 3.0], [0.0, 4.0]]), None),
    ("pca", "NaN in components", edge([[1e200, 1.0], [-1e200, 2.0], [0.0, 3.0], [0.0, 4.0]]), None),
    ("pca", "a zero scale", CONSTANT_COLUMN, lambda doc: min(doc["scale"]) > 0.0),
    ("pca", "a zero retained", EQUAL_ROWS, lambda doc: doc["retained"] >= 1),
    ("pca", "retained beyond the components", EQUAL_ROWS,
     lambda doc: all(len(row) == doc["retained"] for row in doc["components"])),
    ("pca", "short eigenvalues", WIDE, lambda doc: len(doc["eigenvalues"]) == len(doc["mean"])),
    ("pca", "components missing a feature", WIDE,
     lambda doc: len(doc["components"]) == len(doc["mean"])),
    ("naive-bayes", "NaN in means", edge([[1.7e308, 1.0], [0.0, 2.0], [1.7e308, 3.0], [0.0, 4.0]]), None),
    ("naive-bayes", "a zero std", CONSTANT_COLUMN, lambda doc: np.min(doc["stds"]) > 0.0),
    ("naive-bayes", "a zero prior", ABSENT_CLASS, lambda doc: min(doc["priors"]) > 0.0),
    ("naive-bayes", "means missing a class", ABSENT_CLASS,
     lambda doc: len(doc["means"]) == len(doc["class_names"])),
    ("naive-bayes", "not ascii", edge([[5.0], [6.0], [1.0], [2.0]], names=("é", "b")),
     lambda doc: doc["class_names"] == ["é", "b"]),
]


@pytest.mark.parametrize(
    "kind,data,rule", [(kind, data, rule) for kind, _, data, rule in CASES],
    ids=[f"{kind}-{case}" for kind, case, _, _ in CASES],
)
def test_a_malformed_file_is_a_data_error_naming_it(tmp_path, kind, data, rule):
    path = tmp_path / "model.json"
    if rule is None:
        with pytest.raises(DataError, match=re.escape(data.provenance)):
            SAVE[kind](FIT[kind](data), path)
        assert not path.exists()
        return
    SAVE[kind](FIT[kind](data), path)
    text = path.read_text(encoding="ascii")
    assert rule(json.loads(text))
