"""Fitted models hold no malformation: the ids name the malformations of
the model files the toolkit once wrote.  Each case fits data at the edge of
one: the fit refuses data that would give a non-finite entry with a
``DataError`` naming the data, and at every other edge the fitted model
keeps the rule."""

import re

import numpy as np
import pytest

from pcasmote.dataset import Dataset
from pcasmote.errors import DataError
from pcasmote.naive_bayes import fit_nb
from pcasmote.pca import fit_pca

FIT = {"pca": lambda ds: fit_pca(ds, 0.9, "correlation"), "naive-bayes": fit_nb}


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

#: (model kind, case, edge data, rule the fitted model keeps, or None where
#: the fit refuses the data)
CASES = [
    ("pca", "Infinity in mean", edge([[1.7e308, 1.0], [1.7e308, 2.0], [0.0, 3.0], [0.0, 4.0]]), None),
    ("pca", "NaN in components", edge([[1e200, 1.0], [-1e200, 2.0], [0.0, 3.0], [0.0, 4.0]]), None),
    ("pca", "a zero scale", CONSTANT_COLUMN, lambda m: m.scale.min() > 0.0),
    ("pca", "a zero retained", EQUAL_ROWS, lambda m: m.retained >= 1),
    ("pca", "retained beyond the components", EQUAL_ROWS,
     lambda m: m.components.shape == (m.n_features, m.retained)),
    ("pca", "short eigenvalues", WIDE, lambda m: m.eigenvalues.shape == (m.n_features,)),
    ("pca", "components missing a feature", WIDE,
     lambda m: m.components.shape[0] == m.n_features),
    ("naive-bayes", "NaN in means", edge([[1.7e308, 1.0], [0.0, 2.0], [1.7e308, 3.0], [0.0, 4.0]]), None),
    ("naive-bayes", "a zero std", CONSTANT_COLUMN, lambda m: m.stds.min() > 0.0),
    ("naive-bayes", "a zero prior", ABSENT_CLASS, lambda m: m.priors.min() > 0.0),
    ("naive-bayes", "means missing a class", ABSENT_CLASS,
     lambda m: m.means.shape == (len(m.class_names), m.n_features)),
]


@pytest.mark.parametrize(
    "kind,data,rule", [(kind, data, rule) for kind, _, data, rule in CASES],
    ids=[f"{kind}-{case}" for kind, case, _, _ in CASES],
)
def test_a_malformed_file_is_a_data_error_naming_it(kind, data, rule):
    if rule is None:
        with pytest.raises(DataError, match=re.escape(data.provenance)):
            FIT[kind](data)
        return
    model = FIT[kind](data)
    assert model.n_features == data.n_features
    assert rule(model)
