"""Artifact files (README, "Artifacts"): ``write_text`` writes every file
the toolkit makes.  Each JSON file is one line from a one-shot
``json.dumps`` without ``indent``, the call that runs json's C encoder.  A
model file is one JSON object: a ``format`` tag and the model's ``kind``
first, then its fields, arrays as nested lists.  The toolkit only writes
model files; ``json`` writes each float with ``repr``, so ``json.load``
gives every array back bit for bit.
"""

from __future__ import annotations

import json

import numpy as np

FORMAT = "pcasmote-model v2"


def write_text(path, text: str) -> None:
    """Write ``text`` in one call, as ASCII with bare newlines."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def write_model(path, kind: str, fields: dict) -> None:
    """Write ``fields`` (numbers, strings, sequences and arrays), in order,
    after the ``format`` tag and ``kind``."""
    doc = {"format": FORMAT, "kind": kind}
    doc.update((k, v.tolist() if isinstance(v, np.ndarray) else v) for k, v in fields.items())
    write_text(path, json.dumps(doc) + "\n")
