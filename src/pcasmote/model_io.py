"""Artifact files (README, "Artifacts"): ``write_text`` writes every file
the toolkit makes, and ``read_model`` reads the model files back.  Each JSON
file is one line from a one-shot ``json.dumps`` without ``indent``, the call
that runs json's C encoder.  A model file is one JSON object: a ``format``
tag and the model's ``kind`` first, then its fields, arrays as nested lists.
``json`` writes each float with ``repr``, so a reload is bit-exact.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DataError

FORMAT = "pcasmote-model v2"

#: the ``read_model`` rule of an array field whose every entry is positive
POSITIVE = ("positive in every entry", lambda a: bool((a > 0).all()))


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


def read_model(path, kind: str, shapes: dict, rules: dict) -> dict:
    """The fields named in ``shapes`` of the ``kind`` model file at ``path``.

    ``shapes`` gives each field None, to keep it as read, or the names of its
    dimensions, to make it a float64 array of that shape.  A dimension named
    after a field is that field's value, or its length if it is a list; any
    other name must be the same size wherever it appears.  ``rules`` maps a
    field to ``(what, test)``: ``test`` of the field as returned must hold,
    and ``what`` says what the field must be.

    Raises ``DataError`` naming ``path`` if the file is not JSON, has another
    ``format`` or ``kind``, lacks a field, holds a ragged array, one with an
    entry that is not finite or one whose shape disagrees, or breaks a rule.
    """
    try:
        with open(path, encoding="ascii") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not ASCII, or not JSON
        raise DataError(f"{path}: not a JSON model file ({exc})") from None
    found = doc.get("format") if isinstance(doc, dict) else type(doc).__name__
    if found != FORMAT:
        raise DataError(f"{path}: expected format {FORMAT!r}, found {found!r}")
    if doc.get("kind") != kind:
        raise DataError(f"{path}: expected model kind {kind!r}, found {doc.get('kind')!r}")
    missing = [name for name in shapes if name not in doc]
    if missing:
        raise DataError(f"{path}: missing field {missing[0]!r}")
    fields = {name: doc[name] for name in shapes}
    sizes = {name: len(v) if isinstance(v, list) else v for name, v in fields.items()}
    for name, dims in shapes.items():
        if dims is None:
            continue
        try:
            fields[name] = np.array(fields[name], dtype=np.float64)
        except (TypeError, ValueError):
            raise DataError(f"{path}: field {name!r} is not an array of numbers") from None
        if not np.isfinite(fields[name]).all():   # json reads NaN and Infinity tokens
            raise DataError(f"{path}: field {name!r} has an entry that is not finite")
        shape = fields[name].shape
        if len(shape) != len(dims) or any(sizes.setdefault(d, n) != n for d, n in zip(dims, shape)):
            raise DataError(f"{path}: field {name!r} has shape {shape}, not ({', '.join(dims)})")
    for name, (what, test) in rules.items():
        if not test(fields[name]):
            raise DataError(f"{path}: field {name!r} is not {what}")
    return fields
