"""Artifact files (README, "Artifacts"): ``write_text`` writes every file
the toolkit makes, the reports and the dataset CSVs.  Each JSON file is one
line from a one-shot ``json.dumps`` without ``indent``, the call that runs
json's C encoder.
"""

from __future__ import annotations


def write_text(path, text: str) -> None:
    """Write ``text`` in one call, as ASCII with bare newlines."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
