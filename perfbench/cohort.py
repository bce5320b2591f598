"""Input generator for the ``large-cohort`` workload.

The cohort follows the latent-model recipe of the bundled stand-in dataset
(``tools/generate_standin_dataset.py``) scaled ten times: 320 rows of 56
integer attribute codes in 0..3, classes of 90/130/100 rows.  Fourteen
three-column factor blocks give the correlation spectrum, fourteen
class-shifted columns give the class signal.  There are no missing cells.

The recipe is restated here rather than imported so that the benchmark's
inputs stay fixed when the tool changes.  The random stream is the
package's own ``pcasmote.rng.Rng``, seeded with the workload seed, so the
same seed always yields the same bytes.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

from pcasmote.rng import Rng

CLASS_NAMES = ("TypeA", "TypeB", "TypeC")
CLASS_SIZES = (90, 130, 100)
N_FEATURES = 56

N_FACTOR_BLOCKS = 14
BLOCK_SIZE = 3
FACTOR_WEIGHT = 1.45
IDIOSYNCRATIC_SD = 0.75
CLASS_EFFECT = 1.05
INFO_NOISE_SD = 1.0
CODE_THRESHOLDS = (-1.0, 0.0, 1.0)
INFO_COLUMNS = (5, 4, 5)  # class-shifted columns per class, after the blocks


def _gauss(rng: Rng) -> float:
    u1 = 1.0 - rng.random()
    u2 = rng.random()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def _code(value: float) -> int:
    return sum(1 for t in CODE_THRESHOLDS if value >= t)


def cohort_rows(seed: int) -> list[tuple[list[int], str]]:
    """(codes, class name) per row, grouped by class in name order."""
    rng = Rng(seed)
    n_factor = N_FACTOR_BLOCKS * BLOCK_SIZE
    info_cols = []
    start = n_factor
    for width in INFO_COLUMNS:
        info_cols.append(range(start, start + width))
        start += width

    rows = []
    for cls, size in enumerate(CLASS_SIZES):
        for _ in range(size):
            factors = [_gauss(rng) for _ in range(N_FACTOR_BLOCKS)]
            latent = [
                FACTOR_WEIGHT * factors[f // BLOCK_SIZE] + IDIOSYNCRATIC_SD * _gauss(rng)
                for f in range(n_factor)
            ]
            for f in range(n_factor, N_FEATURES):
                shift = CLASS_EFFECT if f in info_cols[cls] else 0.0
                latent.append(shift + INFO_NOISE_SD * _gauss(rng))
            rows.append(([_code(v) for v in latent], CLASS_NAMES[cls]))
    return rows


def write_cohort_csv(seed: int, path: Path) -> str:
    """Write the cohort as a canonical CSV; returns the file's SHA-256."""
    lines = [",".join(f"attr{i}" for i in range(1, N_FEATURES + 1)) + ",class"]
    for codes, name in cohort_rows(seed):
        lines.append(",".join(repr(float(c)) for c in codes) + "," + name)
    data = ("\n".join(lines) + "\n").encode("ascii")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()
