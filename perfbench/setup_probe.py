"""Time the set-up a user pays before the first experiment, in a fresh process.

Set-up is importing the package, loading the config and loading and
imputing the dataset.  Prints the seconds as the only line of output.

Usage (from the root of a checkout):
    python3 perfbench/setup_probe.py CONFIG [KEY=VALUE ...]
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
start = time.perf_counter()

import pcasmote  # noqa: E402,F401
from pcasmote.config import load_config  # noqa: E402
from pcasmote.dataset import impute_missing, load_dataset  # noqa: E402

cfg = load_config(sys.argv[1], sys.argv[2:])
impute_missing(load_dataset(cfg.dataset), cfg.imputation)
print(repr(time.perf_counter() - start))
