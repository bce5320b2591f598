#!/usr/bin/env python3
"""Compare the artifacts of ``pcasmote`` runs from two source trees.

Each tree's ``src/`` is put first on ``PYTHONPATH`` and ``pcasmote
experiment --config configs/default.cfg`` is run in that tree under every
override set in ``CONFIGS``, then ``reduce``, ``evaluate`` and ``resample``
under every set in ``STAGE_CONFIGS``.  Every output file but
``run_meta.json`` (which holds timings and the command line) is compared byte
for byte: the reports, figure CSVs, ``reduced.csv``, ``evaluation.csv``,
``smote1.csv`` ... and ``resampled.csv``.  One line per config says whether
the two runs agree and, if not, which files differ; a file that only one
tree writes differs too, and the line then counts each tree's files.  A
``.json`` file whose bytes differ but whose ``json.loads`` values are equal
is named "same JSON value, other layout"; it still differs.
The generated cohort of the ``large-cohort`` benchmark workload (workload
seed 0) is written once, from the second tree's ``perfbench/cohort.py``, and
read by both.

Usage: python tools/compare_artifacts.py BEFORE_TREE [AFTER_TREE]

AFTER_TREE defaults to this checkout.  The exit status is 0 if every config
agrees, else 1.  Needs only the standard library (and numpy, through the
package under test).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TFO = "eval.resample_scope=train-folds-only"
COHORT = "{cohort}"  # replaced by the generated cohort's path

#: (name, ``--set`` overrides); a ``{cohort}`` entry names the cohort file
CONFIGS = (
    ("default", ()),
    ("train-folds-only", (TFO,)),
    ("train-folds-only+fit_within_fold", (TFO, "pca.fit_within_fold=true")),
    ("covariance+smote.seed=123", ("pca.mode=covariance", "smote.seed=123")),
    ("train-folds-only+loo seeds 1..3", (TFO, "eval.protocol=leave-one-out", "eval.seeds=1..3")),
    ("whole-dataset+loo seed 1", ("eval.protocol=leave-one-out", "eval.seeds=1")),
    ("train-folds-only+empty order", (TFO, "smote.order=")),
    ("cohort train-folds-only (large-cohort seed 0)", (
        f"dataset={COHORT}", TFO, "smote.per_class_target=180", "eval.seeds=1..5",
    )),
    ("cohort train-folds-only+fit_within_fold", (
        f"dataset={COHORT}", TFO, "smote.per_class_target=180", "eval.seeds=1..5",
        "pca.fit_within_fold=true",
    )),
    ("leakfree-refit seed 0", (TFO, "pca.fit_within_fold=true", "eval.seeds=1..1")),
    # its ten folds retain 16, 17 and 18 components: one PCA stack of mixed
    # retained counts, scored in three leak-free blocks
    ("leakfree-refit seed 4", (
        TFO, "pca.fit_within_fold=true", "eval.seeds=5..5", "smote.seed=11",
    )),
    # neighbour tables where a fold holds most of a class, or k exceeds it
    ("train-folds-only+eval.k=2", (TFO, "eval.k=2")),
    ("train-folds-only+smote.k=12", (TFO, "smote.k=12")),
    ("cohort train-folds-only+loo seed 1", (
        f"dataset={COHORT}", TFO, "smote.per_class_target=180", "eval.protocol=leave-one-out",
        "eval.seeds=1",
    )),
    # stages scored from the training fold's and the last set's fits: one
    # feature, partial and reordered orders, every class grown past its size
    ("train-folds-only+pca.threshold=0.05", (TFO, "pca.threshold=0.05")),
    ("train-folds-only+fit_within_fold+pca.threshold=0.05", (
        TFO, "pca.fit_within_fold=true", "pca.threshold=0.05",
    )),
    ("train-folds-only+smote.order=TypeC", (TFO, "smote.order=TypeC")),
    ("train-folds-only+smote.order=TypeB,TypeA", (TFO, "smote.order=TypeB,TypeA")),
    ("train-folds-only+smote.per_class_target=40", (TFO, "smote.per_class_target=40")),
    ("train-folds-only+covariance+fit_within_fold+loo seed 1", (
        TFO, "pca.mode=covariance", "pca.fit_within_fold=true", "eval.protocol=leave-one-out",
        "eval.seeds=1",
    )),
    # naive Bayes blocks of (seed, fold) models that span seeds; per-seed
    # widths: seed 3's last fold retains 12 components, the last seed's 13
    ("whole-dataset+eval.k=3 seeds 1..50", ("eval.k=3", "eval.seeds=1..50")),
    ("train-folds-only+covariance+fit_within_fold+pca.threshold=0.8 seeds 1..5", (
        TFO, "pca.mode=covariance", "pca.fit_within_fold=true", "pca.threshold=0.8",
        "eval.seeds=1..5",
    )),
    # leak-free blocks of (seed, fold) models that span seeds, under the
    # global PCA: 150 models in blocks of 93; 50 cohort models in blocks of 13
    ("train-folds-only+eval.k=3 seeds 1..50", (TFO, "eval.k=3", "eval.seeds=1..50")),
    ("cohort train-folds-only+smote.k=12", (
        f"dataset={COHORT}", TFO, "smote.per_class_target=180", "eval.seeds=1..5", "smote.k=12",
    )),
    # batched PCA refits: 150 training folds of two row counts, whose blocks
    # of models span seeds and split by retained count; and 320 leave-one-out
    # refits of 319 x 56 rows, which the float budget stacks 6 at a time
    ("train-folds-only+fit_within_fold+eval.k=3 seeds 1..50", (
        TFO, "pca.fit_within_fold=true", "eval.k=3", "eval.seeds=1..50",
    )),
    ("cohort train-folds-only+fit_within_fold+loo seed 1", (
        f"dataset={COHORT}", TFO, "smote.per_class_target=180", "pca.fit_within_fold=true",
        "eval.protocol=leave-one-out", "eval.seeds=1",
    )),
    # naive Bayes moments of rows-outermost (rows, models, features) stacks at
    # their edges: one feature, 200 models to a block, or the 32 leave-one-out
    # models; the cohort's whole-dataset blocks of 1 to 12 models; and one
    # feature on the cohort, whose PCA models fill a block of 409 and leave a
    # last block of one model and one column, the lone column copied
    ("whole-dataset+pca.threshold=0.05", ("pca.threshold=0.05",)),
    ("whole-dataset+pca.threshold=0.05+loo seed 1", (
        "pca.threshold=0.05", "eval.protocol=leave-one-out", "eval.seeds=1",
    )),
    ("cohort whole-dataset seeds 1..5", (
        f"dataset={COHORT}", "smote.per_class_target=180", "eval.seeds=1..5",
    )),
    ("cohort whole-dataset+pca.threshold=0.05 seeds 1..41", (
        f"dataset={COHORT}", "smote.per_class_target=180", "pca.threshold=0.05",
        "eval.seeds=1..41",
    )),
    # leak-free blocks stacked one class at a time: two classes outside the
    # order, fitted once each; and leave-one-out runs of TypeB (130 rows)
    # that need no row beside runs that need one
    ("cohort train-folds-only+smote.order=TypeB", (
        f"dataset={COHORT}", TFO, "smote.per_class_target=180", "eval.seeds=1..5",
        "smote.order=TypeB",
    )),
    ("cohort train-folds-only+loo seed 1+smote.per_class_target=130", (
        f"dataset={COHORT}", TFO, "smote.per_class_target=130", "eval.protocol=leave-one-out",
        "eval.seeds=1",
    )),
    # the edges of the Gram path (fewer rows than features): every nonzero
    # component kept, in both scopes, and folds of 16 rows.  A full-rank
    # covariance projection preserves distances, so the lung data's exact
    # neighbour-distance ties are decided by rounding there, and SMOTE's
    # neighbours may move when the basis changes in its last bits
    ("covariance+pca.threshold=1.0", ("pca.mode=covariance", "pca.threshold=1.0")),
    ("train-folds-only+covariance+fit_within_fold+pca.threshold=1.0 seeds 1..5", (
        TFO, "pca.mode=covariance", "pca.fit_within_fold=true", "pca.threshold=1.0",
        "eval.seeds=1..5",
    )),
    ("train-folds-only+fit_within_fold+pca.threshold=1.0", (
        TFO, "pca.fit_within_fold=true", "pca.threshold=1.0",
    )),
    ("train-folds-only+fit_within_fold+eval.k=2", (TFO, "pca.fit_within_fold=true", "eval.k=2")),
    # the f x f path at full rank: every stacked refit of the cohort keeps
    # all 56 components, so the sign rule is compared on every column
    ("cohort train-folds-only+fit_within_fold+pca.threshold=1.0", (
        f"dataset={COHORT}", TFO, "smote.per_class_target=180", "eval.seeds=1..2",
        "pca.fit_within_fold=true", "pca.threshold=1.0",
    )),
)

#: (name, subcommand, ``--set`` overrides) of the single-stage runs: the
#: reducer under both modes, at the default threshold and at full rank, and
#: under mean imputation, the cross-validation of one dataset, whose
#: ``evaluation.csv`` no experiment writes, and the oversampling sequence,
#: whose run files no experiment writes either
STAGE_CONFIGS = (
    ("reduce correlation", "reduce", ()),
    ("reduce correlation+pca.threshold=1.0", "reduce", ("pca.threshold=1.0",)),
    ("reduce covariance", "reduce", ("pca.mode=covariance",)),
    ("reduce covariance+pca.threshold=1.0", "reduce", (
        "pca.mode=covariance", "pca.threshold=1.0",
    )),
    ("reduce cohort correlation", "reduce", (f"dataset={COHORT}",)),
    ("reduce cohort correlation+pca.threshold=1.0", "reduce", (
        f"dataset={COHORT}", "pca.threshold=1.0",
    )),
    ("reduce cohort covariance", "reduce", (f"dataset={COHORT}", "pca.mode=covariance")),
    ("reduce cohort covariance+pca.threshold=1.0", "reduce", (
        f"dataset={COHORT}", "pca.mode=covariance", "pca.threshold=1.0",
    )),
    ("reduce imputation=mean", "reduce", ("imputation=mean",)),
    ("evaluate", "evaluate", ()),
    ("evaluate loo seed 1", "evaluate", ("eval.protocol=leave-one-out", "eval.seeds=1")),
    ("evaluate cohort", "evaluate", (f"dataset={COHORT}",)),
    # evaluate draws no SMOTE rows, so the scope must not move its output
    ("evaluate train-folds-only", "evaluate", (TFO,)),
    ("evaluate train-folds-only+loo seed 1", "evaluate", (
        TFO, "eval.protocol=leave-one-out", "eval.seeds=1",
    )),
    ("resample", "resample", ()),
    ("resample smote.order=TypeB,TypeA", "resample", ("smote.order=TypeB,TypeA",)),
    ("resample cohort", "resample", (f"dataset={COHORT}", "smote.per_class_target=180")),
)


def write_cohort(tree: Path, path: Path) -> None:
    code = (
        "import sys; from pathlib import Path; from cohort import write_cohort_csv; "
        "write_cohort_csv(0, Path(sys.argv[1]))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "perfbench"), str(tree / "src")]))
    subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True)


def run(tree: Path, command: str, overrides: list[str], out: Path) -> str:
    """Run one subcommand; returns "" on success, else the exit status and
    the last line of stderr."""
    argv = [command, "--config", "configs/default.cfg", "--output-dir", str(out)]
    for pair in overrides:
        argv += ["--set", pair]
    code = "import sys; from pcasmote.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if done.returncode == 0:
        return ""
    last = done.stderr.strip().splitlines()[-1:] or [""]
    return f"exit {done.returncode}: {last[0]}"


def artifacts(out: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "run_meta.json"
    }


def describe(name: str, a: bytes | None, b: bytes | None) -> str:
    """``name`` of a differing file, marked when both sides are JSON of one value."""
    if name.endswith(".json") and a is not None and b is not None:
        try:
            if json.loads(a) == json.loads(b):
                return f"{name} (same JSON value, other layout)"
        except ValueError:
            pass
    return name


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.split("\n\n")[2], file=sys.stderr)
        return 2
    before = Path(argv[0]).resolve()
    after = Path(argv[1] if len(argv) > 1 else Path(__file__).parent.parent).resolve()
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        cohort = Path(tmp) / "cohort.csv"
        write_cohort(after, cohort)
        runs = [(name, "experiment", overrides) for name, overrides in CONFIGS]
        for i, (name, command, overrides) in enumerate(runs + list(STAGE_CONFIGS)):
            pairs = [p.replace(COHORT, str(cohort)) for p in overrides]
            outs = [Path(tmp) / f"{i}-{side}" for side in ("before", "after")]
            errors = [
                run(tree, command, pairs, out) for tree, out in zip((before, after), outs)
            ]
            a, b = (artifacts(out) for out in outs)
            differing = [
                describe(f, a.get(f), b.get(f))
                for f in sorted(a.keys() | b.keys()) if a.get(f) != b.get(f)
            ]
            if any(errors):
                verdict = "; ".join(
                    f"{side} failed with {err}" for side, err in zip(("before", "after"), errors) if err
                )
            elif differing:
                files = f"{len(a)} files"
                if a.keys() != b.keys():
                    files += f" before, {len(b)} after"
                verdict = f"{files}, these differ: {', '.join(differing)}"
            else:
                verdict = f"{len(a)} files identical"
            failed += bool(any(errors) or differing)
            print(f"{name}: {verdict}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
