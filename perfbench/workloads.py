"""The benchmark's workloads and the five-method tables they must reproduce.

Every workload runs ``pcasmote experiment --config configs/default.cfg``
with ``--set`` overrides.  The workload seed ``s`` shifts ``smote.seed`` to
``7 + s`` and selects the ``s``-th block of evaluation seeds, so seed 0 is
the default config's own settings.  ``large-cohort`` also draws its input
file from the seed (see ``cohort.py``).  README.md says why each workload
was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0
CONFIG = "configs/default.cfg"

TABLE_HEADER = "method      feat  samp  accuracy  fp_rate  precision  recall  miscl"


@dataclass(frozen=True)
class Workload:
    name: str
    eval_seeds: int  # evaluation seeds per operation
    overrides: tuple[str, ...]
    generated_cohort: bool
    #: ``format_table`` of the report at DEFAULT_SEED
    reference: str

    def overrides_for(self, seed: int, dataset: str | None) -> list[str]:
        """``key=value`` config overrides for one workload seed."""
        first = seed * self.eval_seeds + 1
        pairs = list(self.overrides) + [
            f"smote.seed={7 + seed}",
            f"eval.seeds={first}..{first + self.eval_seeds - 1}",
        ]
        if dataset is not None:
            pairs.append(f"dataset={dataset}")
        return pairs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-default",
            eval_seeds=20,
            overrides=(),
            generated_cohort=False,
            # the README's table
            reference="""\
pca retained: 18; other mode: 18
method      feat  samp  accuracy  fp_rate  precision  recall  miscl
Initial       56    32    0.6375   0.2267     0.6931  0.6375     12
PCA           18    32    0.4906   0.2943     0.5172  0.4906     16
SMOTE1        18    41    0.7000   0.1306     0.7276  0.7000     12
SMOTE2        18    49    0.7980   0.0893     0.8226  0.7980     10
SMOTE3        18    54    0.8019   0.0991     0.8127  0.8019     11""",
        ),
        Workload(
            name="leakfree-refit",
            eval_seeds=1,
            overrides=(
                "eval.resample_scope=train-folds-only",
                "pca.fit_within_fold=true",
            ),
            generated_cohort=False,
            reference="""\
pca retained: 18; other mode: 18
method      feat  samp  accuracy  fp_rate  precision  recall  miscl
Initial       56    32    0.5938   0.2453     0.6224  0.5938     13
PCA           17    32    0.5312   0.2665     0.5429  0.5312     15
SMOTE1        17    32    0.5000   0.2768     0.4915  0.5000     16
SMOTE2        17    32    0.4375   0.2980     0.4208  0.4375     18
SMOTE3        17    32    0.4688   0.2930     0.4688  0.4688     17""",
        ),
        Workload(
            name="large-cohort",
            eval_seeds=5,
            overrides=(
                "eval.resample_scope=train-folds-only",
                "smote.per_class_target=180",
            ),
            generated_cohort=True,
            reference="""\
pca retained: 32; other mode: 33
method      feat  samp  accuracy  fp_rate  precision  recall  miscl
Initial       56   320    0.8113   0.1015     0.8116  0.8113     60
PCA           32   320    0.7931   0.1125     0.7936  0.7931     66
SMOTE1        32   320    0.7919   0.1113     0.7920  0.7919     67
SMOTE2        32   320    0.7825   0.1141     0.7826  0.7825     70
SMOTE3        32   320    0.7800   0.1187     0.7804  0.7800     70""",
        ),
    )
}


def format_table(report: dict) -> str:
    """The five-method table of a parsed ``report.json``, as the CLI prints it."""
    lines = [
        f"pca retained: {report['pca']['retained']}; "
        f"other mode: {report['pca']['retained_other_mode']}",
        TABLE_HEADER,
    ]
    for step in report["steps"]:
        m = step["metrics_mean"]
        lines.append(
            f"{step['method']:<10} {step['n_features']:>5} {step['n_samples']:>5} "
            f"{m['accuracy']:>9.4f} {m['fp_rate']:>8.4f} {m['precision']:>10.4f} "
            f"{m['recall']:>7.4f} {m['misclassified']:>6}"
        )
    return "\n".join(lines)


def check_report(report: dict, n_seeds: int) -> list[str]:
    """Invariants every report must satisfy, on every seed."""
    problems = []
    for step in report["steps"]:
        rows = step["per_seed"]
        if len(rows) != n_seeds:
            problems.append(f"{step['method']}: {len(rows)} per-seed rows, expected {n_seeds}")
        for row in rows:
            if abs(row["recall"] - row["accuracy"]) > 1e-12:
                problems.append(
                    f"{step['method']} seed {row['seed']}: weighted recall "
                    f"{row['recall']!r} != accuracy {row['accuracy']!r}"
                )
            if row["n_samples"] != step["n_samples"]:
                problems.append(
                    f"{step['method']} seed {row['seed']}: n_samples "
                    f"{row['n_samples']} != {step['n_samples']}"
                )
    return problems
