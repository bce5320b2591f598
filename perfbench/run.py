#!/usr/bin/env python3
"""Outside-in benchmark of ``pcasmote experiment``, the five-method comparison.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client runs checked operations back to back for ``--seconds``
after a warm-up.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones.  The last line of standard output is the result object;
the line before it records the environment and the samples.  Scratch files
go under ``perfbench/.work`` and are removed on exit.  See README.md.
"""

import os

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"  # inherited by the set-up probes

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import PER_LAYER, Tracer, median_metrics  # noqa: E402
from workloads import CONFIG, DEFAULT_SEED, WORKLOADS, check_report, format_table  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"

#: fresh processes timed per run for setup_s, spread over the timed loop so
#: that their median sees the same machine as the operations
SETUP_PROBES = 11

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_sha256(top: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in top.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha256(SRC),
    }


def _setup_probe(pairs: list[str]) -> float:
    """Set-up seconds measured in one fresh process."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), CONFIG, *pairs],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


class Runner:
    """Runs and checks operations; counts attempts and failures."""

    def __init__(self, cli, workload, seed: int, argv: list[str], out_dir: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.argv = argv
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first_report: bytes | None = None

    def op(self, tracer=None) -> float:
        """One checked operation; returns its wall seconds."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        if tracer is not None:
            tracer.reset()
        self.attempted += 1
        problems = []
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(self.argv)
        except Exception as exc:  # an operation that raises is a counted failure
            code = None
            problems.append(f"raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        if code not in (0, None):
            problems.append(f"exit code {code}: {err.getvalue().strip()}")
        if not problems:
            problems += self._check_report()
        if tracer is not None:
            problems += tracer.problems
        if problems:
            self.failed += 1
            self.problems += problems[:5]
        return elapsed

    def _check_report(self) -> list[str]:
        path = self.out_dir / "report.json"
        if not path.is_file():
            return ["no report.json written"]
        data = path.read_bytes()
        if self._first_report is None:
            self._first_report = data
        elif data != self._first_report:
            return ["report.json differs from the run's first operation"]
        try:
            report = json.loads(data)
            problems = check_report(report, self.workload.eval_seeds)
            if self.seed == DEFAULT_SEED:
                table = format_table(report)
                if table != self.workload.reference:
                    problems.append("five-method table differs from the reference:\n" + table)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"report.json does not have the expected layout: {exc!r}"]
        return problems


def _untraced_loop(runner: Runner, seconds: float, probe) -> tuple[list[float], list[float]]:
    """Operation seconds and set-up probe seconds, after a warm-up."""
    runner.op()  # warm-up
    times, setup = [], []
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds:
        while len(setup) < SETUP_PROBES * elapsed / seconds:
            setup.append(probe())
        times.append(runner.op())
    while len(setup) < SETUP_PROBES:
        setup.append(probe())
    return times, setup


def _traced_loop(runner: Runner, seconds: float):
    """Alternate untraced and traced operations after a warm-up."""
    tracer = Tracer()
    runner.op()  # warm-up
    untraced, traced, per_op, shares = [], [], [], {}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced:
        if len(untraced) <= len(traced):
            untraced.append(runner.op())
            continue
        tracer.install()
        try:
            traced.append(runner.op(tracer))
        finally:
            tracer.uninstall()
        per_op.append(tracer.layer_metrics(runner.out_dir))
        shares = tracer.self_time_shares()
    metrics = median_metrics(per_op)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    layer_shares: dict[str, float] = {}
    for name, share in shares.items():
        module = name.split(".", 1)[0]
        layer_shares[module] = layer_shares.get(module, 0.0) + share
    notes = {
        "untraced_seconds": untraced,
        "traced_seconds": traced,
        "self_time_share": {k: round(v, 4) for k, v in shares.items()},
        "layer_self_time_share": {
            k: round(v, 4) for k, v in sorted(layer_shares.items(), key=lambda kv: -kv[1])
        },
        "waiting": "none recorded: the program is single-threaded with no queues",
        "absent_targets": tracer.absent,
        "unmeasured": "model_io and the single-stage subcommands",
        "samples": {"warmup": 1, "untraced": len(untraced), "traced": len(traced)},
    }
    return metrics, notes


def _run(args) -> tuple[dict, dict]:
    import pcasmote
    from pcasmote import cli

    if not Path(pcasmote.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"pcasmote was imported from {pcasmote.__file__}, not {SRC}")
    workload = WORKLOADS[args.workload]
    work = WORK_DIR / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        dataset = None
        if workload.generated_cohort:
            from cohort import write_cohort_csv

            path = work / "cohort.csv"
            input_sha = write_cohort_csv(args.seed, path)
            dataset = str(path.relative_to(ROOT))
        else:
            input_sha = _sha256(ROOT / "data" / "lung-cancer.data")
        pairs = workload.overrides_for(args.seed, dataset)
        out_dir = work / "out"
        argv = ["experiment", "--config", CONFIG, "-o", str(out_dir.relative_to(ROOT))]
        argv += [arg for pair in pairs for arg in ("--set", pair)]
        runner = Runner(cli, workload, args.seed, argv, out_dir)

        detail = {
            "workload": workload.name,
            "seed": args.seed,
            "trace": args.trace,
            "loop": "closed: one client, operations back to back in one process",
            "operation": "pcasmote " + " ".join(argv),
            "input_sha256": input_sha,
            "environment": _environment(),
        }
        if args.trace:
            metrics, notes = _traced_loop(runner, args.seconds)
            detail.update(notes)
        else:
            times, setup = _untraced_loop(runner, args.seconds, lambda: _setup_probe(pairs))
            metrics = {
                "wall_s": statistics.median(times),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            detail["samples"] = {"warmup": 1, "timed": len(times), "setup_probes": len(setup)}
            detail["operation_seconds"] = times
            detail["setup_seconds"] = setup
        detail["error_rate"] = runner.failed / runner.attempted
        detail["problems"] = runner.problems[:20]
        result = {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
        }
        return detail, result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "pcasmote" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    try:
        detail, result = _run(args)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = {name: unit for name, unit, _ in PER_LAYER} if args.trace else END_TO_END_UNITS
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
