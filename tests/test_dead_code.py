"""No dead code in the package: each public top-level function or class of
``src/pcasmote`` is used by code elsewhere in the package, or is listed in
``KEPT`` with the reason that keeps it, and each private one (named with a
leading underscore) is used by package code, with no exception.  Uses are
read from the syntax tree, so a name in a docstring or comment is no use,
nor is an import alone (an ``__init__`` re-export), nor a call from the
definition's own body, nor a test that calls or patches it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pcasmote"
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"

ACCEPTANCE = "pinned by the acceptance suite"
ORACLE = "a test oracle"
PERFBENCH_IMPORT = "imported by perfbench/"

#: (module, name) -> (reason, what it is kept for); only these reasons are allowed
KEPT = {
    ("metrics", "accuracy"): (ACCEPTANCE, "the per-matrix accuracy"),
    ("metrics", "confusion_matrix"): (ACCEPTANCE, "the per-fold confusion matrix"),
    ("metrics", "fp_rate"): (ORACLE, "the per-class rate metric_rows is checked against"),
    ("metrics", "precision"): (ORACLE, "the per-class rate metric_rows is checked against"),
    ("metrics", "recall"): (ACCEPTANCE, "weighted recall equals accuracy"),
    ("metrics", "weighted_average"): (ACCEPTANCE, "weighted recall equals accuracy"),
    ("naive_bayes", "posterior"): (ACCEPTANCE, "posteriors sum to one"),
    ("naive_bayes", "predict"): (ACCEPTANCE, "the one-row prediction"),
    ("naive_bayes", "predict_matrix"): (ORACLE, "the reference of the batched predictors"),
    ("naive_bayes", "load_nb"): (ORACLE, "reads back the model file `train` writes"),
    ("pca", "load_pca"): (ORACLE, "reads back the model file `reduce` writes"),
    ("rng", "Rng"): (PERFBENCH_IMPORT, "the spec of the random stream; the cohort draws from it"),
    ("smote", "nearest_minority_neighbors"): (ACCEPTANCE, "the one-row neighbour query"),
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(private: bool) -> set:
    """(module, name) of each top-level function or class of the package
    whose name starts with an underscore, or of each whose name does not."""
    return {
        (path.stem, node.name)
        for path in SRC.glob("*.py")
        for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") == private
    }


def _uses() -> set:
    """(module, name) of every package definition that package code uses:
    a name read in its own module or imported by ``from .module import``,
    or an attribute of a module imported by ``from . import module``."""
    used = set()
    for path in SRC.glob("*.py"):
        tree = _tree(path)
        names = {  # local name -> (module, name) it stands for
            node.name: (path.stem, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        modules = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module:
                        names[local] = (node.module, alias.name)
                    else:
                        modules[local] = alias.name
        for top in tree.body:
            own = (path.stem, top.name) if hasattr(top, "name") else None
            for node in ast.walk(top):
                if not isinstance(getattr(node, "ctx", None), ast.Load):
                    continue   # a field or variable named like a definition
                if isinstance(node, ast.Name) and node.id in names:
                    target = names[node.id]
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                ):
                    target = (modules[node.value.id], node.attr)
                else:
                    continue
                if target != own:
                    used.add(target)
    return used


def _imported_by(paths) -> set:
    """(module, name) of every ``from pcasmote.module import name`` in ``paths``."""
    return {
        (node.module.removeprefix("pcasmote."), alias.name)
        for path in paths
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pcasmote.")
        for alias in node.names
    }


def test_every_public_definition_is_used_or_kept():
    unused = _definitions(private=False) - _uses()
    unlisted = sorted(f"{module}.{name}" for module, name in unused - KEPT.keys())
    assert not unlisted, f"no code in src/ uses {unlisted}: delete them or add them to KEPT"


def test_every_private_definition_is_used():
    """A private helper serves the package alone, so no test or script can
    keep it: one that no package code uses, say after a change of layout
    orphans it, is dead."""
    private = _definitions(private=True)
    assert private, "no private definitions found: the scan is broken"
    unused = sorted(f"{module}.{name}" for module, name in private - _uses())
    assert not unused, f"no code in src/ uses {unused}: delete them"


def test_kept_names_are_unused_and_their_reasons_hold():
    """A kept name is defined and unused by the package, and its reason is
    true: the acceptance suite, another test or a perfbench script imports it."""
    defined, used = _definitions(private=False), _uses()
    importers = {
        ACCEPTANCE: _imported_by([TESTS / "test_acceptance.py"]),
        ORACLE: _imported_by(p for p in TESTS.glob("test_*.py") if p.name != "test_acceptance.py"),
        PERFBENCH_IMPORT: _imported_by(PERFBENCH.glob("*.py")),
    }
    for key, (reason, _) in KEPT.items():
        assert key in defined, f"{key} is kept but not defined"
        assert key not in used, f"{key} is used in src/: drop it from KEPT"
        assert key in importers[reason], f"{key} is kept as {reason!r}, which is not so"


def _option_dest(call: ast.Call) -> str:
    """The ``dest`` of one ``add_argument`` call, as argparse derives it:
    ``dest=``, else the first long option, else the first name."""
    for keyword in call.keywords:
        if keyword.arg == "dest":
            return keyword.value.value
    names = [arg.value for arg in call.args]
    name = next((n for n in names if n.startswith("--")), names[0])
    return name.lstrip("-").replace("-", "_")


def test_every_cli_option_is_read():
    """Each option the CLI declares is read as ``args.<dest>`` by package
    code; a flag no code reads (say ``-v`` before anything prints progress)
    is dead.  ``action="version"`` options store nothing and are skipped."""
    declared = {
        _option_dest(node)
        for node in ast.walk(_tree(SRC / "cli.py"))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        and not any(
            kw.arg == "action" and getattr(kw.value, "value", None) == "version"
            for kw in node.keywords
        )
    }
    assert declared, "no add_argument calls found: the scan is broken"
    read = {
        node.attr
        for path in SRC.glob("*.py")
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }
    unread = sorted(declared - read)
    assert not unread, f"cli.py declares options that no code reads as args.<dest>: {unread}"
