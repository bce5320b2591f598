"""No dead code in the package: each public top-level function or class of
``src/pcasmote`` is used by code elsewhere in the package, or is listed in
``KEPT`` with the reason that keeps it, and each private one (named with a
leading underscore) is used by package code, with no exception.  So is
each method or property of a top-level class, dunder methods aside: package
code reads its name as an attribute outside its own body, or ``KEPT`` lists
it as "Class.member".  Uses are read from the syntax tree, so a name in a
docstring or comment is no use, nor is an import alone (an ``__init__``
re-export), nor a call from the definition's own body, nor a test that
calls or patches it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pcasmote"
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"

ACCEPTANCE = "pinned by the acceptance suite"
ORACLE = "a test oracle"
PERFBENCH_USE = "used by perfbench/"

#: (module, name or "Class.member") -> (reason, what it is kept for); only
#: these reasons are allowed
KEPT = {
    ("experiment", "EvalSummary.misclassified_median"): (
        ACCEPTANCE, "the median misclassification count of a step",
    ),
    ("metrics", "accuracy"): (ACCEPTANCE, "the per-matrix accuracy"),
    ("metrics", "confusion_matrix"): (ACCEPTANCE, "the per-fold confusion matrix"),
    ("metrics", "fp_rate"): (ORACLE, "the per-class rate metric_rows is checked against"),
    ("metrics", "precision"): (ORACLE, "the per-class rate metric_rows is checked against"),
    ("metrics", "recall"): (ACCEPTANCE, "weighted recall equals accuracy"),
    ("metrics", "weighted_average"): (ACCEPTANCE, "weighted recall equals accuracy"),
    ("naive_bayes", "posterior"): (ACCEPTANCE, "posteriors sum to one"),
    ("naive_bayes", "predict"): (ACCEPTANCE, "the one-row prediction"),
    ("naive_bayes", "predict_matrix"): (ORACLE, "the reference of the batched predictors"),
    ("rng", "Rng"): (PERFBENCH_USE, "the spec of the random stream; the cohort draws from it"),
    ("rng", "Rng.random"): (PERFBENCH_USE, "the cohort's uniform draws"),
    ("rng", "Rng.shuffle"): (ORACLE, "the one-draw-at-a-time spec of the fold shuffle"),
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


def _members() -> set:
    """(module, "Class.member") of each method or property of a top-level
    class of the package, dunder methods aside."""
    return {
        (path.stem, f"{node.name}.{member.name}")
        for path in SRC.glob("*.py")
        for node in _tree(path).body
        if isinstance(node, ast.ClassDef)
        for member in node.body
        if isinstance(member, ast.FunctionDef)
        and not (member.name.startswith("__") and member.name.endswith("__"))
    }


def _member_uses() -> set:
    """(module, "Class.member") of every package member whose name package
    code reads as an attribute outside the member's own body.  Reads go by
    name alone: any ``x.subset`` uses ``Dataset.subset``."""
    reads = set()   # (attribute name, the member whose body reads it, or None)
    for path in SRC.glob("*.py"):
        for top in _tree(path).body:
            parts = [(top, None)]
            if isinstance(top, ast.ClassDef):
                parts = [
                    (node, (path.stem, f"{top.name}.{node.name}")
                     if isinstance(node, ast.FunctionDef) else None)
                    for node in top.body
                ]
            reads |= {
                (sub.attr, owner)
                for node, owner in parts
                for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
            }
    return {
        member
        for member in _members()
        for attr, owner in reads
        if attr == member[1].rpartition(".")[2] and owner != member
    }


def _used_by(paths) -> set:
    """(module, name) of every ``from pcasmote.module import name`` in
    ``paths``, and ("*", attribute) of every attribute they read."""
    used = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pcasmote."):
                used |= {(node.module.removeprefix("pcasmote."), a.name) for a in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(("*", node.attr))
    return used


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


def test_every_class_member_is_used_or_kept():
    members = _members()
    assert members, "no class members found: the scan is broken"
    unused = members - _member_uses()
    unlisted = sorted(f"{module}.{name}" for module, name in unused - KEPT.keys())
    assert not unlisted, f"no code in src/ reads {unlisted}: delete them or add them to KEPT"


def test_kept_names_are_unused_and_their_reasons_hold():
    """A kept name is public, defined and unused by the package, and its
    reason is true: the acceptance suite, another test or a perfbench script
    imports it, or for a member reads its name as an attribute."""
    defined = _definitions(private=False) | _members()
    used = _uses() | _member_uses()
    users = {
        ACCEPTANCE: _used_by([TESTS / "test_acceptance.py"]),
        ORACLE: _used_by(p for p in TESTS.glob("test_*.py") if p.name != "test_acceptance.py"),
        PERFBENCH_USE: _used_by(PERFBENCH.glob("*.py")),
    }
    for key, (reason, _) in KEPT.items():
        module, name = key
        member = name.rpartition(".")[2]
        assert not member.startswith("_"), f"{key} is private, so nothing outside src/ keeps it"
        assert key in defined, f"{key} is kept but not defined"
        assert key not in used, f"{key} is used in src/: drop it from KEPT"
        evidence = ("*", member) if "." in name else key
        assert evidence in users[reason], f"{key} is kept as {reason!r}, which is not so"


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
