"""One loop over model blocks: ``linalg.blocks``, the rule that cuts a
batch into blocks, is called only by ``experiment._fold_predictions``, the
one loop over (seed, fold) naive Bayes models, and by the batched PCA
refit.  Calls are read from the syntax tree of ``src/pcasmote``, as
``test_one_writer`` reads writes: ``linalg.blocks(...)`` after ``from .
import linalg``, or ``blocks(...)`` after ``from .linalg import blocks``,
under any alias.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pcasmote"

#: (module, top-level function) of each caller of ``linalg.blocks``
CALLERS = {("experiment", "_fold_predictions"), ("pca", "fit_pca_subsets")}


def _calls_blocks(node: ast.AST, modules: set, functions: set) -> bool:
    """Whether ``node`` holds a call of ``blocks`` through one of the local
    names of the ``linalg`` module or of its ``blocks`` function."""
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if isinstance(func, ast.Name) and func.id in functions:
            return True
        if (
            isinstance(func, ast.Attribute) and func.attr == "blocks"
            and isinstance(func.value, ast.Name) and func.value.id in modules
        ):
            return True
    return False


def _callers() -> set:
    """(module, top-level function, or ``<module>``) of each call of
    ``linalg.blocks`` in the package."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = {"linalg"} if path.stem == "linalg" else set()
        functions = {"blocks"} if path.stem == "linalg" else set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name == "linalg":
                        modules.add(alias.asname or alias.name)
                    elif node.module == "linalg" and alias.name == "blocks":
                        functions.add(alias.asname or alias.name)
        for node in tree.body:
            if _calls_blocks(node, modules, functions):
                found.add((path.stem, getattr(node, "name", "<module>")))
    return found


def test_one_loop_over_naive_bayes_model_blocks():
    assert _callers() == CALLERS
