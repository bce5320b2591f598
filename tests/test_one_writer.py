"""One writer: every file the package writes goes through
``model_io.write_text``.  Writes are read from the syntax tree of
``src/pcasmote``, as ``test_dead_code`` reads uses: an ``open`` or
``Path.open`` call whose mode writes (or is not a literal), a
``.write_text`` or ``.write_bytes`` call, or ``json.dump``.  A call of
``write_text`` itself is no write.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pcasmote"

#: (module, function) of the one function that writes files
WRITER = ("model_io", "write_text")


def _writes(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open" or (
        isinstance(func, ast.Attribute) and func.attr == "open"
    ):
        # open(path, mode) or path.open(mode); a missing mode reads
        given = call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]
        given += [kw.value for kw in call.keywords if kw.arg == "mode"]
        if not given:
            return False
        mode = given[0]
        return not isinstance(mode, ast.Constant) or any(c in mode.value for c in "wax+")
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr in ("write_text", "write_bytes"):
        return not (isinstance(func.value, ast.Name) and func.value.id == "model_io")
    return func.attr == "dump" and isinstance(func.value, ast.Name) and func.value.id == "json"


def _writers() -> dict:
    """(module, dotted name of the enclosing function, or "<module>") ->
    the line of each file write found there."""
    found = {}

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope != "<module>" else child.name
            elif isinstance(child, ast.Call) and _writes(child):
                found.setdefault((module, scope), []).append(child.lineno)
            visit(child, module, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.stem, "<module>")
    return found


def test_one_function_writes_files():
    assert list(_writers()) == [WRITER]
