"""Every function, method and class the package defines has a caller outside the tests.

A caller is a reference by name (``name`` or ``obj.name``) in the package, the demos
or perfbench's modules, or an import in the demos or perfbench; perfbench's tracer
patches by name, so its dotted-name strings count too.  Its own test module does not
count, nor does an import inside the package, which only re-exports.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "fiberwalk").glob("*.py"))
OUTSIDE = sorted((ROOT / "demos").glob("*.py")) + sorted(
    path for path in (ROOT / "perfbench").glob("*.py") if path.name != "test_perfbench.py"
)


def _trees(paths):
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def _defined(trees):
    """``{name: 'file:line'}`` of every non-dunder function, method and class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        node.name: f"{path.name}:{node.lineno}"
        for path, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, kinds) and not re.fullmatch(r"__\w+__", node.name)
    }


def _referenced(trees, imports, strings):
    names = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif imports and isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"[\w.]+", node.value):
                    names.update(node.value.split("."))
    return names


def test_every_package_name_has_a_non_test_caller():
    package = _trees(PACKAGE)
    outside = _trees(OUTSIDE)
    perfbench = [(path, tree) for path, tree in outside if path.parent.name == "perfbench"]
    callers = (
        _referenced(package, imports=False, strings=False)
        | _referenced(outside, imports=True, strings=False)
        | _referenced(perfbench, imports=False, strings=True)
    )
    uncalled = {name: where for name, where in _defined(package).items() if name not in callers}
    assert not uncalled, f"defined but called only by tests, or by nothing: {uncalled}"
