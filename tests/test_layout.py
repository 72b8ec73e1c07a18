"""Source layout rules that the package keeps.

Imports sit at module level: a function-local import hides a dependency
between modules and usually papers over an import cycle. Only ``linalg``
imports ``ctypes``, so BLAS thread control stays in one place.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mmsig"


def _function_imports(tree):
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield func.name, node.lineno


def test_no_imports_inside_functions():
    modules = sorted(SRC.glob("*.py"))
    assert modules, f"no modules under {SRC}"
    found = [
        f"{path.name}:{line} in {name}()"
        for path in modules
        for name, line in _function_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, "function-local imports: " + ", ".join(found)


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module.split(".")[0]


def test_only_linalg_imports_ctypes():
    importers = sorted(
        path.name
        for path in SRC.glob("*.py")
        if "ctypes" in set(_imported_modules(ast.parse(path.read_text(), str(path))))
    )
    assert importers == ["linalg.py"]
