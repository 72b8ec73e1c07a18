"""Source layout rules that the package keeps.

Imports sit at module level: a function-local import hides a dependency
between modules and usually papers over an import cycle. Only ``linalg``
imports ``ctypes``, so BLAS thread control stays in one place. The names
that the benchmark's tracer looks up in the package stay bound, so a
refactor cannot break the benchmark while these tests pass.
"""

import ast
import importlib
import inspect
from pathlib import Path

import mmsig.cli
import mmsig.linalg
import mmsig.signature
import mmsig.spectral

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mmsig"


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


def _tracer_tables():
    """``PRIVATE`` and ``METHODS`` of perfbench/tracer.py, read without
    importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("PRIVATE", "METHODS"):
                tables[name] = ast.literal_eval(node.value)
    assert set(tables) == {"PRIVATE", "METHODS"}
    return tables["PRIVATE"], tables["METHODS"]


def test_names_the_benchmark_traces_stay_bound():
    private, methods = _tracer_tables()
    for layer, names in private.items():
        module = importlib.import_module(f"mmsig.{layer}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"mmsig.{layer}.{name}"
    for layer, classes in methods.items():
        module = importlib.import_module(f"mmsig.{layer}")
        for cls_name, names in classes.items():
            cls = getattr(module, cls_name)
            for name in names:
                assert name in vars(cls), f"mmsig.{layer}.{cls_name}.{name}"
    assert mmsig.cli.inertia is mmsig.signature.inertia is mmsig.linalg.inertia
    assert mmsig.spectral._eigenvalues is mmsig.linalg._eigenvalues
