"""Source layout rules that the package keeps.

Imports sit at module level: a function-local import hides a dependency
between modules and usually papers over an import cycle. Only ``linalg``
imports ``ctypes``, so BLAS thread control stays in one place. The names
that the benchmark's tracer looks up in the package stay bound, so a
refactor cannot break the benchmark while these tests pass. Every option a
subcommand declares is read by it, so the CLI offers no option that does
nothing.
"""

import argparse
import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import mmsig.cli
import mmsig.linalg
import mmsig.signature
import mmsig.spectral
from mmsig.constructions import CountableRadoModel, residue_class_clique
from mmsig.sampling import DiscreteMeasure
from mmsig.spaces import from_euclidean_points, named_example, write_distance_csv

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
    """``PRIVATE``, ``METHODS`` and the span names that perfbench/tracer.py
    looks up by string (``EIGENSOLVES``, ``IO_SPANS`` and the names that
    ``layer_metrics`` compares a span's name with), read without importing
    it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    tables, spans = {}, set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("PRIVATE", "METHODS"):
                tables[name] = ast.literal_eval(node.value)
            elif name in ("EIGENSOLVES", "IO_SPANS"):
                spans |= ast.literal_eval(node.value)
    metrics = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics"
    )
    for node in ast.walk(metrics):
        if isinstance(node, ast.Compare) and getattr(node.left, "id", None) == "name":
            for value in node.comparators:
                if isinstance(value, (ast.Constant, ast.Tuple)):
                    found = ast.literal_eval(value)
                    spans |= {found} if isinstance(found, str) else set(found)
    assert set(tables) == {"PRIVATE", "METHODS"}
    assert {"spaces.read_distance_csv", "spaces.from_graph", "signature.embedding_to_json"} <= spans
    return tables["PRIVATE"], tables["METHODS"], spans


def test_names_the_benchmark_traces_stay_bound():
    private, methods, spans = _tracer_tables()
    for layer, names in private.items():
        module = importlib.import_module(f"mmsig.{layer}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"mmsig.{layer}.{name}"
    for span in sorted(spans):
        # the tracer wraps a module's own functions: the public ones and PRIVATE
        layer, name = span.split(".")
        module = importlib.import_module(f"mmsig.{layer}")
        func = getattr(module, name, None)
        assert inspect.isfunction(func) and func.__module__ == module.__name__, f"mmsig.{span}"
        assert not name.startswith("_") or name in private.get(layer, ()), f"mmsig.{span}"
    for layer, classes in methods.items():
        module = importlib.import_module(f"mmsig.{layer}")
        for cls_name, names in classes.items():
            cls = getattr(module, cls_name)
            for name in names:
                assert name in vars(cls), f"mmsig.{layer}.{cls_name}.{name}"
    assert mmsig.cli.inertia is mmsig.signature.inertia is mmsig.linalg.inertia
    assert mmsig.spectral.spectrum_inertia is mmsig.linalg.spectrum_inertia
    assert mmsig.cli.esd_and_inertia is mmsig.spectral.esd_and_inertia
    assert mmsig.spectral._eigenvalues is mmsig.linalg._eigenvalues


def test_every_prefix_eigensolve_is_traced(monkeypatch):
    # The tracer counts eigensolves at linalg._eigenvalues and linalg.eig_sym
    # only, so every LAPACK eigensolve of a ratio trial and of an all-prefix
    # trajectory has to go through one of them.
    lapack, traced = [], []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, _f=real: lapack.append(len(a)) or _f(a))
    for name in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, lambda *a: pytest.fail("untraced eigensolve"))
    for name in ("_eigenvalues", "eig_sym"):
        real = getattr(mmsig.linalg, name)
        monkeypatch.setattr(mmsig.linalg, name, lambda a, _f=real: traced.append(len(a)) or _f(a))
    model = CountableRadoModel(edge_prob=0.5, seed=424242, planted_clique=residue_class_clique(31))
    mmsig.spectral.rado_ratio_experiment(
        model, DiscreteMeasure.class_biased(30, 0.9), m_max=3000, seed=0
    )
    mmsig.signature.sampled_signature_trajectory(
        model, DiscreteMeasure.geometric(0.99), m_max=3000, seed=5
    )
    assert len(lapack) > 10 and lapack == traced


# Invocations per subcommand whose union reads every declared option.
REPRESENTATIVE_RUNS = {
    "analyze": [
        ["--example", "sphere", "--n", "6", "--dim", "2", "--format", "csv", "--output", "a.csv"],
        ["--input", "tripod.csv", "--input-format", "csv"],
    ],
    "embed": [
        ["--example", "simplex", "--n", "3", "--output", "e.json"],
        ["--input", "tripod.csv"],
    ],
    "trajectory": [
        ["--example", "simplex", "--n", "5", "--sizes", "2:5"],
        ["--input", "tripod.csv", "--measure", "uniform", "--m-max", "20", "--output", "t.csv"],
        ["--model-p", "0.5", "--m-max", "30", "--model-seed", "4", "--clique", "0,2"],
    ],
    "construct": [
        ["prescribed", "--n", "2", "--p", "2", "--output", "c.csv"],
        ["perturb", "--input", "points.csv", "--output", "x.csv"],
        ["union", "--inputs", "tripod.csv", "tripod.csv", "--h", "1.0", "--output", "u.csv"],
    ],
    "rado": [
        ["--p", "0.5", "--N", "20", "--clique-rule", "modular:3", "--output-prefix", "r"],
        ["--p", "0.5", "--ratio", "--measure", "geometric:0.8", "--m-max", "40", "--trials", "2",
         "--delta-threshold", "1", "--min-fraction", "0.5"],
    ],
}


def _attribute_reads(argv):
    """Names a subcommand reads from its parsed arguments."""
    args = mmsig.cli.build_parser().parse_args(argv)
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    assert args.func(Recording(**vars(args))) == 0
    return reads


@pytest.mark.parametrize("command", sorted(REPRESENTATIVE_RUNS))
def test_every_declared_option_is_read(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_distance_csv(named_example("tripod"), "tripod.csv")
    points = np.random.default_rng(3).normal(size=(5, 2))
    write_distance_csv(from_euclidean_points(points), "points.csv")
    subparsers = next(
        a for a in mmsig.cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert sorted(subparsers.choices) == sorted(REPRESENTATIVE_RUNS)
    actions = subparsers.choices[command]._actions
    declared = {a.dest for a in actions if not isinstance(a, argparse._HelpAction)}
    runs = REPRESENTATIVE_RUNS[command]
    read = set().union(*(_attribute_reads([command, *argv]) for argv in runs))
    assert declared - read == set()
