"""Source layout rules that the package keeps.

Imports sit at module level: a function-local import hides a dependency
between modules and usually papers over an import cycle. Only ``linalg``
imports ``ctypes``, so BLAS thread control stays in one place. The names
that the benchmark's tracer looks up in the package stay bound, so a
refactor cannot break the benchmark while these tests pass. Every run of
``cli.RUNS`` reads each option it takes, and refuses each option it lacks
or does not take, so the CLI offers no option that does nothing.
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


# A value for each option; OVERRIDES replaces some of them for a command or
# for one run of it.
VALUES = {
    "example": ["sphere"], "n": ["6"], "dim": ["2"], "input": ["tripod.csv"],
    "input_format": ["csv"], "format": ["csv"], "output": ["out.txt"], "sizes": ["1:3"],
    "measure": ["uniform"], "m_max": ["20"], "model_p": ["0.5"], "model_seed": ["4"],
    "clique": ["0,2"], "clique_rule": ["modular:3"], "p": ["0.5"],
    "inputs": ["tripod.csv", "tripod.csv"], "h": ["1.0"], "N": ["20"], "ratio": [],
    "trials": ["2"], "delta_threshold": ["1"], "min_fraction": ["0.5"], "output_prefix": ["r"],
    "seed": ["3"], "tol": ["1e-9"],
}
OVERRIDES = {
    "construct": {"n": ["2"], "p": ["2"]},
    ("construct", "perturb"): {"input": ["points.csv"]},
    ("trajectory", "model"): {"measure": ["geometric:0.8"]},
    ("rado", "ratio"): {"measure": ["geometric:0.8"], "m_max": ["40"]},
}


def _flag(dest):
    return "--" + dest.replace("_", "-")


def _argv(row, dests):
    """The argv of ``row``'s run that gives the options ``dests``."""
    command, run = row[:2]
    argv = [command, run] if command == "construct" else [command]
    for dest in dests:
        values = VALUES[dest]
        for key in (command, (command, run)):
            values = OVERRIDES.get(key, {}).get(dest, values)
        argv += [_flag(dest), *values]
    return argv


def _row_dests(row):
    """Every option ``row`` picks, needs or reads, then --seed and --tol."""
    return [*row[2], *row[3], *row[4], "seed", "tol"]


def _full_runs(row):
    """Option lists of the row's run that give every option it reads, each
    of two excluding options in a run of its own."""
    runs = [_row_dests(row)]
    for first, verb, second in mmsig.cli.PAIRS:
        if verb == "excludes" and {first, second} <= set(runs[0]):
            runs = [[d for d in dests if d != drop] for dests in runs for drop in (first, second)]
    return runs


def _subparsers():
    action = next(
        a for a in mmsig.cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def _declared_options(command):
    return {a.dest for a in _subparsers()[command]._actions if a.option_strings} - {"help"}


def _row_id(row):
    return f"{row[0]}-{row[1].replace(' ', '-')}"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A working directory holding the input files the runs name."""
    monkeypatch.chdir(tmp_path)
    write_distance_csv(named_example("tripod"), "tripod.csv")
    points = np.random.default_rng(3).normal(size=(5, 2))
    write_distance_csv(from_euclidean_points(points), "points.csv")
    return tmp_path


def _attribute_reads(argv):
    """Names the run of ``argv`` reads from its parsed arguments, once its
    options have passed the check."""
    args = mmsig.cli.build_parser().parse_args(argv)
    mmsig.cli._check_options(args)
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    assert args.func(Recording(**vars(args))) == 0
    return reads


def test_each_command_declares_the_options_of_its_runs():
    commands = {row[0] for row in mmsig.cli.RUNS}
    assert sorted(_subparsers()) == sorted(commands)
    for command in commands:
        rows = [row for row in mmsig.cli.RUNS if row[0] == command]
        assert _declared_options(command) == set().union(*map(_row_dests, rows)), command
    kind = next(a for a in _subparsers()["construct"]._actions if a.dest == "kind")
    assert kind.choices == [row[1] for row in mmsig.cli.RUNS if row[0] == "construct"]


@pytest.mark.parametrize("row", mmsig.cli.RUNS, ids=_row_id)
def test_each_run_reads_every_option_it_takes(row, workdir):
    read = set().union(*(_attribute_reads(_argv(row, dests)) for dests in _full_runs(row)))
    assert set(_row_dests(row)) - read == set()


@pytest.mark.parametrize("row", mmsig.cli.RUNS, ids=_row_id)
def test_each_run_refuses_a_missing_or_foreign_option(row, workdir, capsys):
    command, run, picks, needs, _ = row
    dests = _full_runs(row)[0]
    inputs = sorted(workdir.iterdir())
    for dest in needs:
        assert mmsig.cli.main(_argv(row, [d for d in dests if d != dest])) == 2
        assert capsys.readouterr().err == f"error: {command} {run} needs {_flag(dest)}\n"
    for dest in picks:  # another run is picked, and it refuses the options left
        assert mmsig.cli.main(_argv(row, [d for d in dests if d != dest])) == 2
    # an option that picks another run exits 2 with that run's error
    picking = {dest for other in mmsig.cli.RUNS if other[0] == command for dest in other[2]}
    for dest in sorted(_declared_options(command) - set(_row_dests(row))):
        capsys.readouterr()
        assert mmsig.cli.main(_argv(row, [*dests, dest])) == 2
        if dest not in picking:
            assert capsys.readouterr().err == f"error: {command} {run} takes no {_flag(dest)}\n"
    assert sorted(workdir.iterdir()) == inputs


@pytest.mark.parametrize("row", mmsig.cli.RUNS, ids=_row_id)
def test_each_run_checks_the_option_pairs_it_reads(row, workdir, capsys):
    dests = _full_runs(row)[0]
    inputs = sorted(workdir.iterdir())
    for first, verb, second in mmsig.cli.PAIRS:
        if first not in _row_dests(row):
            continue
        pair = [d for d in dests if d not in (first, second)] + [first]
        pair += [second] if verb == "excludes" else []
        assert mmsig.cli.main(_argv(row, pair)) == 2
        assert capsys.readouterr().err == f"error: {_flag(first)} {verb} {_flag(second)}\n"
    assert sorted(workdir.iterdir()) == inputs
