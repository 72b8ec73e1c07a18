"""Source layout rules that the package keeps.

Imports sit at module level: a function-local import hides a dependency
between modules and usually papers over an import cycle. Only ``linalg``
imports ``ctypes``, so BLAS thread control stays in one place. Only
``linalg._openblas`` binds OpenBLAS, and only ``_eigenvalues`` calls the
LAPACK routine it binds, so the benchmark's tracer sees every eigensolve. Only
``linalg`` imports ``threading`` or ``concurrent.futures``, so threads and
the BLAS pin stay in one place, ``linalg.pinned_map``, which starts a pool
only for items whose eigensolves are large enough to overlap and otherwise
runs them in the calling thread, with the same results. Only ``linalg``
references ``_zero_band``, so the zero band has one owner. A planted
clique reaches ``prefix_inertias`` only as ``CliqueBlocks``: it takes no
clique mask, so the counting has one input form per matrix. The names
that the benchmark's tracer looks up in the package stay bound, so a
refactor cannot break the benchmark while these tests pass. Every run of
``cli.RUNS`` reads each option it takes, and refuses each option it lacks
or does not take, so the CLI offers no option that does nothing. Every
public top-level name in ``src`` is used elsewhere in ``src`` or named in
the README, so the package exposes nothing that only the tests use, and
every name of the package that the README gives resolves, so the README
names nothing that is gone. Every exception class in ``mmsig.errors`` is
caught by name somewhere in ``src`` or named in the README, so an error
raised at one site is an ``InvalidInput`` whose message names the witness,
not a class of its own.
No module reads the environment (``os.environ``, ``os.getenv``), so a run
is set by its arguments alone and a hidden knob cannot come back unnoticed;
what the machine offers, such as its usable CPUs, is measured instead.
No module calls ``np.linalg.inv`` or ``np.linalg.solve``: the inverses that
``prefix_inertias`` steps from are written only by a certified step of its
chain, from a held anchor or from the empty block, so they have one source
and one certificate, and no block is factored from scratch. Only
``linalg._chain_step`` writes into the chain's inverse buffer ``V``.
No ``**``, ``np.square`` or ``np.power`` takes an operand that reads
``.dist`` outside ``spaces.s_matrix``, so a space's distances are squared in
one place and a change to how -d^2/2 is built changes one function.
No call converts to int64 (``np.asarray``, ``np.array`` or ``np.fromiter``
with an int64 dtype, or ``.astype`` to int64) outside ``spaces._integers``,
so every vertex and point index that a caller gives passes one gate, which
refuses a fraction, a bool or a value outside int64 instead of truncating or
wrapping it. No module but ``linalg`` calls ``_eigenvalues`` or a numpy
eigensolver, so every whole matrix is counted by ``linalg._inertia``, with
one tolerance check and one unit scaling. Every module-level import is read
by its module, except the few that the benchmark's tracer tests pin, listed
by name, so a dead import cannot come in unnoticed.
"""

import argparse
import ast
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import mmsig.cli
import mmsig.constructions
import mmsig.errors
import mmsig.linalg
import mmsig.sampling
import mmsig.signature
import mmsig.spectral
from mmsig.constructions import CountableRadoModel, ResidueClassClique
from mmsig.sampling import DiscreteMeasure
from mmsig.spaces import from_euclidean_points, named_example, write_distance_csv

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mmsig"


def _top_level_names(tree):
    """(public names, every name read) of each top-level statement: the
    function, class or alias it defines, and the names and attributes it
    refers to, imported names included."""
    for node in tree.body:
        names = []
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        reads = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                reads.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                reads.add(sub.attr)
            elif isinstance(sub, ast.alias):
                reads.add(sub.name)
        yield [n for n in names if not n.startswith("_")], reads


def test_every_public_name_is_used_or_documented():
    # A public function, class or alias that no other code in src refers to
    # and that the README does not name serves only the tests; ``__init__``
    # re-exports do not count as a use.
    statements = [
        found
        for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
        for found in _top_level_names(ast.parse(path.read_text(), str(path)))
    ]
    readme = (ROOT / "README.md").read_text()
    unused = [
        name
        for names, _ in statements
        for name in names
        if not any(name in reads and name not in own for own, reads in statements)
        and not re.search(rf"\b{name}\b", readme)
    ]
    assert unused == []


_MODULES = ("linalg", "spaces", "sampling", "signature", "constructions", "spectral", "cli")


def _resolves(name):
    obj = mmsig
    for part in name.split("."):
        obj = getattr(obj, part, None)
    return obj is not None


def test_every_name_the_readme_gives_resolves():
    # Every ``mmsig.<name>`` and every backticked ``<module>.<name>`` of the
    # README is a name of the package, so the README cannot go on naming a
    # function that was removed or renamed.
    readme = (ROOT / "README.md").read_text()
    names = set(re.findall(r"\bmmsig\.([A-Za-z_]\w*(?:\.\w+)*)", readme))
    names |= set(re.findall(rf"`(?:mmsig\.)?((?:{'|'.join(_MODULES)})\.[A-Za-z_]\w*)", readme))
    assert {"cli.main", "named_example", "linalg._inertia", "spectral.esd_and_inertia"} <= names
    assert [name for name in sorted(names) if not _resolves(name)] == []


def test_every_error_class_is_caught_or_documented():
    caught = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {sub.id for sub in ast.walk(node.type) if isinstance(sub, ast.Name)}
    readme = (ROOT / "README.md").read_text()
    classes = [
        name for name, obj in vars(mmsig.errors).items()
        if isinstance(obj, type) and obj.__module__ == "mmsig.errors"
    ]
    assert "InvalidInput" in classes
    assert [c for c in classes if c not in caught and not re.search(rf"\b{c}\b", readme)] == []


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


def _importers(module):
    return sorted(
        path.name
        for path in SRC.glob("*.py")
        if module in set(_imported_modules(ast.parse(path.read_text(), str(path))))
    )


def test_only_linalg_imports_ctypes():
    assert _importers("ctypes") == ["linalg.py"]


def test_only_linalg_imports_threads():
    # a pool's workers and the BLAS pin are correct only together
    assert _importers("threading") == ["linalg.py"]
    assert _importers("concurrent") == ["linalg.py"]


def test_only_linalg_binds_lapack():
    # ``_openblas`` opens the library and binds its symbols; ``pinned_map``
    # reads the thread-count pair and ``_eigenvalues`` the dsyevd, so every
    # eigensolve goes through a function the benchmark's tracer wraps
    named = sorted(path.name for path in SRC.glob("*.py") if re.search(r"CDLL|dsy|_64_", path.read_text()))
    assert named == ["linalg.py"]
    tree = ast.parse((SRC / "linalg.py").read_text())
    readers = {
        func.name for func in tree.body if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func) if isinstance(node, ast.Name) and node.id == "_openblas"
    }
    assert readers == {"_eigenvalues", "pinned_map"}


def test_every_solve_on_a_built_buffer_is_traced(monkeypatch, tmp_path):
    # each dsyevd call of rado --N, analyze and construct perturb runs inside
    # ``_eigenvalues``, wrapped at every binding as the tracer wraps it
    found = mmsig.linalg._openblas()
    if found is None or found[2] is None:
        pytest.skip("numpy's BLAS has no ILP64 OpenBLAS dsyevd found through /proc/self/maps")
    real, depth, calls = mmsig.linalg._eigenvalues, [0], []

    def traced(A, **kwargs):
        depth[0] += 1
        try:
            return real(A, **kwargs)
        finally:
            depth[0] -= 1

    for module in (mmsig.linalg, mmsig.spectral, mmsig.signature, mmsig.constructions, mmsig.cli):
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, traced)

    def dsyevd(*args):
        calls.append(depth[0])
        return found[2](*args)

    monkeypatch.setattr(mmsig.linalg, "_openblas", lambda: (*found[:2], dsyevd))
    write_distance_csv(from_euclidean_points(np.random.default_rng(3).normal(size=(12, 3))), tmp_path / "in.csv")
    for argv in (["rado", "--p", "0.5", "--N", "60", "--output-prefix", str(tmp_path / "run")],
                 ["analyze", "--example", "tripod_extended", "--n", "40", "--output", str(tmp_path / "a.json")],
                 ["construct", "perturb", "--input", str(tmp_path / "in.csv"), "--output", str(tmp_path / "p.csv")]):
        assert mmsig.cli.main(argv) == 0
    assert len(calls) >= 8 and set(calls) == {1}  # a query and a solve each: S, S and T, T


def test_no_module_reads_the_environment():
    env = {"environ", "environb", "getenv", "getenvb"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.Attribute) and node.attr in env)
        or (isinstance(node, ast.ImportFrom) and any(alias.name in env for alias in node.names))
    ]
    assert found == []


def test_no_module_inverts_a_matrix():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.Attribute) and node.attr in ("inv", "solve"))
        or (isinstance(node, ast.ImportFrom) and any(alias.name in ("inv", "solve") for alias in node.names))
    ]
    assert found == []


def test_only_the_chain_step_writes_the_inverses():
    # prefix_inertias keeps the chain's inverses in its buffer V and passes
    # it to _chain_step alone, which steps from them and writes the next;
    # np.pad grows V with what the steps wrote. No function of any module
    # assigns to an entry of V.
    writers, callees = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for func in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(func) if isinstance(func, ast.FunctionDef) else ():
                targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
                if any(isinstance(sub, ast.Subscript) and getattr(sub.value, "id", None) == "V"
                       for target in targets if isinstance(target, ast.AST) for sub in ast.walk(target)):
                    writers.add(func.name)
                if isinstance(node, ast.Call) and any(getattr(arg, "id", None) == "V" for arg in node.args):
                    callees.add(ast.unparse(node.func))
    assert writers == {"_chain_step"} and callees == {"_chain_step", "np.pad"}


def _squarings_of_dist(tree):
    """Each ``**`` (``**=`` too) and ``square`` or ``power`` call in ``tree``
    with an operand that reads an attribute named ``dist``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            operands = [node.left, node.right]
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            operands = [node.target, node.value]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("square", "power"):
            operands = node.args
        else:
            continue
        if any(isinstance(sub, ast.Attribute) and sub.attr == "dist"
               for op in operands for sub in ast.walk(op)):
            yield node


def test_only_s_matrix_squares_distances():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [(path.name, node.lineno) for node in _squarings_of_dist(tree)]
    own = next(
        node for node in ast.parse((SRC / "spaces.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "s_matrix"
    )
    # the one squaring the rule allows, which also shows the search finds one
    allowed = [("spaces.py", node.lineno) for node in _squarings_of_dist(own)]
    assert len(allowed) == 1
    assert found == allowed


def _int64_conversions(tree):
    """Each ``asarray``, ``array``, ``fromiter`` or ``astype`` call in
    ``tree`` with an argument that names int64: ``np.int64``, ``"int64"`` or
    ``int``, numpy's default integer."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in (
            "asarray", "array", "fromiter", "astype"
        ) and any(
            ast.unparse(arg) in ("np.int64", "numpy.int64", "'int64'", "int")
            for arg in [*node.args, *(keyword.value for keyword in node.keywords)]
        ):
            yield node


def test_only_the_integer_gate_converts_to_int64():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [(path.name, node.lineno) for node in _int64_conversions(tree)]
    gate = next(
        node for node in ast.parse((SRC / "spaces.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "_integers"
    )
    # the gate's own conversions, which also show the search finds one
    allowed = [("spaces.py", node.lineno) for node in _int64_conversions(gate)]
    assert allowed
    assert [site for site in found if site not in allowed] == []


def test_only_linalg_references_the_zero_band():
    # one owner of theta: the other modules read it from an Inertia
    users = sorted(path.name for path in SRC.glob("*.py") if "_zero_band" in path.read_text())
    assert users == ["linalg.py"]


def _eigensolves(tree):
    """Calls of ``_eigenvalues`` or of a numpy eigensolver, by any spelling."""
    solvers = {"_eigenvalues", "eigh", "eigvalsh", "eig", "eigvals"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in solvers:
            yield node


def test_only_linalg_eigensolves():
    # ``linalg._inertia`` counts every whole matrix, with its tolerance check
    # and unit scaling, so a module that solved a spectrum itself would count
    # it by a copy of those steps
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in _eigensolves(ast.parse(path.read_text(), str(path)))
    ]
    assert any(site.startswith("linalg.py:") for site in found)  # the search finds linalg's own
    assert [site for site in found if not site.startswith("linalg.py:")] == []


# Imports that their module never reads, kept only because a test of the
# benchmark's tracer checks the binding (ROADMAP items 5 and 6 remove both).
_UNREAD_IMPORTS = {
    "cli.inertia",  # perfbench/test_perfbench.py::test_install_shares_one_wrapper_and_uninstall_restores
    "signature.inertia",  # the same perfbench test
    "spectral._eigenvalues",  # the same perfbench test
    "spectral.spectrum_inertia",  # test_names_the_benchmark_traces_stay_bound, which mirrors the tracer
}


def _unread_imports(tree):
    """Names that the module's top-level imports bind and none of its code reads."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    return [name for name in bound if name not in read]


def test_every_import_is_read_or_pinned():
    # ``__init__`` imports to re-export, and reads none of its names
    found = {
        f"{path.stem}.{name}"
        for path in SRC.glob("*.py") if path.name != "__init__.py"
        for name in _unread_imports(ast.parse(path.read_text(), str(path)))
    }
    assert found == _UNREAD_IMPORTS


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
    assert mmsig.spectral._eigenvalues is mmsig.linalg._eigenvalues


def test_every_prefix_eigensolve_is_traced(monkeypatch):
    # The tracer counts eigensolves at linalg._eigenvalues, which eig_sym
    # calls too, so every LAPACK eigensolve of a ratio trial and of an
    # all-prefix trajectory has to go through it. The trajectory counts most
    # prefixes by the blocks of a run, so few are eigensolved.
    lapack, traced = [], []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, _f=real: lapack.append(len(a)) or _f(a))
    for name in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, lambda *a: pytest.fail("untraced eigensolve"))
    real = mmsig.linalg._eigenvalues
    monkeypatch.setattr(mmsig.linalg, "_eigenvalues", lambda a, **kw: traced.append(len(a)) or real(a, **kw))
    model = CountableRadoModel(edge_prob=0.5, seed=424242, planted_clique=ResidueClassClique(31))
    mmsig.spectral.rado_ratio_experiment(
        model, DiscreteMeasure.class_biased(30, 0.9), m_max=3000, seed=0
    )
    mmsig.signature.sampled_signature_trajectory(
        model, DiscreteMeasure.geometric(0.99), m_max=3000, seed=5
    )
    assert len(lapack) > 5 and lapack == traced


def test_clique_trial_eigensolves_only_its_other_points(monkeypatch):
    # The ratio trial of the test above pivots on its planted clique, so no
    # eigensolve is larger than the trial's points outside the clique. The
    # general chain's complement eigensolves reached order ~200 there.
    orders = []
    real = mmsig.linalg._eigenvalues
    monkeypatch.setattr(mmsig.linalg, "_eigenvalues", lambda a, **kw: orders.append(len(a)) or real(a, **kw))
    model = CountableRadoModel(edge_prob=0.5, seed=424242, planted_clique=ResidueClassClique(31))
    measure = DiscreteMeasure.class_biased(30, 0.9)
    mmsig.spectral.rado_ratio_experiment(model, measure, m_max=3000, seed=0)
    dedup = mmsig.sampling.sample_order(measure, 3000, 0)
    others = int(np.count_nonzero(~model._clique_flags(dedup)))
    assert orders and max(orders) <= others < len(dedup) // 20


def _pair_hashes(tree):
    """Each ``_vmix64`` call in ``tree`` whose argument XORs in an
    ``np.minimum`` or ``np.maximum``: the pair hash of a vertex pair."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_vmix64":
            for arg in node.args:
                if isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.BitXor) and any(
                    getattr(sub, "attr", None) in ("minimum", "maximum") for sub in ast.walk(arg)
                ):
                    yield node


def test_the_pair_hash_exists_once():
    # the dense adjacency and the clique blocks hash pairs through one function
    tree = ast.parse((SRC / "constructions.py").read_text())
    owners = {
        func.name
        for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for _ in _pair_hashes(func)
    }
    assert owners == {"_edges"}
    found = [path.name for path in sorted(SRC.glob("*.py")) for _ in _pair_hashes(ast.parse(path.read_text()))]
    assert found == ["constructions.py"] * 2  # min ^ key, then ^ max


def test_a_clique_reaches_the_counting_only_as_blocks():
    # prefix_inertias takes a matrix or CliqueBlocks, with no clique mask
    # beside them, and no module keeps the mask's simplex check
    assert list(inspect.signature(mmsig.linalg.prefix_inertias).parameters) == ["a", "sizes", "tol_rel"]
    defined = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_simplex_gap"
    ]
    assert defined == []


@pytest.mark.parametrize("rule, measure", [
    ("modular:31", DiscreteMeasure.class_biased(30, 0.9)),
    ("quadratic", DiscreteMeasure.geometric(0.999)),
    ("modular:2", DiscreteMeasure.geometric(0.995)),
])
def test_a_clique_trial_builds_no_matrix_past_the_chain(rule, measure, monkeypatch):
    # a clique trial hands over its clique's blocks and never calls
    # s_matrix_on or adjacency_block; the only n x n arrays are the blocks'
    # dense leading blocks, for no more points than the largest size the
    # chain counts, that is a size the pivot did not take. Where the pivot
    # takes them all, none is built.
    dense, built, pivots = [], [], []
    for name in ("s_matrix_on", "adjacency_block"):
        real = getattr(CountableRadoModel, name)
        monkeypatch.setattr(CountableRadoModel, name, lambda self, idx, _f=real: dense.append(len(idx)) or _f(self, idx))
    real_leading = mmsig.linalg.CliqueBlocks.leading
    monkeypatch.setattr(mmsig.linalg.CliqueBlocks, "leading", lambda b, k: built.append(k) or real_leading(b, k))
    real_pivot = mmsig.linalg._clique_pivot

    def counted(B, D, gamma, theta, gram=None):
        pivot = real_pivot(B, D, gamma, theta, gram)
        if pivot is not None:
            pivots.append(B.shape[1] + len(D))
        return pivot

    monkeypatch.setattr(mmsig.linalg, "_clique_pivot", counted)
    model = CountableRadoModel(edge_prob=0.5, seed=1, planted_clique=rule)
    traj = mmsig.spectral.rado_ratio_experiment(model, measure, m_max=3000, seed=0)
    chain = set(traj.dedup_sizes) - set(pivots)
    assert dense == [] and max(built, default=0) <= max(chain, default=0)
    if not chain:
        assert built == []
    if rule == "modular:2":  # no size takes the pivot: the whole matrix, once
        assert pivots == [] and built == [traj.dedup_sizes[-1]]


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

    assert getattr(mmsig.cli, f"cmd_{args.command}")(Recording(**vars(args))) == 0
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
