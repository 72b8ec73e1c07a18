"""The benchmark's artifacts, pinned by sha256.

Each workload of ``perfbench/workloads.py`` yields requests of CLI
commands. The first request of worker process 0 at seeds 5 and 7 is what
``perfbench/run.py --workload all --seconds 0`` reports as
``artifact_sha256``. Here it runs in-process, on inputs that
``perfbench/inputs.py`` writes, and each artifact is compared with
``bench_artifacts.json``.

Some bytes depend on the numpy and BLAS build: eigenvalues, coordinates,
theta columns. The table is keyed by the numpy version and the OpenBLAS
configuration that the benchmark's worker records, its runtime kernel
included. On another build only the counts are compared: every integer
cell of a CSV and every integer or string field of a JSON document. The
test then says so in a ``BuildMismatchWarning``.

The README's documented examples are pinned the same way, each run in a
folder of its own; a command that writes no file has its stdout pinned.

The table was first written from this code and checked against the
``artifact_sha256`` of ``run.py --seconds 0`` at both seeds. A change that
alters artifact bytes on purpose regenerates it with ``PYTHONPATH=src
python tests/test_bench_artifacts.py`` and says why in CHANGES.md.
"""

import hashlib
import json
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "bench_artifacts.json"
SEEDS = (5, 7)

# The README's examples of the subcommands that need no input file, as
# written there, with the artifact name of their stdout where they write no
# file.
README_EXAMPLES = (
    ("mmsig analyze --example tripod", "stdout.json"),
    ("mmsig analyze --example simplex --n 5 --format csv", "stdout.csv"),
    ("mmsig embed --example tripod --output tripod_embedding.json", None),
    ("mmsig trajectory --example tripod_extended --n 40 --sizes 5:40 --output traj.csv", None),
    ("mmsig trajectory --example tripod --measure uniform --m-max 500 --seed 3", "stdout.csv"),
    ("mmsig trajectory --model-p 0.5 --model-seed 9 --measure geometric:0.9 --m-max 500 --seed 2",
     "stdout.csv"),
    ("mmsig construct prescribed --n 3 --p 2 --seed 5 --output space.csv", None),
    ("mmsig rado --p 0.5 --N 1000 --seed 7 --output-prefix run", None),
    ("mmsig rado --ratio --p 0.5 --measure geometric:0.9 --m-max 2000 --trials 20 --seed 1 "
     "--output-prefix ratio", None),
    ("mmsig rado --ratio --p 0.5 --measure class_biased:30:0.9 --clique-rule modular:31 "
     "--m-max 3000 --trials 50 --seed 1 --output-prefix biased", None),
)

sys.path.insert(0, str(ROOT / "perfbench"))
from worker import run_cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import mmsig.cli  # noqa: E402


class BuildMismatchWarning(Warning):
    """The table was written on another numpy or BLAS build."""


def _build() -> dict:
    """numpy's version and OpenBLAS configuration as the benchmark's worker
    records them: from a fresh process, since tests that import scipy load
    its own OpenBLAS into this one, and the worker reads the first mapped."""
    code = "import json, worker; f = worker.blas_facts(); print(json.dumps([f['numpy'], f['openblas']]))"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "perfbench", capture_output=True,
                         text=True, check=True).stdout
    numpy, openblas = json.loads(out)
    return {"numpy": numpy, "openblas": openblas}


def _integer(cell: str) -> bool:
    try:
        int(cell)
    except ValueError:
        return False
    return True


def _counts_only(doc):
    """``doc`` with every float replaced by None; bools, ints and strings stay."""
    if isinstance(doc, dict):
        return {k: _counts_only(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_counts_only(v) for v in doc]
    return None if isinstance(doc, float) else doc


def _counts_digest(name: str, data: bytes) -> str:
    """sha256 of an artifact's counts: a JSON document without its floats,
    or a CSV with only its comment lines, its header and its integer cells."""
    text = data.decode()
    if name.endswith(".json"):
        kept = _counts_only(json.loads(text))
    else:
        lines = text.splitlines()
        kept = [line for line in lines if line.startswith("#")]
        body = [line.split(",") for line in lines if not line.startswith("#")]
        kept += body[:1] + [[c if _integer(c) else None for c in row] for row in body[1:]]
    return hashlib.sha256(json.dumps(kept).encode()).hexdigest()


def first_requests(seed: int, workdir: Path) -> dict:
    """{workload: {command label: {artifact name: (exit code, bytes)}}} of
    the first request of worker process 0 at ``seed``."""
    out = {}
    for name, workload in WORKLOADS.items():
        folder = workdir / f"{name}-{seed}"
        folder.mkdir()
        request = next(workload.requests(seed, 0, str(folder)))
        out[name] = {}
        for cmd in request:
            code, _, err = run_cli(mmsig.cli, cmd.argv)
            known, _ = cmd.known.get(code, (None, None))  # an exit the workload expects
            assert code == 0 or (known is not None and known in err), (cmd.label, code, err)
            out[name][cmd.label] = {
                Path(p).name: (code, Path(p).read_bytes()) for p in cmd.outputs if Path(p).exists()
            }
    return out


def readme_commands() -> list:
    """The commands of the README's ``sh`` blocks, one string each, with
    continuation lines joined and comments dropped."""
    text = (ROOT / "README.md").read_text()
    out = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            command = " ".join(line.split("#")[0].split())
            if command:
                out.append(command)
    return out


def readme_runs(workdir: Path) -> dict:
    """{command: {artifact name: (exit code, bytes)}} of ``README_EXAMPLES``,
    each run in its own folder under ``workdir``."""
    out = {}
    for i, (command, stdout_name) in enumerate(README_EXAMPLES):
        folder = workdir / f"readme-{i}"
        folder.mkdir()
        argv = shlex.split(command)[1:]
        for j, arg in enumerate(argv[:-1]):
            if arg in ("--output", "--output-prefix"):
                argv[j + 1] = str(folder / argv[j + 1])
        code, stdout, err = run_cli(mmsig.cli, argv)
        assert code == 0, (command, code, err)
        files = {p.name: (code, p.read_bytes()) for p in sorted(folder.iterdir())}
        if stdout_name is not None:
            files[stdout_name] = (code, stdout.encode())
        out[command] = files
    return out


def _entries(commands: dict) -> dict:
    return {
        label: {
            fname: {"exit": code, "sha256": hashlib.sha256(data).hexdigest(),
                    "counts": _counts_digest(fname, data)}
            for fname, (code, data) in files.items()
        }
        for label, files in commands.items()
    }


def table_of(runs: dict, readme: dict) -> dict:
    return {
        "build": _build(),
        "artifacts": {
            str(seed): {name: _entries(commands) for name, commands in workloads.items()}
            for seed, workloads in runs.items()
        },
        "readme": _entries(readme),
    }


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("bench")
    return table_of({seed: first_requests(seed, workdir) for seed in SEEDS}, readme_runs(workdir))


@pytest.fixture(scope="module")
def pinned():
    return json.loads(TABLE.read_text())


def _assert_same(got: dict, want: dict, what: str, produced: dict, pinned: dict) -> None:
    """``got`` equals ``want`` by sha256 on the table's build, by counts on another."""
    same_build = produced["build"] == pinned["build"]
    if not same_build:
        warnings.warn(
            f"artifacts of {what} compared by counts only: the table was "
            f"written on {pinned['build']}, this is {produced['build']}",
            BuildMismatchWarning,
        )
    keys = ("exit", "sha256", "counts") if same_build else ("exit", "counts")

    def project(table):
        return {
            (label, fname): {k: entry[k] for k in keys}
            for label, files in table.items()
            for fname, entry in files.items()
        }

    assert project(got) == project(want)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_first_request_artifacts_match_the_table(seed, workload, produced, pinned):
    got = produced["artifacts"][str(seed)][workload]
    want = pinned["artifacts"][str(seed)][workload]
    _assert_same(got, want, f"{workload} at seed {seed}", produced, pinned)


@pytest.mark.parametrize("command", [c for c, _ in README_EXAMPLES])
def test_readme_example_artifacts_match_the_table(command, produced, pinned):
    got = {command: produced["readme"][command]}
    want = {command: pinned["readme"][command]}
    _assert_same(got, want, repr(command), produced, pinned)


def test_pinned_examples_are_the_readmes():
    assert set(c for c, _ in README_EXAMPLES) <= set(readme_commands())


def test_counts_ignore_floats_but_not_integers():
    csv = b"# mmsig version=0.1.0 seed=1 tol_rel=1e-09\nsize,s_minus,theta\n1,0,0.5\n"
    assert _counts_digest("t.csv", csv) == _counts_digest("t.csv", csv.replace(b"0.5", b"0.25"))
    assert _counts_digest("t.csv", csv) != _counts_digest("t.csv", csv.replace(b"1,0,", b"1,1,"))
    doc = {"inertia": [1, 0, 2], "theta": 0.5, "verdict": "pseudo(1, 2)"}
    moved = dict(doc, theta=0.25)
    assert _counts_digest("a.json", json.dumps(doc).encode()) == _counts_digest("a.json", json.dumps(moved).encode())
    recounted = dict(doc, inertia=[1, 1, 1])
    assert _counts_digest("a.json", json.dumps(doc).encode()) != _counts_digest("a.json", json.dumps(recounted).encode())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = table_of({seed: first_requests(seed, Path(tmp)) for seed in SEEDS}, readme_runs(Path(tmp)))
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLE}")
