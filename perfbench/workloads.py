"""The three workloads: the CLI commands of one request and their checks.

A request is what a user waits on: one ``rado`` command for rado_spectrum
and ratio_trials, one analyst session of eight commands for finite_spaces.
Every command writes its artifacts to files, so checks read them after the
request is timed. A check raises ``CheckFailed``. A command that exits with
a code in ``known`` and prints the matching text on stderr hits a known
defect of the program: it counts as failed, not as incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

import inputs


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


@dataclass
class Command:
    label: str
    argv: list
    outputs: list
    check: Callable  # check(files: dict[path, bytes], stdout: str)
    known: dict = field(default_factory=dict)  # exit code -> (stderr text, why)


def _csv_rows(data: bytes, header: list) -> list:
    text = data.decode()
    lines = text.splitlines()
    require(lines[0].startswith("# mmsig version="), "artifact lacks its provenance comment")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    require(rows[0] == header, f"unexpected header {rows[0]}")
    return rows[1:]


def _delta(minus: int, plus: int) -> float:
    if minus == 0:
        return math.inf if plus > 0 else 1.0
    return plus / minus


# ---------------------------------------------------------------------------
# rado_spectrum: one spectral run of the {1, 2} random-graph matrix


RADO_N = 1000
RADO_P = 0.5


def rado_spectrum(seed: int, process: int, workdir: str):
    """Yields requests forever: ``rado --p 0.5 --N 1000`` with fresh seeds."""
    prefix = os.path.join(workdir, "rado")
    esd, summary = prefix + "_esd.csv", prefix + "_summary.json"
    for s in inputs.request_seeds(seed, 1, process):

        def check(files, stdout, s=s):
            doc = json.loads(files[summary])
            require(doc["N"] == RADO_N and doc["seed"] == s, "summary has the wrong N or seed")
            require(doc["model"] == {"p": RADO_P, "seed": s}, "summary has the wrong model")
            minus, zero, plus = doc["inertia"]
            require(minus + zero + plus == RADO_N, "inertia counts do not add up to N")
            require(doc["delta"] == _delta(minus, plus), "delta is not s_plus / s_minus")
            pairs = RADO_N * (RADO_N - 1) // 2
            sd = math.sqrt(pairs * RADO_P * (1 - RADO_P))
            require(abs(doc["edges"] - RADO_P * pairs) < 10 * sd, "edge count far from p * pairs")
            require(0.0 <= doc["ks_to_semicircle"] <= 1.0, "KS distance out of [0, 1]")
            rows = _csv_rows(files[esd], ["index", "value"])
            require([int(r[0]) for r in rows] == list(range(RADO_N)), "ESD rows are not 0..N-1")
            vals = np.array([float(r[1]) for r in rows])
            require(bool((np.diff(vals) >= 0).all()), "ESD values are not sorted")
            band = inputs.band_of_eigenvalues(vals)
            require(inputs.in_band(minus, zero, plus, band), "inertia disagrees with the ESD signs")
            require(f"KS to semicircle: {doc['ks_to_semicircle']!r}" in stdout, "KS not printed")

        argv = ["rado", "--p", str(RADO_P), "--N", str(RADO_N), "--seed", str(s),
                "--output-prefix", prefix]
        yield [Command("rado", argv, [esd, summary], check)]


# ---------------------------------------------------------------------------
# ratio_trials: eight class-biased ratio trials on a planted clique


TRIALS = 8
M_MAX = 3000
MEASURE = {"type": "class_biased", "j": 30, "q": 0.9}


def ratio_trials(seed: int, process: int, workdir: str):
    """Yields requests forever: one 8-trial ``rado --ratio`` with a fresh seed."""
    prefix = os.path.join(workdir, "ratio")
    table, summary = prefix + "_ratio.csv", prefix + "_summary.json"
    for s in inputs.request_seeds(seed, 2, process):

        def check(files, stdout, s=s):
            rows = _csv_rows(files[table], ["trial", "m", "s_minus", "s_zero", "s_plus", "delta"])
            by_trial = {}
            for t, m, minus, zero, plus, delta in rows:
                minus, zero, plus, m = int(minus), int(zero), int(plus), int(m)
                require(0 < minus + zero + plus <= m, "counts exceed the draws")
                require(float(delta) == _delta(minus, plus), "delta is not s_plus / s_minus")
                by_trial.setdefault(int(t), []).append(m)
            require(sorted(by_trial) == list(range(TRIALS)), "not one row set per trial")
            ms = by_trial[0]
            require(all(v == ms for v in by_trial.values()), "trials use different checkpoints")
            require(ms[-1] == M_MAX and ms == sorted(set(ms)), "checkpoints do not rise to m_max")
            doc = json.loads(files[summary])
            require(doc["trials"] == TRIALS and doc["m_max"] == M_MAX, "summary sizes are wrong")
            require(doc["seed"] == s and doc["measure"] == MEASURE, "summary provenance is wrong")
            q = list(doc["final_delta_quantiles"].values())
            require(q == sorted(q), "final-ratio quantiles are not ordered")

        argv = ["rado", "--ratio", "--p", "0.5", "--measure", "class_biased:30:0.9",
                "--clique-rule", "modular:31", "--m-max", str(M_MAX), "--trials", str(TRIALS),
                "--seed", str(s), "--output-prefix", prefix]
        yield [Command("rado_ratio", argv, [table, summary], check)]


# ---------------------------------------------------------------------------
# finite_spaces: one analyst session over inputs written at setup


def _check_analyze(path, ref):
    def check(files, stdout):
        doc = json.loads(files[path])
        require(doc["n"] == ref["S"]["n"], "analyze reports the wrong order")
        require(inputs.in_band(*doc["inertia_S"], ref["S"]), "inertia_S disagrees with eigvalsh")
        require(inputs.in_band(*doc["inertia_T"], ref["T"]), "inertia_T disagrees with eigvalsh")
        minus, _, plus = doc["inertia_T"]
        verdict = f"euclidean({plus})" if minus == 0 else f"pseudo({minus}, {plus})"
        require(doc["verdict"] == verdict, "verdict disagrees with inertia_T")

    return check


def _trajectory_rows(data: bytes) -> list:
    rows = _csv_rows(data, ["size", "s_minus", "s_zero", "s_plus", "theta"])
    counts = [tuple(int(x) for x in r[:4]) for r in rows]
    require([c[0] for c in counts] == list(range(1, len(counts) + 1)), "sizes are not 1..k")
    require(all(sum(c[1:]) == c[0] for c in counts), "counts do not add up to the size")
    return counts


def _check_embed(path, ref):
    def check(files, stdout):
        doc = json.loads(files[path])
        n_neg, n_pos = doc["n_neg"], doc["n_pos"]
        n = ref["T"]["n"]
        require(inputs.in_band(n_neg, n - n_neg - n_pos, n_pos, ref["T"]),
                "embedding axes disagree with the centered inertia")
        pts = np.asarray(doc["points"], dtype=float)
        require(pts.shape == (n, n_neg + n_pos), "embedding has the wrong shape")
        require("max residual:" in stdout, "residual not printed")

    return check


PRESCRIBED = (40, 20)


def finite_spaces(seed: int, process: int, workdir: str):
    """Writes the inputs, then yields the same eight-command session forever,
    in every process."""
    refs = inputs.finite_space_inputs(seed, workdir)
    s = next(inputs.request_seeds(seed, 3))
    out = os.path.join(workdir, "out")
    os.makedirs(out, exist_ok=True)

    def path(name):
        return os.path.join(out, name)

    def check_sphere_trajectory(files, stdout):
        counts = _trajectory_rows(files[path("traj_sphere200.csv")])
        ref = refs["sphere200.csv"]["S"]
        require(len(counts) == ref["n"], "trajectory does not reach the full space")
        require(inputs.in_band(*counts[-1][1:], ref), "final signature disagrees with eigvalsh")

    def check_model_trajectory(files, stdout):
        counts = _trajectory_rows(files[path("traj_model.csv")])
        require(1 <= len(counts) <= M_MAX, "trajectory length out of range")

    def check_prescribed(files, stdout):
        rows = _csv_rows(files[path("prescribed.csv")], [f"p{i}" for i in range(sum(PRESCRIBED) + 1)])
        D = np.array([[float(x) for x in r] for r in rows])
        band = inputs.inertia_band(inputs.centered(-0.5 * D**2))
        require(inputs.in_band(PRESCRIBED[0], 1, PRESCRIBED[1], band),
                "written space lacks the prescribed centered signature")
        require(f"centered inertia ({PRESCRIBED[0]}, 1, {PRESCRIBED[1]})" in stdout,
                "prescribed signature not printed")

    analyze = [("sphere400.csv", ["--input", refs["sphere400.csv"]["path"]]),
               ("ring400.edges", ["--input", refs["ring400.edges"]["path"]]),
               ("tripod_extended", ["--example", "tripod_extended", "--n", "600"])]
    session = [
        Command(f"analyze {name}", ["analyze", *args, "--output", path(f"analyze_{name}.json")],
                [path(f"analyze_{name}.json")], _check_analyze(path(f"analyze_{name}.json"), refs[name]))
        for name, args in analyze
    ]
    session += [
        Command("trajectory sphere200.csv",
                ["trajectory", "--input", refs["sphere200.csv"]["path"],
                 "--output", path("traj_sphere200.csv")],
                [path("traj_sphere200.csv")], check_sphere_trajectory,
                known={2: ("signature decreased",
                           "MonotonicityViolation on some sphere samples: theta grows with the "
                           "prefix size, so a count of near-zero eigenvalues can drop")}),
        Command("trajectory model",
                ["trajectory", "--model-p", "0.5", "--measure", "geometric:0.99",
                 "--m-max", str(M_MAX), "--seed", str(s), "--output", path("traj_model.csv")],
                [path("traj_model.csv")], check_model_trajectory),
        Command("embed pm300.csv",
                ["embed", "--input", refs["pm300.csv"]["path"], "--output", path("embed_pm300.json")],
                [path("embed_pm300.json")],
                _check_embed(path("embed_pm300.json"), refs["pm300.csv"])),
        Command("embed sphere200.csv",
                ["embed", "--input", refs["sphere200.csv"]["path"],
                 "--output", path("embed_sphere200.json")],
                [path("embed_sphere200.json")],
                _check_embed(path("embed_sphere200.json"), refs["sphere200.csv"]),
                known={1: ("residual exceeds",
                           "embed misses its own isometry gate on a 200-point sphere sample "
                           "(ROADMAP item 4b)")}),
        Command("construct prescribed",
                ["construct", "prescribed", "--n", str(PRESCRIBED[0]), "--p", str(PRESCRIBED[1]),
                 "--seed", str(s), "--output", path("prescribed.csv")],
                [path("prescribed.csv")], check_prescribed),
    ]
    while True:
        yield session


class Workload(NamedTuple):
    requests: Callable  # requests(seed, process, workdir) yields lists of Commands
    env: dict  # extra environment of the worker processes
    # Wall seconds per request on the reference machine (a 2-core Xeon with
    # Python 3.11, numpy 2.4 and OpenBLAS 0.3). A run's request count is
    # --seconds over this figure, so a seed and --seconds always give the
    # same work.
    request_s: float


WORKLOADS = {
    "rado_spectrum": Workload(rado_spectrum, {}, 0.95),
    "ratio_trials": Workload(ratio_trials, {"MMS_SIG_THREADS": str(len(os.sched_getaffinity(0)))}, 1.85),
    "finite_spaces": Workload(finite_spaces, {}, 4.7),
}
