"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The smoke test runs each workload untraced with a warm-up and one timed
request per worker, and traced with a warm-up and two timed requests (one
traced, one untraced). It takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import mmsig  # noqa: E402
import mmsig.cli  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced_counters(argv):
    tracer = Tracer("mmsig")
    tracer.install(0)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert mmsig.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    return tracer


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--example", "tripod"], ["rado", "--p", "0.5", "--N", "50"]],
    ids=["analyze-tripod", "rado-N50"],
)
def test_wrappers_reach_every_eigensolve(argv, tmp_path):
    if argv[0] == "rado":
        argv = [*argv, "--output-prefix", str(tmp_path / "rado")]
    tracer = _traced_counters(argv)
    assert tracer.counters["linalg.eig_calls"] == 2
    names = {span[1] for span in tracer.spans}
    assert "cli.main" in names and "linalg._eigenvalues" in names


def test_install_shares_one_wrapper_and_uninstall_restores():
    tracer = Tracer("mmsig")
    before = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in tracer._plan]
    tracer.install(0)
    try:
        assert mmsig.cli.inertia is mmsig.signature.inertia is mmsig.linalg.inertia
        assert mmsig.spectral._eigenvalues is mmsig.linalg._eigenvalues
        assert any(getattr(o, a) is not v for o, a, v in before)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is value for owner, attr, value in before)


def test_self_time_subtracts_children_on_other_threads():
    tracer = Tracer("mmsig")
    tracer.spans = [
        (0, "spectral.rado_ratio_trials", 0.0, 10.0, None),
        (0, "spectral.rado_ratio_experiment", 1.0, 6.0, 0),
        (0, "spectral.rado_ratio_experiment", 2.0, 8.0, 0),
    ]
    layers = tracer.layer_metrics(1)
    assert layers["spectral.self_s"] == pytest.approx(3.0 + 5.0 + 6.0)
    assert layers["spectral.worker_busy_s"] == pytest.approx(11.0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_metrics_are_declared(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
