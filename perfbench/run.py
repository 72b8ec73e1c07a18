"""mmsig benchmark: time CLI workloads end to end, or per layer with --trace 1.

    python3 perfbench/run.py --workload rado_spectrum --seed 1 --seconds 30 --trace 0

Each workload runs in fresh worker processes (``worker.py``) that call
``mmsig.cli.main(argv)`` in-process from the ``src`` tree next to this
directory; set-up time is measured from each worker's process start. A run
times a fixed number of requests, about ``--seconds`` worth on the
reference machine. The
report goes to stdout. Its last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload in turn and prefixes each metric with
its workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROCESSES = 2
# A run gives up (exit 1, no result) once its workers have taken this long.
DEADLINE_S = 170


def machine_facts() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
    }


def tail(latencies: list) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten requests beyond it.

    Below 21 requests that percentile would fall under the median, so the
    median is reported instead. Returns (percentile, latency).
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 21:
        return 50.0, statistics.median(xs)
    return 100.0 * (n - 10) / n, xs[n - 11]


def spawn(args: list, env: dict, deadline: float) -> tuple[float, dict]:
    """Start a worker; return its start time and its last stdout line as JSON."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=max(deadline - started, 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return started, json.loads(lines[-1])


def request_count(name: str, seconds: float, processes: int) -> int:
    """Timed requests per worker: ``seconds`` of the workload's nominal
    request time, split over the workers."""
    return max(1, round(seconds / WORKLOADS[name].request_s / processes))


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict, deadline: float) -> dict:
    """Run one workload in fresh worker processes and gather its report.

    An untraced run splits its requests over PROCESSES sequential workers
    and pools their latencies. Each worker also gives one sample of set-up
    time.
    A traced run uses one worker, with at least two timed requests: one
    traced and one untraced.
    """
    env = dict(os.environ, **WORKLOADS[name].env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    common = ["--workload", name, "--seed", str(seed), "--workdir", str(workdir)]
    processes = 1 if trace else PROCESSES
    count = max(2, request_count(name, seconds, 1)) if trace else request_count(name, seconds, processes)
    load_start = os.getloadavg()
    setups, runs = [], []
    try:
        for process in range(processes):
            args = [*common, "--process", str(process), "--requests", str(count), "--trace", str(trace)]
            if trace:
                out = ROOT / ".perfbench_out"
                out.mkdir(exist_ok=True)
                args += ["--spans", str(out / f"spans-{name}-seed{seed}.jsonl")]
            started, res = spawn(args, env, deadline)
            shutil.rmtree(workdir, ignore_errors=True)
            if Path(res["mmsig"]).resolve() != (ROOT / "src" / "mmsig").resolve():
                raise RuntimeError(f"benchmarked {res['mmsig']}, not this checkout's src/mmsig")
            setups.append(res["ready_at"] - started)
            runs.append(res)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = [t for res in runs for t in res["latencies"]]
    scaled = [t for res in runs for t in res["scaled_latencies"]]
    commands = sum(res["commands"] for res in runs)
    failed = sum(res["failed"] for res in runs)
    problems = [p for res in runs for p in res["problems"]]
    known, per_command = {}, {}
    for res in runs:
        for label, entry in res["known_failures"].items():
            known.setdefault(label, dict(entry, count=0))["count"] += entry["count"]
        for label, times in res["command_latencies"].items():
            per_command.setdefault(label, []).extend(times)
        for label, first in res["digests"].items():
            ref = runs[0]["digests"].get(label)
            same_call = ref is not None and (ref["argv"], ref["exit"]) == (first["argv"], first["exit"])
            if same_call and ref["sha256"] != first["sha256"]:
                problems.append(f"{label}: artifacts differ between worker processes")
    pct, tail_s = tail(lat)
    _, scaled_tail_s = tail(scaled)
    if trace:
        values = {m["name"]: runs[0]["layers"].get(m["name"], 0.0) for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(scaled) / sum(scaled),
            "op_p50_s": statistics.median(scaled),
            "op_tail_s": scaled_tail_s,
            "peak_rss_mb": statistics.median(res["peak_rss_kb"] for res in runs) / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "processes": len(runs),
        "requests": len(lat),
        "commands": commands,
        "failed": failed,
        "op_fail_share": {"value": failed / commands, "unit": "share"},
        "op_tail_percentile": pct,
        "wall_clock": {
            "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(lat), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
        },
        "latencies_s": lat,
        "scaled_latencies_s": scaled,
        "process_p50_s": [statistics.median(res["latencies"]) for res in runs],
        "command_p50_s": {k: statistics.median(v) for k, v in per_command.items()},
        "setup_samples_s": setups,
        "problems": problems[:20],
        "known_failures": known,
        "artifact_sha256": {k: v["sha256"] for k, v in runs[0]["digests"].items()},
        "machine": {
            **machine_facts(),
            "numpy": runs[0]["numpy"],
            "openblas": runs[0]["openblas"],
            "openblas_threads": runs[0]["openblas_threads"],
            "MMS_SIG_THREADS": env.get("MMS_SIG_THREADS"),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
        },
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mmsig" / "cli.py").is_file():
        print(f"error: no mmsig sources at {ROOT / 'src' / 'mmsig'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all", file=sys.stderr)
        return 2
    chosen = names if args.workload == "all" else [args.workload]
    try:
        deadline = time.monotonic() + DEADLINE_S * len(chosen)
        reports = [run_workload(w, args.seed, args.seconds, args.trace, spec, deadline) for w in chosen]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        print(json.dumps(report, indent=2))
    prefix = len(reports) > 1
    final = {
        "correct": all(not r["problems"] for r in reports),
        "attempted": sum(r["commands"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k): v
            for r in reports
            for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
