"""Run one workload in this (fresh) process and print one JSON line.

``run.py`` starts this script with ``src`` on PYTHONPATH. Set-up imports
``mmsig.cli``, builds the first request (for finite_spaces that writes the
input files) and serves it once as an untimed warm-up: a fresh process's
first eigensolves pay OpenBLAS's start-up cost, about a second on a
1000-point matrix. ``ready_at`` marks the end of set-up on the system-wide
monotonic clock. The timed phase is a closed loop of ``--requests``
requests: one client sends the next request after the previous one
returns. A fixed count, not a time limit, keeps the work and the count of
known failures the same in every run of a seed. A speed probe times a
fixed loop before each command, off the clock, and each latency is also
given scaled to the reference machine's speed (see ``speed_probe``).
Artifacts are checked between requests, off the clock; the warm-up's are
checked too.

With ``--trace 1`` every other timed request, starting with the first,
runs with the tracer's wrappers installed, so the traced and untraced
latencies of one process give the trace overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback


def blas_facts() -> dict:
    """Version and thread count of the OpenBLAS that numpy loaded, via ctypes."""
    import numpy as np

    facts = {"numpy": np.__version__, "openblas": None, "openblas_threads": None}
    try:
        with open("/proc/self/maps") as fh:
            paths = [line.split()[-1] for line in fh if "openblas" in line.lower()]
    except OSError:
        return facts
    if not paths:
        return facts
    lib = ctypes.CDLL(paths[0])
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if threads is None or config is None:
                continue
            threads.argtypes, threads.restype = [], ctypes.c_int
            config.argtypes, config.restype = [], ctypes.c_char_p
            facts["openblas"] = config().decode()
            facts["openblas_threads"] = threads()
            return facts
    return facts


# Median speed_probe() time on the reference machine (a 2-core Xeon with
# Python 3.11): a scaled latency is in seconds of that machine.
REF_PROBE_S = 0.0045


def speed_probe() -> float:
    """CPU seconds of a fixed pure-Python loop: the machine's speed just now.

    On a shared host the same loop can take 50% longer from one second to
    the next, and whole half-minute runs can sit in the slow or the fast
    state. The loop runs on each usable CPU in turn, three tries of about
    5 ms each; the result is the mean over the CPUs of the median try. It
    counts this thread's CPU time, not wall time, so threads of the program
    that are still busy (OpenBLAS's idle workers spin for a while after a
    call) do not slow the probe down.
    """
    cpus = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            tries = []
            for _ in range(3):
                start = time.thread_time()
                total = 0
                for i in range(50_000):
                    total += i * i
                tries.append(time.thread_time() - start)
            per_cpu.append(statistics.median(tries))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(per_cpu)


def run_cli(cli, argv):
    """One in-process CLI command: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, reported with its traceback
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


class Outcomes:
    """Exit codes, check results and artifact digests of a worker's commands."""

    def __init__(self):
        self.commands = self.failed = 0
        self.problems, self.known, self.first_seen = [], {}, {}

    def record(self, cmd, code, out, err) -> dict:
        """Check one finished command; return its artifacts' sha256 by file name."""
        self.commands += 1
        files = {}
        for path in cmd.outputs:
            with contextlib.suppress(FileNotFoundError), open(path, "rb") as fh:
                files[path] = fh.read()
        digest = {os.path.basename(p): hashlib.sha256(d).hexdigest() for p, d in files.items()}
        if self.first_seen.setdefault((tuple(cmd.argv), code), digest) != digest:
            self.problems.append(f"{cmd.label}: artifacts differ from an identical earlier run")
        if code != 0:
            self.failed += 1
            text, why = cmd.known.get(code, (None, None))
            if text is None or text not in err:
                self.problems.append(f"{cmd.label}: exit {code}: {err.strip()[-300:]}")
                return digest
            entry = self.known.setdefault(cmd.label, {"exit": code, "why": why, "count": 0})
            entry["count"] += 1
            if not files:
                return digest
        try:
            cmd.check(files, out)
        except Exception as exc:  # any malformed artifact fails the check
            self.failed += code == 0
            self.problems.append(f"{cmd.label}: {type(exc).__name__}: {exc}")
        return digest


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--process", type=int, required=True, help="index of this worker in the run")
    parser.add_argument("--requests", type=int, required=True, help="timed requests after the warm-up")
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args()

    import mmsig.cli as cli
    from tracer import Tracer
    from workloads import WORKLOADS

    os.makedirs(args.workdir, exist_ok=True)
    requests = WORKLOADS[args.workload].requests(args.seed, args.process, args.workdir)
    tracer = Tracer("mmsig") if args.trace else None
    outcomes = Outcomes()

    def serve(request):
        """Run one request's commands, each right after a speed probe.

        Returns their results, wall times and wall times scaled to the
        reference machine's speed (REF_PROBE_S over the command's probe).
        """
        for cmd in request:
            for path in cmd.outputs:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
        results, walls, scaled = [], [], []
        for cmd in request:
            probe = speed_probe()
            start = time.perf_counter()
            results.append(run_cli(cli, cmd.argv))
            walls.append(time.perf_counter() - start)
            scaled.append(walls[-1] * REF_PROBE_S / probe)
        return results, walls, scaled

    warm_up = next(requests)
    results, _, _ = serve(warm_up)
    digests = {
        cmd.label: {"argv": cmd.argv, "exit": code, "sha256": outcomes.record(cmd, code, out, err)}
        for cmd, (code, out, err) in zip(warm_up, results)
    }
    ready_at = time.monotonic()

    latencies, scaled_latencies, traced, bytes_written, command_latencies = [], [], [], [], {}
    for i in range(args.requests):
        request = next(requests)
        trace_this = tracer is not None and i % 2 == 0
        if trace_this:
            tracer.install(i)
        results, walls, scaled = serve(request)
        if trace_this:
            tracer.uninstall()
        latencies.append(sum(walls))
        scaled_latencies.append(sum(scaled))
        traced.append(trace_this)

        for cmd, (code, out, err), wall in zip(request, results, walls):
            command_latencies.setdefault(cmd.label, []).append(wall)
            outcomes.record(cmd, code, out, err)
        bytes_written.append(
            sum(os.path.getsize(p) for cmd in request for p in cmd.outputs if os.path.exists(p))
        )

    result = {
        "ready_at": ready_at,
        "latencies": latencies,
        "scaled_latencies": scaled_latencies,
        "command_latencies": command_latencies,
        "commands": outcomes.commands,
        "failed": outcomes.failed,
        "problems": outcomes.problems[:20],
        "known_failures": outcomes.known,
        "digests": digests,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "mmsig": os.path.dirname(cli.__file__),
        **blas_facts(),
    }
    if tracer is not None:
        on = [t for t, flag in zip(latencies, traced) if flag]
        off = [t for t, flag in zip(latencies, traced) if not flag]
        layers = tracer.layer_metrics(len(on))
        layers["trace.overhead_s"] = statistics.median(on) - statistics.median(off)
        layers["trace.requests"] = len(on)
        layers["cli.bytes_written"] = statistics.fmean(
            b for b, flag in zip(bytes_written, traced) if flag
        )
        result["layers"] = layers
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
