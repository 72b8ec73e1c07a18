"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces the functions of each mmsig module at every
place they are bound: ``from .linalg import inertia`` leaves a copy in each
importing module, and the package ``__init__`` re-exports most of them, so
each binding whose value *is* the original function gets the same wrapper.
``uninstall`` puts the originals back. Spans stay in memory; ``layer_metrics``
turns them into the per-layer figures once the run is over.

A span stack is kept per thread. A span that opens on an otherwise empty
stack of another thread (a pool worker) takes the request thread's current
span as its parent, so a parent's self time is its duration minus the union
of the intervals its children cover, wherever they ran.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("linalg", "spaces", "sampling", "signature", "constructions", "spectral", "cli")

# Private functions that carry a layer's work and are wrapped along with the
# public ones.
PRIVATE = {
    "linalg": ("_eigenvalues",),
    "spaces": ("_check_triangle",),
    "cli": ("_load_space", "_emit"),
}

# Methods are wrapped on their class, which every caller shares.
METHODS = {
    "constructions": {
        "CountableRadoModel": ("adjacency_block", "s_matrix_on", "metric_on", "_clique_flags"),
    },
}

EIGENSOLVES = {"linalg._eigenvalues", "linalg.eig_sym"}
IO_SPANS = {
    "cli._emit",
    "spaces.write_distance_csv",
    "signature.embedding_to_json",
    "signature.write_trajectory_csv",
    "spectral.write_esd_csv",
    "spectral.write_ratio_csv",
    "spectral.summary_to_json",
}


def _order(a) -> int:
    shape = getattr(a, "shape", None)
    return int(shape[0]) if shape else len(a)


def _count(name, args, result, counters):
    """Counts derived from a call's arguments and result (array sizes)."""
    if name in EIGENSOLVES:
        n = _order(args[0])
        counters["linalg.eig_calls"] += 1
        counters["linalg.eig_work_n3"] += n**3
        counters["linalg.eig_order_max"] = max(counters["linalg.eig_order_max"], n)
    elif name == "spaces._check_triangle":
        n = _order(args[0])
        if n >= 3:
            counters["spaces.triangle_scans"] += 1
            counters["spaces.triangle_work_n3"] += n**3
    elif name == "spaces.squared_intervals":
        pts = args[0].points
        counters["signature.interval_bytes"] += 8 * pts.shape[0] ** 2 * pts.shape[1]
    elif name == "constructions.er_adjacency":
        counters["constructions.graph_edges"] += len(result.edges)
    elif name == "constructions.CountableRadoModel.adjacency_block":
        n = _order(args[1])
        counters["constructions.pairs_hashed"] += n * (n - 1) // 2
    elif name == "constructions.CountableRadoModel._clique_flags":
        counters["constructions.clique_checks"] += _order(args[1])
    elif name in ("constructions.CountableRadoModel.s_matrix_on", "constructions.rado_s_matrix"):
        counters["constructions.s_builds"] += 1
    elif name == "sampling.gv_sample":
        counters["sampling.draws"] += int(result.m)
        counters["sampling.distinct"] += int(result.dedup.size)
    elif name == "signature.limit_signature_trajectory":
        counters["signature.prefix_steps"] += len(result.sizes)
    elif name == "spectral.rado_ratio_experiment":
        counters["spectral.trials"] += 1
        counters["spectral.checkpoints"] += len(result.m_values)


class Tracer:
    """Wraps mmsig's functions and records one span per call."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # (request, name, start, end, parent index)
        self.counters = defaultdict(int)
        self.request = None
        self._local = threading.local()
        self._request_stack = []
        self._lock = threading.Lock()
        self._patches = []  # (owner, attribute, original)
        self._plan = self._find_targets()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _find_targets(self):
        """(owner, attribute, original, span name) for every binding."""
        modules = [
            m
            for name, m in sys.modules.items()
            if m is not None and (name == self.package or name.startswith(self.package + "."))
        ]
        plan = []
        for layer in LAYERS:
            mod = sys.modules[f"{self.package}.{layer}"]
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                for owner in modules:
                    for bound, value in vars(owner).items():
                        if value is obj:
                            plan.append((owner, bound, obj, f"{layer}.{attr}"))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    plan.append((cls, meth, vars(cls)[meth], f"{layer}.{cls_name}.{meth}"))
        return plan

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # A pool thread's first span hangs under the request thread's
            # open span; a one-item slice reads that stack atomically.
            top = stack[-1:] or tracer._request_stack[-1:]
            parent = top[0] if top else None
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (tracer.request, name, start, end, parent)
            with tracer._lock:
                _count(name, args, result, tracer.counters)
            return result

        return wrapper

    def install(self, request):
        """Wrap every target; spans recorded until ``uninstall`` carry ``request``."""
        self.request = request
        self._request_stack = self._stack()
        wrappers = {}
        for owner, attr, original, name in self._plan:
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(original, name)
            setattr(owner, attr, wrappers[id(original)])
            self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        """Write the spans as JSON lines: request, name, start, end, parent."""
        with open(path, "w") as fh:
            for request, name, start, end, parent in self.spans:
                fh.write(json.dumps([request, name, start, end, parent]) + "\n")

    def layer_metrics(self, requests: int) -> dict:
        """Per-request layer figures over ``requests`` traced requests."""
        children = defaultdict(list)
        for index, (_, _, start, end, parent) in enumerate(self.spans):
            if parent is not None:
                children[parent].append((start, end))
        totals = defaultdict(float)
        for index, (_, name, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            own = (end - start) - covered
            layer = name.split(".", 1)[0]
            totals[f"{layer}.self_s"] += own
            if name in EIGENSOLVES:
                totals["linalg.eig_s"] += own
            elif name == "linalg.as_sym_matrix":
                totals["linalg.validate_s"] += end - start
            elif name == "spaces.from_distance_matrix":
                totals["spaces.validate_s"] += end - start
            elif name in ("spaces.read_distance_csv", "spaces.read_edge_list"):
                totals["spaces.parse_s"] += own
            elif name == "spaces.from_graph":
                totals["spaces.hop_metric_s"] += own
            elif name == "signature.mds_embed":
                totals["signature.embed_s"] += end - start
            elif name == "spectral.rado_ratio_experiment":
                totals["spectral.worker_busy_s"] += end - start
            elif name.startswith("cli.cmd_"):
                totals[f"{name}_s"] += end - start
            if name in IO_SPANS:
                totals["cli.io_s"] += end - start
        counters = dict(self.counters)
        draws = counters.pop("sampling.draws", 0)
        distinct = counters.pop("sampling.distinct", 0)
        order_max = counters.pop("linalg.eig_order_max", 0)
        out = {key: value / requests for key, value in totals.items()}
        out.update({key: value / requests for key, value in counters.items()})
        out["sampling.draws"] = draws / requests
        out["sampling.distinct_per_draw"] = distinct / draws if draws else 0.0
        out["linalg.eig_order_max"] = order_max
        out["trace.spans"] = len(self.spans) / requests
        return out
