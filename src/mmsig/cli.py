"""Command-line interface.

Subcommands mirror the library one-to-one: analyze, embed, trajectory,
construct, rado. Exit codes: 0 success, 1 numerical-contract failure
(an embedding residual above threshold, or a ``NumericalContractError``),
2 input or validation error, including an option the run would ignore.
Every artifact embeds {seed, tol_rel, version}; identical invocations
produce byte-identical files on one numpy/BLAS build at one BLAS thread
count, since an eigensolve's last bits may depend on the thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .constructions import (
    CountableRadoModel,
    perturb_to_max_negative,
    prescribed_signature_space,
    union_space,
)
from .errors import InvalidInput, MmsigError, NumericalContractError
from .linalg import DEFAULT_TOL_REL
from .linalg import inertia  # noqa: F401  unused; perfbench's tracer test still checks this binding
from .sampling import DiscreteMeasure, load_measure, parse_measure_spec, sample_order
from .signature import (
    STABILIZATION_WINDOW,
    classify_embeddability,
    embedding_to_json,
    limit_signature_trajectory,
    mds_embed,
    space_signature,
    centered_signature,
    verify_isometry,
    write_trajectory_csv,
)
from .spaces import (
    _integer,
    _write_csv,
    from_graph,
    named_example,
    read_distance_csv,
    read_edge_list,
    write_distance_csv,
)
from .spectral import (
    _check_thresholds,
    _esd_and_inertia,
    delta_ratio,
    ks_to_semicircle,
    rado_ratio_trials,
    ratio_summary,
    summary_to_json,
    write_esd_csv,
    write_ratio_csv,
)

EMBED_RESIDUAL_REL = 1e-6
DEFAULT_MODEL_MEASURE = "geometric:0.9"
DEFAULT_TRIALS = 20


def _provenance(args) -> dict:
    return {
        "seed": args.seed,
        "tol_rel": args.tol,
        "version": __version__,
    }


def _provenance_comment(args) -> str:
    p = _provenance(args)
    return f"mmsig version={p['version']} seed={p['seed']} tol_rel={p['tol_rel']!r}"


def _load_space(args):
    """The space of ``--example`` or ``--input``."""
    if args.example:
        params = {key: getattr(args, key) for key in ("n", "dim") if getattr(args, key) is not None}
        if args.example in ("sphere", "sphere_sqrt"):
            params["seed"] = args.seed
        return named_example(args.example, **params)
    fmt = args.input_format or "auto"
    if fmt == "auto":
        fmt = "csv" if args.input.endswith(".csv") else "edges"
    if fmt == "csv":
        return read_distance_csv(args.input)
    return from_graph(read_edge_list(args.input))


def _emit(pieces, output):
    """Write ``pieces`` as they come (a ``str`` is one) and a newline to ``output`` or stdout."""
    with open(output, "w") if output else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines([pieces] if isinstance(pieces, str) else pieces)
        fh.write("\n")


def cmd_analyze(args) -> int:
    space = _load_space(args)
    ine_s = space_signature(space, args.tol)
    verdict = classify_embeddability(space, args.tol)
    ine_t = verdict.certificate
    doc = {
        "n": space.n,
        "inertia_S": list(ine_s.counts()),
        "theta_S": ine_s.tol,
        "inertia_T": list(ine_t.counts()),
        "theta_T": ine_t.tol,
        "verdict": verdict.describe(),
        **_provenance(args),
    }
    if args.format == "json":
        _emit(json.dumps(doc, sort_keys=True, indent=2), args.output)
    else:
        flat = dict(doc)
        for key in ("inertia_S", "inertia_T"):
            sm, s0, sp = flat.pop(key)
            flat[f"{key}_minus"], flat[f"{key}_zero"], flat[f"{key}_plus"] = sm, s0, sp
        row = [repr(v) if isinstance(v, float) else str(v) for v in flat.values()]
        _write_csv(args.output, flat.keys(), [row])
    return 0


def cmd_embed(args) -> int:
    space = _load_space(args)
    embedding = mds_embed(space, args.tol)
    residual = verify_isometry(embedding, space)
    _emit(embedding_to_json(embedding, provenance=_provenance(args)), args.output)
    print(f"max residual: {residual!r}")
    if space.n > 1 and residual > EMBED_RESIDUAL_REL * space.diameter:
        print(
            f"residual exceeds {EMBED_RESIDUAL_REL!r} * diameter", file=sys.stderr
        )
        return 1
    return 0


def _parse_sizes(text, n):
    if not text:
        return None
    parts = [_integer(x, "--sizes entry") for x in text.split(":")]
    if len(parts) > 3:
        raise InvalidInput(f"--sizes takes lo:hi[:step], got {text!r}")
    if len(parts) == 1:
        return [parts[0]]
    lo, hi = parts[0], parts[1]
    step = parts[2] if len(parts) > 2 else 1
    if step < 1:
        raise InvalidInput(f"--sizes step must be >= 1, got {step}")
    sizes = list(range(lo, min(hi, n) + 1, step))
    if not sizes:
        raise InvalidInput(f"--sizes {text!r} selects no prefix of the {n} points")
    return sizes


def cmd_trajectory(args) -> int:
    if args.model_p is None:
        source = _load_space(args)
        n, spec = source.n, args.measure
    else:
        source = _model_from_args(args, args.model_p)
        n, spec = None, args.measure or DEFAULT_MODEL_MEASURE
    if not spec:
        order = np.arange(n)
    else:
        order = sample_order(_parse_measure(spec, n=n), args.m_max, args.seed)
    traj = limit_signature_trajectory(
        source, order, sizes=_parse_sizes(args.sizes, len(order)), tol_rel=args.tol
    )
    # to stdout without the provenance comment when there is no --output
    comment = _provenance_comment(args) if args.output else None
    write_trajectory_csv(traj, args.output, comment=comment)
    if traj.stabilized is not None:
        print(
            f"tentative plateau (s_minus, s_plus) = {traj.stabilized} "
            f"over the last {STABILIZATION_WINDOW} steps"
        )
    return 0


def cmd_construct(args) -> int:
    if args.kind == "prescribed":
        space = prescribed_signature_space(args.n, args.p, args.seed, args.tol)
    elif args.kind == "perturb":
        space = perturb_to_max_negative(
            read_distance_csv(args.input), args.seed, args.tol
        )
    else:
        space = union_space([read_distance_csv(p) for p in args.inputs], args.h)
    write_distance_csv(space, args.output, comment=_provenance_comment(args))
    ine = centered_signature(space, args.tol)
    print(f"wrote {space.n}-point space, centered inertia {ine.counts()}")
    return 0


def _parse_measure(spec: str, n=None) -> DiscreteMeasure:
    """A measure JSON file if ``spec`` names one, else a string rule."""
    if os.path.exists(spec):
        return load_measure(spec, n=n)
    return parse_measure_spec(spec, n=n)


def _model_from_args(args, p) -> CountableRadoModel:
    """The model of --model-seed, --clique and --clique-rule with edge probability p."""
    clique = args.clique_rule or None
    if args.clique:
        clique = [_integer(x, "--clique index") for x in args.clique.split(",") if x.strip()]
    seed = args.model_seed if args.model_seed is not None else args.seed
    return CountableRadoModel(edge_prob=p, seed=seed, planted_clique=clique)


def cmd_rado(args) -> int:
    model = _model_from_args(args, args.p)
    prefix = args.output_prefix or "rado"
    if args.ratio:
        _check_thresholds(args.delta_threshold, args.min_fraction)
        measure = _parse_measure(args.measure or DEFAULT_MODEL_MEASURE)
        trajectories = rado_ratio_trials(
            model,
            measure,
            args.m_max,
            trials=DEFAULT_TRIALS if args.trials is None else args.trials,
            seed=args.seed,
            tol_rel=args.tol,
        )
        write_ratio_csv(
            trajectories, f"{prefix}_ratio.csv", comment=_provenance_comment(args)
        )
        doc = ratio_summary(
            trajectories,
            provenance={
                **_provenance(args),
                "m_max": args.m_max,
                "measure": measure.rule or "weights",
                "model": {"p": args.p, "seed": model.seed},
            },
            delta_threshold=args.delta_threshold,
            min_fraction=args.min_fraction,
        )
        _emit(summary_to_json(doc), f"{prefix}_summary.json")
        print(f"wrote {prefix}_ratio.csv and {prefix}_summary.json")
        return 0
    if args.N < 1:
        raise InvalidInput("the spectral run needs --N >= 1")
    S = model.s_matrix_on(np.arange(args.N))
    edges = int(np.count_nonzero(S == -0.5)) // 2
    e, ine = _esd_and_inertia(S, args.tol, overwrite=True)
    sigma = 1.5 * math.sqrt(args.p * (1.0 - args.p))
    ks = ks_to_semicircle(e, sigma)
    write_esd_csv(e, f"{prefix}_esd.csv", comment=_provenance_comment(args))
    doc = {
        "N": args.N,
        "edges": edges,
        "sigma": sigma,
        "ks_to_semicircle": ks,
        "inertia": list(ine.counts()),
        "delta": delta_ratio(ine),
        **_provenance(args),
        "model": {"p": args.p, "seed": model.seed},
    }
    _emit(summary_to_json(doc), f"{prefix}_summary.json")
    print(f"KS to semicircle: {ks!r}")
    print(f"delta: {doc['delta']!r}")
    return 0


# The runs of each subcommand, one row each: (command, run, the options that
# pick the run, the other options it needs, the options it also reads). A
# command runs its first row whose picking options are all given, and
# construct's kind picks its row by name. Every run also reads --seed and
# --tol. ``build_parser`` declares a command's options from its rows, and
# ``_check_options`` holds the options given to the row they pick.
RUNS = (
    ("analyze", "input", ("input",), (), ("input_format", "format", "output")),
    ("analyze", "example", (), ("example",), ("n", "dim", "format", "output")),
    ("embed", "input", ("input",), (), ("input_format", "output")),
    ("embed", "example", (), ("example",), ("n", "dim", "output")),
    ("trajectory", "model", ("model_p",), ("m_max",),
     ("measure", "model_seed", "clique", "clique_rule", "sizes", "output")),
    ("trajectory", "sampled input", ("input", "measure"), ("m_max",),
     ("input_format", "sizes", "output")),
    ("trajectory", "sampled example", ("measure",), ("example", "m_max"),
     ("n", "dim", "sizes", "output")),
    ("trajectory", "input", ("input",), (), ("input_format", "sizes", "output")),
    ("trajectory", "example", (), ("example",), ("n", "dim", "sizes", "output")),
    ("construct", "prescribed", (), ("n", "p", "output"), ()),
    ("construct", "perturb", (), ("input", "output"), ()),
    ("construct", "union", (), ("inputs", "h", "output"), ()),
    ("rado", "ratio", ("ratio",), ("p", "m_max"),
     ("measure", "trials", "delta_threshold", "min_fraction",
      "model_seed", "clique", "clique_rule", "output_prefix")),
    ("rado", "spectral", (), ("p", "N"), ("model_seed", "clique", "clique_rule", "output_prefix")),
)

# Rules between two options on every run that reads the first.
PAIRS = (("clique", "excludes", "clique_rule"), ("min_fraction", "needs", "delta_threshold"))

# The argparse keywords of each option by its dest; a (command, dest) key
# overrides them for one command.
OPTIONS = {
    "example": dict(help="named example space"),
    "input": dict(help="distance CSV or edge-list file"),
    "input_format": dict(
        choices=["auto", "csv", "edges"],
        help="format of --input (default auto: csv for *.csv, else edges)",
    ),
    "n": dict(type=int, help="point count of a sized example; construct prescribed: s_minus"),
    "dim": dict(type=int, help="sphere dimension"),
    "format": dict(choices=["json", "csv"], default="json"),
    "output": dict(help="output path (default stdout)"),
    "sizes": dict(help="prefix sizes lo:hi[:step]"),
    "measure": dict(help="sampling measure: a rule or a measure JSON file"),
    "m_max": dict(type=int, help="draws of a sampled trajectory or of each --ratio trial"),
    "model_p": dict(type=float, help="sample a countable model instead"),
    "model_seed": dict(type=int, help="adjacency seed (default --seed)"),
    "clique": dict(help="comma-separated planted clique indices"),
    "clique_rule": dict(help="planted clique rule: modular:MOD or quadratic"),
    "p": dict(type=float, help="edge probability"),
    ("construct", "p"): dict(type=int, help="target s_plus for prescribed"),
    "inputs": dict(nargs="+", help="component CSVs for union"),
    "h": dict(type=float, help="cross-component distance for union"),
    "N": dict(type=int, help="truncation order for the spectral run"),
    "ratio": dict(action="store_true", help="run the ratio experiment"),
    "trials": dict(type=int, help=f"trials for --ratio (default {DEFAULT_TRIALS})"),
    "delta_threshold": dict(type=float, help="report the fraction of trials reaching this ratio"),
    "min_fraction": dict(type=float, help="add a pass/fail verdict: that fraction >= this value"),
    "output_prefix": dict(help="prefix for output files"),
    "seed": dict(type=int, default=0),
    "tol": dict(type=float, default=DEFAULT_TOL_REL, help="relative zero tolerance"),
}

# The help text of each subcommand; ``main`` runs ``cmd_<command>``.
COMMANDS = {
    "analyze": "signatures and embeddability verdict",
    "embed": "indefinite scaling embedding",
    "trajectory": "signatures along nested prefixes",
    "construct": "build spaces with prescribed signatures",
    "rado": "random-graph spectra and ratio experiments",
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _declared(command: str) -> list:
    """The options of ``command`` by dest: those of its rows, then seed and tol."""
    dests = [dest for row in RUNS if row[0] == command for dest in (*row[2], *row[3], *row[4])]
    return list(dict.fromkeys([*dests, "seed", "tol"]))


def _check_options(args) -> None:
    """Raise ``InvalidInput`` for an option that the run picked by ``args``
    needs and lacks or would not read, and for a broken ``PAIRS`` rule."""
    # None, a store_true's False and an empty string are not given; 0 is
    given = {
        dest for dest, value in vars(args).items()
        if value is not None and value is not False and value != ""
    }
    command, run, picks, needs, reads = next(
        row for row in RUNS
        if row[0] == args.command and getattr(args, "kind", row[1]) == row[1]
        and given.issuperset(row[2])
    )
    for dest in needs:
        if dest not in given:
            raise InvalidInput(f"{command} {run} needs {_flag(dest)}")
    for dest in _declared(command):
        if dest in given and dest not in (*picks, *needs, *reads, "seed", "tol"):
            raise InvalidInput(f"{command} {run} takes no {_flag(dest)}")
    for first, verb, second in PAIRS:
        if first in given and (second in given) == (verb == "excludes"):
            raise InvalidInput(f"{_flag(first)} {verb} {_flag(second)}")


@functools.cache  # built once per process: parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmsig",
        description="Signatures of squared-distance matrices: analysis, "
        "embeddings, trajectories, constructions, random-graph experiments.",
    )
    parser.add_argument("--version", action="version", version=f"mmsig {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, text in COMMANDS.items():
        # No abbreviations: an undeclared option such as rado's --output must
        # exit 2, not be read as the longer --output-prefix.
        sub = subs.add_parser(command, help=text, allow_abbrev=False)
        if command == "construct":
            sub.add_argument("kind", choices=[row[1] for row in RUNS if row[0] == command])
        for dest in _declared(command):
            sub.add_argument(_flag(dest), **OPTIONS.get((command, dest), OPTIONS[dest]))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_options(args)
        # looked up per call, so that a function rebound over it is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except NumericalContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MmsigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
