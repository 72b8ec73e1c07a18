"""Command-line interface.

Subcommands mirror the library one-to-one: analyze, embed, trajectory,
construct, rado. Exit codes: 0 success, 1 numerical-contract failure
(an embedding residual above threshold, or a ``NumericalContractError``),
2 input or validation error, including an option the run would ignore.
Every artifact embeds {seed, tol_rel, version}; identical invocations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
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
from .errors import BadParams, InvalidInput, MmsigError, NumericalContractError
from .linalg import inertia  # noqa: F401  unused; perfbench's tracer test still checks this binding
from .sampling import DiscreteMeasure, load_measure, parse_measure_spec, sample_order
from .signature import (
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
    from_graph,
    named_example,
    read_distance_csv,
    read_edge_list,
    write_distance_csv,
)
from .spectral import (
    delta_ratio,
    esd_and_inertia,
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
    """The space of ``--example`` or ``--input``; an option that the chosen
    source does not read exits 2 rather than being dropped."""
    if args.example and args.input:
        raise InvalidInput("give either --example or --input, not both")
    params = {key: getattr(args, key) for key in ("n", "dim") if getattr(args, key) is not None}
    if args.example:
        if args.input_format is not None:
            raise InvalidInput("--input-format applies to --input, not --example")
        if args.example in ("sphere", "sphere_sqrt"):
            params.setdefault("seed", args.seed or 0)
        return named_example(args.example, **params)
    if args.input:
        if params:
            raise InvalidInput("--n and --dim apply to --example, not --input")
        fmt = args.input_format or "auto"
        if fmt == "auto":
            fmt = "csv" if args.input.endswith(".csv") else "edges"
        if fmt == "csv":
            return read_distance_csv(args.input)
        return from_graph(read_edge_list(args.input))
    raise InvalidInput("need --example or --input")


def _emit(text: str, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _add_space_args(sub):
    sub.add_argument("--example", help="named example space")
    sub.add_argument("--input", help="distance CSV or edge-list file")
    sub.add_argument(
        "--input-format", choices=["auto", "csv", "edges"],
        help="format of --input (default auto: csv for *.csv, else edges)",
    )
    sub.add_argument("--n", type=int, help="point count for sized examples")
    sub.add_argument("--dim", type=int, help="sphere dimension")


def _add_common(sub, output=True):
    if output:
        sub.add_argument("--output", help="output path (default stdout)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--tol", type=float, default=1e-9, help="relative zero tolerance")


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
        header = ",".join(flat.keys())
        row = ",".join(
            repr(v) if isinstance(v, float) else str(v) for v in flat.values()
        )
        _emit(header + "\n" + row, args.output)
    return 0


def cmd_embed(args) -> int:
    space = _load_space(args)
    embedding = mds_embed(space, args.tol)
    residual = verify_isometry(embedding, space, args.tol)
    text = embedding_to_json(embedding, provenance=_provenance(args))
    _emit(text, args.output)
    print(f"max residual: {residual!r}")
    if space.n > 1 and residual > EMBED_RESIDUAL_REL * space.diameter:
        print(
            f"residual exceeds {EMBED_RESIDUAL_REL!r} * diameter", file=sys.stderr
        )
        return 1
    return 0


def _int_arg(text, what):
    try:
        return int(text)
    except ValueError as exc:
        raise InvalidInput(f"{what} must be an integer, got {text!r}") from exc


def _parse_sizes(text, n):
    if not text:
        return None
    parts = [_int_arg(x, "--sizes entry") for x in text.split(":")]
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
        for dest in ("clique", "clique_rule", "model_seed"):
            if getattr(args, dest) is not None:
                raise InvalidInput(f"--{dest.replace('_', '-')} needs --model-p")
        source = _load_space(args)
        n, spec = source.n, args.measure
    else:
        if any(getattr(args, d) is not None for d in ("example", "input", "input_format", "n", "dim")):
            raise InvalidInput(
                "--model-p samples a countable model; drop --example, --input, "
                "--input-format, --n and --dim"
            )
        source = _model_from_args(args, args.model_p)
        n, spec = None, args.measure or DEFAULT_MODEL_MEASURE
    if spec is None:
        if args.m_max is not None:
            raise InvalidInput("--m-max needs --measure: the natural order draws nothing")
        order = np.arange(n)
    else:
        if args.m_max is None:
            raise InvalidInput("a sampled trajectory needs --m-max")
        order = sample_order(_parse_measure(spec, n=n), args.m_max, args.seed)
    traj = limit_signature_trajectory(
        source, order, sizes=_parse_sizes(args.sizes, len(order)), tol_rel=args.tol
    )
    if args.output:
        write_trajectory_csv(traj, args.output, comment=_provenance_comment(args))
    else:
        print("size,s_minus,s_zero,s_plus,theta")
        for size, sm, s0, sp, theta in traj.rows():
            print(f"{size},{sm},{s0},{sp},{theta!r}")
    if traj.stabilized is not None:
        print(
            f"tentative plateau (s_minus, s_plus) = {traj.stabilized} "
            f"over the last {traj.window} steps"
        )
    return 0


# The options each construct kind reads, all of them required.
_CONSTRUCT_OPTIONS = {"prescribed": ("n", "p"), "perturb": ("input",), "union": ("inputs", "h")}


def cmd_construct(args) -> int:
    if not args.output:
        raise InvalidInput("construct needs --output")
    for dest in sum(_CONSTRUCT_OPTIONS.values(), ()):
        reads = dest in _CONSTRUCT_OPTIONS[args.kind]
        if reads != (getattr(args, dest) is not None):
            verb = "needs" if reads else "takes no"
            raise InvalidInput(f"construct {args.kind} {verb} --{dest}")
    if args.kind == "prescribed":
        space = prescribed_signature_space(args.n, args.p, args.seed, args.tol)
    elif args.kind == "perturb":
        space = perturb_to_max_negative(
            read_distance_csv(args.input, strict=True), args.seed, args.tol
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
    """The model of the ``_add_model_args`` options with edge probability p."""
    if args.clique and args.clique_rule:
        raise InvalidInput("give either --clique or --clique-rule, not both")
    clique = args.clique_rule or None
    if args.clique:
        clique = [_int_arg(x, "--clique index") for x in args.clique.split(",") if x.strip()]
    seed = args.model_seed if args.model_seed is not None else args.seed
    return CountableRadoModel(edge_prob=p, seed=seed, planted_clique=clique)


def cmd_rado(args) -> int:
    if args.p is None:
        raise BadParams("rado needs --p, the edge probability")
    model = _model_from_args(args, args.p)
    prefix = args.output_prefix or "rado"
    if args.ratio:
        if args.N is not None:
            raise InvalidInput("--N applies to the spectral run, not --ratio")
        measure = _parse_measure(args.measure or DEFAULT_MODEL_MEASURE)
        if args.m_max is None:
            raise InvalidInput("--ratio needs --m-max")
        if args.min_fraction is not None and args.delta_threshold is None:
            raise InvalidInput("--min-fraction needs --delta-threshold")
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
        with open(f"{prefix}_summary.json", "w") as fh:
            fh.write(summary_to_json(doc) + "\n")
        print(f"wrote {prefix}_ratio.csv and {prefix}_summary.json")
        return 0
    for dest in ("measure", "m_max", "trials", "delta_threshold", "min_fraction"):
        if getattr(args, dest) is not None:
            raise InvalidInput(f"--{dest.replace('_', '-')} applies to --ratio only")
    if args.N is None or args.N < 1:
        raise InvalidInput("the spectral run needs --N >= 1")
    S = model.s_matrix_on(np.arange(args.N))
    e, ine = esd_and_inertia(S, args.tol)
    sigma = 1.5 * math.sqrt(args.p * (1.0 - args.p))
    ks = ks_to_semicircle(e, sigma)
    write_esd_csv(e, f"{prefix}_esd.csv", comment=_provenance_comment(args))
    doc = {
        "N": args.N,
        "edges": int(np.count_nonzero(S == -0.5)) // 2,
        "sigma": sigma,
        "ks_to_semicircle": ks,
        "inertia": list(ine.counts()),
        "delta": delta_ratio(ine),
        **_provenance(args),
        "model": {"p": args.p, "seed": model.seed},
    }
    with open(f"{prefix}_summary.json", "w") as fh:
        fh.write(summary_to_json(doc) + "\n")
    print(f"KS to semicircle: {ks!r}")
    print(f"delta: {doc['delta']!r}")
    return 0


def _add_model_args(sub):
    sub.add_argument("--model-seed", type=int, help="adjacency seed (default --seed)")
    sub.add_argument("--clique", help="comma-separated planted clique indices")
    sub.add_argument("--clique-rule", help="planted clique rule: modular:MOD or quadratic")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmsig",
        description="Signatures of squared-distance matrices: analysis, "
        "embeddings, trajectories, constructions, random-graph experiments.",
    )
    parser.add_argument("--version", action="version", version=f"mmsig {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    # No abbreviations: an undeclared option such as rado's --output must
    # exit 2, not be read as the longer --output-prefix.

    p = subs.add_parser("analyze", help="signatures and embeddability verdict", allow_abbrev=False)
    _add_space_args(p)
    _add_common(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("embed", help="indefinite scaling embedding", allow_abbrev=False)
    _add_space_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_embed)

    p = subs.add_parser("trajectory", help="signatures along nested prefixes", allow_abbrev=False)
    _add_space_args(p)
    _add_common(p)
    p.add_argument("--sizes", help="prefix sizes lo:hi[:step]")
    p.add_argument("--measure", help="sample instead of deterministic nesting")
    p.add_argument("--m-max", type=int, help="draws for --measure or --model-p")
    p.add_argument("--model-p", type=float, help="sample a countable model instead")
    _add_model_args(p)
    p.set_defaults(func=cmd_trajectory)

    p = subs.add_parser(
        "construct", help="build spaces with prescribed signatures", allow_abbrev=False
    )
    p.add_argument("kind", choices=["prescribed", "perturb", "union"])
    p.add_argument("--n", type=int, help="target s_minus for prescribed")
    p.add_argument("--p", type=int, help="target s_plus for prescribed")
    p.add_argument("--input", help="input distance CSV for perturb")
    p.add_argument("--inputs", nargs="+", help="component CSVs for union")
    p.add_argument("--h", type=float, help="cross-component distance for union")
    _add_common(p)
    p.set_defaults(func=cmd_construct)

    p = subs.add_parser(
        "rado", help="random-graph spectra and ratio experiments", allow_abbrev=False
    )
    p.add_argument("--p", type=float, help="edge probability")
    p.add_argument("--N", type=int, help="truncation order for the spectral run")
    _add_model_args(p)
    p.add_argument("--ratio", action="store_true", help="run the ratio experiment")
    p.add_argument("--measure", help="sampling measure for --ratio")
    p.add_argument("--m-max", type=int, help="draws per trial for --ratio")
    p.add_argument("--trials", type=int, help=f"trials for --ratio (default {DEFAULT_TRIALS})")
    p.add_argument(
        "--delta-threshold", type=float,
        help="report the fraction of trials whose ratio reaches this value",
    )
    p.add_argument(
        "--min-fraction", type=float,
        help="with --delta-threshold, add a pass/fail verdict at this fraction",
    )
    p.add_argument("--output-prefix", help="prefix for output files")
    _add_common(p, output=False)
    p.set_defaults(func=cmd_rado)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MmsigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
