import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mmsig import cli, linalg, sampling, spaces, spectral
from mmsig.cli import main
from mmsig.constructions import CountableRadoModel
from mmsig.errors import EpsilonUnderflow, MonotonicityViolation, NoConvergence
from mmsig.sampling import DiscreteMeasure, sample_order
from mmsig.signature import embedding_to_json, mds_embed
from mmsig.spaces import (
    from_distance_matrix, from_euclidean_points, named_example, read_distance_csv,
    write_distance_csv,
)

from util_oracles import first_appearances_by_unique, raw_draws


SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv):
    return main([str(a) for a in argv])


def test_the_parser_is_built_once_per_process(tmp_path, monkeypatch):
    # two main calls parse with one ArgumentParser tree
    parsers, built = [], []
    parse_args, init = argparse.ArgumentParser.parse_args, argparse.ArgumentParser.__init__

    def spy_parse(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    def spy_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy_parse)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy_init)
    for _ in range(2):
        assert run(["analyze", "--example", "tripod", "--output", tmp_path / "a.json"]) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    assert len(built) <= 1 + len(cli.COMMANDS)  # the top parser and one per command, or none


def test_main_runs_the_command_function_bound_at_call_time(monkeypatch):
    # the parser is cached, so a wrapper bound after it was built must still run
    cli.build_parser()
    calls, real = [], cli.cmd_analyze
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: calls.append(args.example) or real(args))
    assert main(["analyze", "--example", "tripod"]) == 0
    assert calls == ["tripod"]


class TestAnalyze:
    def test_tripod_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["analyze", "--example", "tripod", "--output", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["inertia_S"] == [1, 0, 3]
        assert doc["verdict"] == "pseudo(1, 2)"
        assert doc["version"] and "tol_rel" in doc and "seed" in doc

    def test_simplex_csv_format(self, capsys):
        assert run(["analyze", "--example", "simplex", "--n", 5, "--format", "csv"]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["inertia_S_minus"] == "1" and cells["inertia_S_plus"] == "4"
        assert cells["verdict"] == "euclidean(4)"

    def test_csv_verdict_is_one_field(self, tmp_path, capsys):
        # a row joined by hand split "pseudo(1, 2)" into two fields
        assert run(["analyze", "--example", "tripod", "--format", "csv"]) == 0
        text = capsys.readouterr().out
        header, row = csv.reader(io.StringIO(text))
        assert len(header) == len(row) == 13
        assert dict(zip(header, row))["verdict"] == "pseudo(1, 2)"
        out = tmp_path / "report.csv"
        assert run(["analyze", "--example", "tripod", "--format", "csv", "--output", out]) == 0
        assert out.read_bytes() == text.replace("\n", "\r\n").encode()

    def test_triangle_violation_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n0,1,5\n1,0,1\n5,1,0\n")
        assert run(["analyze", "--input", bad]) == 2
        err = capsys.readouterr().err
        assert "exceeds" in err  # witness triple reported

    @pytest.mark.parametrize(
        "rows, err",
        [
            ("0,1\n2,0\n", "error: d(0,1) = 1.0 but d(1,0) = 2.0\n"),
            ("0,-1\n-1,0\n", "error: d(0,1) = -1.0 < 0\n"),
            ("0,1\n1,0.5\n", "error: d(1,1) = 0.5 != 0\n"),
        ],
        ids=["asymmetric", "negative", "nonzero-diagonal"],
    )
    def test_entry_errors_print_plain_numbers(self, rows, err, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n" + rows)
        assert run(["analyze", "--input", bad]) == 2
        assert capsys.readouterr().err == err

    def test_edge_list_input(self, tmp_path):
        path = tmp_path / "cycle.edges"
        path.write_text("0 1\n1 2\n2 3\n0 3\n")
        assert run(["analyze", "--input", path]) == 0

    def test_missing_input_exits_2(self):
        assert run(["analyze"]) == 2
        assert run(["analyze", "--input", "/nonexistent/file.csv"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--example", "tripod", "--n", 7, "--dim", 3],
            ["--example", "tripod", "--n", 7],
            ["--example", "simplex", "--n", 4, "--dim", 2],
            ["--example", "tripod", "--input-format", "edges"],
            ["--example", "tripod", "--input", "tripod.csv"],
            ["--input", "tripod.csv", "--n", 4],
        ],
        ids=["fixed-size-n-dim", "fixed-size-n", "simplex-dim", "input-format", "both-sources",
             "input-n"],
    )
    def test_options_the_space_ignores_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_distance_csv(named_example("tripod"), "tripod.csv")
        assert run(["analyze", *argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_seed_is_taken_mod_2_64(self, tmp_path):
        # Philox rejected a negative seed with an uncaught ValueError (exit 1)
        reports = []
        for seed in (-1, 2**64 - 1):
            out = tmp_path / f"seed{seed}.json"
            argv = ["analyze", "--example", "sphere", "--dim", 2, "--n", 5, "--seed", seed]
            assert run([*argv, "--output", out]) == 0
            doc = json.loads(out.read_text())
            assert doc.pop("seed") == seed
            reports.append(doc)
        assert reports[0] == reports[1]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["analyze", "--example", "sphere", "--dim", 2, "--n", 9, "--seed", 3, "--output", a])
        run(["analyze", "--example", "sphere", "--dim", 2, "--n", 9, "--seed", 3, "--output", b])
        assert a.read_bytes() == b.read_bytes()


class TestEmbed:
    def test_tripod(self, tmp_path, capsys):
        out = tmp_path / "emb.json"
        assert run(["embed", "--example", "tripod", "--output", out]) == 0
        doc = json.loads(out.read_text())
        assert (doc["n_neg"], doc["n_pos"]) == (1, 2)
        assert "max residual" in capsys.readouterr().out

    def test_unit_square_csv_input(self, tmp_path):
        from mmsig.spaces import from_euclidean_points

        sp = from_euclidean_points([[0, 0], [1, 0], [1, 1], [0, 1]])
        src = tmp_path / "square.csv"
        write_distance_csv(sp, src)
        out = tmp_path / "emb.json"
        assert run(["embed", "--input", src, "--output", out]) == 0
        doc = json.loads(out.read_text())
        assert (doc["n_neg"], doc["n_pos"]) == (0, 2)

    def test_single_point(self, tmp_path):
        src = tmp_path / "one.csv"
        src.write_text("p0\n0.0\n")
        out = tmp_path / "emb.json"
        assert run(["embed", "--input", src, "--output", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["points"] == [[]]

    def test_zero_tolerance_keeps_near_coincident_points(self, tmp_path):
        # the interval of points 0 and 1 rounds to -1.66e-15, inside the cone
        # check's slack; a second check at the band tol * n * max = 0 exited 2
        rng = np.random.default_rng(18)
        P = rng.normal(size=(6, 2))
        P[1] = P[0] + 1e-7 * rng.normal(size=2)
        src = tmp_path / "near.csv"
        write_distance_csv(from_euclidean_points(P), src)
        assert run(["embed", "--input", src, "--tol", 0, "--output", tmp_path / "emb.json"]) == 0

    def test_intervals_are_computed_once(self, tmp_path, monkeypatch):
        # the cone check at construction and the isometry check share one
        # matrix of squared intervals: a positive and a negative part
        calls = []
        real = spaces._pairwise_sq_diffs
        monkeypatch.setattr(spaces, "_pairwise_sq_diffs", lambda P: calls.append(P) or real(P))
        assert run(["embed", "--example", "tripod", "--output", tmp_path / "emb.json"]) == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("case", ["tripod", "one-point", "gate-failure"])
    def test_stdout_gets_the_bytes_of_the_file(self, case, tmp_path, capsys, monkeypatch):
        # the document is written a row at a time, to a file or to stdout;
        # a failed gate exits 1 after the document is written
        argv, code = ["embed", "--example", "tripod"], 0
        if case == "one-point":
            src = tmp_path / "one.csv"
            src.write_text("p0\n0.0\n")
            argv = ["embed", "--input", src]
        elif case == "gate-failure":
            monkeypatch.setattr(cli, "EMBED_RESIDUAL_REL", 0.0)
            code = 1
        out = tmp_path / "emb.json"
        assert run([*argv, "--output", out]) == code
        residual = capsys.readouterr().out
        assert residual.startswith("max residual: ") and residual.count("\n") == 1
        assert run(argv) == code
        assert capsys.readouterr().out == out.read_bytes().decode() + residual

    def test_the_document_is_written_a_row_at_a_time(self, tmp_path):
        # a 300-point {1, 2} embedding took a 9.89 MB tracemalloc peak: four
        # copies of its 2.47 MB document
        upper = np.triu(np.random.default_rng(8).random((300, 300)) < 0.5, k=1)
        one_two = np.where(upper | upper.T, 1.0, 2.0)
        np.fill_diagonal(one_two, 0.0)
        embedding = mds_embed(from_distance_matrix(one_two))
        out = tmp_path / "emb.json"
        tracemalloc.start()
        try:
            cli._emit(embedding_to_json(embedding, {"seed": 5}), out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert json.loads(out.read_bytes())["points"] == embedding.points.tolist()
        assert peak < 1_000_000


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--example", "tripod"],
        ["trajectory", "--example", "simplex", "--n", 5],
        ["rado", "--p", 0.5, "--N", 3],
        ["embed", "--example", "tripod"],
    ],
    ids=["analyze", "trajectory", "rado", "embed"],
)
def test_tolerance_must_be_finite_and_nonnegative(argv, tol, tmp_path, monkeypatch, capsys):
    # NaN and inf counted every eigenvalue as zero and exited 0
    monkeypatch.chdir(tmp_path)
    assert run(argv + [f"--tol={tol}"]) == 2
    assert "tol_rel must be finite and nonnegative" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class TestTrajectory:
    def test_deterministic(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert run(
            ["trajectory", "--example", "simplex", "--n", 8, "--sizes", "2:8", "--output", out]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "size,s_minus,s_zero,s_plus,theta"
        last = lines[-1].split(",")
        assert last[0] == "8" and last[3] == "7"

    def test_stdout_table_is_the_file_without_its_comment(self, tmp_path, capsys):
        argv = ["trajectory", "--example", "tripod_extended", "--n", 12, "--sizes", "2:12"]
        out = tmp_path / "traj.csv"
        assert run([*argv, "--output", out]) == 0
        capsys.readouterr()
        assert run(argv) == 0
        comment, table = out.read_text().split("\n", 1)  # read_text turns CRLF into \n
        assert comment.startswith("# mmsig version=")
        assert capsys.readouterr().out == table

    def test_tiny_distances_count_as_at_scale_one(self, tmp_path):
        # at 1e-160 the squares are subnormal: no |lambda|^-2 may overflow,
        # and a re-anchor whose inverse is singular in floating point is skipped
        tripod = named_example("tripod_extended", n=30)
        counts = []
        for scale in (1.0, 1e-160):
            src, out = tmp_path / f"tripod_{scale}.csv", tmp_path / f"traj_{scale}.csv"
            write_distance_csv(spaces.from_distance_matrix(tripod.dist * scale), src)
            assert run(["trajectory", "--input", src, "--output", out]) == 0
            rows = list(csv.reader(out.read_text().splitlines()[2:]))
            counts.append([row[:4] for row in rows])
        assert counts[0] == counts[1] and len(counts[0]) == 30

    def test_sampled(self, capsys):
        assert run(
            ["trajectory", "--example", "tripod", "--measure", "uniform", "--m-max", 80, "--seed", 2]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("size,")

    def test_model_sampled(self, tmp_path):
        out = tmp_path / "model_traj.csv"
        assert run(
            [
                "trajectory", "--model-p", 0.5, "--model-seed", 9,
                "--measure", "geometric:0.8", "--m-max", 120, "--seed", 2,
                "--output", out,
            ]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "size,s_minus,s_zero,s_plus,theta"
        assert len(lines) > 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["--model-p", 0.5, "--m-max", 100],
            ["--example", "tripod_extended", "--n", 10, "--measure", "uniform", "--m-max", 50],
        ],
        ids=["model", "space-sampled"],
    )
    def test_sizes_on_sampled_sources(self, argv, capsys):
        assert run(["trajectory", *argv, "--sizes", "1:3"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1", "2", "3"]

    def test_sizes_clipped_to_distinct_draws(self, capsys):
        distinct = sample_order(DiscreteMeasure.geometric(0.9), 100, seed=0).size
        assert run(["trajectory", "--model-p", 0.5, "--m-max", 100, "--sizes", "5:3000"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()[1:] if line[0].isdigit()]
        assert [int(row.split(",")[0]) for row in rows] == list(range(5, distinct + 1))

    def test_sizes_with_gaps(self, capsys):
        argv = ["trajectory", "--example", "tripod_extended", "--n", 60, "--sizes", "1:60:7"]
        assert run(argv) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(1, 61, 7))
        assert [int(r[3]) for r in rows[1:]] == [k - 2 for k in range(8, 61, 7)]

    def test_model_trajectory_borders_its_prefixes(self, tmp_path, monkeypatch):
        # about 400 prefixes; one eigensolve for the band, the rest only where
        # a bordered step fails its certificate
        orders = []
        real = linalg._eigenvalues
        monkeypatch.setattr(linalg, "_eigenvalues", lambda a, **kw: orders.append(len(a)) or real(a, **kw))
        out = tmp_path / "traj.csv"
        argv = ["trajectory", "--model-p", 0.5, "--measure", "geometric:0.99", "--m-max", 3000,
                "--seed", 5, "--output", out]
        assert run(argv) == 0
        rows = out.read_text().strip().splitlines()[2:]
        assert len(rows) > 350
        assert len(orders) < 60
        assert len({row.split(",")[4] for row in rows}) == 1  # one theta per family

    def test_model_trajectory_borders_across_sizes_with_gaps(self, tmp_path, monkeypatch):
        # every second prefix of about 400: the gaps of 2 are bordered too;
        # eigenvalues alone are solved only where a step does not keep its
        # complement's eigenvectors for an inverse
        orders = []
        real = linalg._eigenvalues

        def counted(a, **kw):
            if not kw.get("vectors"):
                orders.append(len(a))
            return real(a, **kw)

        monkeypatch.setattr(linalg, "_eigenvalues", counted)
        out = tmp_path / "traj.csv"
        argv = ["trajectory", "--model-p", 0.5, "--measure", "geometric:0.99", "--m-max", 3000,
                "--seed", 5, "--sizes", "1:3000:2", "--output", out]
        assert run(argv) == 0
        rows = out.read_text().strip().splitlines()[2:]
        N = 2 * len(rows) - 1  # the sizes are 1, 3, ..., N
        assert int(rows[-1].split(",")[0]) == N > 350
        assert len(orders) < N / 5

    def test_sample_outside_the_space_exits_2(self, capsys):
        argv = ["trajectory", "--example", "tripod", "--measure", "geometric:0.5", "--m-max", 50]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--example", "simplex", "--n", 8],
            ["--example", "tripod", "--measure", "uniform", "--m-max", 80],
            ["--model-p", 0.5, "--m-max", 100],
        ],
        ids=["space", "space-sampled", "model"],
    )
    def test_one_trajectory_call_per_source(self, argv, monkeypatch, capsys):
        calls = []
        real = cli.limit_signature_trajectory

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "limit_signature_trajectory", counted)
        assert run(["trajectory", *argv]) == 0
        assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--model-p", 0.5, "--m-max", 30, "--input", "nofile.csv"],
        ["--model-p", 0.5, "--m-max", 30, "--example", "tripod"],
        ["--example", "tripod", "--clique", "1,2"],
        ["--example", "tripod", "--clique-rule", "quadratic"],
        ["--example", "tripod", "--model-seed", 3],
        ["--example", "simplex", "--n", 4, "--m-max", 50],
        ["--model-p", 0.5, "--m-max", 30, "--n", 5],
    ],
    ids=["model-input", "model-example", "clique", "clique-rule", "model-seed",
         "natural-order-m-max", "model-n"],
)
def test_trajectory_options_its_source_ignores_exit_2(argv, capsys):
    assert run(["trajectory", *argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["embed", "--example", "tripod", "--format", "csv"],
        ["trajectory", "--example", "tripod", "--format", "csv"],
        ["construct", "prescribed", "--n", 2, "--p", 2, "--format", "csv"],
        ["rado", "--p", 0.5, "--N", 5, "--format", "csv"],
        ["rado", "--p", 0.5, "--N", 5, "--output", "x.json"],
    ],
    ids=["embed-format", "trajectory-format", "construct-format", "rado-format", "rado-output"],
)
def test_removed_options_exit_2(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


class TestConstruct:
    def test_prescribed_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "space.csv"
        assert run(
            ["construct", "prescribed", "--n", 2, "--p", 2, "--seed", 6, "--output", out]
        ) == 0
        assert "centered inertia (2, 1, 2)" in capsys.readouterr().out
        sp = read_distance_csv(out)
        assert sp.n == 5

    def test_perturb(self, tmp_path):
        from mmsig.spaces import from_euclidean_points

        rng = np.random.default_rng(3)
        pts = rng.normal(size=(5, 2))
        src = tmp_path / "in.csv"
        write_distance_csv(from_euclidean_points(pts), src)
        out = tmp_path / "out.csv"
        assert run(["construct", "perturb", "--input", src, "--seed", 1, "--output", out]) == 0

    def test_perturb_of_collinear_points_exits_2(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("a,b,c\n0,1,2\n1,0,1\n2,1,0\n")
        out = tmp_path / "out.csv"
        assert run(["construct", "perturb", "--input", src, "--seed", 1, "--output", out]) == 2
        assert "strict triangle inequality" in capsys.readouterr().err
        assert not out.exists()

    def test_union(self, tmp_path):
        a = tmp_path / "a.csv"
        write_distance_csv(named_example("tripod"), a)
        out = tmp_path / "u.csv"
        assert run(
            ["construct", "union", "--inputs", a, a, "--h", 1.0, "--output", out]
        ) == 0
        assert read_distance_csv(out).n == 8

    def test_missing_output_exits_2_before_building(self, monkeypatch):
        def build(*args, **kwargs):
            pytest.fail("construct built a space without --output")

        monkeypatch.setattr("mmsig.cli.prescribed_signature_space", build)
        assert run(["construct", "prescribed", "--n", 40, "--p", 20]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["prescribed", "--n", 2, "--p", 2, "--h", 1.0],
            ["prescribed", "--n", 2, "--p", 2, "--inputs", "x.csv", "y.csv"],
            ["prescribed", "--n", 2, "--p", 2, "--input", "z.csv"],
            ["perturb", "--input", "z.csv", "--n", 2],
            ["perturb", "--input", "z.csv", "--h", 1.0],
            ["union", "--inputs", "x.csv", "y.csv", "--h", 1.0, "--p", 2],
            ["union", "--inputs", "x.csv", "y.csv", "--h", 1.0, "--input", "z.csv"],
            ["prescribed", "--n", 2],
            ["union", "--inputs", "x.csv", "y.csv"],
        ],
        ids=["prescribed-h", "prescribed-inputs", "prescribed-input", "perturb-n",
             "perturb-h", "union-p", "union-input", "prescribed-no-p", "union-no-h"],
    )
    def test_options_the_kind_ignores_or_lacks_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        def build(*args, **kwargs):
            pytest.fail("construct built a space with a wrong set of options")

        for name in ("prescribed_signature_space", "perturb_to_max_negative", "union_space",
                     "read_distance_csv"):
            monkeypatch.setattr(cli, name, build)
        out = tmp_path / "c.csv"
        assert run(["construct", *argv, "--output", out]) == 2
        assert capsys.readouterr().err.startswith("error: construct ")
        assert not out.exists()

    @pytest.mark.parametrize("h", ["nan", "inf"])
    @pytest.mark.parametrize("components", [1, 2])
    def test_non_finite_h_exits_2(self, h, components, tmp_path, capsys):
        # one component was written back with exit 0; with two, the error
        # blamed the distance matrix for its non-finite entries
        a = tmp_path / "a.csv"
        write_distance_csv(named_example("tripod"), a)
        out = tmp_path / "u.csv"
        assert run(["construct", "union", "--inputs", *[a] * components, "--h", h, "--output", out]) == 2
        assert f"cross distance h must be positive and finite, got {h}" in capsys.readouterr().err
        assert not out.exists()

    def test_union_diameter_guard_exits_2(self, tmp_path):
        a = tmp_path / "a.csv"
        write_distance_csv(named_example("tripod"), a)
        assert run(
            ["construct", "union", "--inputs", a, a, "--h", 0.5, "--output", tmp_path / "u.csv"]
        ) == 2


def _record_eigensolves(monkeypatch):
    """The orders of the matrices eigensolved through ``linalg._eigenvalues``,
    at its binding in ``linalg`` and at the one ``spectral`` imports."""
    orders = []
    real = linalg._eigenvalues
    for module in (linalg, spectral):
        monkeypatch.setattr(module, "_eigenvalues", lambda a, **kw: orders.append(len(a)) or real(a, **kw))
    return orders


class TestRado:
    def test_spectral_run_eigensolves_once(self, tmp_path, monkeypatch):
        # the ESD and the inertia both come from the one spectrum of S
        orders = _record_eigensolves(monkeypatch)
        prefix = tmp_path / "run"
        assert run(["rado", "--p", 0.5, "--N", 120, "--output-prefix", prefix]) == 0
        assert orders == [120]
        S = CountableRadoModel(edge_prob=0.5, seed=0).s_matrix_on(np.arange(120))
        doc = json.loads((tmp_path / "run_summary.json").read_text())
        assert doc["inertia"] == list(linalg.inertia(S).counts())
        rows = (tmp_path / "run_esd.csv").read_text().strip().splitlines()[2:]
        values = np.array([float(row.split(",")[1]) for row in rows])
        assert values.tobytes() == np.sort(np.linalg.eigvalsh(S) / np.sqrt(120)).tobytes()

    def test_spectral_run_holds_one_matrix(self, tmp_path):
        # In a fresh process, after a warm-up run, the run of order N raises
        # the peak RSS by about 1.26 x 8 N^2 bytes: S, solved on its own
        # buffer, and temporaries of a byte per entry. A copy into eigvalsh
        # or a float temporary of S's size adds another 8 N^2 (2.17 x). The
        # peak is the process's VmHWM: ru_maxrss starts from the RSS of the
        # process that forked it, this test run's.
        if not Path("/proc/self/status").exists():
            pytest.skip("no /proc/self/status to read the peak RSS from")
        N = 1500
        code = (
            "import sys\n"
            "from mmsig.cli import main\n"
            "def peak():\n"
            "    return int(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM')))\n"
            "assert main(['rado', '--p', '0.5', '--N', '50', '--output-prefix', sys.argv[1]]) == 0\n"
            "before = peak()\n"
            "assert main(['rado', '--p', '0.5', '--N', sys.argv[2], '--output-prefix', sys.argv[1]]) == 0\n"
            "print(peak() - before)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "run"), str(N)], env=env,
                             capture_output=True, text=True, check=True).stdout
        growth = 1024 * int(out.split()[-1]) / (8 * N * N)  # VmHWM is in kB
        assert growth < 1.6

    @pytest.mark.parametrize(
        "argv, outputs",
        [(["rado", "--p", 0.5, "--N", 200, "--seed", 3, "--output-prefix", "run"], ["run_esd.csv", "run_summary.json"]),
         (["analyze", "--example", "tripod_extended", "--n", 600, "--output", "a.json"], ["a.json"]),
         (["construct", "perturb", "--input", "in.csv", "--seed", 2, "--output", "p.csv"], ["p.csv"])],
        ids=["rado", "analyze", "construct-perturb"],
    )
    def test_artifacts_without_the_binding(self, argv, outputs, tmp_path, monkeypatch, capsys):
        # the binding forced absent, every solve copies into eigvalsh: the
        # same bytes and the same stdout
        if linalg._openblas() is None or linalg._openblas()[2] is None:
            pytest.skip("numpy's BLAS has no ILP64 OpenBLAS dsyevd found through /proc/self/maps")
        pts = np.random.default_rng(3).normal(size=(12, 3))
        write_distance_csv(from_euclidean_points(pts), tmp_path / "in.csv")
        monkeypatch.chdir(tmp_path)
        copies = []
        real_eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, **kw: copies.append(len(a)) or real_eigvalsh(a, **kw))
        runs = []
        for found in (linalg._openblas(), (*linalg._openblas()[:2], None)):
            monkeypatch.setattr(linalg, "_openblas", lambda found=found: found)
            copies.clear()
            assert run(argv) == 0
            runs.append(([(tmp_path / name).read_bytes() for name in outputs], capsys.readouterr().out, list(copies)))
        (files, out, copied), (files_absent, out_absent, copied_absent) = runs
        assert files == files_absent and out == out_absent
        assert len(copied) < len(copied_absent)  # the binding took the built matrices

    def test_tolerance_is_checked_before_the_eigensolve(self, tmp_path, monkeypatch, capsys):
        orders = _record_eigensolves(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert run(["rado", "--p", 0.5, "--N", 50, "--tol", "nan"]) == 2
        assert orders == []
        assert capsys.readouterr().err == "error: tol_rel must be finite and nonnegative, got nan\n"

    def test_spectral_run(self, tmp_path, capsys):
        prefix = tmp_path / "run"
        assert run(["rado", "--p", 0.5, "--N", 120, "--seed", 7, "--output-prefix", prefix]) == 0
        doc = json.loads((tmp_path / "run_summary.json").read_text())
        assert doc["N"] == 120 and 0 < doc["ks_to_semicircle"] < 1
        adj = CountableRadoModel(edge_prob=0.5, seed=7).adjacency_block(np.arange(120))
        assert doc["edges"] == np.count_nonzero(np.triu(adj, k=1))
        esd_lines = (tmp_path / "run_esd.csv").read_text().strip().splitlines()
        assert len(esd_lines) == 2 + 120
        out = capsys.readouterr().out
        assert "KS to semicircle" in out

    def test_bad_probability_exits_2(self):
        assert run(["rado", "--p", 1.5, "--N", 10]) == 2
        assert run(["rado", "--N", 10]) == 2

    def test_empty_order_exits_2(self, tmp_path):
        prefix = tmp_path / "run"
        assert run(["rado", "--p", 0.5, "--N", 0, "--output-prefix", prefix]) == 2
        assert not (tmp_path / "run_summary.json").exists()

    def test_ratio_run(self, tmp_path):
        prefix = tmp_path / "ratio"
        assert run(
            [
                "rado", "--ratio", "--p", 0.5, "--measure", "geometric:0.8",
                "--m-max", 128, "--trials", 3, "--seed", 5,
                "--model-seed", 99, "--output-prefix", prefix,
            ]
        ) == 0
        doc = json.loads((tmp_path / "ratio_summary.json").read_text())
        assert doc["trials"] == 3
        assert doc["measure"] == {"type": "geometric", "q": 0.8}
        lines = (tmp_path / "ratio_ratio.csv").read_text().strip().splitlines()
        assert lines[1].startswith("trial,m,")

    @pytest.mark.parametrize(
        "request_args",
        [["--measure", "geometric:0.9", "--m-max", 2000, "--trials", 20],
         ["--measure", "class_biased:30:0.9", "--clique-rule", "modular:31", "--m-max", 3000, "--trials", 8]],
        ids=["geometric", "class_biased"],
    )
    def test_ratio_artifacts_do_not_depend_on_the_route(self, request_args, tmp_path, monkeypatch, capsys):
        # the README's ratio requests, with the pinned pool forced on and off
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 2)
        runs = []
        for least in (0, math.inf):
            monkeypatch.setattr(linalg, "_POOL_MIN_ORDER", least)
            prefix = tmp_path / str(least)
            assert run(["rado", "--ratio", "--p", 0.5, *request_args, "--seed", 1, "--output-prefix", prefix]) == 0
            files = [Path(f"{prefix}_ratio.csv").read_bytes(), Path(f"{prefix}_summary.json").read_bytes()]
            runs.append((files, capsys.readouterr().out.replace(str(prefix), "PREFIX")))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "clique",
        [["--clique-rule", "modular:31"], ["--clique", "0,2,5"],
         ["--clique-rule", "quadratic"], ["--clique-rule", "modular:2"]],
    )
    def test_ratio_clique_counts_match_the_general_chain(self, clique, tmp_path, monkeypatch):
        # The README's class-biased clique run, smaller, and other cliques:
        # every checkpoint equals the count of the general chain, with the
        # clique mask withheld, and eigvalsh's count at the same theta.
        pivots = []
        real = linalg._clique_pivot
        monkeypatch.setattr(linalg, "_clique_pivot", lambda *a: pivots.append(a) or real(*a))
        prefix = tmp_path / "biased"
        assert run(
            ["rado", "--ratio", "--p", 0.5, "--measure", "class_biased:30:0.9", *clique,
             "--m-max", 600, "--trials", 3, "--seed", 1, "--output-prefix", prefix]
        ) == 0
        with open(tmp_path / "biased_ratio.csv", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        spec = [int(i) for i in clique[1].split(",")] if clique[0] == "--clique" else clique[1]
        model = CountableRadoModel(edge_prob=0.5, seed=1, planted_clique=spec)
        checkpoints = spectral.default_checkpoints(600)
        assert len(rows) == 3 * len(checkpoints)
        for t in range(3):
            draws = raw_draws(DiscreteMeasure.class_biased(30, 0.9), 600, sampling.trial_seed(1, t))
            dedup, first = first_appearances_by_unique(draws)
            sizes = [int(k) for k in np.searchsorted(first, checkpoints)]
            S = model.s_matrix_on(dedup)
            general = dict(zip(sorted(set(sizes)), linalg.prefix_inertias(S, sorted(set(sizes)))))
            theta = general[sizes[-1]].tol
            for row, m, k in zip(rows[t * len(sizes):], checkpoints, sizes):
                vals = np.linalg.eigvalsh(S[:k, :k])
                by_eigvalsh = (int(np.sum(vals < -theta)), int(np.sum(np.abs(vals) <= theta)),
                               int(np.sum(vals > theta)))
                got = (int(row["s_minus"]), int(row["s_zero"]), int(row["s_plus"]))
                assert (int(row["trial"]), int(row["m"])) == (t, m)
                assert got == general[k].counts() == by_eigvalsh
        if clique[1] == "modular:31":
            assert pivots  # the README's run takes the clique tier

    def test_class_biased_support_over_the_limit_exits_2(self, tmp_path, capsys):
        # 3001 classes of 395 levels at q = 0.9: 1,185,395 points, over 10^6
        prefix = tmp_path / "cb"
        argv = ["rado", "--ratio", "--p", 0.5, "--m-max", 10, "--output-prefix", prefix]
        assert run(argv + ["--measure", "class_biased:3000"]) == 2
        assert capsys.readouterr().err == (
            "error: class_biased j=3000 needs 1185395 support points, over 1000000\n"
        )
        assert list(tmp_path.iterdir()) == []
        assert run(argv + ["--measure", "class_biased:2000"]) == 0  # 790,395 points

    @pytest.mark.parametrize("q, message", [
        ("1.0", "class_biased q must be in (0, 1), got 1.0"),
        ("0.99999", "class_biased q 0.99999 needs 4144634 support points; too close to 1"),
    ])
    def test_bad_class_biased_q_is_named_exits_2(self, q, message, tmp_path, capsys):
        # both were reported as a bad geometric ratio
        argv = ["rado", "--ratio", "--p", 0.5, "--measure", f"class_biased:3:{q}",
                "--m-max", 10, "--trials", 1, "--output-prefix", tmp_path / "cb"]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_ratio_with_clique_rule(self, tmp_path):
        prefix = tmp_path / "cls"
        assert run(
            [
                "rado", "--ratio", "--p", 0.5, "--measure", "class_biased:4:0.7",
                "--clique-rule", "modular:5", "--m-max", 200, "--trials", 2,
                "--seed", 3, "--output-prefix", prefix,
            ]
        ) == 0
        doc = json.loads((tmp_path / "cls_summary.json").read_text())
        assert doc["final_delta_quantiles"]["q000"] >= 1.0

    def test_ratio_artifacts_independent_of_worker_threads(self, tmp_path, monkeypatch):
        argv = [
            "rado", "--ratio", "--p", 0.5, "--measure", "class_biased:6:0.8",
            "--clique-rule", "modular:7", "--m-max", 400, "--trials", 4, "--seed", 11,
        ]
        artifacts = []
        for cpus in (1, 2):
            monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
            prefix = tmp_path / f"cpus{cpus}"
            assert run(argv + ["--output-prefix", prefix]) == 0
            artifacts.append(
                [(tmp_path / f"cpus{cpus}_{name}").read_bytes()
                 for name in ("ratio.csv", "summary.json")]
            )
        assert artifacts[0] == artifacts[1]

    def test_unknown_measure_exits_2(self):
        assert run(["rado", "--ratio", "--p", 0.5, "--measure", "zeta:2", "--m-max", 10]) == 2

    def test_ratio_threshold_verdict(self, tmp_path):
        prefix = tmp_path / "thr"
        assert run(
            [
                "rado", "--ratio", "--p", 0.5, "--measure", "geometric:0.8",
                "--m-max", 256, "--trials", 4, "--seed", 5,
                "--delta-threshold", 0.5, "--min-fraction", 0.5,
                "--output-prefix", prefix,
            ]
        ) == 0
        doc = json.loads((tmp_path / "thr_summary.json").read_text())
        assert doc["delta_threshold"] == 0.5
        assert doc["fraction_reaching"] == 1.0
        assert doc["pass"] is True


    @pytest.mark.parametrize(
        "extra",
        [
            ["--N", 10, "--trials", 3],
            ["--N", 10, "--measure", "uniform"],
            ["--N", 10, "--m-max", 50],
            ["--N", 10, "--delta-threshold", 2.0],
            ["--N", 10, "--min-fraction", 0.5],
            ["--ratio", "--N", 10, "--m-max", 50],
        ],
        ids=["trials", "measure", "m-max", "delta-threshold", "min-fraction", "ratio-N"],
    )
    def test_options_the_run_ignores_exit_2(self, extra, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["rado", "--p", 0.5, *extra]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_min_fraction_without_threshold_exits_2(self, tmp_path, capsys):
        prefix = tmp_path / "mf"
        argv = [
            "rado", "--ratio", "--p", 0.5, "--measure", "geometric:0.9",
            "--m-max", 50, "--trials", 3, "--min-fraction", 0.5, "--output-prefix", prefix,
        ]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: --min-fraction")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--delta-threshold", "nan"], "delta_threshold must be finite, got nan"),
            (["--delta-threshold", "inf"], "delta_threshold must be finite, got inf"),
            (["--delta-threshold", 1.0, "--min-fraction", 7],
             "min_fraction must be in [0, 1], got 7.0"),
        ],
        ids=["nan", "inf", "min-fraction-7"],
    )
    def test_thresholds_that_cannot_be_met_exit_2(self, extra, message, tmp_path, capsys):
        # nan and inf made invalid JSON and --min-fraction 7 an unconditional
        # "pass": false; each is refused before the first trial runs
        prefix = tmp_path / "thr"
        argv = ["rado", "--ratio", "--p", 0.5, "--measure", "geometric:0.9", "--m-max", 50,
                "--trials", 2, "--output-prefix", prefix]
        assert run(argv + extra) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "thr_ratio.csv").exists()
        assert list(tmp_path.iterdir()) == []

    def test_quadratic_clique_rule_takes_no_modulus(self, tmp_path, capsys):
        prefix = tmp_path / "q"
        assert run(["rado", "--p", 0.5, "--N", 20, "--clique-rule", "quadratic:2",
                    "--output-prefix", prefix]) == 2
        assert capsys.readouterr().err == (
            "error: quadratic clique rule takes no modulus, got '2'\n"
        )
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["rado", "--p", 0.5, "--N", 5],
        ["trajectory", "--model-p", 0.5, "--m-max", 30],
        ["rado", "--ratio", "--p", 0.5, "--m-max", 30],
    ],
    ids=["rado", "trajectory", "rado-ratio"],
)
def test_clique_and_clique_rule_exclude_each_other(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run([*argv, "--clique", "1,2", "--clique-rule", "quadratic"]) == 2
    assert capsys.readouterr().err == "error: --clique excludes --clique-rule\n"
    assert list(tmp_path.iterdir()) == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert "mmsig" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,bad",
    [
        (["rado", "--ratio", "--p", "0.5", "--measure", "geometric:abc", "--m-max", "10"], "abc"),
        (["rado", "--ratio", "--p", "0.5", "--measure", "class_biased:x", "--m-max", "10"], "x"),
        (["rado", "--p", "0.5", "--N", "5", "--clique-rule", "modular:x"], "x"),
        (["rado", "--p", "0.5", "--N", "5", "--clique", "1,x"], "x"),
        (["trajectory", "--example", "tripod_extended", "--n", "10", "--sizes", "a:5"], "a"),
    ],
    ids=["geometric-q", "class-biased-j", "clique-modulus", "clique-index", "sizes"],
)
def test_non_numeric_parameter_exits_2(argv, bad, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(bad) in err


SAMPLED_SPHERE = ["trajectory", "--example", "sphere", "--dim", 2, "--n", 5, "--m-max", 10]
RATIO = ["rado", "--ratio", "--p", 0.5, "--m-max", 10, "--trials", 1]


@pytest.mark.parametrize(
    "argv, name, content",
    [
        (["analyze", "--input"], "bad.csv", b"\xff\xfea,b\n0,1\n1,0\n"),
        (["analyze", "--input"], "bad.edges", b"\xff\xfe0 1\n"),
        (SAMPLED_SPHERE + ["--measure"], "m.json", b'{"type": '),
        (RATIO + ["--measure"], "m.json", b'{"type": '),
        (RATIO + ["--measure"], "w.json", b'[0.5, "x"]'),
        (SAMPLED_SPHERE + ["--measure"], "w.json", b'[0.2, 0.2, 0.2, 0.2, "x"]'),
    ],
    ids=["csv-not-utf8", "edges-not-utf8", "truncated-json-trajectory", "truncated-json-ratio",
         "non-number-weight-ratio", "non-number-weight-trajectory"],
)
def test_malformed_input_files_exit_2(argv, name, content, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_bytes(content)
    assert run(argv + [name]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


@pytest.mark.parametrize("vertex", [2**63, 10**20], ids=["2^63", "10^20"])
def test_edge_list_vertex_outside_int64_exits_2(vertex, tmp_path, monkeypatch, capsys):
    # from_graph's np.fromiter raised OverflowError, and the run exited 1; the
    # table above cannot hold this case, since the error names the file's line
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.edges").write_text(f"0 1\n0 {vertex}\n")
    assert run(["analyze", "--input", "big.edges"]) == 2
    assert capsys.readouterr().err == f"error: big.edges:2: vertex {vertex} is outside int64\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.edges"]


def test_sizes_outside_int64_exit_2(capsys):
    # the prefix size 10^20 raised OverflowError, and the run exited 1
    argv = ["trajectory", "--example", "simplex", "--n", 5, "--sizes", 10**20]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: prefix size {10**20} is outside int64\n"


@pytest.mark.parametrize("weights", [[0.5, 0.5], [0.1] * 4 + [0.2] * 3], ids=["2", "7"])
def test_weight_file_must_match_the_point_count(weights, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.json").write_text(json.dumps(weights))
    assert run(SAMPLED_SPHERE + ["--measure", "w.json"]) == 2
    assert capsys.readouterr().err == f"error: w.json: expected 5 weights, got {len(weights)}\n"
    # a countable model takes a weight vector of any length
    assert run(RATIO + ["--measure", "w.json"]) == 0


@pytest.mark.parametrize(
    "argv, weights",
    [
        (SAMPLED_SPHERE, ["0.2"] * 5),
        (["trajectory", "--example", "simplex", "--n", 2, "--m-max", 10], [True, False]),
        (["trajectory", "--example", "simplex", "--n", 2, "--m-max", 10], [0.5, True]),
    ],
    ids=["strings", "bools", "number-and-bool"],
)
def test_weight_that_is_not_a_json_number_exits_2(argv, weights, tmp_path, monkeypatch, capsys):
    # numpy turned "0.2" and true into floats, and both runs exited 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.json").write_text(json.dumps(weights))
    assert run(argv + ["--measure", "w.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: w.json: weights must be numbers: ") and err.count("\n") == 1


@pytest.mark.parametrize("j, shown", [(2.7, "2.7"), (True, "True")], ids=["fraction", "bool"])
def test_class_biased_j_that_is_not_an_integer_exits_2(j, shown, tmp_path, monkeypatch, capsys):
    # int() made j = 2.7 into 2 and true into 1, and the summary said "j": 2
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps({"type": "class_biased", "j": j}))
    assert run(RATIO + ["--measure", "m.json"]) == 2
    assert capsys.readouterr().err == (
        f"error: m.json: class_biased measure parameter j must be an integer, got {shown}\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


@pytest.mark.parametrize("error", [MonotonicityViolation, NoConvergence, EpsilonUnderflow])
def test_numerical_contract_failures_exit_1(error, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise error("numerical contract broken")

    monkeypatch.setattr(cli, "space_signature", fail)
    assert run(["analyze", "--example", "tripod"]) == 1
    assert capsys.readouterr().err == "error: numerical contract broken\n"


@pytest.mark.parametrize("sizes", ["1:5:0", "1:5:-1", "5:1", "20:30"])
def test_sizes_selecting_no_prefix_exit_2(sizes, capsys):
    argv = ["trajectory", "--example", "tripod_extended", "--n", "10", "--sizes", sizes]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: --sizes")


def test_sizes_with_more_than_three_fields_exit_2(capsys):
    # the fourth field was dropped, and the run exited 0
    argv = ["trajectory", "--example", "simplex", "--n", "6", "--sizes", "1:6:2:99"]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: --sizes takes lo:hi[:step], got '1:6:2:99'\n"
