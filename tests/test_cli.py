import csv
import io
import json

import numpy as np
import pytest

from mmsig import cli, linalg, spaces, spectral
from mmsig.cli import main
from mmsig.constructions import CountableRadoModel
from mmsig.errors import EpsilonUnderflow, MonotonicityViolation, NoConvergence
from mmsig.sampling import DiscreteMeasure, gv_sample
from mmsig.spaces import (
    Graph, from_euclidean_points, named_example, read_distance_csv, write_distance_csv,
    write_edge_list,
)


def run(argv):
    return main([str(a) for a in argv])


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

    def test_edge_list_input(self, tmp_path):
        g = Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (3, 0)}))
        path = tmp_path / "cycle.edges"
        write_edge_list(g, path)
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
        distinct = gv_sample(DiscreteMeasure.geometric(0.9), 100, seed=0).dedup.size
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
        monkeypatch.setattr(linalg, "_eigenvalues", lambda a: orders.append(len(a)) or real(a))
        out = tmp_path / "traj.csv"
        argv = ["trajectory", "--model-p", 0.5, "--measure", "geometric:0.99", "--m-max", 3000,
                "--seed", 5, "--output", out]
        assert run(argv) == 0
        rows = out.read_text().strip().splitlines()[2:]
        assert len(rows) > 350
        assert len(orders) < 60
        assert len({row.split(",")[4] for row in rows}) == 1  # one theta per family

    def test_model_trajectory_borders_across_sizes_with_gaps(self, tmp_path, monkeypatch):
        # every second prefix of about 400: the gaps of 2 are bordered too
        orders = []
        real = linalg._eigenvalues
        monkeypatch.setattr(linalg, "_eigenvalues", lambda a: orders.append(len(a)) or real(a))
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
        monkeypatch.setattr(module, "_eigenvalues", lambda a: orders.append(len(a)) or real(a))
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
        for threads in (None, "2"):
            if threads is None:
                monkeypatch.delenv("MMS_SIG_THREADS", raising=False)
            else:
                monkeypatch.setenv("MMS_SIG_THREADS", threads)
            prefix = tmp_path / f"threads{threads}"
            assert run(argv + ["--output-prefix", prefix]) == 0
            artifacts.append(
                [(tmp_path / f"threads{threads}_{name}").read_bytes()
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


@pytest.mark.parametrize("weights", [[0.5, 0.5], [0.1] * 4 + [0.2] * 3], ids=["2", "7"])
def test_weight_file_must_match_the_point_count(weights, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.json").write_text(json.dumps(weights))
    assert run(SAMPLED_SPHERE + ["--measure", "w.json"]) == 2
    assert capsys.readouterr().err == f"error: w.json: expected 5 weights, got {len(weights)}\n"
    # a countable model takes a weight vector of any length
    assert run(RATIO + ["--measure", "w.json"]) == 0


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
