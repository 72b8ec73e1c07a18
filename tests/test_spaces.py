import re
import tracemalloc
import warnings

import numpy as np
import pytest

from mmsig import spaces
from mmsig.constructions import CountableRadoModel, perturb_to_max_negative
from mmsig.errors import (
    AsymmetryError,
    BadParams,
    ConeViolation,
    Disconnected,
    DuplicatePoints,
    InvalidInput,
    NegativeDistance,
    NonzeroDiagonal,
    StrictnessViolated,
    TriangleViolation,
    UnknownName,
    ZeroOffDiagonal,
)
from mmsig.linalg import inertia
from mmsig.sampling import DiscreteMeasure, t_matrix
from mmsig.signature import mds_embed
from mmsig.spaces import (
    Graph,
    _min_strict_slack,
    PseudoEuclideanPointSet,
    from_distance_matrix,
    from_euclidean_points,
    from_graph,
    from_pseudo_euclidean,
    named_example,
    read_distance_csv,
    read_edge_list,
    squared_intervals,
    write_distance_csv,
    write_edge_list,
)

from util_oracles import (
    b_matrix,
    brute_triangle_ok,
    hop_distances_by_bfs,
    min_strict_slack_by_sweep,
    pairwise_sq_diffs_by_rows,
    random_metric_matrix,
    tensor_squared_intervals,
)


class TestFromDistanceMatrix:
    def test_two_points(self):
        sp = from_distance_matrix([[0.0, 1.0], [1.0, 0.0]])
        assert sp.n == 2
        assert sp.diameter == 1.0

    def test_tripod_strict_fails_on_leg_triple(self):
        tripod = from_distance_matrix(named_example("tripod").dist)  # non-strict passes
        with pytest.raises(StrictnessViolated) as exc:
            perturb_to_max_negative(tripod, seed=1)
        tight = r"d\((\d),(\d)\) = d\(\1,(\d)\) \+ d\(\3,\2\) up to slack 0\.0$"
        i, k, j = map(int, re.search(tight, str(exc.value)).groups())
        # the tight triple runs through the center point 3: 2 = 1 + 1
        assert j == 3 and i != k and i < 3 and k < 3

    def test_violation_witness(self):
        D = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(TriangleViolation) as exc:
            from_distance_matrix(D)
        assert exc.value.triple == (0, 1, 2)

    def test_error_kinds(self):
        with pytest.raises(AsymmetryError):
            from_distance_matrix([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(NegativeDistance):
            from_distance_matrix([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(NonzeroDiagonal):
            from_distance_matrix([[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(ZeroOffDiagonal):
            from_distance_matrix([[0.0, 0.0], [0.0, 0.0]])

    def test_random_metrics_validate(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            D = random_metric_matrix(rng, int(rng.integers(2, 12)))
            sp = from_distance_matrix(D)
            assert brute_triangle_ok(sp.dist, tol=1e-12 * sp.diameter)


def _two_pass_triangle_check(D):
    """Reference: a non-strict scan over all triples, one middle point j at a time."""
    n = D.shape[0]
    if n < 3:
        return
    worst_gap, worst = -np.inf, None
    for j in range(n):
        gap = -(D[:, j][:, None] + D[j, :][None, :] - D)
        if float(gap.max()) > worst_gap:
            i, k = np.unravel_index(int(np.argmax(gap)), gap.shape)
            worst_gap, worst = float(gap.max()), (int(i), j, int(k))
    if worst_gap > 1e-12 * float(D.max()):
        i, j, k = worst
        raise TriangleViolation(
            worst, f"d({i},{k}) exceeds d({i},{j}) + d({j},{k}) by {worst_gap!r}"
        )


def _outcome(check, D):
    try:
        check(D)
    except TriangleViolation as exc:
        return exc.triple, str(exc)
    return None


class TestTriangleScan:
    """One scan, ``_min_strict_slack``, decides both the non-strict triangle
    test of ``from_distance_matrix`` and the strict one of ``construct``."""

    def _matrices(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(3, 9))
            yield random_metric_matrix(rng, n)  # strict
            M = rng.uniform(0.1, 3.0, size=(n, n))  # mostly violating
            D = 0.5 * (M + M.T)
            np.fill_diagonal(D, 0.0)
            yield D
            x = rng.permutation(n).astype(float)  # collinear: slack exactly 0
            D = np.abs(x[:, None] - x[None, :])
            yield D
            i, k = np.unravel_index(int(np.argmax(D)), D.shape)
            for stretch in (1e-13, 1e-10):  # violation inside, then past, the tolerance
                E = D.copy()
                E[i, k] = E[k, i] = D[i, k] * (1.0 + stretch)
                yield E

    def test_matches_brute_force_and_two_pass_reference(self):
        kinds = set()
        for D in self._matrices():
            ok = brute_triangle_ok(D, tol=1e-12 * D.max())
            strict_ok = ok and brute_triangle_ok(D, strict=True)
            kinds.add((ok, strict_ok))
            got = _outcome(from_distance_matrix, D)
            assert (got is None) == ok
            assert got == _outcome(_two_pass_triangle_check, D)
            assert (_min_strict_slack(D)[0] > 0) == brute_triangle_ok(D, strict=True)
        assert kinds == {(True, True), (True, False), (False, False)}

    @staticmethod
    def _fuzzed(rng, n):
        """One symmetric hollow matrix of each kind: ties, violations,
        metrics, and values whose slack rounds to equal for different sums."""
        values = {
            "one_two": [1.0, 2.0],
            "small_integers": [1.0, 2.0, 3.0, 4.0],
            "rounding": [1.0, 1.0 + 2**-52, 2.0, 3.0, 3.0 + 2**-51, 8.0],
        }
        for pool in values.values():
            upper = np.triu(rng.choice(pool, size=(n, n)), k=1)
            yield upper + upper.T
        M = rng.uniform(0.1, 3.0, size=(n, n))
        D = 0.5 * (M + M.T)
        np.fill_diagonal(D, 0.0)
        yield D
        yield random_metric_matrix(rng, n)
        pts = rng.integers(0, 4, size=(n, 2)).astype(float)  # lattice: collinear ties
        yield np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2))

    def test_half_scan_matches_the_full_sweep(self):
        # minimum and witness, bit for bit, including the (j, i, k) tie-break
        rng = np.random.default_rng(2024)
        for _ in range(100):
            for D in self._fuzzed(rng, int(rng.integers(3, 13))):
                assert _min_strict_slack(D) == min_strict_slack_by_sweep(D)
        for n in (1, 2):
            D = np.ones((n, n)) - np.eye(n)
            assert _min_strict_slack(D) == min_strict_slack_by_sweep(D) == (np.inf, None)

    def test_scan_only_where_the_distance_ratio_leaves_doubt(self, monkeypatch):
        # max <= 2 min off the diagonal decides the inequality without a scan,
        # and a hop metric is a metric by construction; wider ratios still scan.
        scans = []
        real = spaces._min_strict_slack
        monkeypatch.setattr(spaces, "_min_strict_slack", lambda D: scans.append(len(D)) or real(D))
        ring = from_graph(Graph(40, frozenset((i, (i + 1) % 40) for i in range(40))))
        upper = np.triu(np.random.default_rng(2).random((50, 50)) < 0.5, k=1)
        table = np.where(upper | upper.T, 1.0, 2.0)
        np.fill_diagonal(table, 0.0)
        from_distance_matrix(table)
        for name, params in (("tripod", {}), ("simplex", {"n": 6}), ("tripod_extended", {"n": 9})):
            named_example(name, **params)
        assert scans == []
        from_distance_matrix(ring.dist)
        with pytest.raises(TriangleViolation):
            from_distance_matrix([[0.0, 1.0, 2.0 + 1e-9], [1.0, 0.0, 1.0], [2.0 + 1e-9, 1.0, 0.0]])
        assert scans == [40, 3]


class TestFromGraph:
    def test_path_graph(self):
        g = Graph(3, frozenset({(0, 1), (1, 2)}))
        sp = from_graph(g)
        assert sp.dist[0, 2] == 2.0

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_complete_graph_is_simplex(self, n):
        g = Graph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))
        assert np.array_equal(from_graph(g).dist, named_example("simplex", n=n).dist)

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            from_graph(Graph(3, frozenset({(0, 1)})))

    def test_matches_per_entry_bfs(self):
        # random graphs, half of them given a spanning path; a disconnected
        # one names the first unreachable pair in row-major order
        rng = np.random.default_rng(31)
        outcomes = set()
        for trial in range(60):
            n = int(rng.integers(1, 40))
            upper = np.triu(rng.random((n, n)) < rng.uniform(0.0, 0.15), k=1)
            edges = set(zip(*(idx.tolist() for idx in np.nonzero(upper))))
            if trial % 2:
                order = rng.permutation(n).tolist()
                edges |= {(min(u, v), max(u, v)) for u, v in zip(order, order[1:])}
            g = Graph(n, frozenset(edges))
            ref = hop_distances_by_bfs(g)
            if (ref < 0).any():
                i, j = np.unravel_index(int(np.argmin(ref)), ref.shape)
                with pytest.raises(Disconnected) as exc:
                    from_graph(g)
                assert exc.value.pair == (i, j)
                assert str(exc.value) == f"no path between vertices {i} and {j}"
                outcomes.add("disconnected")
            else:
                assert np.array_equal(from_graph(g).dist, ref)
                outcomes.add("connected")
        assert outcomes == {"connected", "disconnected"}

    def test_union_example_as_graph(self):
        # two tripods and one 3-point clique, cross distance 1 realized by
        # edges between every cross-component pair; legs from center 3/7
        comp_edges = []
        for base in (0, 4):
            comp_edges += [(base + i, base + 3) for i in range(3)]
        comp_edges += [(8, 9), (8, 10), (9, 10)]
        cross = []
        blocks = [range(0, 4), range(4, 8), range(8, 11)]
        for a in range(3):
            for b in range(a + 1, 3):
                cross += [(u, v) for u in blocks[a] for v in blocks[b]]
        g = Graph(11, frozenset(comp_edges + cross))
        sp = from_graph(g)
        from mmsig.constructions import union_space

        tripod = named_example("tripod")
        simplex = named_example("simplex", n=3)
        expect = union_space([tripod, tripod, simplex], h=1.0)
        assert np.array_equal(sp.dist, expect.dist)


class TestFromEuclidean:
    def test_unit_square(self):
        sp = from_euclidean_points([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert sp.dist[0, 2] == pytest.approx(np.sqrt(2.0))

    def test_equilateral_triangle_matches_tripod_tips(self):
        pts = [[0.0, 0.0], [2.0, 0.0], [1.0, np.sqrt(3.0)]]
        sp = from_euclidean_points(pts)
        tips = named_example("tripod").subspace([0, 1, 2])
        np.testing.assert_allclose(sp.dist, tips.dist, atol=1e-12)

    def test_collinear_equality_allowed(self):
        sp = from_euclidean_points([[0.0], [1.0], [3.0]])
        assert sp.dist[0, 2] == 3.0

    def test_distances_match_the_difference_tensor(self):
        pts = np.random.default_rng(5).normal(size=(40, 7))
        D = np.sqrt(tensor_squared_intervals(pts, 0))
        D = 0.5 * (D + D.T)
        np.fill_diagonal(D, 0.0)
        assert np.array_equal(from_euclidean_points(pts).dist, D)

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicatePoints):
            from_euclidean_points([[1.0, 2.0], [1.0, 2.0]])

    @pytest.mark.parametrize("n, d", [(1, 3), (2, 3), (65, 7), (65, 300), (5, 0), (0, 4)])
    def test_one_triangle_matches_the_full_square(self, n, d):
        P = np.random.default_rng(n + d).normal(size=(n, d)) * 10.0 ** (np.arange(d) % 7 - 3)
        got = spaces._pairwise_sq_diffs(P)
        assert got.shape == (n, n)
        assert got.tobytes() == pairwise_sq_diffs_by_rows(P).tobytes()
        for part in (P[:, : d // 3], P[:, d // 3:]):  # the column slices of squared_intervals
            assert spaces._pairwise_sq_diffs(part).tobytes() == pairwise_sq_diffs_by_rows(part).tobytes()


class TestPseudoEuclidean:
    def test_reduces_to_euclidean(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 2.0]])
        ps = PseudoEuclideanPointSet(n_neg=0, n_pos=2, points=pts)
        np.testing.assert_allclose(
            from_pseudo_euclidean(ps).dist, from_euclidean_points(pts).dist, atol=1e-14
        )

    def test_closed_form_interval(self):
        ps = PseudoEuclideanPointSet(
            n_neg=1, n_pos=1, points=np.array([[0.0, 0.0], [0.6, 1.0]])
        )
        sp = from_pseudo_euclidean(ps)
        assert sp.dist[0, 1] == pytest.approx(0.8)

    def test_cone_violation(self):
        with pytest.raises(ConeViolation) as exc:
            PseudoEuclideanPointSet(
                n_neg=1, n_pos=1, points=np.array([[0.0, 0.0], [1.0, 0.5]])
            )
        assert exc.value.value == pytest.approx(-0.75)

    @staticmethod
    def _rado_embedding(n):
        # a {1, 2} space embeds with about n - 1 axes of both signs
        return mds_embed(CountableRadoModel(edge_prob=0.5, seed=7).metric_on(np.arange(n)))

    def test_intervals_match_the_difference_tensor(self):
        ps = self._rado_embedding(120)
        assert ps.n_neg > 0 and ps.n_pos > 0
        want = tensor_squared_intervals(ps.points, ps.n_neg)
        assert np.array_equal(squared_intervals(ps), want)

    def test_intervals_need_no_difference_tensor(self):
        ps = self._rado_embedding(200)
        n, d = ps.points.shape
        tracemalloc.start()
        try:
            squared_intervals(ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few n x n matrices; the n x n x d tensor alone is d / 8 times more
        assert d > 150 and peak < 8 * n * n * 8

    def test_intervals_match_form(self):
        ps = PseudoEuclideanPointSet(
            n_neg=1, n_pos=2, points=np.array([[0.0, 0.0, 0.0], [0.3, 1.0, 0.2]])
        )
        sq = squared_intervals(ps)
        assert sq[0, 1] == pytest.approx(1.0 + 0.04 - 0.09)


class TestNamedExamples:
    def test_simplex(self):
        sp = named_example("simplex", n=5)
        off = sp.dist[~np.eye(5, dtype=bool)]
        assert (off == 1.0).all()

    def test_tripod_extended_matches_b6(self):
        sp = named_example("tripod_extended", n=6)
        np.testing.assert_array_equal(sp.dist**2, b_matrix(6))

    def test_sphere_arcs(self):
        sp = named_example("sphere", dim=1, n=3, seed=123)
        assert sp.dist.max() <= np.pi + 1e-12
        assert brute_triangle_ok(sp.dist, tol=1e-12 * sp.diameter)

    @pytest.mark.parametrize("n", [100, 200, 400])
    def test_circle_samples_pass_their_own_triangle_check(self, n):
        # arccos of Gram entries near 1 lost about eps / angle and broke
        # nearly collinear triples on 21 of these 60 samples
        for seed in range(20):
            sp = named_example("sphere", dim=1, n=n, seed=seed)
            if seed < 2:  # arcs from the points' own angles
                pts = spaces._sphere_points(1, n, seed)
                gap = np.abs(np.subtract.outer(*[np.arctan2(pts[:, 1], pts[:, 0])] * 2))
                np.testing.assert_allclose(sp.dist, np.minimum(gap, 2 * np.pi - gap),
                                           rtol=0, atol=1e-14)

    def test_sphere_sqrt_is_hilbertian(self):
        # square-rooted geodesic distances embed in Hilbert space: s_minus(T)=0
        for n in (10, 25):
            sp = named_example("sphere_sqrt", dim=2, n=n, seed=7)
            t = t_matrix(sp, DiscreteMeasure.uniform(n))
            assert inertia(t).s_minus == 0

    def test_determinism(self):
        a = named_example("sphere", dim=2, n=8, seed=42)
        b = named_example("sphere", dim=2, n=8, seed=42)
        assert np.array_equal(a.dist, b.dist)

    def test_unknown_and_bad_params(self):
        with pytest.raises(UnknownName):
            named_example("klein_bottle")
        with pytest.raises(BadParams):
            named_example("simplex", n=1)
        with pytest.raises(BadParams):
            named_example("tripod_extended", n=4)
        with pytest.raises(BadParams):
            named_example("sphere", dim=0, n=3, seed=1)
        for name, params in (("tripod", {"n": 7}), ("simplex", {"n": 4, "dim": 2})):
            with pytest.raises(BadParams, match="takes no parameter"):
                named_example(name, **params)


def _random_doubles(rng, size):
    """Finite doubles drawn over their bit patterns, so every exponent,
    subnormals among them, and the extremes and signed zeros."""
    bits = rng.integers(0, 2**64, size=4 * size, dtype=np.uint64)
    x = bits.view(np.float64)
    x = x[np.isfinite(x)][:size]
    return np.concatenate([x, [5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 0.0,
                               1.7976931348623157e308, -1.7976931348623157e308]])


class TestDistanceCsvParsers:
    """``read_distance_csv`` parses a plain body with ``np.loadtxt`` and any
    other file with ``csv.reader`` and ``float()``; both give the same values."""

    def test_c_path_matches_the_csv_reader_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(18)
        n = 24
        values = _random_doubles(rng, n * n - 7)
        assert values.size == n * n
        text = ["1E5", " 2.5 ", "+3", ".5", "5.", "1e-400", "-0", "0.1"]
        rows = [[repr(float(x)) for x in row] for row in values.reshape(n, n)]
        rows[3][: len(text)] = text
        for ends in ("\r\n", "\n"):
            path = tmp_path / "random.csv"
            labels = [f"x{i}" for i in range(n)]
            path.write_text(
                "# comment\n" + ",".join(labels) + ends + ends.join(",".join(r) for r in rows),
                newline="",
            )
            plain = spaces._read_plain_csv(path)
            assert plain is not None
            labels_c, D_c = plain
            labels_py, D_py = spaces._read_any_csv(path)
            want = np.array([[float(x) for x in row] for row in rows])
            assert labels_c == labels_py == tuple(labels)
            assert D_c.tobytes() == D_py.tobytes() == want.tobytes()

    def test_a_written_space_takes_the_c_path(self, tmp_path, monkeypatch):
        sp = named_example("sphere", dim=2, n=30, seed=4)
        path = tmp_path / "space.csv"
        write_distance_csv(sp, path, comment="provenance")
        monkeypatch.setattr(spaces, "_read_any_csv", lambda p: pytest.fail("csv.reader path"))
        back = read_distance_csv(path)
        assert back.labels == sp.labels and back.dist.tobytes() == sp.dist.tobytes()

    @pytest.mark.parametrize(
        "text, want",
        [
            ('a,b\n0,"1.5"\n"1.5",0\n', [[0.0, 1.5], [1.5, 0.0]]),
            ("a,b\n0,1_0\n1_0,0\n", [[0.0, 10.0], [10.0, 0.0]]),
            ("a,b\n0,\u0661.5\n\u0661.5,0\n", [[0.0, 1.5], [1.5, 0.0]]),
            ("a,b\r0,2\r2,0\r", [[0.0, 2.0], [2.0, 0.0]]),
            ("a,b\n0,2\x0c\n2,\x0c0\n", [[0.0, 2.0], [2.0, 0.0]]),
            ("a,b\n0,1#x\n1,0\n", "{path}:2: could not convert string to float: '1#x'"),
            ("a,b\n0,1\n   \n1,0\n", "{path}:3: expected 2 columns, got 1"),
            ("a,b\n0,1\n,\n1,0\n", "{path}:3: could not convert string to float: ''"),
            ("a,b\n", "{path}: header has 2 labels but 0 rows follow"),
            ("a,b\n# only a comment\n", "{path}: header has 2 labels but 0 rows follow"),
        ],
        ids=["quoted", "underscore", "non-ascii-digit", "bare-cr", "form-feed", "hash-in-field",
             "spaces-only-line", "line-of-commas", "header-only", "header-and-comment"],
    )
    def test_other_files_take_the_csv_reader_path(self, tmp_path, text, want):
        path = tmp_path / "other.csv"
        path.write_text(text, newline="")
        assert spaces._read_plain_csv(path) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no loadtxt "input contained no data"
            if isinstance(want, str):
                with pytest.raises(InvalidInput) as exc:
                    read_distance_csv(path)
                assert str(exc.value) == want.format(path=path)
            else:
                assert read_distance_csv(path).dist.tolist() == want

    def test_a_file_that_is_not_utf8_is_invalid_input(self, tmp_path):
        path = tmp_path / "utf16.csv"
        path.write_bytes(b"\xff\xfea\x00,\x00b\x00\n\x00")
        with pytest.raises(InvalidInput, match=re.escape(f"{path}: 'utf-8' codec can't decode")):
            read_distance_csv(path)


class TestRoundTrips:
    def test_constructors_validate(self):
        for sp in (
            named_example("tripod"),
            named_example("simplex", n=4),
            named_example("sphere", dim=2, n=6, seed=3),
        ):
            again = from_distance_matrix(sp.dist, labels=sp.labels)
            assert np.array_equal(again.dist, sp.dist)

    def test_distance_csv_lossless(self, tmp_path):
        sp = named_example("sphere", dim=2, n=7, seed=11)
        path = tmp_path / "space.csv"
        write_distance_csv(sp, path, comment="provenance line")
        back = read_distance_csv(path)
        assert back.labels == sp.labels
        assert np.array_equal(back.dist, sp.dist)

    def test_distance_csv_skips_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "space.csv"
        path.write_text('# a comment\n\n a ,"b, quoted"\n  # indented comment\n'
                        '0,"1.5"\n\n1.5, 0 \n')
        sp = read_distance_csv(path)
        assert sp.labels == ("a", "b, quoted")
        assert np.array_equal(sp.dist, [[0.0, 1.5], [1.5, 0.0]])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b,c\n0,1,1\n1,0\n1,1,0\n", "{path}:3: expected 3 columns, got 2"),
            ("a,b\n0,1\n1,0,2\n", "{path}:3: expected 2 columns, got 3"),
            ("a,b,c\n0,1,x\n1,0,1\n1,1,0\n",
             "{path}:2: could not convert string to float: 'x'"),
            ("a,b,c\n0,1,1\n1,0,\n1,1,0\n",
             "{path}:3: could not convert string to float: ''"),
            # the first bad row is named, whichever check it fails
            ("a,b,c\n0,1,1\n1,0,1e\n1,1\n",
             "{path}:3: could not convert string to float: '1e'"),
            ("a,b,c\n0,1\n1,0,nope\n1,1,0\n", "{path}:2: expected 3 columns, got 2"),
            ("a,b,c\n0,1,1\n1,0,1\n", "{path}: header has 3 labels but 2 rows follow"),
            ("a,b\n0,1\n1,0\n1,1\n", "{path}: header has 2 labels but 3 rows follow"),
            ("a,b\n", "{path}: header has 2 labels but 0 rows follow"),
            ("", "{path}: empty distance CSV"),
            ("# only a comment\n\n", "{path}: empty distance CSV"),
        ],
    )
    def test_distance_csv_errors_name_the_line(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InvalidInput) as exc:
            read_distance_csv(path)
        assert str(exc.value) == message.format(path=path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# comment\na,b\n0,x\n1,0\n", "{path}:3: could not convert string to float: 'x'"),
            ("a,b\n\n# note\n0,1\n\n1,0,2\n", "{path}:6: expected 2 columns, got 3"),
            ('a,b\n0,"1\n"\n1,y\n', "{path}:4: could not convert string to float: 'y'"),
        ],
        ids=["comment", "blank-and-comment", "quoted-newline"],
    )
    def test_distance_csv_errors_count_file_lines(self, tmp_path, text, message):
        # comment and blank lines count; a quoted field may span lines
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InvalidInput) as exc:
            read_distance_csv(path)
        assert str(exc.value) == message.format(path=path)

    def test_edge_list_round_trip(self, tmp_path):
        g = Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}))
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back.n == g.n and back.edges == g.edges
