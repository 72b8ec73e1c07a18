import re
import tracemalloc
import warnings

import numpy as np
import pytest

from mmsig import sampling, spaces
from mmsig.constructions import (
    CountableRadoModel, IndexClique, QuadraticGapClique, ResidueClassClique, model_from_json, model_to_json,
    perturb_to_max_negative, prescribed_signature_space, union_space,
)
from mmsig.errors import InvalidInput, StrictnessViolated
from mmsig.linalg import inertia
from mmsig.sampling import (
    DiscreteMeasure, parse_measure_spec, sample_order, t_matrix, trial_seed,
)
from mmsig.signature import mds_embed
from mmsig.spectral import default_checkpoints, rado_ratio_experiment, rado_ratio_trials, ratio_summary, semicircle_cdf
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


def test_validated_objects_share_no_memory_with_the_caller():
    # a view of the caller's array used to become the object's array, so a
    # later write by the caller changed a validated, read-only object
    B = named_example("tripod").dist.copy()
    sp = from_distance_matrix(B[:, :])
    w = np.full(4, 0.25)
    measure = DiscreteMeasure(w)
    pts = np.array([[0.0, 0.0], [0.6, 1.0]])
    ps = PseudoEuclideanPointSet(n_neg=1, n_pos=1, points=pts)
    B[0, 1], w[0], pts[1, 0] = 5.0, 0.7, 0.9
    assert sp.dist[0, 1] == sp.dist[1, 0] == 2.0
    assert measure.weights[0] == 0.25 and ps.points[1, 0] == 0.6
    for owned in (sp.dist, measure.weights, ps.points):
        assert not owned.flags.writeable


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
        with pytest.raises(InvalidInput, match=re.escape("d(0,2) exceeds d(0,1) + d(1,2) by 3.0")):
            from_distance_matrix(D)

    def test_error_kinds(self):
        with pytest.raises(InvalidInput, match=r"^d\(0,1\) = .* but d\(1,0\) = "):
            from_distance_matrix([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InvalidInput, match=r"^d\(0,1\) = .* < 0$"):
            from_distance_matrix([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(InvalidInput, match=r"^d\(0,0\) = .* != 0$"):
            from_distance_matrix([[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidInput, match="distinct points 0 and 1 are at distance 0"):
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
        raise InvalidInput(f"d({i},{k}) exceeds d({i},{j}) + d({j},{k}) by {worst_gap!r}")


def _outcome(check, D):
    try:
        check(D)
    except InvalidInput as exc:
        return str(exc)  # names the witness triple
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
        with pytest.raises(InvalidInput, match=re.escape("d(0,2) exceeds d(0,1) + d(1,2) by ")):
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
        with pytest.raises(InvalidInput, match="no path between vertices 0 and 2"):
            from_graph(Graph(3, frozenset({(0, 1)})))

    def test_disconnected_far_vertex_is_refused_in_edge_count_memory(self, tmp_path):
        # the check ran after an n x n matrix and n searches: 1.3 s and a
        # 215 MB tracemalloc peak for the vertex 4999 of a two-line file. A
        # vertex 10^12 refuses any array of order n before the refusal.
        for far in (4999, 10**12):
            path = tmp_path / "far.edges"
            path.write_text(f"0 1\n0 {far}\n")
            g = read_edge_list(path)
            tracemalloc.start()
            try:
                with pytest.raises(InvalidInput, match=r"^no path between vertices 0 and 2$"):
                    from_graph(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4_000_000

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
            outcomes.add(self._against_bfs(Graph(n, frozenset(edges))))
        assert outcomes == {"connected", "disconnected"}

    @staticmethod
    def _against_bfs(g):
        """Check ``from_graph`` against one search per source: the same hop
        counts bit for bit, or the refusal naming the first unreachable pair
        in row-major order. Return which of the two it was."""
        ref = hop_distances_by_bfs(g)
        if (ref < 0).any():
            i, j = np.unravel_index(int(np.argmin(ref)), ref.shape)
            with pytest.raises(InvalidInput) as exc:
                from_graph(g)
            assert str(exc.value) == f"no path between vertices {i} and {j}"
            return "disconnected"
        assert np.array_equal(from_graph(g).dist, ref)
        return "connected"

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 200])
    @pytest.mark.parametrize(
        "p, walk",
        [(0.0, "path"), (0.0, "cycle"), (0.02, None), (0.02, "path"), (0.1, "path"), (0.5, None)],
    )
    def test_matches_bfs_across_word_boundaries(self, n, p, walk):
        # 64 sources share a word: orders on both sides of one and two words,
        # sparse to dense, and a path and a cycle of diameters n - 1 and n / 2
        # through randomly labelled vertices
        rng = np.random.default_rng(n)
        upper = np.triu(rng.random((n, n)) < p, k=1)
        edges = set(zip(*(idx.tolist() for idx in np.nonzero(upper))))
        order = rng.permutation(n).tolist()
        if walk:
            stops = order + order[:1] if walk == "cycle" else order
            edges |= {(min(u, v), max(u, v)) for u, v in zip(stops, stops[1:])}
        self._against_bfs(Graph(n, frozenset(edges)))

    def test_disconnected_past_the_first_word(self):
        # vertex 70 lies with 100..149 in a second component, so the first
        # unreachable pair is (0, 70), in the second word of vertex 0's bits
        rng = np.random.default_rng(70)
        edges = set()
        for part in ([v for v in range(100) if v != 70], [70, *range(100, 150)]):
            order = rng.permutation(part).tolist()
            edges |= {(min(u, v), max(u, v)) for u, v in zip(order, order[1:])}
        g = Graph(150, frozenset(edges))
        assert self._against_bfs(g) == "disconnected"
        with pytest.raises(InvalidInput, match=r"^no path between vertices 0 and 70$"):
            from_graph(g)

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


class TestGraphEdges:
    def test_edges_are_sorted_distinct_pairs(self):
        g = Graph(4, [(2, 1), (0, 1), (1, 0), (3, 2), (1, 2)])
        assert g.edges.dtype == np.int64 and g.edges.tolist() == [[0, 1], [1, 2], [2, 3]]
        assert not g.edges.flags.writeable

    @pytest.mark.parametrize(
        "edges",
        [frozenset({(1, 0), (2, 1)}), [[0, 1], [1, 2]], np.array([[1, 2], [0, 1]], dtype=np.uint8),
         np.array([[1.0, 0.0], [2.0, 1.0]]), [("0", np.int64(1)), (2, 1)]],
        ids=["set", "lists", "uint8", "integral-floats", "strings-and-numpy"],
    )
    def test_every_form_gives_the_same_array(self, edges):
        assert Graph(3, edges).edges.tolist() == [[0, 1], [1, 2]]

    def test_the_array_is_the_graph_s_own(self):
        given = np.array([[0, 1], [1, 2]])
        g = Graph(3, given)
        given[0, 1] = 2
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_no_edges(self):
        assert Graph(1).edges.shape == (0, 2)
        assert Graph(2, []).edges.shape == (0, 2)

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (3, [(1, 1)], "self-loop at vertex 1"),
            (3, [(0, 1), (3, 0)], "edge (0, 3) out of range for n=3"),
            (3, [(-1, 2)], "edge (-1, 2) out of range for n=3"),
            (3, [(0, 1, 2)], "vertex values must form an array of shape (-1, 2), got (1, 3)"),
            (3, [0, 1], "vertex values must form an array of shape (-1, 2), got (2,)"),
            (3, [(1,), (0, 1)], "vertex must be an integer, got (1,)"),
            (3, [(0, 2**63)], f"vertex {2**63} is outside int64"),
            (0, [], "graph needs at least one vertex"),
        ],
        ids=["self-loop", "past-n", "negative", "triple", "flat", "ragged", "int64", "no-vertex"],
    )
    def test_bad_edges_are_refused(self, n, edges, message):
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            Graph(n, edges)


_RADO = CountableRadoModel(0.5, 1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Graph(3, {(0.5, 1.9)}), "vertex must be an integer, got 0.5"),
        (lambda: Graph(3, [(True, 2)]), "vertex must be an integer, got True"),
        (lambda: Graph(2.5, {(0, 1)}), "vertex count must be an integer, got 2.5"),
        (lambda: named_example("tripod").s_matrix_on([0.5, 1.9]), "point index must be an integer, got 0.5"),
        (lambda: named_example("tripod").s_matrix_on([True, 2]), "point index must be an integer, got True"),
        (lambda: _RADO.adjacency_block([0.5, 1.9]), "vertex index must be an integer, got 0.5"),
        (lambda: _RADO.s_matrix_on([0.5, 1.9]), "vertex index must be an integer, got 0.5"),
        (lambda: _RADO.clique_blocks([0.5, 1.9]), "vertex index must be an integer, got 0.5"),
        (lambda: _RADO.metric_on([0.5, 1.9]), "vertex index must be an integer, got 0.5"),
        (lambda: _RADO.s_matrix_on(np.array([0.0, 1.5])), "vertex index must be an integer, got 1.5"),
        (lambda: IndexClique((1, 2)).members([0.5]), "vertex index must be an integer, got 0.5"),
        (lambda: ResidueClassClique(3).members([1.5]), "vertex index must be an integer, got 1.5"),
        (lambda: QuadraticGapClique().members([True]), "vertex index must be an integer, got True"),
    ],
    ids=["graph-edge", "graph-bool", "graph-n", "space", "space-bool", "rado-adjacency", "rado-s",
         "rado-clique-blocks", "rado-metric", "rado-float-array", "index-clique", "modular-clique",
         "quadratic-clique"],
)
def test_indices_are_refused_not_truncated(build, message):
    # each site read 0.5 as 0 and 1.9 as 1 (True as 1), and built the object
    # of the truncated indices
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        build()


_UNIFORM = DiscreteMeasure.uniform(3)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CountableRadoModel(0.5, True), "model seed must be an integer, got True"),
        (lambda: CountableRadoModel(0.5, 0.5), "model seed must be an integer, got 0.5"),
        (lambda: model_from_json('{"p": 0.5, "seed": true}'), "model seed must be an integer, got True"),
        (lambda: rado_ratio_experiment(_RADO, _UNIFORM, 5, 0.5), "seed must be an integer, got 0.5"),
        (lambda: sample_order(_UNIFORM, 5, 0.5), "seed must be an integer, got 0.5"),
        (lambda: trial_seed(0.5, 1), "seed must be an integer, got 0.5"),
        (lambda: prescribed_signature_space(1, 2, 0.5), "seed must be an integer, got 0.5"),
        (lambda: sampling._distinct_draws(_UNIFORM, 2.5, 0), "sample size must be an integer, got 2.5"),
        (lambda: sample_order(_UNIFORM, True, 0), "sample size must be an integer, got True"),
        (lambda: rado_ratio_trials(_RADO, _UNIFORM, 5, trials=True), "trials must be an integer, got True"),
        (lambda: rado_ratio_trials(_RADO, _UNIFORM, 5, trials=2.5), "trials must be an integer, got 2.5"),
        (lambda: prescribed_signature_space(True, 3, 0), "prescribed signature n must be an integer, got True"),
        (lambda: prescribed_signature_space(2, 3.5, 0), "prescribed signature p must be an integer, got 3.5"),
        (lambda: DiscreteMeasure.uniform(2.5), "uniform measure point count n must be an integer, got 2.5"),
        (lambda: DiscreteMeasure.uniform(True), "uniform measure point count n must be an integer, got True"),
        (lambda: default_checkpoints(40.5), "m_max must be an integer, got 40.5"),
        (lambda: rado_ratio_experiment(_RADO, _UNIFORM, 2.5, 0), "m_max must be an integer, got 2.5"),
    ],
    ids=["model-bool", "model-float", "model-json-bool", "sample", "order", "trial", "prescribed",
         "sample-size", "order-size", "trials-bool", "trials-fraction", "prescribed-n-bool",
         "prescribed-p-fraction", "uniform-fraction", "uniform-bool", "checkpoints-fraction", "ratio-m-max"],
)
def test_seeds_and_sample_sizes_are_refused_not_truncated(build, message):
    # a bool seed built a model whose JSON did not read back; the other
    # sites raised TypeError from ``&``, ``^`` or ``np.empty``, or drew True
    # draws. A bool count ran as 1 (trials, prescribed n), a fractional one
    # raised TypeError, and ``default_checkpoints(40.5)`` ended at 40.5
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        build()


def test_integral_seeds_and_sample_sizes_are_their_integers():
    # a seed or size that equals an integer is read as it, as indices are;
    # each of these raised TypeError, or wrote the seed 3.0 to the JSON
    model = CountableRadoModel(0.5, 3.0)
    assert model_to_json(model) == model_to_json(CountableRadoModel(0.5, 3)) == '{"p": 0.5, "seed": 3}'
    for seed in (3.0, np.int64(3), "3", -1, 2**70):
        assert model_from_json(model_to_json(CountableRadoModel(0.5, seed))) == CountableRadoModel(0.5, seed)
    assert np.array_equal(sample_order(_UNIFORM, 5.0, 3.0), sample_order(_UNIFORM, 5, 3))
    assert trial_seed(3.0, 1) == trial_seed(3, 1)
    assert np.array_equal(prescribed_signature_space(1, 2, 3.0).dist, prescribed_signature_space(1, 2, 3).dist)
    # so are the counts: trials, a prescribed signature, a point count, m_max
    assert len(rado_ratio_trials(_RADO, _UNIFORM, 5, trials=2.0)) == 2
    assert np.array_equal(prescribed_signature_space(2.0, 3.0, 0).dist, prescribed_signature_space(2, 3, 0).dist)
    assert np.array_equal(DiscreteMeasure.uniform(2.0).weights, DiscreteMeasure.uniform(2).weights)
    assert default_checkpoints(40.0) == default_checkpoints("40") == (16, 32, 40)


def _edge_file(text):
    with open("edges.txt", "w") as fh:
        fh.write(text)
    return "edges.txt"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: read_edge_list(_edge_file("0 1\n0 1 2\n")), "edges.txt:2: expected 'u v', got '0 1 2'"),
        (lambda: read_edge_list(_edge_file("0 x\n")), "edges.txt:1: invalid literal for int() with base 10: 'x'"),
        (lambda: read_edge_list(_edge_file("# a\n\n# b\n")), "edges.txt: empty edge list"),
        (lambda: union_space([], 1.0), "union needs at least one component"),
        (lambda: union_space([named_example("tripod")], 0), "cross distance h must be positive and finite, got 0"),
        (lambda: union_space([named_example("tripod")], float("nan")),
         "cross distance h must be positive and finite, got nan"),
        (lambda: union_space([named_example("tripod")] * 2, float("inf")),
         "cross distance h must be positive and finite, got inf"),
        (lambda: CountableRadoModel(0.5, 1).s_matrix_on([-1, 2]), "vertex indices must be nonnegative"),
        (lambda: rado_ratio_trials(CountableRadoModel(0.5, 1), _UNIFORM, 10, trials=0), "trials must be >= 1"),
        (lambda: ratio_summary([], delta_threshold=1.0), "a ratio summary needs trials >= 1"),
        (lambda: DiscreteMeasure.uniform(0), "uniform measure needs n >= 1"),
        (lambda: DiscreteMeasure.class_biased(0), "class count parameter j must be >= 1"),
        (lambda: parse_measure_spec(42), "cannot interpret measure spec 42"),
        (lambda: named_example("simplex"), "simplex requires parameter 'n'"),
        (lambda: PseudoEuclideanPointSet(-1, 2, np.zeros((2, 1))), "signature dimensions must be nonnegative"),
        (lambda: PseudoEuclideanPointSet(1, 1, np.zeros((2, 3))), "points must have 2 coordinates, got shape (2, 3)"),
        (lambda: PseudoEuclideanPointSet(0, 2, [[0.0, np.nan], [1.0, 0.0]]), "points have non-finite coordinates"),
        (lambda: from_distance_matrix(np.zeros((2, 3))), "distance matrix must be square, got shape (2, 3)"),
        (lambda: from_distance_matrix([[0.0, np.nan], [np.nan, 0.0]]), "distance matrix has non-finite entries"),
        (lambda: from_euclidean_points([1.0, 2.0]), "points must be a 2-d array, got shape (2,)"),
        (lambda: from_euclidean_points([[0.0, np.inf], [1.0, 0.0]]), "points have non-finite coordinates"),
        (lambda: semicircle_cdf(float("nan"), 0.0), "sigma must be positive and finite, got nan"),
        (lambda: semicircle_cdf(float("inf"), 0.0), "sigma must be positive and finite, got inf"),
    ],
    ids=["edges-three-fields", "edges-not-integer", "edges-comments-only", "union-none", "union-h-zero",
         "union-h-nan", "union-h-inf", "rado-negative", "ratio-no-trials", "summary-no-trials", "uniform-empty",
         "class-biased-empty", "measure-spec", "simplex-no-n", "pe-negative", "pe-columns", "pe-nan",
         "distances-not-square", "distances-nan", "points-1d", "points-inf", "semicircle-nan", "semicircle-inf"],
)
def test_refusals_name_their_witness(build, message, tmp_path, monkeypatch):
    # the non-finite h and sigma slipped past a ``<= 0`` check: the union
    # wrote the component back or blamed the matrix, and the CDF read nan
    monkeypatch.chdir(tmp_path)
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        build()


class TestFromEuclidean:
    def test_unit_square(self):
        sp = from_euclidean_points([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert sp.dist[0, 2] == pytest.approx(np.sqrt(2.0))

    def test_equilateral_triangle_matches_tripod_tips(self):
        pts = [[0.0, 0.0], [2.0, 0.0], [1.0, np.sqrt(3.0)]]
        sp = from_euclidean_points(pts)
        tips = named_example("tripod").dist[:3, :3]
        np.testing.assert_allclose(sp.dist, tips, atol=1e-12)

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
        with pytest.raises(InvalidInput, match="points 0 and 1 coincide"):
            from_euclidean_points([[1.0, 2.0], [1.0, 2.0]])

    @staticmethod
    def _count_scans(monkeypatch):
        scans = []
        real = spaces._min_strict_slack
        monkeypatch.setattr(spaces, "_min_strict_slack", lambda D: scans.append(len(D)) or real(D))
        return scans

    def test_low_dimensional_points_skip_the_triangle_scan(self, monkeypatch):
        # Gaussian points have distance ratios far above 2, so the parent
        # scanned them; here the roundoff bound proves the scan cannot fail
        P = np.random.default_rng(6).normal(size=(60, 3))
        scans = self._count_scans(monkeypatch)
        sp = from_euclidean_points(P, labels=[f"q{i}" for i in range(60)])
        assert scans == []
        ref = from_distance_matrix(sp.dist, labels=sp.labels)
        assert scans == [60]
        assert sp.dist.tobytes() == ref.dist.tobytes() and sp.labels == ref.labels
        with pytest.raises(InvalidInput, match="label count does not match matrix order"):
            from_euclidean_points(P, labels=["a"])

    @pytest.mark.parametrize("case", ["wide", "subnormal"])
    def test_the_scan_runs_where_roundoff_could_fail_it(self, case, monkeypatch):
        # 559 coordinates are past the proven bound; squared distances below
        # the normal range lose the relative accuracy the bound rests on, and
        # these collinear points then miss the inequality by far more
        t = np.arange(8.0) ** 2
        scans = self._count_scans(monkeypatch)
        if case == "wide":
            P = np.zeros((8, spaces._EUCLID_SCAN_DIM))
            P[:, 0] = t
            from_euclidean_points(P)
        else:
            with pytest.raises(InvalidInput, match=r"d\(0,4\) exceeds d\(0,2\) \+ d\(2,4\)"):
                from_euclidean_points(t[:, None] * 1e-160)
        assert scans == [8]

    @pytest.mark.parametrize("d", [1, 3, 40, 558])
    def test_skipped_spaces_meet_the_roundoff_bound(self, d):
        # the bound the skip rests on: no triangle misses the inequality by
        # more than (9 d / 4 + 10) eps of the diameter
        rng = np.random.default_rng(d)
        P = rng.normal(size=(40, d)) * np.geomspace(1e-3, 1.0, 40)[:, None]
        D = from_euclidean_points(P).dist
        slack, _ = spaces._min_strict_slack(D)
        assert slack >= -(9 * d / 4 + 10) * np.finfo(float).eps * D.max()

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
        with pytest.raises(InvalidInput, match=re.escape("squared interval of pair (0, 1) is -0.75 < 0")):
            PseudoEuclideanPointSet(
                n_neg=1, n_pos=1, points=np.array([[0.0, 0.0], [1.0, 0.5]])
            )

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

    def test_cached_intervals_are_the_built_array_frozen(self, monkeypatch):
        # nothing else holds the array squared_intervals returns, so the
        # point set freezes it in place instead of copying it
        built = []

        def spy(ps):
            built.append(squared_intervals(ps))
            return built[-1]

        monkeypatch.setattr(spaces, "squared_intervals", spy)
        ps = PseudoEuclideanPointSet(n_neg=1, n_pos=2, points=np.eye(3))
        assert len(built) == 1 and ps.intervals is built[0]
        assert not ps.intervals.flags.writeable

    def test_intervals_match_form(self):
        ps = PseudoEuclideanPointSet(
            n_neg=1, n_pos=2, points=np.array([[0.0, 0.0, 0.0], [0.3, 1.0, 0.2]])
        )
        sq = squared_intervals(ps)
        assert sq[0, 1] == pytest.approx(1.0 + 0.04 - 0.09)


class TestNamedExamples:
    @pytest.mark.parametrize(
        "name, params, shown",
        [("simplex", {"n": 2.7}, "simplex parameter n must be an integer, got 2.7"),
         ("simplex", {"n": True}, "simplex parameter n must be an integer, got True"),
         ("tripod_extended", {"n": "6.5"}, "tripod_extended parameter n must be an integer, got '6.5'"),
         ("sphere", {"dim": 2, "n": 5, "seed": 0.5}, "sphere parameter seed must be an integer, got 0.5")],
        ids=["simplex-fraction", "simplex-bool", "tripod_extended-string", "sphere-seed"],
    )
    def test_integer_parameters_are_not_truncated(self, name, params, shown):
        # int() built 2 points for simplex n=2.7
        with pytest.raises(InvalidInput, match=f"^{re.escape(shown)}$"):
            named_example(name, **params)

    @pytest.mark.parametrize("n", [3, 3.0, "3", np.int64(3)], ids=["int", "float", "string", "numpy"])
    def test_integral_parameters_are_taken(self, n):
        assert np.array_equal(named_example("simplex", n=n).dist, named_example("simplex", n=3).dist)

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
        with pytest.raises(InvalidInput, match="unknown example 'klein_bottle'"):
            named_example("klein_bottle")
        with pytest.raises(InvalidInput, match="simplex needs n >= 2"):
            named_example("simplex", n=1)
        with pytest.raises(InvalidInput, match="tripod_extended needs n >= 5"):
            named_example("tripod_extended", n=4)
        with pytest.raises(InvalidInput, match="sphere needs dim >= 1 and n >= 1"):
            named_example("sphere", dim=0, n=3, seed=1)
        for name, params in (("tripod", {"n": 7}), ("simplex", {"n": 4, "dim": 2})):
            with pytest.raises(InvalidInput, match="takes no parameter"):
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
        path.write_text("".join(f"{u} {v}\n" for u, v in g.edges))
        back = read_edge_list(path)
        assert back.n == g.n and np.array_equal(back.edges, g.edges)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1\n# loop\n2 2\n", "{path}:3: self-loop at vertex 2"),
            ("0 1\n\n-1 3\n", "{path}:3: negative vertex in edge (-1, 3)"),
        ],
        ids=["self-loop", "negative"],
    )
    def test_edge_list_errors_name_the_file_line(self, tmp_path, text, message):
        path = tmp_path / "bad.edges"
        path.write_text(text)
        with pytest.raises(InvalidInput) as exc:
            read_edge_list(path)
        assert str(exc.value) == message.format(path=path)

    def test_edge_list_pairs_in_either_order(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 0\n0 1\n2 1\n")
        g, want = read_edge_list(path), Graph(3, frozenset({(0, 1), (1, 2)}))
        assert g.n == want.n and np.array_equal(g.edges, want.edges)
