import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsig import constructions, spaces
from mmsig.cli import main
from mmsig.constructions import (
    CountableRadoModel,
    IndexClique,
    _perturb_with_eps,
    model_from_json,
    model_to_json,
    parse_clique_spec,
    perturb_to_max_negative,
    prescribed_signature_space,
    quadratic_gap_clique,
    rado_consistency_check,
    rado_metric_space,
    residue_class_clique,
    union_r_matrix,
    union_space,
)
from mmsig.errors import (
    BadParams,
    DiameterTooLarge,
    EpsilonUnderflow,
    InvalidInput,
    StrictnessViolated,
)
from mmsig.linalg import eig_sym, inertia
from mmsig.sampling import DiscreteMeasure, t_matrix
from mmsig.signature import centered_signature, s_matrix, space_signature
from mmsig.spaces import Graph, from_euclidean_points, from_graph, named_example

from util_oracles import (
    full_square_adjacency,
    full_square_s_matrix,
    rado_adjacent,
    random_cospherical_points,
    unit_square_corners,
)

# one planted clique of each kind, and none
CLIQUES = [None, frozenset({0, 2, 5, 11, 12}), residue_class_clique(3), quadratic_gap_clique()]


class TestPerturb:
    def test_unit_square(self):
        sp = from_euclidean_points(unit_square_corners())
        assert centered_signature(sp).signature == (0, 2)
        out = perturb_to_max_negative(sp, seed=1)
        assert centered_signature(out).signature == (1, 2)

    def test_six_points_on_circle(self):
        rng = np.random.default_rng(5)
        sp = from_euclidean_points(random_cospherical_points(rng, 6, 2))
        out = perturb_to_max_negative(sp, seed=2)
        assert centered_signature(out).signature == (3, 2)

    def test_already_maximal_returned_unchanged(self):
        # the simplex has s_plus(T) = N - 1 already
        sp = named_example("simplex", n=5)
        out = perturb_to_max_negative(sp, seed=3)
        assert out is sp

    def test_requires_strict_triangles(self):
        with pytest.raises(StrictnessViolated):
            perturb_to_max_negative(named_example("tripod"), seed=1)

    def test_epsilon_bounds_distance_change(self):
        rng = np.random.default_rng(8)
        sp = from_euclidean_points(random_cospherical_points(rng, 7, 3))
        out, eps = _perturb_with_eps(sp, seed=4, tol_rel=1e-9)
        assert eps > 0
        assert np.abs(out.dist - sp.dist).max() <= eps

    def test_weyl_bound_stops_before_the_first_candidate(self, tmp_path, monkeypatch, capsys):
        # Ten band eigenvalues of this sample's T must each move by about
        # 3.7e-6 to pass below -theta; a perturbation from the starting eps
        # moves none by more than about 2.5e-10, and halving only shrinks it.
        # Without the stop, 969 candidates were scanned and eigensolved.
        candidates = []
        real = constructions.from_distance_matrix
        monkeypatch.setattr(constructions, "from_distance_matrix",
                            lambda *a, **k: candidates.append(1) or real(*a, **k))
        sp = named_example("sphere", dim=2, n=80, seed=3)
        with pytest.raises(EpsilonUnderflow, match=r"moves more than \S+, but .* move of \S+$"):
            perturb_to_max_negative(sp, seed=1)
        assert candidates == []
        src = tmp_path / "sphere80.csv"
        spaces.write_distance_csv(sp, src)
        assert main(["construct", "perturb", "--input", str(src), "--seed", "1",
                     "--output", str(tmp_path / "out.csv")]) == 1
        assert "signature contract needs a move of" in capsys.readouterr().err
        # a reachable contract is untouched by the stop
        small = named_example("sphere", dim=2, n=40, seed=3)
        s_plus = centered_signature(small).s_plus
        out = perturb_to_max_negative(small, seed=1)
        assert centered_signature(out).signature == (39 - s_plus, s_plus)

    def test_determinism(self):
        sp = from_euclidean_points(unit_square_corners())
        a = perturb_to_max_negative(sp, seed=9)
        b = perturb_to_max_negative(sp, seed=9)
        assert np.array_equal(a.dist, b.dist)


class TestPrescribed:
    @pytest.mark.parametrize("n,p", [(1, 2), (3, 2), (2, 4)])
    def test_target_signature(self, n, p):
        sp = prescribed_signature_space(n, p, seed=11)
        assert sp.n == n + p + 1
        cs = centered_signature(sp)
        assert (cs.s_minus, cs.s_plus) == (n, p)

    def test_full_space_signature_bracket(self):
        # s_plus(S) in {p, p+1}, s_minus(S) in {n, n+1}
        sp = prescribed_signature_space(1, 2, seed=21)
        sig = space_signature(sp)
        assert sig.s_plus in (2, 3) and sig.s_minus in (1, 2)

    def test_construct_scans_each_matrix_once_per_validation(self, monkeypatch, tmp_path):
        # every binding of the triangle scan in the package records its matrix
        scanned = []
        real = spaces._min_strict_slack

        def counting(D):
            scanned.append(np.array(D).tobytes())
            return real(D)

        for module in [m for name, m in sys.modules.items() if name.startswith("mmsig")]:
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
        out = tmp_path / "p.csv"
        assert main(["construct", "prescribed", "--n", "3", "--p", "2", "--output", str(out)]) == 0
        # the sphere sample: once when sampled, once as the perturbation's
        # input; then each perturbed candidate once
        assert len(scanned) >= 3
        assert scanned[0] == scanned[1]
        assert len(set(scanned)) == len(scanned) - 1

    def test_bad_params(self):
        with pytest.raises(BadParams):
            prescribed_signature_space(0, 2, seed=1)
        with pytest.raises(BadParams):
            prescribed_signature_space(1, 1, seed=1)


class TestUnionSpace:
    def _tripods_plus_simplex(self, m, n_m):
        # the simplex component has side 2, the tripod's diameter, so h=1 works
        comps = [named_example("tripod") for _ in range(m - 1)]
        from mmsig.spaces import from_distance_matrix

        comps.append(from_distance_matrix(2.0 * named_example("simplex", n=n_m).dist))
        return comps

    def test_block_spectra(self):
        comps = self._tripods_plus_simplex(3, 4)
        R = union_r_matrix(comps, h=1.0)
        # each tripod block has spectrum (-5/2, 1/2, 2, 2)
        for b in range(2):
            block = R[4 * b : 4 * b + 4, 4 * b : 4 * b + 4]
            np.testing.assert_allclose(
                eig_sym(block).eigenvalues, [-2.5, 0.5, 2.0, 2.0], atol=1e-12
            )
        # R is block diagonal: off-diagonal blocks vanish
        assert np.abs(R[:4, 4:]).max() == 0.0

    @pytest.mark.parametrize("m,n_m", [(2, 3), (3, 5), (4, 2)])
    def test_r_signature(self, m, n_m):
        comps = self._tripods_plus_simplex(m, n_m)
        R = union_r_matrix(comps, h=1.0)
        ine = inertia(R)
        assert ine.s_plus == 3 * (m - 1) + n_m - 1
        assert ine.s_minus == m

    def test_s_signature_bracket(self):
        m, n_m = 3, 4
        sp = union_space(self._tripods_plus_simplex(m, n_m), h=1.0)
        R_ine = inertia(union_r_matrix(self._tripods_plus_simplex(m, n_m), h=1.0))
        S_ine = inertia(s_matrix(sp))
        assert S_ine.s_plus <= R_ine.s_plus <= S_ine.s_plus + 1
        assert S_ine.s_minus - 1 <= R_ine.s_minus <= S_ine.s_minus

    def test_single_component_unchanged(self):
        sp = named_example("tripod")
        assert union_space([sp], h=1.0) is sp

    def test_diameter_guard(self):
        big = named_example("simplex", n=3)  # diameter 1
        with pytest.raises(DiameterTooLarge):
            union_space([big, big], h=0.4)

    def test_labels_prefixed(self):
        out = union_space([named_example("simplex", n=2), named_example("simplex", n=2)], h=1.0)
        assert out.labels[0].startswith("c0:") and out.labels[-1].startswith("c1:")


class TestRadoModel:
    def test_validation(self):
        with pytest.raises(BadParams):
            CountableRadoModel(edge_prob=0.0, seed=1)
        with pytest.raises(BadParams):
            CountableRadoModel(edge_prob=1.0, seed=1)

    def test_effectively_empty_and_complete(self):
        empty = CountableRadoModel(edge_prob=1e-18, seed=3).adjacency_block(np.arange(30))
        assert not empty.any()
        full = CountableRadoModel(edge_prob=0.9999999999999999, seed=3).adjacency_block(
            np.arange(30)
        )
        assert np.array_equal(full, ~np.eye(30, dtype=bool))

    def test_scalar_matches_block(self):
        # every clique kind, repeated indices, a large index, a negative seed
        idx = np.array([*range(40), 3, 17, 17, 0, 12, 1_000_003])
        for seed in (123, -5):
            for clique in CLIQUES:
                model = CountableRadoModel(edge_prob=0.37, seed=seed, planted_clique=clique)
                block = model.adjacency_block(idx)
                for a, i in enumerate(idx):
                    for b, j in enumerate(idx):
                        assert block[a, b] == rado_adjacent(model, i, j), (clique, i, j)

    def test_prefix_consistency(self):
        model = CountableRadoModel(edge_prob=0.5, seed=7)
        small = model.adjacency_block(np.arange(25))
        big = model.adjacency_block(np.arange(60))
        assert np.array_equal(big[:25, :25], small)
        assert np.array_equal(
            model.s_matrix_on(np.arange(60))[:25, :25], model.s_matrix_on(np.arange(25))
        )

    def test_edge_density_concentration(self):
        # binomial oracle: at N=400 the density is within 0.5 +- 0.01 with
        # overwhelming probability; require it for >= 99% of a fixed seed list
        hits = 0
        trials = 60
        for seed in range(trials):
            S = CountableRadoModel(edge_prob=0.5, seed=seed).s_matrix_on(np.arange(400))
            density = (np.count_nonzero(S == -0.5) // 2) / (400 * 399 / 2)
            hits += abs(density - 0.5) <= 0.01
        assert hits / trials >= 0.99

    def test_planted_clique_distances(self):
        model = CountableRadoModel(
            edge_prob=0.3, seed=5, planted_clique=frozenset({1, 4, 6, 9})
        )
        sp = rado_metric_space(model, 12)
        for a in (1, 4, 6, 9):
            for b in (1, 4, 6, 9):
                if a != b:
                    assert sp.dist[a, b] == 1.0
        assert set(np.unique(sp.dist)) <= {0.0, 1.0, 2.0}
        clique_sub = sp.subspace([1, 4, 6, 9])
        assert np.array_equal(clique_sub.dist, named_example("simplex", n=4).dist)

    def test_predicate_cliques(self):
        assert residue_class_clique(4).members(np.arange(8)).tolist() == [
            False, True, True, True, False, True, True, True,
        ]
        members = quadratic_gap_clique().members(np.arange(30))
        # non-clique vertices sit at 1-based positions k^2 + k = 2, 6, 12, ...
        assert np.flatnonzero(~members).tolist() == [1, 5, 11, 19, 29]

    def test_members_match_scalar_rules(self):
        def quadratic(i):
            x = i + 1
            k = (math.isqrt(4 * x + 1) - 1) // 2
            return k * k + k != x

        idx = np.arange(200_001)
        expected = [quadratic(i) for i in range(200_001)]
        assert quadratic_gap_clique().members(idx).tolist() == expected
        # around k^2 + k for k near 2^25, where 4x + 1 is near 2^52
        big = np.array(
            [k * k + k + d for k in (2**25 - 1, 2**25, 2**25 + 7) for d in range(-3, 3)]
        )
        assert quadratic_gap_clique().members(big).tolist() == [quadratic(int(i)) for i in big]
        # and up to the largest int64 index; 4x + 1 overflows int64 from 2^61 on
        ks = (2**30 + 3, 2**31, 3037000498, 3037000499)  # k^2 + k <= 2^63 - 1 up to here
        top = [k * k + k + d for k in ks for d in range(-3, 3)]
        rng = np.random.default_rng(7)
        far = [*top, 2**61 - 2, 2**61, 2**62, 2**63 - 1,
               *rng.integers(2**61, 2**63 - 1, size=1000, endpoint=True).tolist()]
        assert quadratic_gap_clique().members(far).tolist() == [quadratic(i) for i in far]
        for m in (2, 3, 31):
            assert residue_class_clique(m).members(idx[:500]).tolist() == [
                i % m != 0 for i in range(500)
            ]
        chosen = {0, 2, 5, 11, 12}
        explicit = CountableRadoModel(0.5, 1, planted_clique=[12, 5, 0, 2, 11, 5]).planted_clique
        assert explicit == IndexClique((0, 2, 5, 11, 12))
        assert explicit.members(idx[:50]).tolist() == [i in chosen for i in range(50)]
        assert not IndexClique().members(idx[:5]).any()

    def test_json_round_trip(self):
        for clique in [*CLIQUES, frozenset(), residue_class_clique(31)]:
            model = CountableRadoModel(0.25, 42, planted_clique=clique)
            back = model_from_json(model_to_json(model))
            assert back == model
            assert model_to_json(back) == model_to_json(model)
        # the index-list format written before rules were serializable
        old = model_from_json('{"p": 0.25, "planted_clique": [2, 0], "seed": 42}')
        assert old == CountableRadoModel(0.25, 42, planted_clique=frozenset({0, 2}))
        rule = model_to_json(CountableRadoModel(0.25, 1, planted_clique=residue_class_clique(3)))
        assert '"planted_clique": {"modulus": 3, "rule": "modular"}' in rule

    def test_pickle_round_trip(self):
        idx = np.arange(60)
        for clique in CLIQUES:
            model = CountableRadoModel(0.4, 8, planted_clique=clique)
            back = pickle.loads(pickle.dumps(model))
            assert back == model
            np.testing.assert_array_equal(back.adjacency_block(idx), model.adjacency_block(idx))

    def test_clique_spec_forms(self):
        assert parse_clique_spec("modular:31") == parse_clique_spec(
            {"rule": "modular", "modulus": 31}
        ) == residue_class_clique(31)
        assert parse_clique_spec("quadratic") == parse_clique_spec(
            {"rule": "quadratic"}
        ) == quadratic_gap_clique()
        assert parse_clique_spec([3, 1]) == IndexClique((1, 3))
        assert parse_clique_spec(None) is None
        for bad in ("cubic", "modular", "modular:x", {"rule": "modular"}, {"modulus": 3}):
            with pytest.raises(InvalidInput):
                parse_clique_spec(bad)
        for bad in ("modular:1", [1, -2]):
            with pytest.raises(BadParams):
                parse_clique_spec(bad)


def _adjacency(n, edges):
    A = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        A[u, v] = A[v, u] = True
    return A


class TestRadoSMatrix:
    def test_complete_graph(self):
        model = CountableRadoModel(edge_prob=0.5, seed=1, planted_clique=frozenset({0, 1, 2}))
        S = model.s_matrix_on(np.arange(3))
        off = S[~np.eye(3, dtype=bool)]
        assert (off == -0.5).all()
        assert (np.diag(S) == 0.0).all()

    def test_empty_graph(self):
        S = CountableRadoModel(edge_prob=1e-18, seed=3).s_matrix_on(np.arange(3))
        off = S[~np.eye(3, dtype=bool)]
        assert (off == -2.0).all()
        assert (np.diag(S) == 0.0).all() and not np.signbit(np.diag(S)).any()

    def test_matches_hop_metric_at_diameter_two(self):
        model = CountableRadoModel(edge_prob=0.5, seed=31)
        adj = model.adjacency_block(np.arange(40))
        assert rado_consistency_check(adj)
        g = Graph(40, frozenset(zip(*np.nonzero(np.triu(adj, k=1)))))
        np.testing.assert_array_equal(model.s_matrix_on(np.arange(40)), s_matrix(from_graph(g)))

    def test_consistency_check_paths(self):
        p3 = _adjacency(3, [(0, 1), (1, 2)])
        p4 = _adjacency(4, [(0, 1), (1, 2), (2, 3)])
        assert rado_consistency_check(p3)
        assert not rado_consistency_check(p4)
        assert not rado_consistency_check(_adjacency(2, []))  # disconnected pair
        assert rado_consistency_check(_adjacency(1, []))

    def test_er_consistency_rate(self):
        # oracle: P(diameter > 2) <= N^2 (1 - p^2)^(N-2) ~ 3e-21 at N=200
        hits = sum(
            rado_consistency_check(
                CountableRadoModel(edge_prob=0.5, seed=s).adjacency_block(np.arange(200))
            )
            for s in range(40)
        )
        assert hits / 40 >= 0.99

    def test_metric_on_arbitrary_indices(self):
        model = CountableRadoModel(edge_prob=0.5, seed=2)
        sub = model.metric_on([3, 17, 5, 90])
        assert sub.labels == ("v3", "v17", "v5", "v90")
        big = rado_metric_space(model, 100)
        np.testing.assert_array_equal(
            sub.dist, big.dist[np.ix_([3, 17, 5, 90], [3, 17, 5, 90])]
        )
        with pytest.raises(InvalidInput):
            model.metric_on([1, 1, 2])

    def test_rado_metric_space_signature_floor(self):
        model = CountableRadoModel(edge_prob=0.5, seed=2)
        sp = rado_metric_space(model, 30)
        sig = space_signature(sp)
        assert sig.s_minus >= 1 and sig.s_plus >= 1

    def test_hilbertian_planted_clique_has_simplex_t(self):
        # the clique subspace is the simplex, so its centered matrix is PSD
        model = CountableRadoModel(
            edge_prob=0.5, seed=4, planted_clique=residue_class_clique(2)
        )
        sp = rado_metric_space(model, 20)
        clique_idx = [i for i in range(20) if i % 2 != 0]
        sub = sp.subspace(clique_idx)
        t = t_matrix(sub, DiscreteMeasure.uniform(len(clique_idx)))
        assert inertia(t).s_minus == 0


def _vertex_indices(kind, n, rng):
    """n vertex indices: the first n, a shuffle of far ones, or draws with repeats."""
    if kind == "prefix":
        return np.arange(n)
    if kind == "shuffled":
        return (2**63 - 1) - rng.permutation(n)  # up to the largest int64 index
    return rng.integers(0, max(n // 3, 1), size=n)


def _assert_matches_full_square(model, idx):
    adj, S = model.adjacency_block(idx), model.s_matrix_on(idx)
    assert adj.tobytes() == full_square_adjacency(model, idx).tobytes()
    assert S.tobytes() == full_square_s_matrix(model, idx).tobytes()
    assert adj.shape == S.shape == (len(idx),) * 2
    assert not np.signbit(S[S == 0]).any()


class TestBlockedAdjacency:
    # the row-blocked kernel against the full-square hash of every ordered pair

    @pytest.mark.parametrize("clique", CLIQUES, ids=["none", "index", "residue", "quadratic"])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 1000])
    def test_block_edges_and_clique_kinds(self, n, clique):
        rng = np.random.default_rng(n)
        for p, kind in ((1e-12, "repeats"), (0.5, "shuffled"), (1.0 - 1e-12, "prefix")):
            model = CountableRadoModel(edge_prob=p, seed=2**64 + 12345, planted_clique=clique)
            _assert_matches_full_square(model, _vertex_indices(kind, n, rng))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.one_of(st.integers(0, 200), st.sampled_from([63, 64, 65, 129, 1000])),
        kind=st.sampled_from(["prefix", "shuffled", "repeats"]),
        p=st.floats(1e-15, 1.0 - 1e-15),
        seed=st.integers(-(2**63), 2**70),
        clique=st.sampled_from(CLIQUES),
        draw=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_square(self, n, kind, p, seed, clique, draw):
        model = CountableRadoModel(edge_prob=p, seed=seed, planted_clique=clique)
        _assert_matches_full_square(model, _vertex_indices(kind, n, np.random.default_rng(draw)))

    def test_hashes_each_unordered_pair_once(self, monkeypatch):
        # only the 64 x 64 blocks on the diagonal are hashed in both orders;
        # the full square hashed 2 * n^2 entries, two finalizer passes each
        hashed = []
        real = constructions._vmix64
        monkeypatch.setattr(constructions, "_vmix64", lambda x: hashed.append(np.size(x)) or real(x))
        n = 1000
        CountableRadoModel(edge_prob=0.5, seed=3).adjacency_block(np.arange(n))
        per_pass = (sum(hashed) - 1) / 2  # less the seed's scalar mix
        assert n * (n + 1) / 2 <= per_pass <= n * (n + 1) / 2 + 32 * n
