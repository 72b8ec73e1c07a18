import json
import math
import pickle
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsig import constructions, spaces
from mmsig.cli import main
from mmsig.constructions import (
    CountableRadoModel,
    IndexClique,
    QuadraticGapClique,
    ResidueClassClique,
    _perturb_with_eps,
    model_from_json,
    model_to_json,
    parse_clique_spec,
    perturb_to_max_negative,
    prescribed_signature_space,
    union_r_matrix,
    union_space,
)
from mmsig.errors import EpsilonUnderflow, InvalidInput, StrictnessViolated
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
CLIQUES = [None, frozenset({0, 2, 5, 11, 12}), ResidueClassClique(3), QuadraticGapClique()]


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
        scanned = []
        real = constructions._min_strict_slack
        monkeypatch.setattr(constructions, "_min_strict_slack",
                            lambda D: scanned.append(D) or real(D))
        sp = named_example("sphere", dim=2, n=80, seed=3)
        with pytest.raises(EpsilonUnderflow, match=r"moves more than \S+, but .* move of \S+$"):
            perturb_to_max_negative(sp, seed=1)
        assert len(scanned) == 1 and scanned[0] is sp.dist  # the input's check, no candidate
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
        # the sphere sample: not when sampled, since Euclidean distances in
        # three dimensions cannot fail the scan (from_euclidean_points), once
        # as the perturbation's input; then each perturbed candidate once
        assert len(scanned) >= 2
        assert len(set(scanned)) == len(scanned)

    def test_bad_params(self):
        with pytest.raises(InvalidInput, match="prescribed signature needs n >= 1 and p >= 2"):
            prescribed_signature_space(0, 2, seed=1)
        with pytest.raises(InvalidInput, match="prescribed signature needs n >= 1 and p >= 2"):
            prescribed_signature_space(1, 1, seed=1)

    @pytest.mark.parametrize("error", [InvalidInput, StrictnessViolated])
    def test_a_refusal_of_the_perturbation_propagates(self, error, monkeypatch):
        # a sample that the perturbation refuses is not drawn again
        calls = []

        def refuses(space, seed, tol_rel):
            calls.append(seed)
            raise error("boom")

        monkeypatch.setattr(constructions, "perturb_to_max_negative", refuses)
        with pytest.raises(error, match="^boom$"):
            prescribed_signature_space(1, 2, seed=0)
        assert len(calls) == 1


def _row_zero(x):
    x[0] = 0.0


def _row_repeated(x):
    x[1] = x[0]


def _in_a_hyperplane(x):
    x[:, -1] = 0.0


def _on_a_line(x):
    x[:, 1:] = 0.0


def _rows_equal(x):
    x[:] = x[0]


_PLAIN_FLOAT = r"[-+.e0-9]+"  # a Python float's repr, not np.float64(...)


_PLANAR = np.random.default_rng(5).normal(size=(7, 2))  # 7 points in R^2 need 4 new negatives


@pytest.mark.parametrize(
    "module, degenerate, build, error, message",
    [
        (spaces, _row_zero, lambda: named_example("sphere", dim=2, n=5, seed=0), InvalidInput, "zero row"),
        (spaces, _row_repeated, lambda: named_example("sphere", dim=2, n=5, seed=0), InvalidInput,
         "points 0 and 1 are at distance 0"),
        (spaces, _row_zero, lambda: prescribed_signature_space(2, 3, 0), InvalidInput, "zero row"),
        (spaces, _row_repeated, lambda: prescribed_signature_space(2, 3, 0), InvalidInput, "points 0 and 1 coincide"),
        (spaces, _in_a_hyperplane, lambda: prescribed_signature_space(2, 3, 0), InvalidInput, "affine hyperplane"),
        (constructions, _on_a_line, lambda: perturb_to_max_negative(from_euclidean_points(_PLANAR), 0),
         EpsilonUnderflow, f"^at eps = {_PLAIN_FLOAT} no eigenvalue moves more than {_PLAIN_FLOAT}, "
                           f"but the signature contract needs a move of {_PLAIN_FLOAT}$"),
        (constructions, _rows_equal, lambda: perturb_to_max_negative(from_euclidean_points(_PLANAR), 0),
         EpsilonUnderflow, "^every random direction is the same, so no distance can move$"),
    ],
    ids=["sphere-zero-row", "sphere-repeated-row", "prescribed-zero-row", "prescribed-repeated-row",
         "prescribed-hyperplane", "perturb-rank-one", "perturb-equal-rows"],
)
def test_a_degenerate_draw_is_drawn_once_and_refused(module, degenerate, build, error, message, monkeypatch):
    # each site drew again, up to 100 times, on an event of probability
    # zero; it now draws once and leaves the draw to the checks downstream
    calls = []

    class Generator:
        def normal(self, size):
            calls.append(size)
            x = np.random.default_rng(1).normal(size=size)
            degenerate(x)
            return x

    monkeypatch.setattr(module, "_philox", lambda seed: Generator())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error, match=message):
            build()
    assert len(calls) == 1


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
        with pytest.raises(InvalidInput, match=re.escape("component 0 has diameter 1.0 > 2h = 0.8")):
            union_space([big, big], h=0.4)

    def test_labels_prefixed(self):
        out = union_space([named_example("simplex", n=2), named_example("simplex", n=2)], h=1.0)
        assert out.labels[0].startswith("c0:") and out.labels[-1].startswith("c1:")

    @pytest.mark.parametrize("comps, h", [
        ([named_example("sphere", dim=2, n=40, seed=s) for s in (1, 2)], 2.0),
        ([named_example("tripod"), named_example("simplex", n=3), named_example("tripod")], 1.0),  # diameter 2h
        ([named_example("sphere", dim=3, n=30, seed=4), named_example("tripod")], math.pi / 2),
    ])
    def test_a_union_skips_the_triangle_scan(self, comps, h, monkeypatch):
        # components of diameter at most 2h make the union a metric in
        # floating point too: it is built without the scan, and equals the
        # union the validated path builds from its distances and labels
        scans = []
        real = spaces._check_triangle
        monkeypatch.setattr(spaces, "_check_triangle", lambda D: scans.append(len(D)) or real(D))
        out = union_space(comps, h)
        assert scans == []
        checked = spaces.from_distance_matrix(out.dist, labels=out.labels)
        assert np.array_equal(out.dist, checked.dist) and out.labels == checked.labels
        with pytest.raises(InvalidInput, match="has diameter"):
            union_space(comps, np.nextafter(max(c.diameter for c in comps) / 2, 0))


class TestRadoModel:
    def test_validation(self):
        with pytest.raises(InvalidInput, match=re.escape("edge probability must be in (0, 1), got 0.0")):
            CountableRadoModel(edge_prob=0.0, seed=1)
        with pytest.raises(InvalidInput, match=re.escape("edge probability must be in (0, 1), got 1.0")):
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
        sp = model.metric_on(np.arange(12))
        for a in (1, 4, 6, 9):
            for b in (1, 4, 6, 9):
                if a != b:
                    assert sp.dist[a, b] == 1.0
        assert set(np.unique(sp.dist)) <= {0.0, 1.0, 2.0}
        clique_sub = model.metric_on([1, 4, 6, 9])
        assert np.array_equal(clique_sub.dist, named_example("simplex", n=4).dist)

    def test_predicate_cliques(self):
        assert ResidueClassClique(4).members(np.arange(8)).tolist() == [
            False, True, True, True, False, True, True, True,
        ]
        members = QuadraticGapClique().members(np.arange(30))
        # non-clique vertices sit at 1-based positions k^2 + k = 2, 6, 12, ...
        assert np.flatnonzero(~members).tolist() == [1, 5, 11, 19, 29]

    def test_members_match_scalar_rules(self):
        def quadratic(i):
            x = i + 1
            k = (math.isqrt(4 * x + 1) - 1) // 2
            return k * k + k != x

        idx = np.arange(200_001)
        expected = [quadratic(i) for i in range(200_001)]
        assert QuadraticGapClique().members(idx).tolist() == expected
        # around k^2 + k for k near 2^25, where 4x + 1 is near 2^52
        big = np.array(
            [k * k + k + d for k in (2**25 - 1, 2**25, 2**25 + 7) for d in range(-3, 3)]
        )
        assert QuadraticGapClique().members(big).tolist() == [quadratic(int(i)) for i in big]
        # and up to the largest int64 index; 4x + 1 overflows int64 from 2^61 on
        ks = (2**30 + 3, 2**31, 3037000498, 3037000499)  # k^2 + k <= 2^63 - 1 up to here
        top = [k * k + k + d for k in ks for d in range(-3, 3)]
        rng = np.random.default_rng(7)
        far = [*top, 2**61 - 2, 2**61, 2**62, 2**63 - 1,
               *rng.integers(2**61, 2**63 - 1, size=1000, endpoint=True).tolist()]
        assert QuadraticGapClique().members(far).tolist() == [quadratic(i) for i in far]
        for m in (2, 3, 31):
            assert ResidueClassClique(m).members(idx[:500]).tolist() == [
                i % m != 0 for i in range(500)
            ]
        chosen = {0, 2, 5, 11, 12}
        explicit = CountableRadoModel(0.5, 1, planted_clique=[12, 5, 0, 2, 11, 5]).planted_clique
        assert explicit == IndexClique((0, 2, 5, 11, 12))
        assert explicit.members(idx[:50]).tolist() == [i in chosen for i in range(50)]
        assert not IndexClique().members(idx[:5]).any()

    def test_json_round_trip(self):
        for clique in [*CLIQUES, frozenset(), ResidueClassClique(31)]:
            model = CountableRadoModel(0.25, 42, planted_clique=clique)
            back = model_from_json(model_to_json(model))
            assert back == model
            assert model_to_json(back) == model_to_json(model)
        # the index-list format written before rules were serializable
        old = model_from_json('{"p": 0.25, "planted_clique": [2, 0], "seed": 42}')
        assert old == CountableRadoModel(0.25, 42, planted_clique=frozenset({0, 2}))
        rule = model_to_json(CountableRadoModel(0.25, 1, planted_clique=ResidueClassClique(3)))
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
        ) == ResidueClassClique(31)
        assert parse_clique_spec("quadratic") == parse_clique_spec(
            {"rule": "quadratic"}
        ) == QuadraticGapClique()
        assert parse_clique_spec([3, 1]) == IndexClique((1, 3))
        assert parse_clique_spec(None) is None
        for bad in ("cubic", "modular", "modular:x", {"rule": "modular"}, {"modulus": 3}):
            with pytest.raises(InvalidInput):
                parse_clique_spec(bad)
        for bad, message in (("modular:1", "modulus must be >= 2"),
                             ([1, -2], "clique indices must be nonnegative")):
            with pytest.raises(InvalidInput, match=message):
                parse_clique_spec(bad)

    @pytest.mark.parametrize(
        "modulus", [2.5, True, "2.5", float("nan")], ids=["fraction", "bool", "string", "nan"]
    )
    def test_modulus_must_be_an_integer(self, modulus):
        # int() truncated 2.5 to 2 in the dict form and in model_from_json
        message = f"clique modulus must be an integer, got {modulus!r}"
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            parse_clique_spec({"rule": "modular", "modulus": modulus})
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            ResidueClassClique(modulus)
        doc = {"p": 0.5, "seed": 1, "planted_clique": {"rule": "modular", "modulus": modulus}}
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "modulus", [31, 31.0, "31", np.int64(31)], ids=["int", "float", "string", "numpy"]
    )
    def test_an_integral_modulus_is_kept(self, modulus):
        clique = parse_clique_spec({"rule": "modular", "modulus": modulus})
        assert clique == ResidueClassClique(31) and type(clique.modulus) is int
        assert clique.spec() == {"rule": "modular", "modulus": 31}

    def test_clique_indices_must_be_integers(self):
        # int() made the clique [0, 1.5, 2] into (0, 1, 2)
        for bad in ([0, 1.5, 2], [0, True, 2]):
            shown = bad[1]
            with pytest.raises(InvalidInput, match=f"^clique index must be an integer, got {shown!r}$"):
                parse_clique_spec(bad)
            with pytest.raises(InvalidInput, match=f"^clique index must be an integer, got {shown!r}$"):
                CountableRadoModel(edge_prob=0.5, seed=1, planted_clique=bad)
        assert IndexClique([2, 0.0, np.int64(5), "7"]).indices == (0, 2, 5, 7)

    def test_clique_index_outside_int64_is_refused(self):
        # the index 2^64 was kept, and the model's spec carried it
        with pytest.raises(InvalidInput, match=f"^clique index {2**64} is outside int64$"):
            CountableRadoModel(edge_prob=0.5, seed=1, planted_clique=[0, 2**64])

    def test_model_seed_must_be_an_integer(self):
        with pytest.raises(InvalidInput, match=r"^model seed must be an integer, got 1\.5$"):
            model_from_json('{"p": 0.5, "seed": 1.5}')
        assert model_from_json('{"p": 0.5, "seed": 7.0}') == CountableRadoModel(edge_prob=0.5, seed=7)

    def test_quadratic_rule_refuses_a_modulus(self):
        # the modulus was dropped and the quadratic clique planted
        for bad in ("quadratic:2", {"rule": "quadratic", "modulus": 3}):
            with pytest.raises(InvalidInput, match="quadratic clique rule takes no modulus"):
                parse_clique_spec(bad)
        doc = '{"p": 0.5, "seed": 1, "planted_clique": {"rule": "quadratic", "modulus": 3}}'
        with pytest.raises(InvalidInput, match="quadratic clique rule takes no modulus, got 3"):
            model_from_json(doc)


def _adjacency(n, edges):
    A = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        A[u, v] = A[v, u] = True
    return A


def _hop_metric(adj):
    """The hop metric of the graph of a boolean adjacency; None when the
    graph is disconnected."""
    try:
        return from_graph(Graph(len(adj), frozenset(zip(*np.nonzero(np.triu(adj, k=1)))))).dist
    except InvalidInput as exc:
        assert str(exc).startswith("no path between vertices")
        return None


def _one_two_rule(adj):
    """The {1, 2} distance rule on a boolean adjacency: 1 on edges, 2 off."""
    D = 2.0 - adj
    np.fill_diagonal(D, 0.0)
    return D


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
        np.testing.assert_array_equal(model.metric_on(np.arange(40)).dist, _hop_metric(adj))
        g = Graph(40, frozenset(zip(*np.nonzero(np.triu(adj, k=1)))))
        np.testing.assert_array_equal(model.s_matrix_on(np.arange(40)), s_matrix(from_graph(g)))

    def test_consistency_check_paths(self):
        # the {1, 2} rule is the hop metric iff the graph is connected with
        # diameter at most 2
        p3 = _adjacency(3, [(0, 1), (1, 2)])
        p4 = _adjacency(4, [(0, 1), (1, 2), (2, 3)])
        assert np.array_equal(_one_two_rule(p3), _hop_metric(p3))
        assert not np.array_equal(_one_two_rule(p4), _hop_metric(p4))
        assert _hop_metric(_adjacency(2, [])) is None  # disconnected pair
        assert np.array_equal(_one_two_rule(_adjacency(1, [])), _hop_metric(_adjacency(1, [])))

    def test_er_consistency_rate(self):
        # oracle: P(diameter > 2) <= N^2 (1 - p^2)^(N-2) ~ 3e-21 at N=200
        idx = np.arange(200)
        hits = sum(
            np.array_equal(model.metric_on(idx).dist, _hop_metric(model.adjacency_block(idx)))
            for model in (CountableRadoModel(edge_prob=0.5, seed=s) for s in range(40))
        )
        assert hits / 40 >= 0.99

    def test_metric_on_arbitrary_indices(self):
        model = CountableRadoModel(edge_prob=0.5, seed=2)
        sub = model.metric_on([3, 17, 5, 90])
        assert sub.labels == ("v3", "v17", "v5", "v90")
        big = model.metric_on(np.arange(100))
        np.testing.assert_array_equal(
            sub.dist, big.dist[np.ix_([3, 17, 5, 90], [3, 17, 5, 90])]
        )
        with pytest.raises(InvalidInput):
            model.metric_on([1, 1, 2])

    def test_rado_metric_space_signature_floor(self):
        model = CountableRadoModel(edge_prob=0.5, seed=2)
        sp = model.metric_on(np.arange(30))
        sig = space_signature(sp)
        assert sig.s_minus >= 1 and sig.s_plus >= 1

    def test_hilbertian_planted_clique_has_simplex_t(self):
        # the clique subspace is the simplex, so its centered matrix is PSD
        model = CountableRadoModel(
            edge_prob=0.5, seed=4, planted_clique=ResidueClassClique(2)
        )
        clique_idx = [i for i in range(20) if i % 2 != 0]
        sub = model.metric_on(clique_idx)
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
