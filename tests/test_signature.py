import json
import tracemalloc

import numpy as np
import pytest

from mmsig import linalg, spaces
from mmsig.constructions import CountableRadoModel, ResidueClassClique
from mmsig.errors import InvalidInput
from mmsig.sampling import DiscreteMeasure, sample_order, t_matrix
from mmsig.signature import (
    STABILIZATION_WINDOW,
    centered_signature,
    classify_embeddability,
    embedding_to_json,
    limit_signature_trajectory,
    mds_embed,
    s_matrix,
    space_signature,
    verify_isometry,
    write_trajectory_csv,
)
from mmsig.spaces import (
    FiniteMetricSpace,
    PseudoEuclideanPointSet,
    from_distance_matrix,
    from_euclidean_points,
    from_pseudo_euclidean,
    named_example,
)

from util_oracles import (
    circle_operator_eigenvalues,
    embedding_json_by_indent,
    random_cospherical_points,
    random_metric_matrix,
    sphere2_operator_eigenvalues,
    unit_square_corners,
)

EPS = np.finfo(float).eps


class TestSMatrix:
    def test_two_point(self):
        sp = from_distance_matrix([[0.0, 2.0], [2.0, 0.0]])
        np.testing.assert_array_equal(s_matrix(sp), [[0.0, -2.0], [-2.0, 0.0]])

    def test_tripod_is_minus_half_b4(self):
        sp = named_example("tripod")
        np.testing.assert_array_equal(-2.0 * s_matrix(sp), sp.dist**2)
        off = s_matrix(sp)[~np.eye(4, dtype=bool)]
        assert (off < 0).all()

    def test_simplex(self):
        sp = named_example("simplex", n=5)
        expect = -0.5 * (np.ones((5, 5)) - np.eye(5))
        np.testing.assert_array_equal(s_matrix(sp), expect)

    def test_s_matrix_on_equals_slice(self):
        sp = from_distance_matrix(random_metric_matrix(np.random.default_rng(4), 9))
        idx = [3, 0, 8, 3, 5]
        # bit for bit, so trajectories read the matrices they read before
        assert sp.s_matrix_on(idx).tobytes() == s_matrix(sp)[np.ix_(idx, idx)].tobytes()
        assert sp.s_matrix_on([]).shape == (0, 0)
        for bad in ([0, 9], [-1]):
            with pytest.raises(InvalidInput):
                sp.s_matrix_on(bad)

    def test_s_matrix_on_squares_only_the_slice(self):
        # squaring all 2000 points before slicing peaked at 30.5 MB
        P = np.random.default_rng(6).normal(size=(2000, 3))
        sp = from_euclidean_points(P)
        idx = [1999, 0, 7, 512, 7, 3, 1024, 88]
        tracemalloc.start()
        try:
            S = sp.s_matrix_on(idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert S.tobytes() == (-0.5 * sp.dist[np.ix_(idx, idx)] ** 2).tobytes()


class TestSpaceSignature:
    def test_tripod(self):
        assert space_signature(named_example("tripod")).signature == (1, 3)

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_extended_tripod(self, k):
        sig = space_signature(named_example("tripod_extended", n=4 + k))
        assert sig.signature == (2, k + 2)

    @pytest.mark.parametrize("n,p", [(6, 2), (8, 3), (9, 5)])
    def test_general_position_cospherical(self, n, p):
        # points in general position on a sphere spanning R^p
        rng = np.random.default_rng(n * 10 + p)
        sp = from_euclidean_points(random_cospherical_points(rng, n, p))
        assert space_signature(sp).counts() == (1, n - 1 - p, p)

    def test_ambient_generic_has_one_extra_positive(self):
        # without the cospherical constraint the squared-distance matrix has
        # rank p + 2: one more positive direction
        rng = np.random.default_rng(77)
        n, p = 10, 3
        sp = from_euclidean_points(rng.normal(size=(n, p)))
        assert space_signature(sp).counts() == (1, n - p - 2, p + 1)

    def test_perron_floor(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            sp = from_distance_matrix(random_metric_matrix(rng, int(rng.integers(2, 9))))
            sig = space_signature(sp)
            assert sig.s_minus >= 1 and sig.s_plus >= 1


class TestCenteredSignature:
    def test_euclidean_no_negatives(self):
        rng = np.random.default_rng(3)
        sp = from_euclidean_points(rng.normal(size=(8, 3)))
        cs = centered_signature(sp)
        assert cs.s_minus == 0 and cs.s_zero >= 1

    def test_tripod(self):
        assert centered_signature(named_example("tripod")).counts() == (1, 1, 2)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_simplex(self, n):
        # oracle: vectors orthogonal to 1 are eigenvectors with eigenvalue
        # 1/2, and 1 spans the kernel, so (0, 1, n-1)
        assert centered_signature(named_example("simplex", n=n)).counts() == (0, 1, n - 1)


class TestTrajectory:
    def test_simplex_prefixes(self):
        sp = named_example("simplex", n=10)
        traj = limit_signature_trajectory(sp, np.arange(10), sizes=range(2, 11))
        for size, ine in zip(traj.sizes, traj.inertias):
            assert (ine.s_minus, ine.s_plus) == (1, size - 1)

    def test_extended_tripod_prefixes(self):
        sp = named_example("tripod_extended", n=30)
        traj = limit_signature_trajectory(sp, np.arange(30), sizes=range(5, 31))
        pluses = [i.s_plus for i in traj.inertias]
        assert pluses == list(range(3, 29))
        assert all(i.s_minus == 2 for i in traj.inertias)

    def test_monotone_along_prefixes(self):
        rng = np.random.default_rng(10)
        sp = from_distance_matrix(random_metric_matrix(rng, 20))
        traj = limit_signature_trajectory(sp, np.arange(20))
        sig = [i.signature for i in traj.inertias]
        assert all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(sig, sig[1:]))

    def test_gv_sampling_stabilizes_at_space_signature(self):
        # 30 points in general position in R^2 have the signature (1, 3)
        # from 4 points on, so a sample that covers them all ends on a
        # plateau of more than STABILIZATION_WINDOW steps
        sp = from_euclidean_points(np.random.default_rng(4).normal(size=(30, 2)))
        traj = limit_signature_trajectory(sp, sample_order(DiscreteMeasure.uniform(30), 2000, seed=2))
        assert len(traj.sizes) == 30 > STABILIZATION_WINDOW
        assert traj.inertias[-1].signature == space_signature(sp).signature == (1, 3)
        assert traj.stabilized == (1, 3)

    def test_stabilization_window(self):
        sp = named_example("simplex", n=30)
        traj = limit_signature_trajectory(sp, np.arange(30))
        assert traj.stabilized is None  # s_plus grows at every step
        plane = from_euclidean_points(np.random.default_rng(4).normal(size=(30, 2)))
        # sizes 4, 5, ... all read (1, 3): a plateau needs 25 of them
        short = limit_signature_trajectory(plane, np.arange(30), sizes=range(4, 28))
        assert len(short.sizes) == STABILIZATION_WINDOW - 1 and short.stabilized is None
        full = limit_signature_trajectory(plane, np.arange(30), sizes=range(4, 29))
        assert len(full.sizes) == STABILIZATION_WINDOW and full.stabilized == (1, 3)

    @pytest.mark.parametrize("seed", [5, 13, 26])
    def test_sphere_counts_against_one_band(self, seed):
        # Counted against each prefix's own theta, these samples lost a
        # negative or positive count along the way (MonotonicityViolation at
        # prefixes 148, 27 and 200). One band for the family keeps them
        # monotone, and the full space keeps its signature.
        sp = named_example("sphere", dim=2, n=200, seed=seed)
        traj = limit_signature_trajectory(sp, np.arange(200))
        whole = space_signature(sp)
        assert traj.inertias[-1].counts() == whole.counts()
        assert len({i.tol for i in traj.inertias}) == 1
        assert traj.inertias[-1].tol == pytest.approx(whole.tol, rel=1e-13, abs=0.0)
        sig = [i.signature for i in traj.inertias]
        assert all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(sig, sig[1:]))

    def test_bad_order_rejected(self):
        sp = named_example("simplex", n=4)
        with pytest.raises(InvalidInput):
            limit_signature_trajectory(sp, order=[0, 0, 1])
        with pytest.raises(InvalidInput):
            limit_signature_trajectory(sp, np.arange(4), sizes=[3, 2])
        for order in ([0, 4], [-1, 0]):
            with pytest.raises(InvalidInput):
                limit_signature_trajectory(sp, order=order)

    @pytest.mark.parametrize(
        "order, sizes, what",
        [
            ([0, 1.6, 2.2, 3], None, "point index"),
            ([0, True, 2, 3], None, "point index"),
            (np.array([0.0, 1.5, 2.0]), None, "point index"),
            (range(4), [2.7, 3.9], "prefix size"),
            (range(4), [True, 4], "prefix size"),
            (range(4), np.array([2.5, 4.0]), "prefix size"),
        ],
    )
    def test_fractions_and_bools_are_not_truncated(self, order, sizes, what):
        # the order [0, 1.6, 2.2, 3] was read as [0, 1, 2, 3], the sizes
        # [2.7, 3.9] as [2, 3] and [True, 4] as [1, 4]
        sp = named_example("simplex", n=4)
        with pytest.raises(InvalidInput, match=f"^{what} must be an integer, got "):
            limit_signature_trajectory(sp, order, sizes=sizes)

    @pytest.mark.parametrize(
        "order, shown",
        [([0, 2**64], 2**64), ([0, -(2**63) - 1], -(2**63) - 1), (np.array([0, 2**63], dtype=np.uint64), 2**63)],
        ids=["2^64", "below-int64", "uint64"],
    )
    def test_indices_outside_int64_are_refused(self, order, shown):
        # a Python int past int64 raised a bare OverflowError, and a uint64
        # index of 2^63 wrapped to -2^63
        with pytest.raises(InvalidInput, match=f"^point index {shown} is outside int64$"):
            limit_signature_trajectory(named_example("tripod"), order)

    def test_integral_orders_and_sizes_are_taken(self):
        sp = named_example("simplex", n=4)
        want = limit_signature_trajectory(sp, [0, 1, 2, 3], sizes=[2, 4])
        for order, sizes in (
            (np.array([0.0, 1.0, 2.0, 3.0]), [2.0, 4.0]),
            (np.arange(4, dtype=np.uint8), np.array([2, 4], dtype=np.int32)),
            (range(4), ["2", 4]),
        ):
            got = limit_signature_trajectory(sp, order, sizes=sizes)
            assert got == want and all(type(k) is int for k in got.sizes)

    def test_model_needs_an_order(self):
        # a model has no natural order, and neither source gets a default one
        with pytest.raises(TypeError):
            limit_signature_trajectory(CountableRadoModel(edge_prob=0.5, seed=1))

    def test_csv_output(self, tmp_path):
        sp = named_example("simplex", n=5)
        traj = limit_signature_trajectory(sp, np.arange(5))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path, comment="x")
        lines = path.read_text().strip().splitlines()
        assert lines[1] == "size,s_minus,s_zero,s_plus,theta"
        assert len(lines) == 2 + len(traj.sizes)


class TestSampledTrajectory:
    def test_monotone_and_deterministic(self):
        model = CountableRadoModel(edge_prob=0.5, seed=13)
        measure = DiscreteMeasure.geometric(0.9)
        a = limit_signature_trajectory(model, sample_order(measure, 400, seed=6))
        b = limit_signature_trajectory(model, sample_order(measure, 400, seed=6))
        assert a.sizes == b.sizes
        assert [i.counts() for i in a.inertias] == [i.counts() for i in b.inertias]
        sigs = [i.signature for i in a.inertias]
        assert all(x[0] <= y[0] and x[1] <= y[1] for x, y in zip(sigs, sigs[1:]))

    def test_matches_direct_metric_on_dedup(self):
        model = CountableRadoModel(edge_prob=0.4, seed=21)
        measure = DiscreteMeasure.geometric(0.8)
        traj = limit_signature_trajectory(model, sample_order(measure, 200, seed=3))
        dedup = sample_order(measure, 200, seed=3)
        direct = limit_signature_trajectory(model.metric_on(dedup), np.arange(dedup.size))
        assert traj.sizes == direct.sizes
        assert [i.counts() for i in traj.inertias] == [
            i.counts() for i in direct.inertias
        ]

    def test_no_triangle_scan(self, monkeypatch):
        # the {1, 2} table is a metric by construction; nothing validates it
        def scan(*args, **kwargs):
            raise AssertionError("triangle scan on a {1, 2} model table")

        monkeypatch.setattr(spaces, "_check_triangle", scan)
        model = CountableRadoModel(edge_prob=0.5, seed=13, planted_clique=ResidueClassClique(5))
        traj = limit_signature_trajectory(
            model, sample_order(DiscreteMeasure.geometric(0.9), 200, seed=2)
        )
        assert len(traj.sizes) == traj.sizes[-1] > 1

    def test_empty_sample_rejected(self):
        for source in (CountableRadoModel(edge_prob=0.5, seed=1), named_example("tripod")):
            with pytest.raises(InvalidInput):
                limit_signature_trajectory(source, sample_order(DiscreteMeasure.geometric(0.5), 0, seed=1))


class TestMdsEmbed:
    def test_unit_square(self):
        sp = from_euclidean_points(unit_square_corners())
        emb = mds_embed(sp)
        assert (emb.n_neg, emb.n_pos) == (0, 2)
        assert verify_isometry(emb, sp) <= 1e-9 * sp.diameter

    def test_tripod(self):
        sp = named_example("tripod")
        emb = mds_embed(sp)
        assert (emb.n_neg, emb.n_pos) == (1, 2)
        assert verify_isometry(emb, sp) <= 1e-9 * sp.diameter

    def test_single_point(self):
        sp = from_distance_matrix([[0.0]])
        emb = mds_embed(sp)
        assert (emb.n_neg, emb.n_pos) == (0, 0)
        assert verify_isometry(emb, sp) == 0.0

    def test_deterministic_signs(self):
        sp = named_example("sphere", dim=2, n=12, seed=5)
        a = mds_embed(sp)
        b = mds_embed(sp)
        assert np.array_equal(a.points, b.points)

    def test_each_axis_has_its_largest_entry_positive(self):
        sp = CountableRadoModel(edge_prob=0.5, seed=7).metric_on(np.arange(60))
        P = mds_embed(sp).points
        assert P.shape[1] > 50
        lead = np.abs(P).argmax(axis=0)
        assert (P[lead, np.arange(P.shape[1])] > 0).all()

    def test_euclidean_round_trip_machine_precision(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(10, 3))
        sp = from_euclidean_points(pts)
        emb = mds_embed(sp)
        assert verify_isometry(emb, sp) <= 1e3 * EPS * sp.diameter


class TestVerifyIsometry:
    def test_zeroed_coordinate_breaks_identity(self):
        sp = named_example("tripod")
        emb = mds_embed(sp)
        pts = emb.points.copy()
        pts[0, emb.n_neg] = 0.0  # kill point 0's leading positive coordinate
        broken = PseudoEuclideanPointSet(emb.n_neg, emb.n_pos, pts)
        assert verify_isometry(broken, sp) > 1e-3

    def test_size_mismatch(self):
        sp = named_example("simplex", n=3)
        emb = mds_embed(named_example("simplex", n=4))
        with pytest.raises(InvalidInput):
            verify_isometry(emb, sp)


class TestClassify:
    def test_simplex_euclidean(self):
        v = classify_embeddability(named_example("simplex", n=6))
        assert v.kind == "euclidean" and v.n_pos == 5
        assert v.describe() == "euclidean(5)"

    def test_tripod_pseudo(self):
        v = classify_embeddability(named_example("tripod"))
        assert (v.kind, v.n_neg, v.n_pos) == ("pseudo", 1, 2)

    def test_collinear_euclidean_line(self):
        v = classify_embeddability(from_euclidean_points([[0.0], [1.0], [3.0]]))
        assert v.describe() == "euclidean(1)"

    def test_certificate_matches_centered(self):
        sp = named_example("tripod_extended", n=7)
        v = classify_embeddability(sp)
        assert v.certificate.counts() == centered_signature(sp).counts()


class TestKernelReconstruction:
    # V diag(lambda) V^T of the centered kernel matrix rebuilds it to machine scale

    def test_uniform_measure_machine_scale(self):
        sp = named_example("sphere", dim=2, n=15, seed=9)
        T = t_matrix(sp, DiscreteMeasure.uniform(15))
        vals, vecs = linalg.eig_sym(T)
        norm = np.abs(s_matrix(sp)).max()
        assert np.abs((vecs * vals) @ vecs.T - T).max() <= 100 * 15 * EPS * norm

    def test_tripod_weighted(self):
        T = t_matrix(named_example("tripod"), DiscreteMeasure([0.4, 0.3, 0.2, 0.1]))
        vals, vecs = linalg.eig_sym(T)
        assert np.abs((vecs * vals) @ vecs.T - T).max() <= 100 * 4 * EPS * 2.0

    def test_single_point(self):
        T = t_matrix(from_distance_matrix([[0.0]]), DiscreteMeasure([1.0]))
        vals, vecs = linalg.eig_sym(T)
        assert np.abs((vecs * vals) @ vecs.T - T).max() == 0.0


class TestEmbedClassifyConsistency:
    def test_embed_then_classify_idempotent(self):
        for sp in (
            named_example("tripod"),
            named_example("simplex", n=5),
            named_example("tripod_extended", n=7),
        ):
            back = from_pseudo_euclidean(mds_embed(sp))
            assert space_signature(back).signature == space_signature(sp).signature

    def test_converse_bound(self):
        # spaces realized in R^(n,p) have centered signature at most (n, p)
        rng = np.random.default_rng(14)
        for _ in range(10):
            sp = from_distance_matrix(random_metric_matrix(rng, 8))
            emb = mds_embed(sp)
            realized = from_pseudo_euclidean(emb)
            cs = centered_signature(realized)
            assert cs.s_minus <= emb.n_neg and cs.s_plus <= emb.n_pos

    def test_embedding_json_round_trip(self):
        emb = mds_embed(named_example("tripod"))
        text = "".join(embedding_to_json(emb, provenance={"seed": 0}))
        doc = json.loads(text)
        assert (doc["n_neg"], doc["n_pos"]) == (emb.n_neg, emb.n_pos) == (1, 2)
        assert np.array_equal(np.array(doc["points"]), emb.points)

    @pytest.mark.parametrize(
        "provenance",
        [None, {"seed": 5, "tol_rel": 1e-9, "version": "0.1.0"},
         {"alpha": [1, 2.5], "zeta": {"points": None, "text": '\n  "points": null'}}],
    )
    def test_embedding_json_matches_the_indenting_encoder(self, provenance):
        upper = np.triu(np.random.default_rng(8).random((40, 40)) < 0.5, k=1)
        one_two = np.where(upper | upper.T, 1.0, 2.0)
        np.fill_diagonal(one_two, 0.0)
        embeddings = [
            mds_embed(sp)
            for sp in (
                named_example("tripod"),
                named_example("simplex", n=5),
                named_example("sphere", dim=2, n=30, seed=3),
                from_distance_matrix(one_two),
                from_distance_matrix([[0.0]]),  # one point, zero width
            )
        ]
        embeddings.append(PseudoEuclideanPointSet(1, 1, np.zeros((0, 2))))  # no points
        assert embeddings[-2].points.shape == (1, 0)
        for emb in embeddings:
            assert "".join(embedding_to_json(emb, provenance)) == embedding_json_by_indent(emb, provenance)


class TestSphereOperatorOracle:
    """S/n of n uniform points on a sphere with the geodesic metric tends to
    the integral operator of the kernel -theta^2/2, whose eigenvalues are
    known in closed form. The largest-|lambda| eigenvalues of the sample
    take the operator's signs, so both s_minus and s_plus of the sphere
    grow without bound."""

    @staticmethod
    def _largest(space, count):
        vals = linalg.eig_sym(s_matrix(space) / space.n).eigenvalues
        return vals[np.argsort(-np.abs(vals), kind="stable")][:count]

    @pytest.mark.parametrize("n", [200, 400])
    def test_circle(self, n):
        # arc lengths straight from the angles: the circle's points are
        # nearly collinear, so arccos of a Gram entry is too coarse here
        angles = np.random.default_rng(n).uniform(0.0, 2.0 * np.pi, n)
        gap = np.abs(angles[:, None] - angles[None, :])
        space = from_distance_matrix(np.minimum(gap, 2.0 * np.pi - gap))
        expect = circle_operator_eigenvalues(11)  # -pi^2/6, then +-1/k^2 twice, k <= 5
        got = self._largest(space, 11)
        assert (np.sign(got) == np.sign(expect)).all()
        assert np.abs(got - expect).max() < 0.2

    @pytest.mark.parametrize("n", [200, 400])
    def test_two_sphere(self, n):
        lam = sphere2_operator_eigenvalues(3)  # degree l has multiplicity 2l + 1
        expect = np.repeat(lam, 2 * np.arange(4) + 1)
        got = self._largest(named_example("sphere", dim=2, n=n, seed=n), len(expect))
        assert list(np.abs(lam)) == sorted(np.abs(lam), reverse=True)
        assert (np.sign(got) == np.sign(expect)).all()
        assert np.abs(got - expect).max() < 0.2
