import tracemalloc

import numpy as np
import pytest

from mmsig import linalg
from mmsig.constructions import CountableRadoModel, residue_class_clique
from mmsig.errors import InvalidInput, InvalidMeasure
from mmsig.linalg import (
    as_sym_matrix,
    double_center,
    eig_sym,
    inertia,
    prefix_inertias,
    weighted_center,
)
from mmsig.sampling import DiscreteMeasure, gv_sample, sample_order, trial_seed
from mmsig.spaces import from_euclidean_points, named_example
from mmsig.spectral import default_checkpoints, esd_and_inertia

from util_oracles import (
    b_matrix,
    centered_gram,
    charpoly_eigenvalues,
    count_inertia,
    prefix_counts_by_eigvalsh,
    random_cospherical_points,
    random_symmetric,
    unit_square_corners,
)

EPS = np.finfo(float).eps


class TestEigSym:
    def test_identity(self):
        vals, vecs = eig_sym(np.eye(3))
        np.testing.assert_allclose(vals, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(vecs @ vecs.T, np.eye(3), atol=1e-14)

    def test_simplex_spectrum(self):
        # -1/2 off the diagonal: one eigenvalue -(N-1)/2, the rest 1/2
        n = 4
        S = -0.5 * (np.ones((n, n)) - np.eye(n))
        vals = eig_sym(S).eigenvalues
        np.testing.assert_allclose(vals, [-1.5, 0.5, 0.5, 0.5], atol=1e-14)

    def test_swap_matrix(self):
        vals = eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]])).eigenvalues
        np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-15)

    def test_residual_invariants_random(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 17, 40):
            A = random_symmetric(rng, n, scale=3.0)
            vals, vecs = eig_sym(A)
            norm = np.abs(vals).max()
            assert np.all(np.diff(vals) >= 0)
            res = np.abs(A @ vecs - vecs * vals[None, :]).max()
            assert res <= 20 * n * EPS * norm
            assert np.abs(vecs.T @ vecs - np.eye(n)).max() <= 20 * n * EPS
            rebuilt = (vecs * vals[None, :]) @ vecs.T
            assert np.abs(rebuilt - A).max() <= 20 * n * EPS * norm

    def test_matches_charpoly_oracle(self):
        rng = np.random.default_rng(3)
        A = random_symmetric(rng, 6)
        np.testing.assert_allclose(
            eig_sym(A).eigenvalues, charpoly_eigenvalues(A), atol=1e-8
        )

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            eig_sym(np.array([[0.0, np.nan], [np.nan, 0.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInput):
            eig_sym(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInput):
            eig_sym(np.zeros((2, 3)))


class TestInertia:
    def test_explicit_diagonal(self):
        ine = inertia(np.diag([1.0, -2.0, 0.0]))
        assert ine.counts() == (1, 1, 1)
        assert ine.n == 3

    def test_b4(self):
        assert inertia(b_matrix(4)).counts() == (3, 0, 1)

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_extended_tripod(self, k):
        assert inertia(b_matrix(4 + k)).counts() == (k + 2, 0, 2)

    def test_theta_stored(self):
        vals = np.array([2.0, -1.0, 0.0])
        ine = inertia(np.diag(vals), tol_rel=1e-6)
        assert ine.tol == pytest.approx(1e-6 * 3 * 2.0)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(InvalidInput):
            inertia(np.eye(2), tol_rel=-1.0)


@pytest.mark.parametrize("entry", [inertia, lambda a: esd_and_inertia(a)[1]],
                         ids=["inertia", "esd_and_inertia"])
@pytest.mark.parametrize(
    "a, message",
    [
        (np.zeros((2, 3)), "matrix must be square, got shape (2, 3)"),
        (np.zeros((0, 0)), "matrix must have order >= 1"),
        (np.array([[0.0, np.inf], [np.inf, 0.0]]), "matrix has non-finite entries"),
        (np.array([[0.0, 1.0], [2.0, 0.0]]), "matrix is not symmetric (max |A - A^T| = 1.000e+00)"),
    ],
    ids=["non-square", "empty", "non-finite", "asymmetric"],
)
def test_entry_points_validate(entry, a, message, monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: pytest.fail("eigensolved"))
    with pytest.raises(InvalidInput) as exc:
        entry(a)
    assert str(exc.value) == message


def test_prefix_inertias_validate_the_matrix_once(monkeypatch):
    # each eigensolved block is a block of the validated matrix; only the
    # Schur complements, which eig_sym solves, pass the gate again
    S = named_example("sphere", dim=2, n=200, seed=1).s_matrix_on(range(200))
    calls = dict.fromkeys(["as_sym_matrix", "eig_sym", "_eigenvalues"], 0)
    for name in calls:
        def counted(*args, _f=getattr(linalg, name), _name=name):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(linalg, name, counted)
    prefix_inertias(S, range(1, 201))
    assert calls["_eigenvalues"] > 100
    assert calls["as_sym_matrix"] == 1 + calls["eig_sym"]


def _eigensolve_orders(monkeypatch):
    """Orders of the blocks ``linalg._eigenvalues`` solves from now on."""
    orders = []
    real = linalg._eigenvalues

    def counted(a):
        orders.append(len(a))
        return real(a)

    monkeypatch.setattr(linalg, "_eigenvalues", counted)
    return orders


def _schur_steps(monkeypatch):
    """(a, k, certified) of each ``linalg._schur_step`` from now on."""
    steps = []
    real = linalg._schur_step

    def counted(A, inv, a, k, bound):
        neg = real(A, inv, a, k, bound)
        steps.append((a, k, neg is not None))
        return neg

    monkeypatch.setattr(linalg, "_schur_step", counted)
    return steps


def _model_s(n_draws=3000, seed=11):
    order = sample_order(DiscreteMeasure.geometric(0.99), n_draws, seed)
    return CountableRadoModel(edge_prob=0.5, seed=3).s_matrix_on(order)


class TestPrefixInertias:
    FAMILIES = {
        "tripod_extended": lambda: named_example("tripod_extended", n=120).s_matrix_on(range(120)),
        "simplex": lambda: named_example("simplex", n=80).s_matrix_on(range(80)),
        "sphere": lambda: named_example("sphere", dim=2, n=150, seed=13).s_matrix_on(range(150)),
        "rado_model": _model_s,
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_eigvalsh_on_every_prefix(self, family, monkeypatch):
        S = self.FAMILIES[family]()
        N = S.shape[0]
        sizes = list(range(1, N + 1))
        whole = inertia(S)
        orders = _eigensolve_orders(monkeypatch)
        got = prefix_inertias(S, sizes)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes)
        # one band: the largest block's, its max|lambda| from a Perron bracket
        assert len({i.tol for i in got}) == 1
        assert got[-1].tol == pytest.approx(whole.tol, rel=1e-13, abs=0.0)
        assert got[-1].counts() == whole.counts()
        if family in ("tripod_extended", "simplex"):
            # the hollow 1x1 block is singular and the 2x2 block re-anchors;
            # bordering certifies every other step, the largest too
            assert orders == [1, 2]
        if family == "rado_model":
            # some bordered step failed its certificate and was eigensolved,
            # and the counts above still match
            assert any(2 < k < N for k in orders)
            assert len(orders) < N // 5

    def test_sizes_with_gaps(self):
        S = _model_s()
        sizes = [3, 4, 40, 41, 150, 300]
        got = prefix_inertias(S, sizes)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes)
        assert [i.n for i in got] == sizes

    @pytest.mark.parametrize(
        "family, tol_rel",
        [("weak_direction", 0.0), ("planar_points", 0.0), ("sphere", 1e-9)],
    )
    def test_gapped_sizes_take_certified_schur_blocks(self, family, tol_rel, monkeypatch):
        S = {
            "weak_direction": self._weak_direction,
            "planar_points": self._planar_points,
            "sphere": self.FAMILIES["sphere"],
        }[family]()
        sizes = sorted({int(k) for k in np.geomspace(2, len(S), 12)})
        steps = _schur_steps(monkeypatch)
        got = prefix_inertias(S, sizes, tol_rel=tol_rel)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes, tol_rel)
        # the first sizes are steps, and some steps add a certified block of
        # several orders at once
        assert [k for _, k, _ in steps[:2]] == sizes[:2]
        assert any(k - a > 1 and certified for a, k, certified in steps)

    def test_failed_block_falls_back_to_an_eigensolve(self, monkeypatch):
        # S of planar points has rank <= 4, so the step from 3 to 6 points
        # cannot be certified at tol 0 and block 6 is eigensolved
        S = self._planar_points()
        sizes = [3, 6, 12, len(S)]
        steps = _schur_steps(monkeypatch)
        orders = _eigensolve_orders(monkeypatch)
        got = prefix_inertias(S, sizes, tol_rel=0.0)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes, 0.0)
        assert steps[:2] == [(0, 3, True), (3, 6, False)]
        # 12 and 60 are too wide a step from the last certified block
        assert orders == [6, 12, len(S)]

    def test_a_block_wider_than_its_anchor_is_eigensolved(self, monkeypatch):
        S = _model_s()
        N = len(S)
        sizes = [2, N - 1, N]
        steps = _schur_steps(monkeypatch)
        orders = _eigensolve_orders(monkeypatch)
        got = prefix_inertias(S, sizes)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes)
        # N - 1 anchors the step to N, which needs no eigensolve
        assert steps == [(N - 1, N, True)] and orders == [2, N - 1]

    @pytest.mark.parametrize("sizes", [[2, 4], []])
    def test_inverse_buffer_stops_below_the_largest_size(self, sizes):
        # a step to the largest size writes no rows of its inverse, and this
        # one is eigensolved, so the inverse buffer needs only the
        # second-largest order
        N = 300
        S = random_symmetric(np.random.default_rng(0), N)
        tracemalloc.start()
        try:
            got = prefix_inertias(S, sizes + [N])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes + [N])
        assert peak < 8 * N * N // 2

    def test_exact_signs_at_zero_tolerance(self):
        S = named_example("tripod_extended", n=30).s_matrix_on(range(30))
        got = prefix_inertias(S, range(1, 31), tol_rel=0.0)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, list(range(1, 31)), 0.0)
        assert {i.tol for i in got} == {0.0}

    @staticmethod
    def _planar_points():
        # S of 60 planar points has rank <= 4: every larger block is singular
        pts = np.random.default_rng(4).normal(size=(60, 2))
        return from_euclidean_points(pts).s_matrix_on(range(60))

    @staticmethod
    def _weak_direction():
        # a rank-6 Gram form whose sixth direction is weaker by 1e-9: its
        # 6x6 block is regular but so ill conditioned that a bordered inverse
        # through it carries pivot errors far above eps * max|lambda|
        X = np.random.default_rng(4).normal(size=(40, 6))
        return X @ np.diag([1.0, 1.0, 1.0, -1.0, -1.0, 1e-9]) @ X.T

    @pytest.mark.parametrize("family", ["planar_points", "weak_direction"])
    def test_zero_tolerance_on_a_singular_family(self, family):
        # With tol_rel = 0 the band is empty, so only the floor of the
        # certificate keeps roundoff-sized pivots from being counted. S of
        # planar points has rank <= 4: every larger block is singular.
        if family == "planar_points":
            pts = np.random.default_rng(4).normal(size=(60, 2))
            S = from_euclidean_points(pts).s_matrix_on(range(60))
        else:
            S = self._weak_direction()
        sizes = list(range(1, len(S) + 1))
        got = prefix_inertias(S, sizes, tol_rel=0.0)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes, 0.0)

    def test_bad_sizes_rejected(self):
        S = named_example("simplex", n=5).s_matrix_on(range(5))
        for sizes in ([0, 2], [2, 6], [3, 3], [4, 2]):
            with pytest.raises(InvalidInput):
                prefix_inertias(S, sizes)
        with pytest.raises(InvalidInput):
            prefix_inertias(S, [2], tol_rel=-1.0)
        assert prefix_inertias(S, []) == []


def _class_biased_trial(seed, m_max=3000):
    """-d^2/2 on the dedup sample of one class-biased ratio trial, with its
    distinct checkpoint sizes."""
    model = CountableRadoModel(edge_prob=0.5, seed=424242, planted_clique=residue_class_clique(31))
    sample = gv_sample(DiscreteMeasure.class_biased(30, 0.9), m_max, trial_seed(seed, 0))
    sizes = np.searchsorted(sample.first_draws, default_checkpoints(m_max))
    return model.s_matrix_on(sample.dedup), sorted({int(k) for k in sizes})


class TestPerronBand:
    FAMILIES = {
        "rado_trial": lambda: _class_biased_trial(5)[0],
        "sphere": lambda: named_example("sphere", dim=2, n=200, seed=5).s_matrix_on(range(200)),
        "simplex": lambda: named_example("simplex", n=80).s_matrix_on(range(80)),
        "tripod_extended": lambda: named_example("tripod_extended", n=120).s_matrix_on(range(120)),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_bracket_holds_the_largest_modulus(self, family):
        S = self.FAMILIES[family]()
        N = len(S)
        rho = float(np.abs(np.linalg.eigvalsh(S)).max())
        rho_hat, rho_hi = linalg._perron_bracket(S)
        # a Rayleigh quotient of -S is at most its Perron root, the upper end
        # at least; both within roundoff of eigvalsh's value
        assert rho_hat <= rho * (1 + N * EPS) and rho <= rho_hi
        assert rho_hi - rho_hat <= (1e-14 + (N + 3) * EPS) * rho_hi
        theta = prefix_inertias(S, [N // 2, N])[-1].tol
        assert theta == pytest.approx(1e-9 * N * rho, rel=1e-13, abs=0.0)

    def test_class_biased_trials_match_eigvalsh(self, monkeypatch):
        # every largest checkpoint is counted by a Schur step
        orders = _eigensolve_orders(monkeypatch)
        for seed in range(16):
            S, sizes = _class_biased_trial(seed, m_max=1200)
            got = prefix_inertias(S, sizes)
            assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes), seed
            assert sizes[-1] not in orders
        assert len(orders) <= 2

    @pytest.mark.parametrize("dim, n", [(2, 200), (3, 120)])
    def test_sphere_families_eigensolve_their_largest_block(self, dim, n, monkeypatch):
        # the steps of these sphere families fail their certificates, so no
        # anchor leads to the largest block and it is eigensolved, against the
        # band of the bracket
        S = named_example("sphere", dim=dim, n=n, seed=1).s_matrix_on(range(n))
        sizes = list(range(1, n + 1))
        orders = _eigensolve_orders(monkeypatch)
        got = prefix_inertias(S, sizes)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes)
        assert orders[-1] == n and linalg._perron_bracket(S) is not None

    def test_a_failed_largest_step_is_eigensolved(self, monkeypatch):
        # 12 cospherical points of R^10: S has rank 11, so the step from 11
        # points to 12 cannot be certified
        P = random_cospherical_points(np.random.default_rng(1), 12, 10)
        S = from_euclidean_points(P).s_matrix_on(range(12))
        steps = _schur_steps(monkeypatch)
        orders = _eigensolve_orders(monkeypatch)
        got = prefix_inertias(S, [8, 11, 12], tol_rel=0.0)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, [8, 11, 12], 0.0)
        assert steps == [(0, 8, True), (8, 11, True), (11, 12, False)] and orders == [12]

    @pytest.mark.parametrize("kind", ["generic", "positive_entry", "slow_bracket"])
    def test_no_bracket_takes_the_eigensolve(self, kind, monkeypatch):
        if kind == "generic":
            S = random_symmetric(np.random.default_rng(2), 60)
        elif kind == "positive_entry":
            S = named_example("sphere", dim=2, n=60, seed=1).s_matrix_on(range(60))
            S[0, 1] = S[1, 0] = 0.25
        else:  # a cluster and a far point: -S has an eigenvalue near minus its Perron root
            x = np.concatenate([np.random.default_rng(2).uniform(0, 1, 30), [100.0]])
            S = from_euclidean_points(x[:, None]).s_matrix_on(range(31))
        N = len(S)
        assert linalg._perron_bracket(S) is None
        orders = _eigensolve_orders(monkeypatch)
        sizes = [N // 2, N - 1, N]
        got = prefix_inertias(S, sizes)
        assert orders[0] == N
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes)
        assert got[-1] == inertia(S)  # the eigensolve's theta, bit for bit

    def test_one_point(self):
        assert prefix_inertias(np.zeros((1, 1)), [1]) == [linalg.Inertia(0, 1, 0, 0.0)]
        assert prefix_inertias([[-2.0]], [1])[0].counts() == (1, 0, 0)


def _schur_step_from(A, a, k, bound=0.0):
    """``linalg._schur_step`` from the leading block of order a, with its
    inverse from ``np.linalg.inv``, to the block of order k: (the negatives
    it adds, or None, and the inverse buffer after the step)."""
    A = np.asarray(A, dtype=float)
    inv = np.zeros((k, k))
    inv[:a, :a] = np.linalg.inv(A[:a, :a])
    return linalg._schur_step(A, inv, a, k, bound), inv


class TestSchurComplement:
    # _schur_step is the one Schur complement: the count of A_k / A_a and the
    # inverse of A_k, built from that of A_a

    def test_block_diagonal(self):
        P = np.array([[2.0, 1.0], [1.0, 2.0]])
        Q = np.array([[5.0]])
        A = np.block([[P, np.zeros((2, 1))], [np.zeros((1, 2)), Q]])
        neg, inv = _schur_step_from(A, 2, 3)
        assert neg == 0
        np.testing.assert_allclose(inv, np.linalg.inv(A), rtol=1e-14, atol=1e-15)
        assert inv[2, 2] == 1.0 / 5.0  # the complement is Q

    def test_two_by_two_closed_form(self):
        a, b, c = 3.0, 2.0, 7.0
        neg, inv = _schur_step_from([[a, b], [b, c]], 1, 2)
        assert neg == 0
        assert inv[1, 1] == pytest.approx(1.0 / (c - b * b / a), rel=1e-14)

    @pytest.mark.parametrize("k", [2, 5])
    def test_extended_tripod_block(self, k):
        # b's complement of the 4-point head is (4/3)(8 I + 11 (J - I)), so
        # that of -b/2 has one eigenvalue -(2/3)(11 k - 3) and k - 1 at 2
        neg, inv = _schur_step_from(-0.5 * b_matrix(4 + k), 4, 4 + k)
        comp = -(2.0 / 3.0) * (8.0 * np.eye(k) + 11.0 * (np.ones((k, k)) - np.eye(k)))
        np.testing.assert_allclose(inv[4:, 4:], np.linalg.inv(comp), rtol=1e-12, atol=1e-14)
        assert neg == 1

    def test_singular_block(self):
        A = np.zeros((3, 3))
        A[2, 2] = 1.0
        assert _schur_step_from(A, 0, 2)[0] is None  # a zero block complement
        assert _schur_step_from(np.ones((2, 2)), 1, 2)[0] is None  # a zero scalar one
        # a complement of 1e-12 counts at the bound 0 and fails the bound 1e-9
        near = [[1.0, 1.0], [1.0, 1.0 + 1e-12]]
        assert _schur_step_from(near, 1, 2)[0] == 0
        assert _schur_step_from(near, 1, 2, bound=1e-9)[0] is None


class TestHaynsworth:
    # inertia additivity through _schur_step: the counts of A_a plus those of
    # A_k / A_a are the counts of A_k

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_extended_tripod(self, k):
        # (1,0,3) + (1,0,k-1) = (2,0,k+2), b's counts with their signs flipped
        S = -0.5 * b_matrix(4 + k)
        assert _schur_step_from(S, 0, 4)[0] == inertia(S[:4, :4]).s_minus == 1
        assert _schur_step_from(S, 4, 4 + k)[0] == 1
        assert inertia(S).counts() == (2, 0, k + 2)

    def test_tiny_diagonal(self):
        A = np.diag([1.0, -1.0])
        assert _schur_step_from(A, 0, 1)[0] == 0
        assert _schur_step_from(A, 1, 2)[0] == 1
        assert inertia(A).counts() == (1, 0, 1)

    def test_random_well_conditioned(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            A = random_symmetric(rng, 10)
            # plant a well-conditioned leading 4x4 block
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            d = rng.uniform(0.5, 2.0, size=4) * rng.choice([-1.0, 1.0], size=4)
            A[:4, :4] = (q * d[None, :]) @ q.T
            A = 0.5 * (A + A.T)
            neg, inv = _schur_step_from(A, 4, 10)
            # oracle: raw eigenvalue counts of A and of its leading block
            whole = count_inertia(np.linalg.eigvalsh(A), 1e-10)
            blk = count_inertia(np.linalg.eigvalsh(A[:4, :4]), 1e-10)
            assert whole == (blk[0] + neg, 0, blk[2] + 6 - neg)
            np.testing.assert_allclose(inv, np.linalg.inv(A), rtol=1e-9, atol=1e-9)


class TestDoubleCenter:
    def test_annihilates_constants(self):
        out = double_center(np.full((5, 5), 3.7))
        np.testing.assert_allclose(out, np.zeros((5, 5)), atol=1e-14)

    def test_unit_square_gram(self):
        pts = unit_square_corners()
        diff = pts[:, None, :] - pts[None, :, :]
        S = -0.5 * (diff**2).sum(axis=2)
        np.testing.assert_allclose(double_center(S), centered_gram(pts), atol=1e-14)

    def test_tripod_inertia(self):
        # oracle: charpoly roots of the explicit product give (-1/4, 0, 2, 2)
        S = -0.5 * b_matrix(4)
        n = 4
        P = np.eye(n) - np.ones((n, n)) / n
        oracle = charpoly_eigenvalues(P @ S @ P)
        np.testing.assert_allclose(oracle, [-0.25, 0.0, 2.0, 2.0], atol=1e-10)
        assert inertia(double_center(S)).counts() == (1, 1, 2)

    def test_ones_vector_in_kernel(self):
        rng = np.random.default_rng(5)
        A = random_symmetric(rng, 8)
        out = double_center(A)
        assert np.abs(out @ np.ones(8)).max() <= 1e-12 * max(np.abs(A).max(), 1.0)


class TestWeightedCenter:
    def test_uniform_matches_double_center(self):
        rng = np.random.default_rng(2)
        S = random_symmetric(rng, 6)
        w = np.full(6, 1.0 / 6)
        assert inertia(weighted_center(S, w)).counts() == inertia(double_center(S)).counts()

    def test_dirac_gives_zero(self):
        rng = np.random.default_rng(4)
        S = random_symmetric(rng, 5)
        w = np.zeros(5)
        w[2] = 1.0
        np.testing.assert_allclose(weighted_center(S, w), np.zeros((5, 5)), atol=1e-12)

    def test_tripod_bracket(self):
        S = -0.5 * b_matrix(4)
        w = np.array([0.4, 0.3, 0.2, 0.1])
        k_ine = inertia(S * np.sqrt(np.outer(w, w)))
        t_ine = inertia(weighted_center(S, w))
        for ks, ts in ((k_ine.s_minus, t_ine.s_minus), (k_ine.s_plus, t_ine.s_plus)):
            assert ks - 1 <= ts <= ks

    def test_kernel_contains_sqrt_weights(self):
        rng = np.random.default_rng(9)
        S = random_symmetric(rng, 7)
        w = rng.uniform(0.1, 1.0, size=7)
        w /= w.sum()
        out = weighted_center(S, w)
        v = np.sqrt(w)
        assert np.abs(out @ v).max() <= 1e-12 * max(np.abs(S).max(), 1.0)

    def test_rejects_bad_weights(self):
        S = np.eye(3)
        with pytest.raises(InvalidMeasure):
            weighted_center(S, [0.5, 0.6, -0.1])
        with pytest.raises(InvalidMeasure):
            weighted_center(S, [0.5, 0.4, 0.2])


class TestSpectralProperties:
    def test_sylvester_congruence(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(2, 21))
            A = random_symmetric(rng, n)
            while True:
                G = rng.normal(size=(n, n))
                if abs(np.linalg.det(G)) > 1e-6:
                    break
            assert inertia(G.T @ A @ G).counts()[::2] == inertia(A).counts()[::2]

    def test_interlacing_under_deletion(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            n = int(rng.integers(2, 15))
            A = random_symmetric(rng, n)
            full = inertia(A)
            drop = int(rng.integers(n))
            keep = [i for i in range(n) if i != drop]
            sub = inertia(A[np.ix_(keep, keep)])
            assert full.s_minus - 1 <= sub.s_minus <= full.s_minus
            assert full.s_plus - 1 <= sub.s_plus <= full.s_plus

    def test_signature_subadditivity(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            A = random_symmetric(rng, n)
            B = random_symmetric(rng, n)
            s = inertia(A + B)
            a, b = inertia(A), inertia(B)
            assert s.s_plus <= a.s_plus + b.s_plus
            assert s.s_minus <= a.s_minus + b.s_minus

    def test_hollow_matrices_have_both_signs(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            A = random_symmetric(rng, n)
            np.fill_diagonal(A, 0.0)
            if np.abs(A).max() == 0:
                continue
            ine = inertia(A)
            assert ine.s_plus >= 1 and ine.s_minus >= 1


def test_as_sym_matrix_symmetrizes_roundoff():
    A = np.array([[1.0, 2.0], [2.0 + 1e-15, 1.0]])
    out = as_sym_matrix(A)
    assert np.array_equal(out, out.T)
