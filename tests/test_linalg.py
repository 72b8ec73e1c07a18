import ctypes
import functools
import math
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsig import linalg
from mmsig.constructions import CountableRadoModel, ResidueClassClique
from mmsig.errors import InvalidInput, NoConvergence
from mmsig.linalg import (
    as_sym_matrix,
    double_center,
    eig_sym,
    inertia,
    prefix_inertias,
    spectrum_inertia,
    weighted_center,
)
from mmsig.sampling import DiscreteMeasure, parse_measure_spec, sample_order, trial_seed
from mmsig.signature import centered_signature, limit_signature_trajectory, space_signature
from mmsig.spaces import from_distance_matrix, from_euclidean_points, named_example
from mmsig.spectral import default_checkpoints, esd_and_inertia, rado_ratio_experiment

from util_oracles import (
    b_matrix,
    centered_gram,
    charpoly_eigenvalues,
    clique_blocks_of,
    clique_member,
    count_inertia,
    exact_below,
    exact_counts,
    exact_prefix_below,
    first_appearances_by_unique,
    prefix_counts_by_eigvalsh,
    random_cospherical_points,
    random_symmetric,
    raw_draws,
    unit_square_corners,
)

EPS = np.finfo(float).eps
# the empty block's anchor for ``linalg._chain_step``: order 0, no eigenvalue
# below either edge, and inverses of norm 0
EMPTY_ANCHOR = (0, (0, 0), np.zeros(2))


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("j", [-1000, 0, 1000, 1018, 1020])
    def test_the_esd_counts_as_inertia_does_at_any_scale(self, j):
        # the ESD solved S unscaled: from 2^1018 on its largest eigenvalue
        # overflowed, and it read (0, 60, 0) with theta inf
        S = np.ldexp(named_example("sphere", dim=2, n=60, seed=3).s_matrix_on(range(60)), j)
        ine = inertia(S)
        assert esd_and_inertia(S)[1] == ine and ine.counts() == (29, 1, 30)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("j", [-1000, 0, 1000, 1020])
    def test_the_esd_is_divided_in_the_solves_units(self, j):
        # at 2^1020 the largest eigenvalue is past the largest float, its
        # ESD value is not; at scale 0 the values are the bits of
        # eigvalsh(S) / sqrt(n)
        S = named_example("sphere", dim=2, n=60, seed=3).s_matrix_on(range(60))
        want = np.linalg.eigvalsh(S) / math.sqrt(60)
        got = esd_and_inertia(np.ldexp(S, j))[0].values
        assert np.isfinite(got).all() and np.array_equal(got, np.ldexp(want, j))

    def test_a_band_past_the_largest_float_is_refused(self):
        # the counts hold at unit scale; theta = 0.5 * 60 * max|lambda| in
        # the input's units does not, and raised OverflowError
        S = np.ldexp(named_example("sphere", dim=2, n=60, seed=3).s_matrix_on(range(60)), 1020)
        assert inertia(S, tol_rel=1e-9).counts() == (29, 1, 30)
        with pytest.raises(InvalidInput, match="zero band"):
            inertia(S, tol_rel=0.5)
        with pytest.raises(InvalidInput, match="zero band"):
            prefix_inertias(S, [10, 60], tol_rel=0.5)
        with pytest.raises(InvalidInput, match="zero band"):
            esd_and_inertia(S, tol_rel=0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("vectors", [False, True])
    def test_the_spectrum_is_in_the_input_units(self, vectors):
        # solved at unit scale, the eigenvalues are scaled back exactly, and
        # one past the largest float reads inf, with no warning
        S = named_example("sphere", dim=2, n=60, seed=3).s_matrix_on(range(60))
        want, theta = np.linalg.eigvalsh(S), inertia(S).tol
        assert np.abs(want).max() >= 16
        for j in (-1000, 1000, 1020):
            spectrum, ine = linalg._inertia(np.ldexp(S, j), 1e-9, vectors=vectors)
            vals = spectrum.eigenvalues if vectors else spectrum
            kept = np.abs(want) < 16 if j == 1020 else np.ones(60, bool)  # 16 * 2^1020 is past it
            np.testing.assert_allclose(np.ldexp(vals[kept], -j), want[kept], rtol=0, atol=1e-10)
            assert np.isinf(vals[~kept]).all()
            assert math.ldexp(ine.tol, -j) == pytest.approx(theta, rel=1e-12)


def _require_dsyevd():
    """Skip where ``linalg._openblas`` bound no dsyevd."""
    found = linalg._openblas()
    if found is None or found[2] is None:
        pytest.skip("numpy's BLAS has no ILP64 OpenBLAS dsyevd found through /proc/self/maps")


def _no_copying_solve(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **kw: pytest.fail("copied into eigvalsh"))


class TestSolveInPlace:
    """``_eigenvalues(A, overwrite=True)``: LAPACK's dsyevd on ``A``'s own buffer."""

    @pytest.mark.parametrize("n", [1, 2, 3, 33, 200])
    def test_bits_are_eigvalsh_bits(self, n, monkeypatch):
        _require_dsyevd()
        A = random_symmetric(np.random.default_rng(n), n)
        expect = np.linalg.eigvalsh(A)
        B = A.copy()
        _no_copying_solve(monkeypatch)
        assert linalg._eigenvalues(B, overwrite=True).tobytes() == expect.tobytes()
        if n >= 3:  # the tridiagonal reduction wrote into the buffer
            assert not np.array_equal(A, B)

    def test_rado_s_of_order_1000(self, monkeypatch):
        _require_dsyevd()
        S = CountableRadoModel(edge_prob=0.5, seed=0).s_matrix_on(np.arange(1000))
        expect = np.linalg.eigvalsh(S)
        _no_copying_solve(monkeypatch)
        assert linalg._eigenvalues(S, overwrite=True).tobytes() == expect.tobytes()

    def test_bits_in_pinned_map_workers(self, monkeypatch):
        # pool threads with OpenBLAS pinned to one thread, as ratio trials run
        _require_dsyevd()
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 2)
        mats = [random_symmetric(np.random.default_rng(n), n) for n in (3, 33, 200, 120)]
        expect = [np.linalg.eigvalsh(A).tobytes() for A in mats]
        threads = set()

        def solve(A):
            threads.add(threading.get_ident())
            return linalg._eigenvalues(A.copy(), overwrite=True).tobytes()

        _no_copying_solve(monkeypatch)
        assert linalg.pinned_map(solve, mats, 200) == expect
        assert threading.get_ident() not in threads

    @pytest.mark.parametrize(
        "A",
        [np.eye(3, dtype=np.float32), np.asfortranarray(random_symmetric(np.random.default_rng(1), 4)),
         random_symmetric(np.random.default_rng(2), 6)[::2, ::2]],
        ids=["float32", "fortran-order", "strided"],
    )
    def test_other_layouts_are_copied(self, A):
        before = A.copy()
        assert np.array_equal(linalg._eigenvalues(A, overwrite=True), np.linalg.eigvalsh(before))
        assert np.array_equal(A, before)

    def test_borrowed_matrices_are_copied(self):
        A = random_symmetric(np.random.default_rng(3), 40)
        before = A.copy()
        assert linalg._eigenvalues(A).tobytes() == np.linalg.eigvalsh(before).tobytes()
        assert A.tobytes() == before.tobytes()

    def test_no_binding_copies(self, monkeypatch):
        found = linalg._openblas()
        monkeypatch.setattr(linalg, "_openblas", lambda: found and (*found[:2], None))
        A = random_symmetric(np.random.default_rng(4), 40)
        before = A.copy()
        assert linalg._eigenvalues(A, overwrite=True).tobytes() == np.linalg.eigvalsh(before).tobytes()
        assert A.tobytes() == before.tobytes()

    def test_nonconvergence_reads_as_numpys(self, monkeypatch):
        # numpy raises for a NaN matrix; a dsyevd that returns info > 0 must
        # raise the same NoConvergence
        with pytest.raises(NoConvergence) as numpy_path:
            linalg._eigenvalues(np.full((5, 5), np.nan))
        assert str(numpy_path.value) == "eigensolver failed for matrix of order 5: Eigenvalues did not converge"
        calls = []

        def fake(jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info):
            calls.append(lwork.value)
            if lwork.value == -1:  # the workspace query
                ctypes.c_double.from_address(work.data).value = 1.0
                ctypes.c_int64.from_address(iwork.data).value = 1
            else:
                info.value = 3

        monkeypatch.setattr(linalg, "_openblas", lambda: (None, None, fake))
        with pytest.raises(NoConvergence) as binding:
            linalg._eigenvalues(np.eye(5), overwrite=True)
        assert calls == [-1, 1]
        assert str(binding.value) == str(numpy_path.value)

    def test_scipys_lp64_openblas_is_never_bound(self, monkeypatch):
        # scipy's wheel maps its own OpenBLAS, with 32-bit integers, into the
        # process; a lookup made after it loaded still binds numpy's
        pytest.importorskip("scipy.linalg")
        _require_dsyevd()
        monkeypatch.setattr(linalg, "_openblas", functools.cache(linalg._openblas.__wrapped__))
        get, put, dsyevd = linalg._openblas()
        assert dsyevd.__name__ == "scipy_dsyevd_64_"
        assert get.__name__ == "scipy_openblas_get_num_threads64_"


def _untouched_by(entry, a):
    """Whether ``entry(a)`` leaves the bytes of ``a`` as they were."""
    before = a.copy()
    entry(a)
    return a.tobytes() == before.tobytes()


@pytest.mark.parametrize(
    "entry",
    [inertia, lambda a: spectrum_inertia(a.ravel()), esd_and_inertia, eig_sym, double_center,
     lambda a: prefix_inertias(a, [1, len(a) // 2, len(a)]), lambda a: prefix_inertias(a, range(1, len(a) + 1))],
    ids=["inertia", "spectrum_inertia", "esd_and_inertia", "eig_sym", "double_center",
         "prefix_inertias", "prefix_inertias-every-size"],
)
def test_no_public_entry_point_writes_its_argument(entry):
    # an exactly symmetric C-contiguous float64 matrix, the one layout an
    # eigensolve on the caller's buffer could take
    rado = CountableRadoModel(edge_prob=0.5, seed=3).s_matrix_on(np.arange(60))
    assert _untouched_by(entry, rado)
    assert _untouched_by(entry, random_symmetric(np.random.default_rng(5), 60))


@pytest.mark.parametrize("entry", [space_signature, centered_signature])
def test_no_signature_writes_its_space(entry):
    space = named_example("tripod_extended", n=40)
    before = space.dist.tobytes()
    entry(space)
    assert space.dist.tobytes() == before


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
    # each block the chain reads is a block of the validated matrix, and each
    # Schur complement is symmetric as built: only the matrix passes the
    # gate. The 200 sizes are one run: 7 steps of at most 32 sizes from the
    # empty block, and the last one, which keeps no inverse, solves no
    # eigenvalues
    S = named_example("sphere", dim=2, n=200, seed=1).s_matrix_on(range(200))
    calls = dict.fromkeys(["as_sym_matrix", "eig_sym", "_chain_step"], 0)
    for name in calls:
        def counted(*args, _f=getattr(linalg, name), _name=name):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(linalg, name, counted)
    orders = _eigensolve_orders(monkeypatch)
    prefix_inertias(S, range(1, 201))
    assert calls["_chain_step"] == 7 and calls["eig_sym"] == 0 and orders == []
    assert calls["as_sym_matrix"] == 1


def _eigensolve_orders(monkeypatch, vectors=False):
    """Orders of the matrices ``linalg._eigenvalues`` solves from now on for
    their eigenvalues alone, or with ``vectors`` for their eigenvectors too:
    the complements of the chain's steps that keep an inverse."""
    orders = []
    real = linalg._eigenvalues

    def counted(a, **kw):
        if kw.get("vectors", False) == vectors:
            orders.append(len(a))
        return real(a, **kw)

    monkeypatch.setattr(linalg, "_eigenvalues", counted)
    return orders


def _every_eigensolve_order(monkeypatch):
    """Orders of the matrices ``linalg._eigenvalues`` solves from now on:
    blocks, complements and the pivot's complements."""
    orders = []
    real = linalg._eigenvalues
    monkeypatch.setattr(linalg, "_eigenvalues", lambda a, **kw: orders.append(len(a)) or real(a, **kw))
    return orders


def _chain_steps(monkeypatch):
    """(a, k, counted, held) of each ``linalg._chain_step`` from now on: its
    anchor's order, its largest order, how many sizes it counted, and whether
    it holds the inverses of the largest."""
    steps = []
    real = linalg._chain_step

    def counted(A, V, anchor, band, run):
        got = real(A, V, anchor, band, run)
        steps.append((anchor[0], len(A), len(got[0]), got[1] is not None))
        return got

    monkeypatch.setattr(linalg, "_chain_step", counted)
    return steps


def _empty_steps(steps):
    """(k, held) of each of ``steps`` (as ``_chain_steps`` lists them) from
    the empty block: its order, and whether it holds the inverses."""
    return [(k, held) for a, k, _, held in steps if a == 0]


def _cover_the_run(steps, start, stop):
    """Whether ``steps`` counted every size from start + 1 to stop, one block
    after the other, each of at most 32 sizes, as few as can."""
    return (
        [a for a, _, _, _ in steps] == [start] + [k for _, k, _, _ in steps[:-1]]
        and steps[-1][1] == stop
        and all(n == k - a <= linalg._RUN_SIZES for a, k, n, _ in steps)
        and len(steps) == math.ceil((stop - start) / linalg._RUN_SIZES)
    )


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
        steps = _chain_steps(monkeypatch)
        got = prefix_inertias(S, sizes)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes)
        # one band: the largest block's, its max|lambda| from a Perron bracket
        assert len({i.tol for i in got}) == 1
        assert got[-1].tol == pytest.approx(whole.tol, rel=1e-13, abs=0.0)
        assert got[-1].counts() == whole.counts()
        # every size is one run from the empty block, counted at the band's
        # edges, the hollow 1x1 block too: no later step from the empty block,
        # and no eigensolve but of the last step's complements
        assert _cover_the_run(steps, 0, N)
        assert all(n <= linalg._RUN_SIZES for n in orders)

    def test_sizes_with_gaps(self):
        S = _model_s()
        sizes = [3, 4, 40, 41, 150, 300]
        got = prefix_inertias(S, sizes)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes)
        assert [i.n for i in got] == sizes

    # each family's steps from the empty block, and the anchor and size of
    # each step that counted, on the gapped sizes
    GAPPED = {
        "weak_direction": ([(2, True)], [(0, 2), (2, 5), (5, 7), (7, 10), (10, 13), (13, 17), (17, 23), (23, 30)]),
        "planar_points": ([(2, True)], [(0, 2), (2, 3), (3, 5), (5, 6), (6, 9), (9, 12), (12, 17), (17, 23),
                                        (23, 32), (32, 44), (44, 60)]),
        "sphere": ([(2, True), (68, True)], [(0, 2), (2, 4), (4, 6), (6, 9), (9, 14), (14, 21), (21, 31),
                                             (31, 46), (0, 68), (68, 101), (101, 150)]),
    }

    @pytest.mark.parametrize(
        "family, tol_rel",
        [("weak_direction", 0.0), ("planar_points", 0.0), ("sphere", 1e-9)],
    )
    def test_gapped_sizes_take_certified_schur_blocks(self, family, tol_rel, monkeypatch):
        emptied, stepped = self.GAPPED[family]
        S = {
            "weak_direction": self._weak_direction,
            "planar_points": self._planar_points,
            "sphere": self.FAMILIES["sphere"],
        }[family]()
        sizes = sorted({int(k) for k in np.geomspace(2, len(S), 12)})
        steps = _chain_steps(monkeypatch)
        got = prefix_inertias(S, sizes, tol_rel=tol_rel)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes, tol_rel)
        # the first size steps from the empty block; every later size steps
        # from the one before, weak_direction's run 3 to 5 in one step of
        # three sizes. sphere's step to 68 is refused (an eigenvalue lies near
        # an edge), and 68 steps again, from the empty block
        assert _empty_steps(steps) == emptied and [(a, k) for a, k, n, _ in steps if n] == stepped

    def test_failed_block_falls_back_to_an_eigensolve(self, monkeypatch):
        # S of planar points has rank <= 4. At tol 0 the steps to 6 and to 12
        # count at -+floor, where their two counts differ, since an
        # eigenvalue lies in the band, so 6 and 12 are eigensolved, the chain
        # going on; 60 is too wide a step from 12
        S = self._planar_points()
        sizes = [3, 6, 12, len(S)]
        steps = _chain_steps(monkeypatch)
        orders = _eigensolve_orders(monkeypatch)
        got = prefix_inertias(S, sizes, tol_rel=0.0)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes, 0.0)
        assert steps == [(0, 3, 1, True), (3, 6, 1, True), (6, 12, 1, True)]
        assert orders == [6, 12, len(S)]

    def test_a_size_the_next_steps_from_is_a_wide_step(self, monkeypatch):
        S = _model_s()
        N = len(S)
        sizes = [2, N - 1, N]
        steps = _chain_steps(monkeypatch)
        orders = _eigensolve_orders(monkeypatch)
        got = prefix_inertias(S, sizes)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes)
        # 2 and N - 1, each too wide a step from the anchor before it, step
        # from the empty block and give the chain its inverses; the step to N
        # from N - 1 eigensolves only its two 1 x 1 complements
        assert steps == [(0, 2, 1, True), (0, N - 1, 1, True), (N - 1, N, 1, False)] and orders == [1, 1]

    def test_a_ratio_trial_takes_no_inverse(self, monkeypatch):
        # the first checkpoint of this clique-free trial steps from the empty
        # block, and each later one from the one before, 60 -> 112 and 112 ->
        # 190 too; no block is inverted
        inverses = []
        real = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(len(a)) or real(a))
        steps = _chain_steps(monkeypatch)
        model = CountableRadoModel(0.5, 1)
        measure = DiscreteMeasure.geometric(0.995)
        traj = rado_ratio_experiment(model, measure, 3000, seed=trial_seed(1, 3))
        assert inverses == [] and _empty_steps(steps) == [(traj.dedup_sizes[0], True)]
        assert [(a, k) for a, k, n, _ in steps if n] == list(zip([0, *traj.dedup_sizes], traj.dedup_sizes))
        S = model.s_matrix_on(sample_order(measure, 3000, trial_seed(1, 3)))
        assert [i.counts() for i in traj.inertias] == prefix_counts_by_eigvalsh(S, traj.dedup_sizes)

    def test_gapped_model_sizes_are_steps(self, monkeypatch):
        # the leading 1000 points of the gapped model trajectory (trajectory
        # --model-p 0.5 --measure geometric:0.999 --m-max 3000 --seed 2) at
        # sizes 10, 20, ..., 1000. Many of them have an eigenvalue within ten
        # times the band of 0, where no step certified at 0 can count them;
        # at the band's edges the chain steps to each of them, from the empty
        # block to the first and to at most one more
        order = sample_order(parse_measure_spec("geometric:0.999"), 3000, 2)
        S = CountableRadoModel(0.5, 2).s_matrix_on(order)[:1000, :1000]
        sizes = list(range(10, 1001, 10))
        steps, orders = _chain_steps(monkeypatch), _block_eigensolves(monkeypatch, S)
        got = prefix_inertias(S, sizes)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes)
        emptied = _empty_steps(steps)
        assert emptied[0] == (10, True) and len(emptied) + len(orders) <= 2

    @pytest.mark.parametrize("power", [-500, -300, 300, 500])
    @pytest.mark.parametrize("family", ["tripod_extended", "sphere"])
    def test_steps_count_alike_at_any_scale(self, family, power):
        # distances times 2^power put the squares of the inverse's entries
        # past the float range, where the certificate's plain sum of squares
        # would overflow (a RuntimeWarning, an error here) or underflow and
        # pass a sphere step wrongly
        space = {
            "tripod_extended": lambda: named_example("tripod_extended", n=30),
            "sphere": lambda: named_example("sphere", dim=2, n=60, seed=3),
        }[family]()
        N = len(space.dist)
        scaled = from_distance_matrix(space.dist * 2.0 ** power)
        for sizes in (list(range(2, N + 1, 3)), [4, 8, 16, N]):
            want = limit_signature_trajectory(space, range(N), sizes).inertias
            got = limit_signature_trajectory(scaled, range(N), sizes).inertias
            assert [i.counts() for i in got] == [i.counts() for i in want]

    @pytest.mark.parametrize("j", [-510, -508, -505, -300, 300, 500])
    def test_any_scale_counts_as_scale_one(self, j):
        # distances times 2^j put -d^2/2 near 2^(2j), outside LAPACK's safe
        # range, which the entry points scale back by an exact power of two.
        # Without it the run blocks' LUs ran on subnormal numbers and the
        # sizes from 12, 22 and 56 on miscounted at j = -510, -508 and -505
        space = named_example("sphere", dim=2, n=60, seed=3)
        N = len(space.dist)
        S0 = space.s_matrix_on(range(N))
        S = from_distance_matrix(space.dist * 2.0**j).s_matrix_on(range(N))
        flags = np.zeros(N, dtype=bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for sizes in (list(range(1, N + 1)), [4, 8, 16, 31, N]):
                want = prefix_inertias(S0, sizes)
                for got in (prefix_inertias(S, sizes), prefix_inertias(clique_blocks_of(S, flags), sizes)):
                    assert [i.counts() for i in got] == [i.counts() for i in want]
                    assert got[-1].tol == math.ldexp(want[-1].tol, 2 * j)
            assert inertia(S).counts() == inertia(S0).counts()

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

    @pytest.mark.parametrize("sizes", [[2.7, 3.9], [True, 4], [2, np.float64(3.5)], np.array([2.0, 4.5])])
    def test_sizes_are_not_truncated(self, sizes):
        # [2.7, 3.9] counted the prefixes 2 and 3, and [True, 4] the prefix 1
        S = named_example("simplex", n=5).s_matrix_on(range(5))
        with pytest.raises(InvalidInput, match="^prefix size must be an integer, got "):
            prefix_inertias(S, sizes)

    @pytest.mark.parametrize(
        "sizes, shown",
        [([2**63], 2**63), ([2, 2**64], 2**64), (np.array([2, 2**63], dtype=np.uint64), 2**63)],
        ids=["2^63", "2^64", "uint64"],
    )
    def test_sizes_outside_int64_are_refused(self, sizes, shown):
        # a Python int past int64 raised a bare OverflowError, and a uint64
        # size of 2^63 wrapped to -2^63
        with pytest.raises(InvalidInput, match=f"^prefix size {shown} is outside int64$"):
            prefix_inertias(np.eye(3), sizes)

    def test_integral_sizes_are_taken(self):
        S = named_example("simplex", n=5).s_matrix_on(range(5))
        want = prefix_inertias(S, [2, 4])
        for sizes in ([2.0, 4.0], np.array([2, 4], dtype=np.uint16), ["2", np.int64(4)]):
            assert prefix_inertias(S, sizes) == want

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
    model = CountableRadoModel(edge_prob=0.5, seed=424242, planted_clique=ResidueClassClique(31))
    draws = raw_draws(DiscreteMeasure.class_biased(30, 0.9), m_max, trial_seed(seed, 0))
    dedup, first = first_appearances_by_unique(draws)
    sizes = np.searchsorted(first, default_checkpoints(m_max))
    return model.s_matrix_on(dedup), sorted({int(k) for k in sizes})


def _block_eigensolves(monkeypatch, S):
    """Orders of the leading blocks of ``S`` that ``linalg._eigenvalues``
    solves from now on, and not the complements the chain forms."""
    orders = []
    real = linalg._eigenvalues

    def counted(a, **kw):
        if np.shares_memory(a, S):
            orders.append(len(a))
        return real(a, **kw)

    monkeypatch.setattr(linalg, "_eigenvalues", counted)
    return orders


class TestParityCounts:
    # a run of sizes one apart is counted by the chain from the size before
    # it, a block of sizes at a time, by the signs of the leading minors of
    # the complement at the edges -+e, e = max(theta, floor) (the class kept
    # its name from the determinant parity that came before the blocks)
    FAMILIES = {
        "sphere": lambda: named_example("sphere", dim=2, n=120, seed=3).s_matrix_on(range(120)),
        "sphere_sqrt": lambda: named_example("sphere_sqrt", dim=2, n=80, seed=3).s_matrix_on(range(80)),
        "rado_model": lambda: _model_s(n_draws=1500, seed=4),
        "tripod_extended": lambda: named_example("tripod_extended", n=60).s_matrix_on(range(60)),
        "simplex": lambda: named_example("simplex", n=60).s_matrix_on(range(60)),
        "planar": lambda: TestPrefixInertias._planar_points(),
        "random_symmetric": lambda: random_symmetric(np.random.default_rng(5), 80),
    }

    @pytest.mark.parametrize("tol_rel", [1e-6, 1e-7, 1e-9, 1e-12, 0.0])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_prefix_matches_eigvalsh(self, family, tol_rel, monkeypatch):
        S = self.FAMILIES[family]()
        sizes = list(range(1, len(S) + 1))
        steps = _chain_steps(monkeypatch)
        orders = _block_eigensolves(monkeypatch, S)
        got = prefix_inertias(S, sizes, tol_rel=tol_rel)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes, tol_rel)
        # at any tolerance the steps count every size, the largest too unless
        # it is the band's eigensolve (no Perron bracket), also where most
        # blocks hold eigenvalues in the band (sphere, planar), and no later
        # size steps from the empty block. Below the floor (1e-12 and 0) they
        # count at -+floor, and only a size whose two counts differ is
        # eigensolved
        top = len(S) - (linalg._perron_bracket(S) is None)
        assert _cover_the_run(steps, 0, top)
        if tol_rel >= 1e-9:
            assert orders == [len(S)] * (top < len(S))

    def test_an_eigenvalue_on_the_band_edge_is_eigensolved(self, monkeypatch):
        # the 4th and 7th diagonal entries are theta and -theta exactly, so
        # A_k - theta I is singular from size 4 on and A_k + theta I from
        # size 7 on; those sizes fall back to an eigensolve
        N, tol_rel, rho = 10, 1e-6, 4.0
        theta = tol_rel * N * rho
        S = np.diag([-1.0, 2.0, 0.5, theta, -3.0, 1.5, -theta, rho, -2.0, 1.0])
        sizes = list(range(1, N + 1))
        orders = _eigensolve_orders(monkeypatch)
        steps = _chain_steps(monkeypatch)
        got = prefix_inertias(S, sizes, tol_rel=tol_rel)
        assert got[-1].tol == theta
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes, tol_rel)
        assert got[3].counts() == (1, 1, 2) and got[6].counts() == (2, 2, 3)
        # the largest block is the band's eigensolve (no Perron bracket); the
        # run's first step counts sizes 1 to 3 and refuses its 4th minor, 0.
        # Each size from 4 to 8 steps from the empty block, which refuses it,
        # since an edge is an eigenvalue of each, and is eigensolved; 9, the
        # chain's last size, from which nothing steps, is eigensolved alone
        assert steps == [(0, N - 1, 3, False)] + [(0, k, 0, False) for k in range(4, N - 1)]
        assert orders == [N, *range(4, N)]

    @pytest.mark.parametrize("tol_rel", [1e-12, 0.0])
    def test_blocks_below_the_floor_keep_the_sizes_clear_of_it(self, tol_rel, monkeypatch):
        # theta = 1e-12 * N * max|lambda| is below the floor sqrt(eps) *
        # max|lambda|, where roundoff eigenvalues of a rank-deficient block
        # may sit. The steps count at -+floor and keep a size only where the
        # two counts agree: no eigenvalue lies within the floor of 0; this
        # sample's prefixes of 22 to 57 points go in and out of it
        S = named_example("sphere", dim=2, n=60, seed=2).s_matrix_on(range(60))
        sizes = list(range(1, 61))
        steps = _chain_steps(monkeypatch)
        orders = _block_eigensolves(monkeypatch, S)
        got = prefix_inertias(S, sizes, tol_rel=tol_rel)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes, tol_rel)
        floor = linalg._BORDER_FLOOR * linalg._perron_bracket(S)[1]
        clear = [np.abs(np.linalg.eigvalsh(S[:k, :k])).min() > floor for k in sizes]
        # the steps count every size, and exactly the sizes not clear of the
        # floor are eigensolved; the chain goes on from their inverses
        assert _cover_the_run(steps, 0, 60)
        assert orders == [k for k, ok in zip(sizes, clear) if not ok] and 10 < len(orders) < 30

    def test_a_singular_prefix_stops_the_blocks_below_the_floor(self, monkeypatch):
        # A_4 is singular. At 1e-12 theta is below the floor, so the step
        # counts at -+floor, where A_4 -+ floor I is regular: it counts sizes
        # 1 to 5, but size 4's two counts differ (its eigenvalue 0 lies within
        # the floor), and size 4 is eigensolved. At 1e-6 the step counts at
        # the band's edges, and none is eigensolved
        S = np.diag([-1.0, 2.0, -3.0, 0.0, 4.0, 5.0])
        S[3, 4] = S[4, 3] = 1.0
        sizes = list(range(1, 7))
        steps = _chain_steps(monkeypatch)
        orders = _eigensolve_orders(monkeypatch)
        got = prefix_inertias(S, sizes, tol_rel=1e-12)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes, 1e-12)
        assert steps == [(0, 5, 5, True)] and orders == [6, 4]  # 6: the band's eigensolve
        steps.clear(), orders.clear()
        got = prefix_inertias(S, sizes, tol_rel=1e-6)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes, 1e-6)
        assert steps == [(0, 5, 5, True)] and orders == [6]

    def test_a_failed_scalar_step_keeps_its_anchor(self, monkeypatch):
        # the same singular A_4, with a seventh point: size 3 steps from the
        # empty block, and size 4, one past 3 but no run, from 3 by one row.
        # A_4 -+ e I is regular, so the steps to 4 and 6 are certified and
        # the anchor moves on; below the floor size 4's counts differ, and it
        # is eigensolved
        S = np.diag([-1.0, 2.0, -3.0, 0.0, 4.0, 5.0, 6.0])
        S[3, 4] = S[4, 3] = 1.0
        sizes = [3, 4, 6, 7]
        steps = _chain_steps(monkeypatch)
        orders = _eigensolve_orders(monkeypatch)
        for tol_rel in (1e-12, 1e-6):
            steps.clear(), orders.clear()
            got = prefix_inertias(S, sizes, tol_rel=tol_rel)
            assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes, tol_rel)
            assert steps == [(0, 3, 1, True), (3, 4, 1, True), (4, 6, 1, True)]
            assert orders == ([7, 4] if tol_rel < 1e-9 else [7])  # 7: the band's

    def test_a_loose_band_takes_one_lu_per_block(self, monkeypatch):
        # at 1e-7 model prefixes hold eigenvalues within 10 theta of 0. The
        # chain counts at the band's edges in one step per block of up to 32
        # sizes, from its held inverses: no LU of a block, no solve, and
        # determinants of the w x w minors only
        S = _model_s()
        N = len(S)
        assert N >= 390
        lu = []
        for name in ("solve", "slogdet", "det", "inv"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, *rest, _f=real: lu.append(a.shape[-1]) or _f(a, *rest))
        steps = _chain_steps(monkeypatch)
        got = prefix_inertias(S, range(1, N + 1), tol_rel=1e-7)
        assert _cover_the_run(steps, 0, N)
        assert len(lu) == len(steps) and max(lu) <= linalg._RUN_SIZES
        picks = [*range(10, N, 30), N]
        assert [got[k - 1].counts() for k in picks] == prefix_counts_by_eigvalsh(S, picks, 1e-7)

    @pytest.mark.parametrize("scale", [2.0**-600, 2.0**600])
    def test_a_power_of_two_scale_counts_as_scale_one(self, scale, monkeypatch):
        # the matrix is scaled back into LAPACK's safe range, and the chain
        # counts in units of the edge, so no norm overflows at 2^600 (entries
        # near 1e180) or loses its squares at 2^-600
        S = named_example("sphere", dim=2, n=100, seed=3).s_matrix_on(range(100))
        sizes = list(range(1, 101))
        want = prefix_inertias(S, sizes)
        steps = _chain_steps(monkeypatch)
        got = prefix_inertias(S * scale, sizes)
        assert [i.counts() for i in got] == [i.counts() for i in want]
        assert got[-1].tol == want[-1].tol * scale and _cover_the_run(steps, 0, 100)

    @pytest.mark.parametrize("tol_rel", [1e200, 1e300])
    def test_a_huge_tolerance_puts_every_eigenvalue_in_the_band(self, tol_rel):
        # theta near 3e203 or 3e303: the chain counts in units of the edge, so
        # no square in a norm overflows and no division passes the largest
        # float, where the suite would raise the RuntimeWarning
        S = named_example("tripod_extended", n=40).s_matrix_on(range(40))
        sizes = list(range(1, 41))
        got = prefix_inertias(S, sizes, tol_rel=tol_rel)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes, tol_rel)
        assert [i.counts() for i in got] == [(0, k, 0) for k in sizes]

    @pytest.mark.parametrize("seed", [5, 7, 1881])
    def test_benchmark_sphere_trajectories_take_no_step(self, seed, monkeypatch):
        # the benchmark's 200-point sphere sample, whose prefixes hold
        # eigenvalues near 0: the chain takes every size in one run of 7 steps
        # from the empty block, with no eigenvalues-only solve; only the
        # complements of the steps that keep an inverse, of order 28 or 29,
        # are solved with vectors
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from inputs import sphere_distances

        space = from_distance_matrix(sphere_distances(seed, 200, "sphere200"))
        steps = _chain_steps(monkeypatch)
        orders, complements = _eigensolve_orders(monkeypatch), _eigensolve_orders(monkeypatch, vectors=True)
        traj = limit_signature_trajectory(space, range(200))
        assert [i.counts() for i in traj.inertias] == prefix_counts_by_eigvalsh(space.s_matrix_on(range(200)), range(1, 201))
        assert _cover_the_run(steps, 0, 200) and orders == []
        assert set(complements) == {28, 29}


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

    def test_class_biased_trials_match_eigvalsh(self):
        # every largest checkpoint is counted by a step of the chain; the
        # first checkpoint steps from the empty block, and so, at times, does
        # one more than twice the size of the one before. No block is
        # eigensolved
        for seed in range(16):
            S, sizes = _class_biased_trial(seed, m_max=1200)
            with pytest.MonkeyPatch.context() as mp:
                steps, orders = _chain_steps(mp), _block_eigensolves(mp, S)
                got = prefix_inertias(S, sizes)
            assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes), seed
            assert steps[-1][1:3] == (sizes[-1], 1) and orders == []
            assert _empty_steps(steps)[0] == (sizes[0], True) and len(_empty_steps(steps)) <= 2

    @pytest.mark.parametrize("dim, n", [(2, 200), (3, 120)])
    def test_sphere_families_count_their_largest_block_by_parity(self, dim, n, monkeypatch):
        # the largest block of these sphere families is counted by the run's
        # last step, against the band of the bracket, and so is every other
        # size
        S = named_example("sphere", dim=dim, n=n, seed=1).s_matrix_on(range(n))
        sizes = list(range(1, n + 1))
        orders = _block_eigensolves(monkeypatch, S)
        steps = _chain_steps(monkeypatch)
        got = prefix_inertias(S, sizes)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes)
        assert _cover_the_run(steps, 0, n) and orders == []
        assert linalg._perron_bracket(S) is not None

    def test_a_failed_largest_step_is_eigensolved(self, monkeypatch):
        # 12 cospherical points of R^10: S has rank 11. At tol 0 the step
        # from 11 points to 12 counts at -+floor, where the two counts
        # differ, so 12 is eigensolved; 8 steps from the empty block
        P = random_cospherical_points(np.random.default_rng(1), 12, 10)
        S = from_euclidean_points(P).s_matrix_on(range(12))
        steps = _chain_steps(monkeypatch)
        orders = _block_eigensolves(monkeypatch, S)
        got = prefix_inertias(S, [8, 11, 12], tol_rel=0.0)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, [8, 11, 12], 0.0)
        assert steps == [(0, 8, 1, True), (8, 11, 1, True), (11, 12, 1, False)] and orders == [12]

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


def _chain_step_from(A, a, k, e):
    """``linalg._chain_step`` from the leading block of order a, with its
    inverses at the edges -+e from ``np.linalg.inv`` and its counts below
    them from eigvalsh, to the block of order k: (the counts it returned, the
    anchor, and the inverse buffer after the step, in units of e)."""
    A = np.asarray(A, dtype=float)
    V = np.zeros((2, k, k))
    vals = np.linalg.eigvalsh(A[:a, :a]) if a else np.zeros(0)
    for s, sigma in enumerate((-e, e)):
        if a:
            V[s, :a, :a] = e * np.linalg.inv(A[:a, :a] - sigma * np.eye(a))
    anchor = (a, (int(np.sum(vals < -e)), int(np.sum(vals < e))), np.linalg.norm(V[:, :a, :a], axis=(1, 2)))
    band = (e, linalg._BORDER_FLOOR * float(np.abs(np.linalg.eigvalsh(A[:k, :k])).max()), np.linalg.norm(A[:k, :k]))
    got, anchor, _ = linalg._chain_step(A[:k, :k], V, anchor, band, False)
    if anchor is not None:  # A_k's counts, A_a's plus the complement's, and its inverses
        vals = np.linalg.eigvalsh(A[:k, :k])
        assert got == [(int(np.sum(vals < -e)), int(np.sum(vals < e)))]
        for s, sigma in enumerate((-e, e)):
            _assert_inverse(A[:k, :k] - sigma * np.eye(k), V[s] / e)
    return got, anchor, V


def _assert_inverse(M, W):
    """W is M^{-1} up to a residual ||M W - I|| of roundoff size."""
    assert np.abs(M @ W - np.eye(len(M))).max() <= 1e-12 * len(M) * np.linalg.norm(M) * np.linalg.norm(W)


class TestSchurComplement:
    # _chain_step is the one Schur complement: the counts of A_k at the
    # band's edges -+e, from A_a's and the complement's, and the inverses of
    # A_k -+ e I, built from those of A_a

    def test_block_diagonal(self):
        P = np.array([[2.0, 1.0], [1.0, 2.0]])
        Q = np.array([[5.0]])
        A = np.block([[P, np.zeros((2, 1))], [np.zeros((1, 2)), Q]])
        got, anchor, V = _chain_step_from(A, 2, 3, 1e-3)
        assert got == [(0, 0)] and anchor is not None
        for s, sigma in enumerate((-1e-3, 1e-3)):  # the complement is Q - sigma
            assert V[s, 2, 2] == pytest.approx(1e-3 / (5.0 - sigma), rel=1e-15)

    def test_two_by_two_closed_form(self):
        a, b, c, e = 3.0, 2.0, 7.0, 1e-3
        got, anchor, V = _chain_step_from([[a, b], [b, c]], 1, 2, e)
        assert got == [(0, 0)]
        for s, sigma in enumerate((-e, e)):
            assert V[s, 1, 1] == pytest.approx(e / (c - sigma - b * b / (a - sigma)), rel=1e-14)

    @pytest.mark.parametrize("k", [2, 5])
    def test_extended_tripod_block(self, k):
        # b's complement of the 4-point head is (4/3)(8 I + 11 (J - I)), so
        # that of -b/2 has one eigenvalue -(2/3)(11 k - 3) and k - 1 at 2:
        # near 0 the step adds one negative eigenvalue at each edge
        got, anchor, V = _chain_step_from(-0.5 * b_matrix(4 + k), 4, 4 + k, 1e-6)
        assert got == [(2, 2)] and anchor == (4 + k, (2, 2), pytest.approx(np.linalg.norm(V, axis=(1, 2))))

    def test_singular_block(self):
        # a complement singular at an edge is refused; one singular at 0,
        # as of a zero block, is not singular at the edges
        assert _chain_step_from(np.ones((2, 2)), 1, 2, 2.0)[:2] == ([], None)  # 2 is an eigenvalue
        A = np.zeros((3, 3))
        A[2, 2] = 1.0
        assert _chain_step_from(A, 0, 2, 1.0)[0] == [(0, 2)]
        # an eigenvalue near 1e-12: the edge on it is refused, half of it is not
        near = np.array([[1.0, 1.0], [1.0, 1.0 + 2e-12]])
        lam = float(np.linalg.eigvalsh(near)[0])
        assert _chain_step_from(near, 1, 2, lam)[:2] == ([], None)
        assert _chain_step_from(near, 1, 2, 0.5 * lam)[0] == [(0, 0)]

    @pytest.mark.parametrize("case", ["zero complement", "frobenius certificate"])
    def test_failed_step_leaves_the_inverse_as_it_was(self, case):
        # a step writes nothing until it is certified, so a refused one leaves
        # its anchor's inverses bit for bit, and the next size steps from them
        e = 1e-3
        if case == "zero complement":  # A_4 - e I is singular: its complement at e is 0
            A = np.diag([-1.0, 2.0, -3.0, e, 4.0, 5.0])
            A[3, 4] = A[4, 3] = 1.0
        else:  # the complement clears its bound; the inverse of A_4 - e I, of norm 2^40 / e, does not
            A = np.diag([-1.0, 2.0, e * (1.0 + 2.0**-40), 4.0])
            A[0, 3] = A[3, 0] = 1.0
        V = np.zeros((2, len(A), len(A)))
        for s, sigma in enumerate((-e, e)):
            V[s, :3, :3] = e * np.linalg.inv(A[:3, :3] - sigma * np.eye(3))
        below = (int(np.sum(np.diag(A)[:3] < -e)), int(np.sum(np.diag(A)[:3] < e)))
        anchor = (3, below, np.linalg.norm(V[:, :3, :3], axis=(1, 2)))
        band = (e, linalg._BORDER_FLOOR * 5.0, float(np.linalg.norm(A)))
        before = V.copy()
        assert linalg._chain_step(A[:4, :4], V, anchor, band, False)[1] is None
        assert np.array_equal(V, before)
        if case == "zero complement":
            got, held, _ = linalg._chain_step(A[:5, :5], V, anchor, band, False)
            assert got == [(3, 3)] and held is not None  # C = [[0, 1], [1, 4 - e]] has one negative eigenvalue
            for s, sigma in enumerate((-e, e)):
                _assert_inverse(A[:5, :5] - sigma * np.eye(5), V[s, :5, :5] / e)


class TestHaynsworth:
    # inertia additivity through _chain_step: the counts of A_a below the
    # band's edges plus those of A_k / A_a are the counts of A_k

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_extended_tripod(self, k):
        # (1,0,3) + (1,0,k-1) = (2,0,k+2), b's counts with their signs flipped
        S = -0.5 * b_matrix(4 + k)
        assert _chain_step_from(S, 0, 4, 1e-6)[0] == [(1, 1)] == [(inertia(S[:4, :4]).s_minus,) * 2]
        assert _chain_step_from(S, 4, 4 + k, 1e-6)[0] == [(2, 2)]
        assert inertia(S).counts() == (2, 0, k + 2)

    def test_tiny_diagonal(self):
        A = np.diag([1.0, -1.0])
        assert _chain_step_from(A, 0, 1, 1e-3)[0] == [(0, 0)]
        assert _chain_step_from(A, 1, 2, 1e-3)[0] == [(1, 1)]
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
            # the helper checks the counts and the inverses of A against
            # eigvalsh and np.linalg.inv
            got, anchor, _ = _chain_step_from(A, 4, 10, 1e-10)
            whole = count_inertia(np.linalg.eigvalsh(A), 1e-10)
            assert anchor is not None and got == [(whole[0], whole[0] + whole[1])]


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
        with pytest.raises(InvalidInput, match=r"^weight 2 is negative \(-0\.1\)$"):
            weighted_center(S, [0.5, 0.6, -0.1])
        with pytest.raises(InvalidInput, match="weights sum to .*, not 1"):
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


def _clique_pivots(monkeypatch):
    """(c, r, certified) of each ``linalg._clique_pivot`` from now on."""
    pivots = []
    real = linalg._clique_pivot

    def counted(B, D, gamma, bound, gram=None):
        pivot = real(B, D, gamma, bound, gram)
        pivots.append((B.shape[1], len(D), pivot is not None))
        return pivot

    monkeypatch.setattr(linalg, "_clique_pivot", counted)
    return pivots


def _block_products(monkeypatch):
    """The vectors x of each ``CliqueBlocks`` product ``A @ x`` from now on."""
    products = []
    real = linalg.CliqueBlocks.__matmul__
    monkeypatch.setattr(linalg.CliqueBlocks, "__matmul__", lambda b, x: products.append(x) or real(b, x))
    return products


def _model_blocks(model, order):
    """-d^2/2 on ``order`` and the model's ``clique_blocks`` of it, which must
    equal the blocks sliced from the matrix with the oracle's clique mask:
    two independent builds of one matrix."""
    S, blocks = model.s_matrix_on(order), model.clique_blocks(order)
    sliced = clique_blocks_of(S, np.array([clique_member(model.planted_clique, i) for i in order], dtype=bool))
    assert np.array_equal(sliced.flags, blocks.flags)
    assert np.array_equal(sliced.B, blocks.B) and np.array_equal(sliced.D, blocks.D)
    assert sliced.gamma == blocks.gamma or len(blocks.inside) < 2
    return S, blocks


class TestCliquePivot:
    # A planted clique's block of -d^2/2 is -(J - I)/2, whose inertia and
    # inverse are known: a prefix is counted from its r x r complement.
    MODEL = CountableRadoModel(edge_prob=0.5, seed=424242, planted_clique=ResidueClassClique(31))

    def _trial(self, seed, m_max=3000):
        draws = raw_draws(DiscreteMeasure.class_biased(30, 0.9), m_max, trial_seed(seed, 0))
        dedup, first = first_appearances_by_unique(draws)
        sizes = np.searchsorted(first, default_checkpoints(m_max))
        S, blocks = _model_blocks(self.MODEL, dedup)
        return S, sorted({int(k) for k in sizes}), blocks

    def test_class_biased_trials_match_eigvalsh(self, monkeypatch):
        # the clique tier counts every size past the first two, the largest
        # too, each certified; no eigensolve is larger than the trial's
        # points outside the clique, so no prefix is eigensolved whole
        pivots = _clique_pivots(monkeypatch)
        orders = _every_eigensolve_order(monkeypatch)
        for seed in range(6):
            S, sizes, blocks = self._trial(seed)
            others = int(np.count_nonzero(~blocks.flags[:sizes[-1]]))
            orders.clear()
            pivots.clear()
            got = prefix_inertias(blocks, sizes)
            assert orders and max(orders) <= others < sizes[-1] // 20, seed
            assert len(pivots) >= len(sizes) - 2 and all(ok for _, _, ok in pivots)
            assert sum(pivots[-1][:2]) == sizes[-1]
            assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes), seed
            # the chain on S; its band's bracket may differ from the blocks' in an ulp
            assert [i.counts() for i in got] == [i.counts() for i in prefix_inertias(S, sizes)]

    @staticmethod
    @functools.cache
    def _model_trajectory(rule, measure):
        """The clique blocks and the eigenvalues of every leading block of a
        model trajectory, shared by the tolerances that count it."""
        model = CountableRadoModel(edge_prob=0.5, seed=0, planted_clique=rule)
        order = sample_order(parse_measure_spec(measure), 3000, 0)
        S, blocks = _model_blocks(model, order)
        return blocks, [np.linalg.eigvalsh(S[:k, :k]) for k in range(1, len(S) + 1)]

    @pytest.mark.parametrize("tol_rel", [1e-9, 1e-7, 1e-6])
    @pytest.mark.parametrize("rule, measure", [("modular:31", "geometric:0.99"), ("quadratic", "geometric:0.995")])
    def test_every_prefix_of_a_model_trajectory(self, rule, measure, tol_rel, monkeypatch):
        # the pivot counts at the band's edges, so a loose band, which
        # holds eigenvalues of model prefixes, changes nothing
        blocks, spectra = self._model_trajectory(rule, measure)
        sizes = list(range(1, len(blocks) + 1))
        pivots = _clique_pivots(monkeypatch)
        got = prefix_inertias(blocks, sizes, tol_rel)
        theta = tol_rel * len(blocks) * float(np.abs(spectra[-1]).max())
        assert [i.counts() for i in got] == [count_inertia(vals, theta) for vals in spectra]
        assert len(pivots) > len(blocks) // 2

    def test_the_bracket_starts_in_the_clique_subspace(self, monkeypatch):
        # the benchmark's trials: iterated in the clique's (2r + 1)-square
        # operator, the start closes the bracket in at most two products of
        # the blocks, where the ones vector took about 16. rho is the ones
        # start's within roundoff, and the bracket holds eigvalsh's max|lambda|
        products = _block_products(monkeypatch)
        for seed in range(8):
            S, _, blocks = self._trial(seed)
            N = len(S)
            products.clear()
            rho_hat, rho_hi = linalg._perron_bracket(blocks)
            assert 1 <= len(products) <= 2 and 8 * len(blocks.outside) <= N, seed
            products.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(linalg.CliqueBlocks, "perron_start", lambda b: None)
                ones = linalg._perron_bracket(blocks)[0]
            assert np.array_equal(products[0], np.ones(N)) and len(products) > 8
            assert abs(rho_hat - ones) <= (N + 2) * EPS * ones, seed
            rho = float(np.abs(np.linalg.eigvalsh(S)).max())
            assert rho_hat <= rho * (1 + N * EPS) and rho <= rho_hi

    @pytest.mark.parametrize("seed", [6, 15])
    def test_small_trials_count_as_the_exact_oracle(self, seed, monkeypatch):
        # trials of 80 draws, 3 to 6 points outside the clique: every size
        # against the band of the subspace start's bracket, which one
        # product closes, counted as exact integer arithmetic counts it
        S, sizes, blocks = self._trial(seed, m_max=80)
        assert len(blocks.outside) >= 3
        products = _block_products(monkeypatch)
        got = prefix_inertias(blocks, sizes)
        assert len(products) <= 2
        theta = got[-1].tol
        lo, hi = exact_prefix_below(S, -theta), exact_prefix_below(-S, -theta)
        assert [i.counts() for i in got] == [(lo[k - 1], k - lo[k - 1] - hi[k - 1], hi[k - 1]) for k in sizes]

    @pytest.mark.parametrize("members", [0, 1, "all", "zero", "modular:2", "share"])
    def test_without_the_subspace_the_bracket_starts_from_ones(self, members, monkeypatch):
        # r = 0, c < 2: no start in the subspace; "zero": B = D = 0, where
        # the start's x_o is 0, not > 0, and the ones start finds no bracket;
        # "modular:2", half the points outside, and "share", one point past
        # an eighth: the subspace's product costs more than the blocks'
        if members == "zero":
            blocks = linalg.CliqueBlocks(np.arange(18) < 16, np.zeros((2, 16)), np.zeros((2, 2)), 1.0)
        elif members == "modular:2":
            model = CountableRadoModel(edge_prob=0.5, seed=4, planted_clique=ResidueClassClique(2))
            blocks = model.clique_blocks(range(400))
            assert len(blocks.outside) == 200
        elif members == "share":
            model = CountableRadoModel(edge_prob=0.5, seed=4, planted_clique=range(35))
            blocks = model.clique_blocks([*range(34), *range(35, 40)])
            assert linalg._PIVOT_SHARE * len(blocks.outside) == len(blocks) + 1
            assert model.clique_blocks(range(40)).perron_start() is not None  # 5 of 40 outside
        else:
            clique = range(40) if members == "all" else [0, 2, 5]
            model = CountableRadoModel(edge_prob=0.5, seed=4, planted_clique=clique)
            blocks = model.clique_blocks(range(40) if members == "all" else [0] * members + list(range(6, 46)))
        assert blocks.perron_start() is None
        products = _block_products(monkeypatch)
        bracket = linalg._perron_bracket(blocks)
        assert np.array_equal(products[0], np.ones(len(blocks)))
        assert (bracket is None) == (members == "zero")

    def test_a_large_clique_trial_eigensolves_only_its_other_points(self, monkeypatch):
        # 1717 of the trial's 1748 points are in the clique; its largest
        # prefixes have no eigenvalue within 1/2 of 0, yet a Frobenius
        # certificate on A_k^{-1} cannot pass there. The edge counts need none
        model = CountableRadoModel(edge_prob=0.5, seed=1, planted_clique="quadratic")
        measure = parse_measure_spec("geometric:0.999")
        orders = _every_eigensolve_order(monkeypatch)
        traj = rado_ratio_experiment(model, measure, m_max=3000, seed=trial_seed(1, 0))
        dedup = sample_order(measure, 3000, trial_seed(1, 0))
        others = int(np.count_nonzero(~model._clique_flags(dedup)))
        assert traj.dedup_sizes[-1] == len(dedup) == 1748 and others == 31
        assert orders and max(orders) <= others
        S = model.s_matrix_on(dedup)
        assert [i.counts() for i in traj.inertias] == prefix_counts_by_eigvalsh(S, traj.dedup_sizes)

    def test_the_pivot_refuses_an_edge_on_an_eigenvalue(self):
        # at theta = |lambda| roundoff decides the count, for a simple lambda
        # and for gamma, which fills most of the clique space; a relative
        # 1e-9 off the edge, or 1%, the pivot counts as eigvalsh does
        S, _, blocks = self._trial(0)
        k = 400
        head = blocks.head(k)
        B, D, gamma = head.B, head.D, head.gamma
        vals = np.linalg.eigvalsh(S[:k, :k])
        apart = np.minimum(np.diff(vals, prepend=-np.inf), np.diff(vals, append=np.inf))
        simple = [lam for lam, gap in zip(vals, apart) if gap > 1e-6 * abs(lam) and abs(abs(lam) - gamma) > 1e-3]
        assert len(simple) > 10 and np.count_nonzero(abs(vals - gamma) < 1e-12) > 300
        zeros = []
        for theta in [abs(lam) for lam in simple] + [gamma]:
            assert linalg._clique_pivot(B, D, gamma, theta) is None, theta
            for factor in (1 - 1e-9, 1 + 1e-9, 0.99, 1.01):
                got = linalg._clique_pivot(B, D, gamma, theta * factor)
                assert got == count_inertia(vals, theta * factor), (theta, factor)
                zeros.append(got[1])
        assert max(zeros) > 300

    @staticmethod
    def _mixed_sign_matrices(count, rng, c_max=60, r_max=20):
        """(c, r, gamma, A) of random symmetric matrices of any sign and
        scale whose first c points are a clique at one scale gamma."""
        for _ in range(count):
            c, r = int(rng.integers(2, c_max)), int(rng.integers(1, r_max))
            gamma = float(10 ** rng.uniform(-3, 3))
            A = rng.normal(size=(c + r, c + r)) * 10 ** rng.uniform(-3, 3)
            A += A.T
            A[:c, :c] = -gamma * (1 - np.eye(c))
            yield c, r, gamma, A

    def test_a_mixed_sign_matrix_counts_between_its_eigenvalues(self):
        # the refusals bound roundoff for B and D of any sign and scale, not
        # only for -d^2/2: between two |eigenvalues| the pivot counts
        for c, r, gamma, A in self._mixed_sign_matrices(20, np.random.default_rng(5)):
            vals = np.linalg.eigvalsh(A)
            mags = np.unique(np.abs(vals))
            apart = np.diff(mags) > 1e-6 * mags[1:]
            for theta in (0.5 * (mags[:-1] + mags[1:]))[apart]:
                got = linalg._clique_pivot(A[c:, :c], A[c:, c:], gamma, theta)
                assert got == count_inertia(vals, theta), (c, r, gamma, theta)

    def test_any_simplex_scale_is_a_clique(self, monkeypatch):
        # hand-made blocks of a clique at one distance 2 are a simplex too:
        # gamma 2, not 1/2
        S = CountableRadoModel(edge_prob=0.5, seed=8).s_matrix_on(range(300))
        flags = np.zeros(300, dtype=bool)
        flags[:280] = True
        S[np.ix_(flags, flags)] = -2.0 * (1.0 - np.eye(280))
        blocks = clique_blocks_of(S, flags)
        assert blocks.gamma == 2.0
        sizes = [100, 200, 300]
        pivots = _clique_pivots(monkeypatch)
        got = prefix_inertias(blocks, sizes)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes)
        assert pivots == [(100, 0, True), (200, 0, True), (280, 20, True)]

    @pytest.mark.parametrize("members", [0, 1])
    def test_fewer_than_two_clique_points_take_the_chain(self, members, monkeypatch):
        S, sizes, blocks = self._trial(1)
        flags = np.zeros_like(blocks.flags)
        flags[:members] = True
        pivots = _clique_pivots(monkeypatch)
        assert prefix_inertias(clique_blocks_of(S, flags), sizes) == prefix_inertias(S, sizes)
        assert pivots == []

    def test_prefixes_before_the_clique_take_the_chain(self, monkeypatch):
        # c < 2 up to 20 points, then r = 20 of 100, over an eighth: the
        # chain, 10 a step from the empty block and 20 a step from 10, with
        # 100 too wide a step from 20 and eigensolved; the pivot at 400
        model = CountableRadoModel(edge_prob=0.5, seed=2, planted_clique=range(20, 400))
        S, blocks = _model_blocks(model, range(400))
        sizes = [10, 20, 100, 400]
        pivots = _clique_pivots(monkeypatch)
        steps = _chain_steps(monkeypatch)
        got = prefix_inertias(blocks, sizes)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes)
        assert [(a, k) for a, k, _, _ in steps] == [(0, 10), (10, 20)]
        assert pivots == [(380, 20, True)]

    @pytest.mark.parametrize("run", [[20], list(range(11, 21))])
    def test_a_step_that_keeps_no_inverse_leaves_the_next_size_to_the_pivot(self, run, monkeypatch):
        # the step from 10, gapped or through a run, counts up to 20 but
        # keeps no inverse (forced here, as where A_20 has an eigenvalue
        # near an edge); 160, with 20 of its points outside the clique, is
        # offered to the pivot, and 200, with 60, is eigensolved. The chain
        # holds inverses up to 20 only, so a step of 160 from the empty block
        # would have no room for them
        model = CountableRadoModel(edge_prob=0.5, seed=2, planted_clique=range(20, 160))
        S, blocks = _model_blocks(model, range(200))
        sizes = [10, *run, 160, 200]
        real = linalg._chain_step

        def unheld(A, V, anchor, band, run):
            counts, held, bound = real(A, V, anchor, band, run)
            return counts, held if anchor[0] == 0 else None, bound

        monkeypatch.setattr(linalg, "_chain_step", unheld)
        pivots = _clique_pivots(monkeypatch)
        steps = _chain_steps(monkeypatch)
        got = prefix_inertias(blocks, sizes)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes)
        assert steps == [(0, 10, 1, True), (10, 20, len(run), False)]
        assert pivots == [(140, 20, True)]

    @pytest.mark.parametrize("k", [80, 400])
    def test_the_pivot_takes_a_prefix_with_an_eighth_outside(self, k, monkeypatch):
        # r = k/8 points before the clique: size k pivots; one more point
        # outside it, r = k/8 + 1, and size k + 1 goes to the chain
        r = k // 8
        model = CountableRadoModel(edge_prob=0.5, seed=3, planted_clique=range(r, k))
        S, blocks = _model_blocks(model, range(k + 1))
        sizes = [k, k + 1]
        pivots = _clique_pivots(monkeypatch)
        got = prefix_inertias(blocks, sizes)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(S, sizes)
        assert pivots == [(k - r, r, True)]

    def test_an_all_clique_prefix_needs_no_eigensolve(self, monkeypatch):
        # r = 0: the count is the clique block's own (1, 0, k - 1)
        S = named_example("simplex", n=100).s_matrix_on(range(100))
        blocks = clique_blocks_of(S, np.ones(100, dtype=bool))
        pivots = _clique_pivots(monkeypatch)
        orders = _eigensolve_orders(monkeypatch)
        got = prefix_inertias(blocks, [50, 100])
        assert [i.counts() for i in got] == [(1, 0, 49), (1, 0, 99)]
        assert pivots == [(50, 0, True), (100, 0, True)] and orders == []


class TestCliqueBlocks:
    # A model hands its planted clique's blocks to prefix_inertias, which
    # counts them as it counts the blocks sliced from the model's dense
    # matrix, and as eigvalsh does.
    SHAPES = {
        "index": ((0, 2, 5), "geometric:0.7"),
        "modular:2": ("modular:2", "geometric:0.995"),
        "modular:3": ("modular:3", "class_biased:2:0.9"),
        "modular:31": ("modular:31", "class_biased:30:0.9"),
        "quadratic": ("quadratic", "geometric:0.995"),
    }

    @staticmethod
    @functools.cache
    def _sample(shape, p):
        """The model, the first 150 points of its sample order and the
        eigenvalues of every leading block of -d^2/2 on them."""
        rule, measure = TestCliqueBlocks.SHAPES[shape]
        model = CountableRadoModel(edge_prob=p, seed=7, planted_clique=rule)
        order = sample_order(parse_measure_spec(measure), 3000, 1)[:150]
        S = model.s_matrix_on(order)
        return model, order, [np.linalg.eigvalsh(S[:k, :k]) for k in range(1, len(order) + 1)]

    @pytest.mark.parametrize("tol_rel", [1e-9, 1e-7])
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_counts_equal_on_every_clique_shape(self, shape, p, tol_rel):
        model, order, spectra = self._sample(shape, p)
        sizes = list(range(1, len(order) + 1))
        blocks = model.clique_blocks(order)
        got = prefix_inertias(blocks, sizes, tol_rel)
        theta = tol_rel * len(order) * float(np.abs(spectra[-1]).max())
        assert [i.counts() for i in got] == [count_inertia(vals, theta) for vals in spectra]
        sliced = prefix_inertias(clique_blocks_of(model.s_matrix_on(order), blocks.flags), sizes, tol_rel)
        assert [i.counts() for i in got] == [i.counts() for i in sliced]
        assert all(type(n) is int for i in got for n in i.counts())  # never a numpy integer

    @pytest.mark.parametrize("members", [0, 1])
    def test_fewer_than_two_clique_points_at_every_size(self, members):
        # c = 0: B has no columns; c = 1: one; every size goes to the chain
        model = CountableRadoModel(edge_prob=0.5, seed=4, planted_clique=[0, 2, 5])
        order = [0, *range(6, 86)] if members else list(range(6, 86))
        blocks = model.clique_blocks(order)
        assert blocks.B.shape == (80, members)
        sizes = [1, 2, 10, 40, len(order)]
        got = prefix_inertias(blocks, sizes)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(model.s_matrix_on(order), sizes)

    def test_an_order_inside_the_clique(self, monkeypatch):
        # r = 0: B has no rows and D is empty; each count is (1, 0, k - 1)
        model = CountableRadoModel(edge_prob=0.5, seed=4, planted_clique="modular:31")
        order = [i for i in range(1, 130) if i % 31][:120]
        blocks = model.clique_blocks(order)
        assert blocks.B.shape == (0, 120) and blocks.D.shape == (0, 0)
        assert blocks.max() == 0.0
        orders = _eigensolve_orders(monkeypatch)
        got = prefix_inertias(blocks, [1, 2, 60, 120])
        assert [i.counts() for i in got] == [(0, 1, 0), (1, 0, 1), (1, 0, 59), (1, 0, 119)]
        assert orders == [1]  # the one point's block; the pivot takes c >= 2

    def test_a_refused_pivot_counts_on_a_lazy_dense_block(self, monkeypatch):
        # sizes 10 and 20 hold fewer than two clique points, and 200, 300 and
        # 400 have 20 points outside, at most an eighth. The pivot pass
        # refuses 300, so the chain counts 10, 20 and 300 on the one dense
        # block of 300, and nothing larger is built, not even for the largest
        # size
        model = CountableRadoModel(edge_prob=0.5, seed=2, planted_clique=range(20, 400))
        blocks = model.clique_blocks(range(400))
        sizes = [10, 20, 200, 300, 400]
        built = []
        real_leading, real_pivot = linalg.CliqueBlocks.leading, linalg._clique_pivot
        monkeypatch.setattr(linalg.CliqueBlocks, "leading", lambda b, k: built.append(k) or real_leading(b, k))
        monkeypatch.setattr(
            linalg, "_clique_pivot",
            lambda B, D, g, t, gram=None: None if len(D) + B.shape[1] == 300 else real_pivot(B, D, g, t, gram),
        )
        got = prefix_inertias(blocks, sizes)
        assert [i.counts() for i in got] == prefix_counts_by_eigvalsh(model.s_matrix_on(range(400)), sizes)
        assert built == [300]

    def test_the_head_of_every_point_is_the_blocks(self):
        model = CountableRadoModel(edge_prob=0.5, seed=9, planted_clique="quadratic")
        blocks = model.clique_blocks(range(50))
        assert blocks.head(50) is blocks and len(blocks.head(49)) == 49

    def test_the_dense_leading_blocks_are_the_models(self):
        model = CountableRadoModel(edge_prob=0.5, seed=9, planted_clique="quadratic")
        order = sample_order(parse_measure_spec("geometric:0.99"), 2000, 3)
        blocks, S = model.clique_blocks(order), model.s_matrix_on(order)
        for k in (1, 7, 100, len(order)):
            A = blocks.head(k).leading(k)
            assert np.array_equal(A, S[:k, :k]) and not np.signbit(A.diagonal()).any()
        x = np.random.default_rng(0).uniform(0.5, 1.0, len(order))
        np.testing.assert_allclose(blocks @ x, S @ x, rtol=len(order) * EPS)
        assert blocks.max() == S.max() == 0.0 and len(blocks) == len(S)

    def test_clique_blocks_need_distinct_points(self):
        # a repeated point would sit at -gamma from itself in the clique and
        # hash the pair (i, i) outside it, unlike s_matrix_on
        model = CountableRadoModel(edge_prob=0.5, seed=4, planted_clique="modular:3")
        for order in ([3, 3], [1, 3, 1], [0, 5, 9, 5]):
            with pytest.raises(InvalidInput, match="clique blocks need distinct vertex indices"):
                model.clique_blocks(order)

    def test_hand_made_blocks_are_checked(self):
        model = CountableRadoModel(edge_prob=0.5, seed=4, planted_clique="modular:3")
        good = model.clique_blocks(range(1, 40))
        B, D = good.B.copy(), good.D.copy()
        nan_B, nan_D, skew_D = B.copy(), D.copy(), D.copy()
        nan_B[2, 3] = np.nan
        nan_D[1, 2] = np.nan  # not equal to itself: still reported as not finite
        skew_D[0, 1] = -1.0
        bad = {
            "clique flags must be a boolean vector": [
                (good.flags.astype(int), B, D, 0.5), (good.flags[:, None], B, D, 0.5),
            ],
            "clique blocks must be B of shape": [
                (good.flags, B[:-1], D, 0.5), (good.flags, B.T, D, 0.5), (good.flags, B, D[:-1], 0.5),
                (good.flags, B, skew_D, 0.5),
            ],
            "clique blocks need finite entries and a positive gamma": [
                (good.flags, nan_B, D, 0.5), (good.flags, B, nan_D, 0.5),
                (good.flags, B, D, 0.0), (good.flags, B, D, -0.5), (good.flags, B, D, np.nan),
            ],
        }
        for message, cases in bad.items():
            for args in cases:
                with pytest.raises(InvalidInput, match=message):
                    linalg.CliqueBlocks(*args)
        rebuilt = linalg.CliqueBlocks(good.flags, B, D, 0.5)
        assert prefix_inertias(rebuilt, [10, 39]) == prefix_inertias(good, [10, 39])


def _monotone(count, n):
    """[count(i) for i in range(n)] for a count monotone in i, such as a
    count of eigenvalues below -theta for increasing theta: a run of indices
    whose ends agree is filled without counting the indices between them."""
    got = {}

    def fill(lo, hi):
        for i in (lo, hi):
            if i not in got:
                got[i] = count(i)
        if got[lo] == got[hi]:
            got.update(dict.fromkeys(range(lo, hi), got[lo]))
        elif hi - lo > 1:
            fill(lo, (lo + hi) // 2)
            fill((lo + hi) // 2, hi)

    fill(0, n - 1)
    return [got[i] for i in range(n)]


class TestPivotAtTheBandEdges:
    # A float matrix and a float theta are exact dyadic rationals, so
    # exact_below counts eigenvalues below an edge with no rounding. With
    # theta a relative 1e-9, 1e-12, 4 ulps, 1 ulp or 0 from an eigenvalue's
    # computed |lambda|, where roundoff can decide a count, a pivot that
    # does not refuse counts as the exact oracle does.
    DELTAS = (-1e-9, -1e-12, -4 * EPS, -EPS, 0.0, EPS, 4 * EPS, 1e-12, 1e-9)

    def test_the_oracle_counts_as_eigvalsh_away_from_its_eigenvalues(self):
        # a hollow matrix at sigma = 0 starts on a 2 x 2 pivot; small integer
        # entries keep the Schur complements' diagonals at 0 at times
        rng = np.random.default_rng(0)
        for n in (2, 3, 6, 12):
            for _ in range(40):
                A = np.triu(rng.integers(-1, 2, size=(n, n)), 1).astype(float)
                A += A.T
                vals = np.linalg.eigvalsh(A)
                for sigma in (0.0, 0.5, -1.0):
                    assert exact_below(A, sigma) == np.count_nonzero(vals < sigma - 1e-9), (A, sigma)
        simplex = -0.5 * (1.0 - np.eye(5))  # eigenvalues -2 and 1/2 (4 times), exactly
        assert exact_counts(simplex, 0.5) == (1, 4, 0) and exact_counts(simplex, 2.0) == (0, 5, 0)
        assert exact_counts(simplex, 0.5 * (1 - EPS)) == (1, 0, 4)

    @classmethod
    def _exact_at(cls, A, lam):
        """exact_counts(A, lam (1 + delta)) for each delta."""
        thetas = [lam * (1 + delta) for delta in cls.DELTAS]
        lo, hi = (_monotone(lambda i, M=M: exact_below(M, -thetas[i]), len(thetas)) for M in (A, -A))
        return [(a, len(A) - a - b, b) for a, b in zip(lo, hi)]

    def _check(self, B, D, gamma, lams):
        """How many pivots counted at the thetas near each of ``lams``; each
        count equals the exact one."""
        c = B.shape[1]
        A = np.block([[-gamma * (1.0 - np.eye(c)), B.T], [B, D]])
        counted = 0
        for lam in lams:
            for delta, exact in zip(self.DELTAS, self._exact_at(A, lam)):
                got = linalg._clique_pivot(B, D, gamma, lam * (1 + delta))
                if got is not None:
                    assert got == exact, (c, len(D), gamma, lam, delta)
                    counted += 1
        return counted

    @pytest.mark.parametrize("rule, measure, k", [
        ("modular:31", "class_biased:30:0.9", 40),
        ("quadratic", "geometric:0.995", 32),
        ("modular:3", "class_biased:2:0.9", 32),
    ])
    def test_model_blocks(self, rule, measure, k):
        model = CountableRadoModel(edge_prob=0.5, seed=3, planted_clique=rule)
        blocks = model.clique_blocks(sample_order(parse_measure_spec(measure), 3000, 2)).head(k)
        mags = np.abs(np.linalg.eigvalsh(blocks.leading(k)))
        # gamma, an eigenvalue of the clique block, and the smallest, median
        # and largest |lambda| apart from it
        other = mags[np.abs(mags - blocks.gamma) > 1e-6]
        lams = [blocks.gamma, other.min(), np.median(other), other.max()]
        assert self._check(blocks.B, blocks.D, blocks.gamma, lams) > len(lams)

    def test_mixed_sign_blocks(self):
        for c, r, gamma, A in TestCliquePivot._mixed_sign_matrices(3, np.random.default_rng(6), c_max=24, r_max=8):
            mags = np.abs(np.linalg.eigvalsh(A))
            lams = [mags.min(), np.median(mags), mags.max()]
            assert self._check(A[c:, :c], A[c:, c:], gamma, lams) > len(lams)


class TestRunsAtTheBandEdges:
    # A run's step of the chain, from an anchor of order M stepped to from
    # the empty block, counts as the exact oracle does at theta = |lambda|
    # (1 + delta) for the deltas of the pivot's check, but where the size
    # has an eigenvalue within the step's roundoff bound of an edge, a bound
    # that does not exceed the floor. An edge on an eigenvalue of the anchor
    # must not make a size miscount.
    M = 16

    @staticmethod
    def _near(A, theta, delta):
        """Whether A has an eigenvalue within delta of -theta or theta."""
        return any(
            exact_below(A, np.nextafter(sigma - delta, -np.inf)) != exact_below(A, np.nextafter(sigma + delta, np.inf))
            for sigma in (-theta, theta)
        )

    def _check(self, A, lams):
        """How many sizes the run's steps counted at the thetas near each of
        ``lams``, each as the exact counts allow."""
        m, rho = self.M, float(np.abs(np.linalg.eigvalsh(A)).max())
        floor, fro = linalg._BORDER_FLOOR * rho, float(np.linalg.norm(A))
        counted = []
        for lam in lams:
            thetas = [lam * (1 + delta) for delta in TestPivotAtTheBandEdges.DELTAS]
            # eigenvalues of every leading block below -theta and above theta
            lo, hi = (_monotone(lambda i, M=M: exact_prefix_below(M, -thetas[i]), len(thetas)) for M in (A, -A))
            counted.append(0)
            for theta, below, above in zip(thetas, lo, hi):
                e = max(theta, floor)
                V = np.empty((2, len(A), len(A)))
                anchor = linalg._chain_step(A[:m, :m], V, EMPTY_ANCHOR, (e, floor, fro), False)[1]
                if anchor is None:  # an edge on an eigenvalue of the anchor
                    continue
                got, _, bound = linalg._chain_step(A, V, anchor, (e, floor, fro), True)
                for k, (neg, low) in enumerate(got, start=m + 1):
                    exact = (below[k - 1], k - below[k - 1] - above[k - 1], above[k - 1])
                    if (neg, low - neg, k - low) != exact:
                        assert self._near(A[:k, :k], theta, min(bound, floor)), (lam, theta, k)
                counted[-1] += len(got)
        return counted

    @pytest.mark.parametrize("family", ["sphere", "rado_model"])
    def test_prefixes(self, family):
        # the smallest, median and largest |lambda| of the largest block and
        # the median of a block inside the run, where each step counts all
        # 16 sizes; and the smallest of the anchor, where the step to it
        # keeps no inverses or the run's step refuses
        A = {
            "sphere": lambda: named_example("sphere", dim=2, n=32, seed=5).s_matrix_on(range(32)),
            "rado_model": lambda: _model_s()[:32, :32],
        }[family]()
        top, inner, anchor = (np.abs(np.linalg.eigvalsh(A[:k, :k])) for k in (32, 24, self.M))
        counted = self._check(A, [top.min(), np.median(top), top.max(), np.median(inner), anchor.min()])
        assert counted[:4] == [(32 - self.M) * len(TestPivotAtTheBandEdges.DELTAS)] * 4
        assert counted[4] < counted[0]


class TestStepsAtTheBandEdges:
    # The chain at theta = |lambda| (1 + delta) for the deltas of the
    # pivot's check, read back from Inertia.tol: a step, from a held anchor
    # or from the empty block, counts as the exact oracle does but where the
    # size has an eigenvalue within the step's roundoff bound, at most the
    # floor, of an edge, and an eigensolve but where one lies within its
    # roundoff, c n eps max|lambda| with c = 4, of an edge.

    @staticmethod
    def _check(A, sizes, lams, source=None):
        """How many sizes steps, steps from the empty block among them, and
        other tiers counted at the thetas near each of ``lams``, each as the
        exact counts allow, where ``prefix_inertias`` counts ``source``, A
        itself or its ``CliqueBlocks``."""
        N, rho = len(A), linalg._perron_bracket(A)
        floor = linalg._BORDER_FLOOR * rho[1]
        tally = {"step": 0, "empty": 0, "eigensolve": 0}
        bounds, emptied = {}, set()  # the roundoff bound of the step that counted each size; those from a = 0
        real = linalg._chain_step

        def step(A, V, anchor, band, run):
            got = counts, _, bound = real(A, V, anchor, band, run)
            counted = range(anchor[0] + 1, anchor[0] + len(counts) + 1) if run else [len(A)] if counts else []
            bounds.update(dict.fromkeys(counted, min(bound, floor)))
            emptied.update(counted if anchor[0] == 0 else ())
            return got

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_chain_step", step)
            for lam in lams:
                runs = []
                for delta in TestPivotAtTheBandEdges.DELTAS:
                    bounds.clear(), emptied.clear()
                    got = prefix_inertias(A if source is None else source, sizes, lam * (1 + delta) / (N * rho[0]))
                    runs.append((got, dict(bounds), set(emptied)))
                thetas = [got[-1].tol for got, _, _ in runs]
                lo, hi = (_monotone(lambda i, M=M: exact_prefix_below(M, -thetas[i]), len(thetas)) for M in (A, -A))
                for (got, stepped, empty), theta, below, above in zip(runs, thetas, lo, hi):
                    for k, ine in zip(sizes, got):
                        exact = (below[k - 1], k - below[k - 1] - above[k - 1], above[k - 1])
                        bound = stepped.get(k, 4 * N * EPS * rho[1])
                        if ine.counts() != exact:  # an edge within the bound of an eigenvalue; below the floor
                            # the steps count at -+floor
                            assert any(TestRunsAtTheBandEdges._near(A[:k, :k], edge, bound)
                                       for edge in {theta, max(theta, floor)}), (lam, theta, k)
                        tally["step" if k in stepped else "eigensolve"] += 1
                        tally["empty"] += k in empty
        return tally

    @pytest.mark.parametrize("family", ["sphere", "rado_model"])
    def test_steps_and_eigensolves(self, family):
        # the smallest |lambda| of each size and the median of the largest:
        # a size with an eigenvalue on or near an edge is refused by its step
        # and restarted, or eigensolved; the steps to the sizes clear of it
        # count
        A = {
            "sphere": lambda: named_example("sphere", dim=2, n=32, seed=5).s_matrix_on(range(32)),
            "rado_model": lambda: _model_s(n_draws=1500, seed=4)[:32, :32],
        }[family]()
        sizes = [8, 16, 24, 32]
        mags = [np.abs(np.linalg.eigvalsh(A[:k, :k])) for k in sizes]
        tally = self._check(A, sizes, [m.min() for m in mags] + [np.median(mags[-1])])
        assert tally["step"] > 0 and tally["eigensolve"] > 0, tally


class TestChainAtTheBandEdges:
    # Every count the chain makes, on sizes with runs and gaps, checked as in
    # TestStepsAtTheBandEdges: the steps of runs, from the empty block and
    # from a gapped size, the gapped steps, and the restarts, at both edges.
    # An edge on an eigenvalue of an anchor must not make a later size
    # miscount: there the bounds refuse a step, and the size is restarted.
    SIZES = [*range(1, 9), 12, 16, *range(17, 25), 28, 32]

    @pytest.mark.parametrize("family", ["sphere", "rado_model"])
    def test_every_count(self, family):
        A = {
            "sphere": lambda: named_example("sphere", dim=2, n=32, seed=5).s_matrix_on(range(32)),
            "rado_model": lambda: _model_s(n_draws=1500, seed=4)[:32, :32],
        }[family]()
        # the smallest |lambda| of each anchor a step starts from, and the
        # median of the largest block
        mags = [np.abs(np.linalg.eigvalsh(A[:k, :k])) for k in (8, 12, 16, 24, 28, 32)]
        tally = TestStepsAtTheBandEdges._check(A, self.SIZES, [m.min() for m in mags] + [np.median(mags[-1])])
        assert tally["step"] > 0 and tally["eigensolve"] > 0, tally


class TestStepsFromTheEmptyBlock:
    # The sizes that no held anchor reaches step from the empty block: the
    # first gapped size, a size after a refused run step, a size whose
    # clique pivot is refused, and sizes below the floor. Their counts are
    # checked as in TestStepsAtTheBandEdges, and the inverses such a step
    # holds against e (A_k - sigma I)^{-1} from np.linalg.inv.
    FAMILIES = {
        "sphere": lambda: named_example("sphere", dim=2, n=32, seed=5).s_matrix_on(range(32)),
        "rado_model": lambda: _model_s(n_draws=1500, seed=4)[:32, :32],
    }

    @staticmethod
    def _held(monkeypatch):
        """(A_k, e, the inverses held) of each step from the empty block from
        now on that holds its inverses."""
        held = []
        real = linalg._chain_step

        def step(A, V, anchor, band, run):
            got = real(A, V, anchor, band, run)
            if anchor[0] == 0 and got[1] is not None:
                held.append((A.copy(), band[0], V[:, :len(A), :len(A)].copy()))
            return got

        monkeypatch.setattr(linalg, "_chain_step", step)
        return held

    @staticmethod
    def _check_inverses(held):
        """Each held inverse within 1e-10 relative of np.linalg.inv's, or,
        where an edge lies so near an eigenvalue of A_k that both carry more
        roundoff, within 4 k eps cond(A_k - sigma I) of it."""
        for A, e, V in held:
            k = len(A)
            for s, sigma in enumerate((-e, e)):
                want = np.linalg.inv(A - sigma * np.eye(k)) * e
                gaps = np.abs(np.linalg.eigvalsh(A) - sigma)
                rel = max(1e-10, 4 * k * EPS * gaps.max() / gaps.min())
                assert np.linalg.norm(V[s] - want) <= rel * np.linalg.norm(want), (k, sigma)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_the_first_gapped_size(self, family, monkeypatch):
        # 8 steps from the empty block, at the edges near its smallest and
        # median |lambda| too; 16 and 24 step from the size before
        A = self.FAMILIES[family]()
        sizes = [8, 16, 24, 32]
        self._check_sizes(A, sizes, [8], monkeypatch)

    def test_a_size_after_a_refused_run_step(self, monkeypatch):
        # the run from the empty block through every size is refused at 12,
        # as at a zero minor: 12 steps from the empty block, and the run from
        # there goes on
        A = self.FAMILIES["sphere"]()
        real = linalg._chain_step

        def refusing(A_k, V, anchor, band, run):
            counts, held, bound = real(A_k, V, anchor, band, run)
            if run and anchor[0] < 12 <= len(A_k):
                return counts[:11 - anchor[0]], None, bound
            return counts, held, bound

        monkeypatch.setattr(linalg, "_chain_step", refusing)
        with pytest.MonkeyPatch.context() as mp:
            steps = _chain_steps(mp)
            prefix_inertias(A, range(1, 33))
        assert [(a, k, n) for a, k, n, _ in steps] == [(0, 32, 11), (0, 12, 1), (12, 32, 20)]
        self._check_sizes(A, list(range(1, 33)), [12], monkeypatch)

    def test_a_refused_clique_pivot_above_order_32(self, monkeypatch):
        # 36 points, 4 outside the clique, are offered to the pivot, which
        # is refused here: 36, more than twice 4, steps from the empty block,
        # in a buffer of the chain's largest size below 40, and 40, with 8
        # points outside, from 36.
        # Its smallest |lambda| is near gamma, an eigenvalue of the clique
        # block
        model = CountableRadoModel(edge_prob=0.5, seed=2, planted_clique=range(4, 36))
        A, blocks = _model_blocks(model, range(40))
        real = linalg._clique_pivot
        monkeypatch.setattr(
            linalg, "_clique_pivot",
            lambda B, D, g, t, gram=None: None if len(D) + B.shape[1] == 36 else real(B, D, g, t, gram),
        )
        self._check_sizes(A, [4, 36, 40], [4, 36], monkeypatch, source=blocks)

    @pytest.mark.parametrize("tol_rel", [1e-12, 0.0])
    def test_sizes_below_the_floor(self, tol_rel, monkeypatch):
        # theta is below the floor: 10 and 25, more than twice 10, step from
        # the empty block at -+floor. A_25 has an eigenvalue within the floor
        # of 0, so its two counts differ and it is eigensolved, the chain
        # going on from its inverses
        A = named_example("sphere", dim=2, n=60, seed=2).s_matrix_on(range(40))
        self._check_sizes(A, [10, 25, 40], [10, 25], monkeypatch, tol_rel=tol_rel)

    def _check_sizes(self, A, sizes, emptied, monkeypatch, source=None, tol_rel=1e-9):
        """Counts of ``sizes`` at tol_rel, and at the edges near the smallest
        and the median |lambda| of the last size in ``emptied``, as the exact
        counts allow; the sizes in ``emptied`` step from the empty block and
        hold inverses as np.linalg.inv gives them."""
        held = self._held(monkeypatch)
        got = prefix_inertias(A if source is None else source, sizes, tol_rel)
        assert [i.counts() for i in got] == [exact_counts(A[:k, :k], got[-1].tol) for k in sizes]
        assert [len(a) for a, _, _ in held] == emptied
        self._check_inverses(held)
        mags = np.abs(np.linalg.eigvalsh(A[:emptied[-1], :emptied[-1]]))
        assert TestStepsAtTheBandEdges._check(A, sizes, [mags.min(), np.median(mags)], source)["empty"] > 0


@st.composite
def _clique_cases(draw):
    """(model, order, sizes, tol_rel, refused): a model whose planted clique
    leaves at most a quarter of n <= 64 points outside it, an order of them,
    increasing sizes, each of 1..n kept at a drawn rate, a tol_rel of 0 or
    1e-14 to 1e-4, and the sizes whose pivot a spy refuses."""
    n = draw(st.integers(2, 64))
    outside = draw(st.permutations(range(n)))[:draw(st.integers(0, n // 4))]
    model = CountableRadoModel(edge_prob=0.5, seed=draw(st.integers(0, 2**16)),
                               planted_clique=sorted(set(range(n)) - set(outside)))
    rate = draw(st.sampled_from([0.1, 0.5, 0.9, 1.0]))
    kept = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n))
    sizes = [k for k, u in enumerate(kept, start=1) if u < rate] or [n]
    power = draw(st.integers(-15, -5))  # 10^-15 stands for 0
    tol_rel = 0.0 if power == -15 else draw(st.floats(1.0, 10.0)) * 10.0**power
    return model, draw(st.permutations(range(n))), sizes, tol_rel, draw(st.sets(st.sampled_from(sizes)))


class TestTwoPasses:
    # The pivot pass counts the sizes it takes, and the chain pass exactly
    # the sizes left, the refused ones too, which a spy draws here from the
    # sizes offered to the pivot. Every size counts as eigvalsh does but
    # where an eigenvalue lies within eigvalsh's backward error of an edge,
    # LAPACK's p(n) eps ||A|| with p(n) = 4 n: a computed eigenvalue within
    # twice that, as the exact one may lie within once, and the gap between
    # the bracket's band and the oracle's. The chain writes one dense block,
    # at its largest size, and one buffer of inverses, at its largest size
    # below N.

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=_clique_cases())
    def test_the_chain_counts_exactly_the_sizes_the_pivot_leaves(self, case):
        model, order, sizes, tol_rel, refused = case
        S, blocks = model.s_matrix_on(order), model.clique_blocks(order)
        pivoted, built, buffers = [], [], []
        real_pivot, real_leading, real_step = linalg._clique_pivot, linalg.CliqueBlocks.leading, linalg._chain_step

        def pivot(B, D, gamma, theta, gram=None):
            k = B.shape[1] + len(D)
            got = None if k in refused else real_pivot(B, D, gamma, theta, gram)
            pivoted.extend([k] if got is not None else [])
            return got

        def step(A, V, anchor, band, run):
            buffers.append(V)
            return real_step(A, V, anchor, band, run)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_clique_pivot", pivot)
            mp.setattr(linalg.CliqueBlocks, "leading", lambda b, k: built.append(k) or real_leading(b, k))
            mp.setattr(linalg, "_chain_step", step)
            got = prefix_inertias(blocks, sizes, tol_rel)
        N, chain = sizes[-1], [k for k in sizes if k not in pivoted]
        held = max([k for k in chain if k < N], default=0)  # the order of the chain's inverses
        assert built == chain[-1:]
        assert all(V is buffers[0] and V.shape == (2, held, held) for V in buffers)
        rho = float(np.abs(np.linalg.eigvalsh(S[:N, :N])).max())
        theta = tol_rel * N * rho  # the oracle's band
        for k, ine, want in zip(sizes, got, prefix_counts_by_eigvalsh(S, sizes, tol_rel)):
            edges = np.abs(np.abs(np.linalg.eigvalsh(S[:k, :k])) - theta)
            if edges.min() > 2 * 4 * k * EPS * rho + abs(got[-1].tol - theta):
                assert ine.counts() == want, (k, tol_rel)
