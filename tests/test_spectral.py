import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from mmsig import linalg, spectral
from mmsig.constructions import CountableRadoModel, ResidueClassClique
from mmsig.errors import InvalidInput
from mmsig.linalg import Inertia, double_center, inertia, pinned_map
from mmsig.sampling import DiscreteMeasure, gv_sample, trial_seed
from mmsig.spectral import (
    ESD,
    default_checkpoints,
    delta_ratio,
    esd_and_inertia,
    ks_to_semicircle,
    rado_ratio_experiment,
    rado_ratio_trials,
    ratio_summary,
    semicircle_cdf,
    write_ratio_csv,
)

from util_oracles import prefix_counts_by_eigvalsh, random_symmetric


def semicircle_density(sigma, x):
    if abs(x) > 2 * sigma:
        return 0.0
    return math.sqrt(4 * sigma**2 - x**2) / (2 * math.pi * sigma**2)


class TestEsd:
    def test_zero_matrix(self):
        e = esd_and_inertia(np.zeros((4, 4)))[0]
        assert e.n == 4
        assert (e.values == 0).all()

    def test_scaled_identity(self):
        e = esd_and_inertia(4.0 * np.eye(4))[0]
        np.testing.assert_allclose(e.values, 2.0)

    def test_sorted(self):
        rng = np.random.default_rng(3)
        e = esd_and_inertia(random_symmetric(rng, 20))[0]
        assert np.all(np.diff(e.values) >= 0)


class TestSemicircleCdf:
    def test_symmetry_point(self):
        assert semicircle_cdf(1.0, 0.0) == pytest.approx(0.5)

    def test_support_edges(self):
        assert semicircle_cdf(2.0, 4.0) == 1.0
        assert semicircle_cdf(2.0, -4.0) == 0.0
        assert semicircle_cdf(1.0, 100.0) == 1.0

    def test_at_sigma_matches_quadrature(self):
        # frozen from the quadrature oracle: 1/2 + sqrt(3)/(4 pi) + 1/6
        sigma = 1.3
        oracle, err = quad(lambda t: semicircle_density(sigma, t), -2 * sigma, sigma)
        assert err < 1e-8
        assert oracle == pytest.approx(0.8044988905221147, abs=1e-9)
        assert semicircle_cdf(sigma, sigma) == pytest.approx(oracle, abs=1e-9)

    def test_monotone_and_density_derivative(self):
        sigma = 0.75
        xs = np.linspace(-2 * sigma, 2 * sigma, 401)
        F = semicircle_cdf(sigma, xs)
        assert np.all(np.diff(F) >= 0)
        h = 1e-6
        for x in np.linspace(-1.4, 1.4, 15):
            deriv = (semicircle_cdf(sigma, x + h) - semicircle_cdf(sigma, x - h)) / (2 * h)
            assert deriv == pytest.approx(semicircle_density(sigma, x), abs=1e-6)

    def test_sigma_validation(self):
        with pytest.raises(InvalidInput):
            semicircle_cdf(0.0, 1.0)


class TestKs:
    def test_quantile_spectrum_small_statistic(self):
        sigma = 1.0
        n = 200
        # values at the mid-quantiles of the semicircle law
        grid = np.linspace(-2 * sigma, 2 * sigma, 400001)
        F = semicircle_cdf(sigma, grid)
        targets = (np.arange(n) + 0.5) / n
        vals = np.interp(targets, F, grid)
        assert ks_to_semicircle(ESD(n, vals), sigma) <= 1.0 / n

    def test_all_zero_spectrum(self):
        assert ks_to_semicircle(ESD(5, np.zeros(5)), 1.0) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            ks_to_semicircle(ESD(0, np.array([])), 1.0)


class TestDeltaRatio:
    def test_tripod_values(self):
        assert delta_ratio(Inertia(1, 0, 3, 0.0)) == 3.0

    def test_all_zero_convention(self):
        assert delta_ratio(Inertia(0, 4, 0, 0.0)) == 1.0

    def test_infinite_sentinel(self):
        assert delta_ratio(Inertia(0, 1, 3, 0.0)) == math.inf

    def test_wigner_delta_near_one(self):
        rng = np.random.default_rng(1)
        W = random_symmetric(rng, 500)
        np.fill_diagonal(W, 0.0)
        assert 0.9 <= delta_ratio(inertia(W)) <= 1.1


class TestInterlacingOfEsd:
    def test_centered_counts_differ_by_at_most_one(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            A = random_symmetric(rng, 25)
            a = inertia(A)
            b = inertia(double_center(A))
            assert abs(a.s_minus - b.s_minus) <= 1
            assert abs(a.s_plus - b.s_plus) <= 1


class TestRatioExperiment:
    def test_checkpoint_schedule(self):
        assert default_checkpoints(100) == (16, 32, 64, 100)
        assert default_checkpoints(16) == (16,)
        assert default_checkpoints(5) == (5,)

    @pytest.mark.parametrize("m_max", [0, -1])
    def test_trials_refuse_m_max_below_1(self, m_max):
        # a one-point measure: the trials' expected order takes 0 ** m_max
        model = CountableRadoModel(edge_prob=0.5, seed=1)
        with pytest.raises(InvalidInput, match="m_max must be >= 1"):
            rado_ratio_trials(model, DiscreteMeasure(np.array([1.0])), m_max=m_max, trials=2)

    def test_sliced_checkpoints_match_rebuilt_prefixes(self):
        # each checkpoint counts the dedup of its own prefix of draws, all
        # against the zero band of the trial's largest checkpoint
        model = CountableRadoModel(
            edge_prob=0.5, seed=424242, planted_clique=ResidueClassClique(31)
        )
        measure = DiscreteMeasure.class_biased(30, 0.9)
        for seed in range(3):
            traj = rado_ratio_experiment(model, measure, m_max=3000, seed=seed)
            raw = gv_sample(measure, 3000, seed=seed).raw
            for m, k in zip(traj.m_values, traj.dedup_sizes):
                prefix = raw[:m]
                _, first = np.unique(prefix, return_index=True)
                dedup = prefix[np.sort(first)]
                assert k == dedup.size
            S = model.s_matrix_on(dedup)  # the dedup of all m_max draws
            want = prefix_counts_by_eigvalsh(S, traj.dedup_sizes)
            assert [ine.counts() for ine in traj.inertias] == want
            assert len({ine.tol for ine in traj.inertias}) == 1

    @pytest.mark.parametrize(
        "measure, m_max, seed, first_solved",
        [(DiscreteMeasure.class_biased(30, 0.9), 3000, 0, True), (DiscreteMeasure.uniform(100), 1000, 3, False)],
        ids=["class-biased", "tied-sizes"],
    )
    def test_no_eigensolve_per_trial(self, measure, m_max, seed, first_solved, monkeypatch):
        # the band comes from a Perron bracket, and every checkpoint past the
        # first, the largest too, is counted by the clique pivot or by a step
        # of the chain from the one before; checkpoints that add no point
        # share their size's count. The class-biased trial's first
        # checkpoint, which no later size steps from, is eigensolved
        model = CountableRadoModel(
            edge_prob=0.5, seed=424242, planted_clique=ResidueClassClique(31)
        )
        orders = []
        real = linalg._eigenvalues

        def counted(a):
            if a.base is not None:  # a block of the trial's matrix, not a complement formed from its blocks
                orders.append(len(a))
            return real(a)

        monkeypatch.setattr(linalg, "_eigenvalues", counted)
        traj = rado_ratio_experiment(model, measure, m_max=m_max, seed=seed)
        distinct = sorted(set(traj.dedup_sizes))
        assert len(distinct) > 4 and orders == distinct[:first_solved]
        S = model.s_matrix_on(gv_sample(measure, m_max, seed=seed).dedup)
        assert [i.counts() for i in traj.inertias] == prefix_counts_by_eigvalsh(S, traj.dedup_sizes)

    def test_tied_checkpoints_share_one_count(self):
        model = CountableRadoModel(edge_prob=0.5, seed=3)
        measure = DiscreteMeasure.geometric(0.3)
        traj = rado_ratio_experiment(model, measure, m_max=200, seed=1)
        assert traj.m_values == (16, 32, 64, 128, 200)
        assert traj.dedup_sizes == (2, 2, 3, 6, 6)
        assert traj.inertias[0] == traj.inertias[1]
        assert traj.inertias[3] == traj.inertias[4]
        S = model.s_matrix_on(gv_sample(measure, 200, seed=1).dedup)
        assert [i.counts() for i in traj.inertias] == prefix_counts_by_eigvalsh(S, traj.dedup_sizes)
        assert traj.deltas == tuple(delta_ratio(i) for i in traj.inertias)

    def test_one_trajectory_call_per_trial(self, monkeypatch):
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 1)
        calls = []
        real = spectral.limit_signature_trajectory

        def counted(*args, **kwargs):
            calls.append(kwargs["sizes"])
            return real(*args, **kwargs)

        monkeypatch.setattr(spectral, "limit_signature_trajectory", counted)
        trajectories = rado_ratio_trials(
            CountableRadoModel(edge_prob=0.5, seed=1), DiscreteMeasure.geometric(0.8),
            m_max=256, trials=3, seed=2,
        )
        assert calls == [sorted(set(t.dedup_sizes)) for t in trajectories]

    @pytest.mark.parametrize("rule, measure", [
        ("modular:31", DiscreteMeasure.class_biased(30, 0.9)),  # the blocks
        ("modular:2", DiscreteMeasure.geometric(0.995)),  # half outside: the whole leading block
    ])
    def test_one_clique_flags_call_per_trial(self, rule, measure, monkeypatch):
        calls = []
        real = CountableRadoModel._clique_flags
        monkeypatch.setattr(
            CountableRadoModel, "_clique_flags", lambda self, idx: calls.append(len(idx)) or real(self, idx)
        )
        model = CountableRadoModel(edge_prob=0.5, seed=1, planted_clique=rule)
        traj = rado_ratio_experiment(model, measure, m_max=3000, seed=trial_seed(1, 0))
        assert calls == [traj.dedup_sizes[-1]]

    def test_a_clique_trial_builds_no_whole_matrix(self):
        # one dense -d^2/2 of this trial's 1556 points takes 19 MB; its
        # blocks, 51 points outside the clique by 1556, take 0.6 MB
        model = CountableRadoModel(edge_prob=0.5, seed=1, planted_clique=ResidueClassClique(31))
        measure = DiscreteMeasure.class_biased(30, 0.9)
        rado_ratio_experiment(model, measure, m_max=30000, seed=trial_seed(1, 0))  # warm caches
        tracemalloc.start()
        try:
            traj = rado_ratio_experiment(model, measure, m_max=30000, seed=trial_seed(1, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.dedup_sizes[-1] == 1556
        assert peak < 5e6

    def test_delta_equals_raw_matrix_delta(self):
        # repetition cancelling leaves both signature counts unchanged, so
        # the dedup-based ratio matches the raw-sequence matrix's ratio
        model = CountableRadoModel(edge_prob=0.5, seed=11)
        measure = DiscreteMeasure.geometric(0.6)
        traj = rado_ratio_experiment(model, measure, m_max=48, seed=5)
        raw = gv_sample(measure, 48, seed=5).raw
        for m, ine in zip(traj.m_values, traj.inertias):
            raw_ine = inertia(model.s_matrix_on(raw[:m]))
            assert raw_ine.signature == ine.signature
            assert delta_ratio(raw_ine) == delta_ratio(ine)

    def test_geometric_measure_delta_band(self):
        # At q=0.9, m=2000 the dedup sample reaches only ~55 vertices and the
        # ratio carries a small-order bias above 1 (computed band, not the
        # spec sheet's [0.8, 1.2]; see decisions ledger). All finite and
        # within the measured band around 1 on the fixed seed list.
        model = CountableRadoModel(edge_prob=0.5, seed=77)
        measure = DiscreteMeasure.geometric(0.9)
        trajectories = rado_ratio_trials(model, measure, m_max=2000, trials=20, seed=4)
        finals = [t.final_delta for t in trajectories]
        assert all(1.0 <= d <= 1.5 for d in finals)

    def test_large_sample_delta_approaches_one(self):
        # the honest rendering of the a.s. limit: with ~1500 distinct
        # vertices the ratio lands within [0.9, 1.1]
        model = CountableRadoModel(edge_prob=0.5, seed=77)
        measure = DiscreteMeasure.uniform(1500)
        trajectories = rado_ratio_trials(model, measure, m_max=12000, trials=3, seed=9)
        for t in trajectories:
            assert t.dedup_sizes[-1] >= 1400
            assert 0.9 <= t.final_delta <= 1.1

    def test_trial_seeds_differ(self):
        model = CountableRadoModel(edge_prob=0.5, seed=1)
        measure = DiscreteMeasure.geometric(0.8)
        trajectories = rado_ratio_trials(model, measure, m_max=64, trials=3, seed=10)
        seeds = {t.seed for t in trajectories}
        assert len(seeds) == 3

    def test_workers_deterministic(self, monkeypatch):
        model = CountableRadoModel(edge_prob=0.5, seed=1)
        measure = DiscreteMeasure.geometric(0.8)
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 1)
        serial = rado_ratio_trials(model, measure, m_max=128, trials=4, seed=2)
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(linalg, "_POOL_MIN_ORDER", 0)
        threaded = rado_ratio_trials(model, measure, m_max=128, trials=4, seed=2)
        assert [t.deltas for t in serial] == [t.deltas for t in threaded]
        assert [[i.counts() for i in t.inertias] for t in serial] == [
            [i.counts() for i in t.inertias] for t in threaded
        ]

    def test_biased_measure_grows_delta(self):
        # planted infinite clique split into residue classes: the ratio of
        # the class-biased sample exceeds the unbiased one by a wide margin
        j = 6
        model = CountableRadoModel(
            edge_prob=0.5, seed=3, planted_clique=ResidueClassClique(j + 1)
        )
        biased = DiscreteMeasure.class_biased(j, level_q=0.8)
        traj = rado_ratio_experiment(model, biased, m_max=600, seed=8)
        assert traj.final_delta >= j / 3

    def test_csv_and_summary(self, tmp_path):
        model = CountableRadoModel(edge_prob=0.5, seed=5)
        measure = DiscreteMeasure.geometric(0.8)
        trajectories = rado_ratio_trials(model, measure, m_max=64, trials=2, seed=0)
        path = tmp_path / "ratio.csv"
        write_ratio_csv(trajectories, path, comment="prov")
        lines = path.read_text().strip().splitlines()
        assert lines[1] == "trial,m,s_minus,s_zero,s_plus,delta"
        assert len(lines) == 2 + 2 * 3  # checkpoints 16, 32, 64
        doc = ratio_summary(trajectories, provenance={"seed": 0})
        assert doc["trials"] == 2
        assert "q050" in doc["final_delta_quantiles"]
        with pytest.raises(InvalidInput):
            ratio_summary(trajectories, min_fraction=0.5)

    def test_summary_quantiles_are_each_levels_own(self):
        # one np.quantile call for the five levels gives the bits of one
        # call per level; an infinite final ratio is counted, not ranked
        class Final:
            def __init__(self, delta):
                self.final_delta = delta

        rng = np.random.default_rng(0)
        for size in [*range(1, 40), *rng.integers(40, 400, 60)]:
            finals = rng.lognormal(0.0, 1.0, size)
            finals[rng.random(size) < 0.1] = math.inf
            doc = ratio_summary([Final(x) for x in finals])
            finite = finals[np.isfinite(finals)]
            want = {f"q{int(q * 100):03d}": float(np.quantile(finite, q)) for q in (0.0, 0.25, 0.5, 0.75, 1.0)}
            got = doc["final_delta_quantiles"]
            assert list(got) == (list(want) if finite.size else [])
            assert all(type(v) is float and v.hex() == want[k].hex() for k, v in got.items())
            assert doc["infinite_final_deltas"] == size - finite.size


# The benchmark's ratio request: its measure and planted clique.
_BENCH_REQUEST = (
    CountableRadoModel(edge_prob=0.5, seed=1, planted_clique=ResidueClassClique(31)),
    DiscreteMeasure.class_biased(30, level_q=0.9),
)


@pytest.fixture
def openblas_two_threads():
    """OpenBLAS's (get, set) pair with the count set to 2, restored afterwards."""
    api = linalg._openblas()
    if api is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS found through /proc/self/maps")
    get, put, _ = api
    saved = get()
    put(2)
    try:
        yield get
    finally:
        put(saved)


class TestBlasPin:
    def _recording(self, monkeypatch, get, fail_seed=None):
        seen = []
        real = spectral.rado_ratio_experiment

        def experiment(*args, **kwargs):
            seen.append(get())
            if kwargs["seed"] == fail_seed:
                raise RuntimeError("trial failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(spectral, "rado_ratio_experiment", experiment)
        return seen

    def _trials(self, monkeypatch, cpus):
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
        return rado_ratio_trials(
            CountableRadoModel(edge_prob=0.5, seed=1), DiscreteMeasure.geometric(0.8),
            m_max=64, trials=4, seed=2,
        )

    def test_pool_pins_one_thread_and_restores(self, monkeypatch, openblas_two_threads):
        monkeypatch.setattr(linalg, "_POOL_MIN_ORDER", 0)
        seen = self._recording(monkeypatch, openblas_two_threads)
        self._trials(monkeypatch, cpus=2)
        assert seen == [1, 1, 1, 1]
        assert openblas_two_threads() == 2

    def test_serial_run_keeps_threaded_blas(self, monkeypatch, openblas_two_threads):
        seen = self._recording(monkeypatch, openblas_two_threads)
        self._trials(monkeypatch, cpus=1)
        assert seen == [2, 2, 2, 2]

    def test_no_pin_runs_serially(self, monkeypatch, openblas_two_threads):
        # without the pin each pool worker would start BLAS threads of its own
        monkeypatch.setattr(linalg, "_openblas", lambda: None)
        seen = self._recording(monkeypatch, openblas_two_threads)
        recorded, threads = spectral.rado_ratio_experiment, []

        def experiment(*args, **kwargs):
            threads.append(threading.get_ident())
            return recorded(*args, **kwargs)

        monkeypatch.setattr(spectral, "rado_ratio_experiment", experiment)
        self._trials(monkeypatch, cpus=4)
        assert seen == [2, 2, 2, 2]
        assert threads == [threading.get_ident()] * 4

    def _threads(self, monkeypatch, get):
        """(BLAS count, thread) of each trial, as ``test_no_pin_runs_serially`` records them."""
        seen, real = [], spectral.rado_ratio_experiment

        def experiment(*args, **kwargs):
            seen.append((get(), threading.get_ident()))
            return real(*args, **kwargs)

        monkeypatch.setattr(spectral, "rado_ratio_experiment", experiment)
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 2)
        return seen

    def test_clique_trials_run_in_the_calling_thread(self, monkeypatch, openblas_two_threads):
        # the benchmark's request: counting through blocks of order ~30 is
        # interpreter-bound, so pool workers would only contend for the lock
        seen = self._threads(monkeypatch, openblas_two_threads)
        model, measure = _BENCH_REQUEST
        rado_ratio_trials(model, measure, m_max=3000, trials=8, seed=5)
        assert seen == [(2, threading.get_ident())] * 8
        assert openblas_two_threads() == 2

    def test_large_eigensolves_keep_the_pinned_pool(self, monkeypatch, openblas_two_threads):
        seen = self._threads(monkeypatch, openblas_two_threads)
        model = CountableRadoModel(edge_prob=0.5, seed=1)
        rado_ratio_trials(model, DiscreteMeasure.geometric(0.995), m_max=3000, trials=2, seed=5)
        assert [count for count, _ in seen] == [1, 1]
        assert threading.get_ident() not in {thread for _, thread in seen}
        assert openblas_two_threads() == 2

    @pytest.mark.parametrize(
        "model, measure",
        [_BENCH_REQUEST, (CountableRadoModel(edge_prob=0.5, seed=1), DiscreteMeasure.geometric(0.995))],
        ids=["class_biased-modular", "geometric-0.995"],
    )
    def test_order_is_the_expected_count_outside_the_clique(self, monkeypatch, model, measure):
        orders = []
        monkeypatch.setattr(spectral, "pinned_map", lambda fn, items, order: orders.append(order) or [])
        rado_ratio_trials(model, measure, m_max=3000, trials=100, seed=5)
        realized = []
        for t in range(100):
            dedup = gv_sample(measure, 3000, trial_seed(5, t)).dedup
            realized.append(np.count_nonzero(~model._clique_flags(dedup)))
        assert orders[0] == pytest.approx(np.mean(realized), rel=0.03)

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert linalg._usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        assert linalg._usable_cpus() == os.cpu_count()

    def test_restored_after_a_trial_raises(self, monkeypatch, openblas_two_threads):
        monkeypatch.setattr(linalg, "_POOL_MIN_ORDER", 0)
        self._recording(monkeypatch, openblas_two_threads, fail_seed=trial_seed(2, 1))
        with pytest.raises(RuntimeError):
            self._trials(monkeypatch, cpus=2)
        assert openblas_two_threads() == 2

    def test_overlapping_pins_restore_the_first_count(self, monkeypatch, openblas_two_threads):
        # pool a pins, b pins, a ends, b ends: the count must go back to 2
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 2)
        a_pinned, b_pinned, a_done = (threading.Event() for _ in range(3))
        seen = []

        def in_a(_):
            a_pinned.set()
            b_pinned.wait(10)

        def in_b(_):
            b_pinned.set()
            a_done.wait(10)

        def a():
            pinned_map(in_a, range(2), linalg._POOL_MIN_ORDER)
            seen.append(openblas_two_threads())
            a_done.set()

        def b():
            a_pinned.wait(10)
            pinned_map(in_b, range(2), linalg._POOL_MIN_ORDER)

        threads = [threading.Thread(target=f) for f in (a, b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20)
        assert not any(t.is_alive() for t in threads)
        assert seen == [1]  # b's pool is still running when a's ends
        assert openblas_two_threads() == 2

    def test_no_openblas_leaves_blas_alone(self, monkeypatch):
        api = linalg._openblas()
        before = api[0]() if api else None
        monkeypatch.setattr(linalg, "_openblas", lambda: None)
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 4)
        order = linalg._POOL_MIN_ORDER
        assert pinned_map(lambda _: api[0]() if api else None, range(4), order) == [before] * 4
        assert (api[0]() if api else None) == before
