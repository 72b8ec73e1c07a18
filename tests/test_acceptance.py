"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Criterion 9's super-geometric clause is implemented
as stated and is expected to fail; the analysis lives in the decisions
ledger (the measure cannot produce enough distinct vertices by m=2000 for
the ratio to exceed 5).
"""

import functools
import time

import numpy as np
import pytest

from mmsig import linalg
from mmsig.constructions import (
    CountableRadoModel,
    QuadraticGapClique,
    ResidueClassClique,
    perturb_to_max_negative,
    prescribed_signature_space,
    union_r_matrix,
    union_space,
)
from mmsig.linalg import eig_sym, inertia, prefix_inertias
from mmsig.sampling import DiscreteMeasure, k_matrix, t_matrix
from mmsig.signature import (
    centered_signature,
    limit_signature_trajectory,
    mds_embed,
    s_matrix,
    space_signature,
    verify_isometry,
)
from mmsig.spaces import from_distance_matrix, from_euclidean_points, named_example
from mmsig.spectral import delta_ratio, esd_and_inertia, ks_to_semicircle

from util_oracles import (
    b_matrix, first_appearances_by_unique, random_cospherical_points, random_metric_matrix, random_symmetric, raw_draws,
)


def criterion(num, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.time()
            try:
                fn()
            except BaseException:
                print(f"[criterion {num}] {title}: FAIL ({time.time() - start:.1f}s)")
                raise
            print(f"[criterion {num}] {title}: PASS ({time.time() - start:.1f}s)")

        return run

    return wrap


def _tripod_prefix_steps(k):
    """Counts of ``prefix_inertias(-b_matrix(4 + k) / 2, [4, 4 + k])``, and
    the counts below the band's edges -+e of the head of order 4, stepped to
    from the empty block by ``linalg._chain_step``, and of the step from it
    to the whole matrix."""
    A = -b_matrix(4 + k) / 2
    got = prefix_inertias(A, [4, 4 + k])
    floor = linalg._BORDER_FLOOR * linalg._perron_bracket(A)[1]
    band = (max(got[-1].tol, floor), floor, float(np.linalg.norm(A)))
    V = np.empty((2, 4 + k, 4 + k))
    head = linalg._chain_step(A[:4, :4], V, (0, (0, 0), np.zeros(2)), band, False)[1]
    step = linalg._chain_step(A, V, head, band, False)[0]
    return [i.counts() for i in got], head[1], step


@criterion(1, "exact paper values")
def test_criterion_01_exact_values():
    start = time.time()
    assert inertia(b_matrix(4)).counts() == (3, 0, 1)
    for k in range(1, 21):
        B = b_matrix(4 + k)
        assert inertia(B).counts() == (k + 2, 0, 2)
        schur = B[4:, 4:] - B[4:, :4] @ np.linalg.solve(B[:4, :4], B[:4, 4:])
        expect = (4.0 / 3.0) * (8.0 * np.eye(k) + 11.0 * (np.ones((k, k)) - np.eye(k)))
        assert np.abs(schur - expect).max() <= 1e-12
    # -b/2 has b's counts with their signs flipped; its complement of the
    # head, -1/2 of the one above, has one negative eigenvalue, which the
    # chain's step from the head adds at each edge of the band
    for k in range(1, 6):
        counts, head, step = _tripod_prefix_steps(k)
        assert counts == [(1, 0, 3), (2, 0, k + 2)]
        assert head == (1, 1) and step == [(2, 2)]
    assert space_signature(named_example("tripod")).signature == (1, 3)
    for n in range(2, 51):
        vals = eig_sym(s_matrix(named_example("simplex", n=n))).eigenvalues
        expect = np.concatenate([[-(n - 1) / 2.0], np.full(n - 1, 0.5)])
        assert np.abs(vals - expect).max() <= 1e-12
    assert time.time() - start < 5.0  # well under 1 s per listed value family


@criterion(2, "Haynsworth additivity, exact count match")
def test_criterion_02_haynsworth():
    cases = [(b_matrix(4 + k), 4) for k in range(1, 21)]
    rng = np.random.default_rng(2024)
    while len(cases) < 20 + 200:
        n = int(rng.integers(2, 13))
        b = int(rng.integers(1, n))
        A = random_symmetric(rng, n)
        # plant a well-conditioned leading block
        q, _ = np.linalg.qr(rng.normal(size=(b, b)))
        d = rng.uniform(0.5, 2.0, size=b) * rng.choice([-1.0, 1.0], size=b)
        A[:b, :b] = (q * d[None, :]) @ q.T
        A = 0.5 * (A + A.T)
        cases.append((A, b))
    for A, b in cases:
        comp = A[b:, b:] - A[b:, :b] @ np.linalg.solve(A[:b, :b], A[:b, b:])
        parts = inertia(A[:b, :b]).counts(), inertia(comp).counts()
        assert inertia(A).counts() == tuple(x + y for x, y in zip(*parts))
    # the package's own complement: the step from the head of -b/2 adds its
    # negatives and positives to the head's counts
    for k in range(1, 6):
        (head, whole), below, step = _tripod_prefix_steps(k)
        assert step == [(below[0] + 1, below[1] + 1)] and below == (head[0], head[0] + head[1])
        assert whole == (head[0] + 1, 0, head[2] + k - 1) == inertia(-b_matrix(4 + k) / 2).counts()


@criterion(3, "Euclidean baselines (cospherical general position)")
def test_criterion_03_euclidean_baselines():
    start = time.time()
    rng = np.random.default_rng(3033)
    for _ in range(100):
        p = int(rng.integers(2, 6))
        n = int(rng.integers(p + 2, 31))
        pts = random_cospherical_points(rng, n, p)
        sp = from_euclidean_points(pts)
        assert space_signature(sp).counts() == (1, n - 1 - p, p)
        t_ine = inertia(t_matrix(sp, DiscreteMeasure.uniform(n)))
        assert t_ine.s_minus == 0 and t_ine.s_plus == p
    assert time.time() - start < 10.0


@criterion(4, "scaling embedding isometry")
def test_criterion_04_mds_isometry():
    named = [
        named_example("tripod"),
        named_example("tripod_extended", n=6),
        named_example("tripod_extended", n=11),
        named_example("simplex", n=2),
        named_example("simplex", n=9),
        named_example("sphere", dim=1, n=14, seed=41),
        named_example("sphere", dim=2, n=20, seed=42),
        named_example("sphere", dim=3, n=16, seed=43),
        named_example("sphere_sqrt", dim=2, n=18, seed=44),
    ]
    for sp in named:
        emb = mds_embed(sp)
        assert verify_isometry(emb, sp) <= 1e-8 * sp.diameter
    tripod_emb = mds_embed(named_example("tripod"))
    assert (tripod_emb.n_neg, tripod_emb.n_pos) == (1, 2)
    rng = np.random.default_rng(404)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        sp = from_distance_matrix(random_metric_matrix(rng, n))
        assert verify_isometry(mds_embed(sp), sp) <= 1e-8 * sp.diameter


@criterion(5, "prescribed signatures, perturbation contract")
def test_criterion_05_prescribed():
    for n in range(1, 7):
        for p in range(2, 6):
            sp = prescribed_signature_space(n, p, seed=500 + 10 * n + p)
            cs = centered_signature(sp)
            assert (cs.s_minus, cs.s_plus) == (n, p), (n, p, cs.counts())
    rng = np.random.default_rng(55)
    for p in (2, 3):
        n_pts = int(rng.integers(p + 3, 11))
        sp = from_euclidean_points(random_cospherical_points(rng, n_pts, p))
        assert centered_signature(sp).signature == (0, p)
        out = perturb_to_max_negative(sp, seed=56)
        assert centered_signature(out).signature == (n_pts - 1 - p, p)


@criterion(6, "union construction blocks and signatures")
def test_criterion_06_union():
    for m in range(2, 7):
        for n_m in range(2, 9):
            comps = [named_example("tripod") for _ in range(m - 1)]
            comps.append(from_distance_matrix(2.0 * named_example("simplex", n=n_m).dist))
            R = union_r_matrix(comps, h=1.0)
            for b in range(m - 1):
                block = R[4 * b : 4 * b + 4, 4 * b : 4 * b + 4]
                vals = eig_sym(block).eigenvalues
                assert np.abs(vals - np.array([-2.5, 0.5, 2.0, 2.0])).max() <= 1e-12
            r_ine = inertia(R)
            assert r_ine.s_plus == 3 * (m - 1) + n_m - 1
            assert r_ine.s_minus == m
            s_ine = space_signature(union_space(comps, h=1.0))
            assert s_ine.s_plus in (3 * m - 5 + n_m, 3 * m - 4 + n_m)
            assert s_ine.s_minus in (m, m + 1)


@criterion(7, "property suites, oracle equivalence")
def test_criterion_07_property_suites():
    rng = np.random.default_rng(777)
    start = time.time()

    # Sylvester congruence invariance
    for _ in range(25):
        n = int(rng.integers(2, 21))
        A = random_symmetric(rng, n)
        G = rng.normal(size=(n, n))
        while abs(np.linalg.det(G)) < 1e-6:
            G = rng.normal(size=(n, n))
        assert inertia(G.T @ A @ G).signature == inertia(A).signature
    assert time.time() - start < 30

    # Cauchy interlacing on row/column deletion
    t = time.time()
    for _ in range(25):
        n = int(rng.integers(2, 16))
        A = random_symmetric(rng, n)
        full = inertia(A)
        drop = int(rng.integers(n))
        keep = [i for i in range(n) if i != drop]
        sub = inertia(A[np.ix_(keep, keep)])
        assert full.s_minus - 1 <= sub.s_minus <= full.s_minus
        assert full.s_plus - 1 <= sub.s_plus <= full.s_plus
    assert time.time() - t < 30

    # signature subadditivity
    t = time.time()
    for _ in range(25):
        n = int(rng.integers(2, 13))
        A, B = random_symmetric(rng, n), random_symmetric(rng, n)
        s, a, b = inertia(A + B), inertia(A), inertia(B)
        assert s.s_plus <= a.s_plus + b.s_plus
        assert s.s_minus <= a.s_minus + b.s_minus
    assert time.time() - t < 30

    # dedup invariance of the signature counts
    t = time.time()
    for trial in range(15):
        n = int(rng.integers(2, 8))
        sp = from_distance_matrix(random_metric_matrix(rng, n))
        draws = raw_draws(DiscreteMeasure.uniform(n), int(rng.integers(1, 30)), seed=trial)
        dedup = first_appearances_by_unique(draws)[0]
        raw, ded = inertia(sp.s_matrix_on(draws)), inertia(sp.s_matrix_on(dedup))
        assert raw.signature == ded.signature
        assert raw.s_zero - ded.s_zero == draws.size - dedup.size
    assert time.time() - t < 30

    # measure invariance of the weighted-kernel signature
    t = time.time()
    for _ in range(8):
        n = int(rng.integers(3, 10))
        sp = from_distance_matrix(random_metric_matrix(rng, n))
        reference = None
        for _ in range(20):
            w = rng.uniform(0.05, 1.0, size=n)
            w /= w.sum()
            sig = inertia(k_matrix(sp, DiscreteMeasure(w))).signature
            reference = sig if reference is None else reference
            assert sig == reference
    assert time.time() - t < 30

    # bracket between weighted and centered kernels
    t = time.time()
    for _ in range(15):
        n = int(rng.integers(3, 12))
        sp = from_distance_matrix(random_metric_matrix(rng, n))
        w = rng.uniform(0.05, 1.0, size=n)
        w /= w.sum()
        m = DiscreteMeasure(w)
        k_ine, t_ine = inertia(k_matrix(sp, m)), inertia(t_matrix(sp, m))
        assert k_ine.s_plus - 1 <= t_ine.s_plus <= k_ine.s_plus
        assert k_ine.s_minus - 1 <= t_ine.s_minus <= k_ine.s_minus
    assert time.time() - t < 30

    # kernel identity on the pre-congruence centered form
    t = time.time()
    for _ in range(15):
        n = int(rng.integers(2, 15))
        sp = from_distance_matrix(random_metric_matrix(rng, n))
        w = rng.uniform(0.05, 1.0, size=n)
        w /= w.sum()
        S = s_matrix(sp)
        sw = S @ w
        kt = S - sw[:, None] - sw[None, :] + float(w @ sw)
        ident = kt.diagonal()[:, None] + kt.diagonal()[None, :] - 2.0 * kt
        assert np.abs(ident - sp.dist**2).max() <= 1e-10 * sp.diameter**2
    assert time.time() - t < 30


RADO_SEEDS = tuple(range(20))


@criterion(8, "semicircle law and ratio at N=1000, 20 seeds")
def test_criterion_08_semicircle():
    start = time.time()
    ks_hits = 0
    delta_hits = 0
    sigma = 1.5 * np.sqrt(0.25)
    for seed in RADO_SEEDS:
        model = CountableRadoModel(edge_prob=0.5, seed=seed)
        S = model.s_matrix_on(np.arange(1000))
        ks_hits += ks_to_semicircle(esd_and_inertia(S)[0], sigma) <= 0.05
        delta_hits += 0.9 <= delta_ratio(inertia(S)) <= 1.1
    assert ks_hits >= 19, f"KS passes: {ks_hits}/20"
    assert delta_hits >= 19, f"delta passes: {delta_hits}/20"
    assert time.time() - start < 300


@criterion(9, "class-biased divergence (j=30, 200 trials)")
def test_criterion_09_class_biased():
    start = time.time()
    j = 30
    model = CountableRadoModel(
        edge_prob=0.5, seed=424242, planted_clique=ResidueClassClique(j + 1)
    )
    measure = DiscreteMeasure.class_biased(j, level_q=0.9)
    hits = 0
    for trial in range(200):
        raw = raw_draws(measure, 3000, seed=1000 ^ trial)
        _, first = np.unique(raw, return_index=True)
        dedup = raw[np.sort(first)]
        ine = inertia(model.s_matrix_on(dedup))
        hits += delta_ratio(ine) >= 10.0
    assert hits / 200 >= 0.5 / (j + 1), f"hits {hits}/200"
    assert time.time() - start < 600


@criterion(9, "super-geometric divergence (spec-defect: see ledger)")
def test_criterion_09_super_geometric():
    # Implemented as specified: super-geometric measure on the clique-first
    # enumeration, ratio trajectory exceeding 5 by m=2000 in >= 60% of 50
    # trials. The measure reaches only 3-5 distinct vertices at m=2000, which
    # caps the ratio at (N-1)/1 <= 4, so the stated threshold is unattainable;
    # the full analysis is in the decisions ledger. Expected to FAIL.
    from mmsig.spectral import rado_ratio_experiment

    model = CountableRadoModel(
        edge_prob=0.5, seed=31337, planted_clique=QuadraticGapClique()
    )
    measure = DiscreteMeasure.super_geometric()
    hits = 0
    observed_max = 0.0
    for trial in range(50):
        traj = rado_ratio_experiment(
            model, measure, m_max=2000, seed=2000 ^ trial
        )
        peak = traj.max_delta()
        observed_max = max(observed_max, peak)
        hits += peak > 5.0
    assert hits / 50 >= 0.6, (
        f"hits {hits}/50, max ratio observed {observed_max};"
        " dedup size at m=2000 cannot reach the 7 distinct vertices needed"
    )


@criterion(10, "trajectory monotonicity over 1e4 prefix steps")
def test_criterion_10_trajectories():
    steps = 0

    traj = limit_signature_trajectory(
        named_example("simplex", n=100), np.arange(100), sizes=range(2, 101)
    )
    steps += len(traj.sizes)

    traj = limit_signature_trajectory(
        named_example("tripod_extended", n=254), np.arange(254), sizes=range(5, 255)
    )
    steps += len(traj.sizes)

    found_three_negatives = False
    for seed in (1, 2, 3):
        sp = named_example("sphere", dim=2, n=200, seed=seed)
        traj = limit_signature_trajectory(sp, np.arange(200), sizes=range(2, 201))
        steps += len(traj.sizes)
        if any(i.s_minus >= 3 for i in traj.inertias):
            found_three_negatives = True
    assert found_three_negatives, "sphere(2) should reach s_minus >= 3 by N <= 200"

    for seed in range(46):
        model = CountableRadoModel(edge_prob=0.5, seed=seed)
        sp = model.metric_on(np.arange(200))
        traj = limit_signature_trajectory(sp, np.arange(200), sizes=range(2, 201))
        steps += len(traj.sizes)

    assert steps >= 10_000, f"only {steps} prefix steps"
