import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsig.errors import InvalidInput, InvalidMeasure
from mmsig.linalg import double_center, inertia
from mmsig.sampling import (
    DiscreteMeasure,
    gv_sample,
    k_matrix,
    load_measure,
    parse_measure_spec,
    t_matrix,
    trial_seed,
)
from mmsig.spaces import from_euclidean_points, named_example
from mmsig.signature import s_matrix

from util_oracles import random_metric_matrix


class TestDiscreteMeasure:
    def test_uniform(self):
        m = DiscreteMeasure.uniform(4)
        assert m.full_support
        np.testing.assert_allclose(m.weights, 0.25)

    def test_validation(self):
        with pytest.raises(InvalidMeasure):
            DiscreteMeasure(np.array([0.5, 0.6]))
        with pytest.raises(InvalidMeasure):
            DiscreteMeasure(np.array([1.1, -0.1]))

    def test_geometric_rule(self):
        m = DiscreteMeasure.geometric(0.5)
        assert m.rule == {"type": "geometric", "q": 0.5}
        np.testing.assert_allclose(m.weights[:3] / m.weights[0], [1.0, 0.5, 0.25])

    def test_super_geometric_rule(self):
        m = DiscreteMeasure.super_geometric()
        # weights proportional to 2^(-k^2), k = 1, 2, ...
        assert m.weights[1] / m.weights[0] == pytest.approx(2.0 ** (1 - 4))
        assert m.weights[2] / m.weights[0] == pytest.approx(2.0 ** (1 - 9))

    def test_class_biased_layout(self):
        j = 3
        m = DiscreteMeasure.class_biased(j, level_q=0.5)
        w = m.weights
        # equal pointwise mass across the j+1 classes at every level
        for level in range(3):
            block = w[level * (j + 1) : (level + 1) * (j + 1)]
            np.testing.assert_allclose(block, block[0])
        # class masses all equal 1/(j+1)
        for c in range(j + 1):
            assert w[c :: j + 1].sum() == pytest.approx(1.0 / (j + 1))

    def test_support_limit(self):
        # 395 levels at q = 0.9 in each of j + 1 classes; at most 10^6 points
        assert DiscreteMeasure.class_biased(2530).n == 2531 * 395
        with pytest.raises(InvalidMeasure, match="1000140 support points"):
            DiscreteMeasure.class_biased(2531)
        with pytest.raises(InvalidMeasure, match="too close to 1"):
            DiscreteMeasure.geometric(1 - 1e-5)

    def test_parse_and_load(self, tmp_path):
        m = parse_measure_spec([0.25, 0.75])
        assert m.n == 2
        m = parse_measure_spec({"type": "uniform"}, n=3)
        assert m.n == 3
        with pytest.raises(InvalidMeasure):
            parse_measure_spec({"type": "uniform"})
        with pytest.raises(InvalidMeasure):
            parse_measure_spec({"type": "bogus"})
        path = tmp_path / "measure.json"
        path.write_text(json.dumps({"type": "geometric", "q": 0.9}))
        assert load_measure(path).rule["q"] == 0.9

    def test_weights_match_the_point_count(self):
        assert parse_measure_spec([0.25, 0.75], n=2).n == 2
        assert parse_measure_spec([0.25, 0.75]).n == 2  # a countable model: any length
        for n in (1, 3):
            with pytest.raises(InvalidMeasure, match=f"expected {n} weights, got 2"):
                parse_measure_spec([0.25, 0.75], n=n)
        with pytest.raises(InvalidMeasure, match="weights must be numbers"):
            parse_measure_spec([0.5, "x"])

    @pytest.mark.parametrize(
        "content, message",
        [(b'{"type": ', "Expecting value"), (b"\xff\xfe[]", "'utf-8' codec can't decode"),
         (b'[0.5, "x"]', "weights must be numbers"), (b'{"type": "uniform"}', "uniform measure needs")],
    )
    def test_load_names_the_file(self, tmp_path, content, message):
        path = tmp_path / "measure.json"
        path.write_bytes(content)
        with pytest.raises(InvalidMeasure, match=re.escape(f"{path}: {message}")):
            load_measure(path)

    def test_parse_string_specs(self):
        assert parse_measure_spec("uniform", n=4).n == 4
        assert parse_measure_spec("geometric:0.8").rule == {"type": "geometric", "q": 0.8}
        assert parse_measure_spec("super_geometric").rule == {"type": "super_geometric"}
        assert parse_measure_spec("class_biased:30").rule == {
            "type": "class_biased", "j": 30, "q": 0.9,
        }
        assert parse_measure_spec("class_biased:4:0.7").rule == {
            "type": "class_biased", "j": 4, "q": 0.7,
        }
        for bad in ("geometric", "geometric:", "class_biased", "class_biased::0.9",
                    "zeta:2", "geometric:0.9:5", "uniform"):
            with pytest.raises(InvalidMeasure):
                parse_measure_spec(bad)


class TestGvSample:
    def test_empty(self):
        traj = gv_sample(DiscreteMeasure.uniform(3), 0, seed=1)
        assert traj.m == 0 and traj.dedup.size == 0

    def test_dirac(self):
        w = np.zeros(5)
        w[3] = 1.0
        traj = gv_sample(DiscreteMeasure(w), 20, seed=9)
        assert (traj.raw == 3).all()
        assert traj.dedup.tolist() == [3]

    def test_negative_m_rejected(self):
        with pytest.raises(InvalidInput):
            gv_sample(DiscreteMeasure.uniform(2), -1, seed=0)

    def test_determinism_bit_for_bit(self):
        m = DiscreteMeasure.geometric(0.7)
        a = gv_sample(m, 500, seed=123)
        b = gv_sample(m, 500, seed=123)
        assert np.array_equal(a.raw, b.raw)
        c = gv_sample(m, 500, seed=124)
        assert not np.array_equal(a.raw, c.raw)

    def test_dedup_first_appearance_order(self):
        m = DiscreteMeasure.uniform(6)
        traj = gv_sample(m, 100, seed=5)
        seen = []
        for x in traj.raw.tolist():
            if x not in seen:
                seen.append(x)
        assert traj.dedup.tolist() == seen

    def test_coupon_collector_bound(self):
        # analytic oracle: P(all 10 points in 1000 draws) ~ 1 - 10*0.9^1000,
        # far above 0.999; check the hit rate over a fixed seed list
        m = DiscreteMeasure.uniform(10)
        hits = sum(
            gv_sample(m, 1000, seed=s).dedup.size == 10 for s in range(200)
        )
        assert hits / 200 >= 0.999

    def test_neighbouring_seeds_share_no_trial_seed(self):
        # seed XOR trial gave seeds 0 and 1 the same 20 trial seeds
        zero = {trial_seed(0, t) for t in range(20)}
        one = {trial_seed(1, t) for t in range(20)}
        assert len(zero) == len(one) == 20
        assert zero.isdisjoint(one)
        child = np.random.SeedSequence(5).spawn(4)[3]
        assert trial_seed(5, 3) == int(child.generate_state(1, np.uint64)[0])
        assert trial_seed(-1, 1) == trial_seed(2**64 - 1, 1)


class TestDedupInvariance:
    # cancelling a repeated index drops one zero eigenvalue of -d^2/2 and
    # keeps s_minus and s_plus

    def test_single_repeated_point(self):
        sp = named_example("simplex", n=3)
        traj = gv_sample(DiscreteMeasure([1.0, 0.0, 0.0]), 2, seed=0)
        raw, ded = inertia(sp.s_matrix_on(traj.raw)), inertia(sp.s_matrix_on(traj.dedup))
        assert raw.counts() == (0, 2, 0)
        assert ded.counts() == (0, 1, 0)

    def test_repeat_pattern_on_simplex(self):
        sp = named_example("simplex", n=3)
        raw, ded = inertia(sp.s_matrix_on([1, 2, 1])), inertia(sp.s_matrix_on([1, 2]))
        # oracle: the 2-point simplex has S eigenvalues (-1/2, 1/2)
        assert ded.counts() == (1, 0, 1)
        assert raw.counts() == (1, 1, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInput):
            named_example("simplex", n=3).s_matrix_on([0, 3, 0])

    def test_tripod_covered(self):
        sp = named_example("tripod")
        traj = gv_sample(DiscreteMeasure.uniform(4), 60, seed=3)
        assert traj.dedup.size == 4
        raw, ded = inertia(sp.s_matrix_on(traj.raw)), inertia(sp.s_matrix_on(traj.dedup))
        assert raw.signature == ded.signature == (1, 3)
        assert raw.s_zero - ded.s_zero == traj.raw.size - traj.dedup.size

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 4), min_size=1, max_size=12),
        st.integers(0, 2**16),
    )
    def test_invariance_property(self, indices, seed):
        rng = np.random.default_rng(seed)
        sp = from_distance_matrix_cached(rng)
        dedup = sorted(set(indices), key=indices.index)
        raw, ded = inertia(sp.s_matrix_on(indices)), inertia(sp.s_matrix_on(dedup))
        assert raw.signature == ded.signature
        assert raw.s_zero - ded.s_zero == len(indices) - len(set(indices))


def from_distance_matrix_cached(rng):
    from mmsig.spaces import from_distance_matrix

    return from_distance_matrix(random_metric_matrix(rng, 5))


class TestOperatorMatrices:
    def test_k_uniform_is_scaled_s(self):
        sp = named_example("tripod")
        K = k_matrix(sp, DiscreteMeasure.uniform(4))
        np.testing.assert_allclose(K, s_matrix(sp) / 4.0, atol=1e-15)

    def test_k_signature_measure_invariant_on_tripod(self):
        sp = named_example("tripod")
        rng = np.random.default_rng(17)
        for _ in range(20):
            w = rng.uniform(0.05, 1.0, size=4)
            w /= w.sum()
            assert inertia(k_matrix(sp, DiscreteMeasure(w))).counts() == (1, 0, 3)

    def test_k_zero_weight_reduces_to_support(self):
        sp = named_example("simplex", n=4)
        w = np.array([0.5, 0.5, 0.0, 0.0])
        ine = inertia(k_matrix(sp, DiscreteMeasure(w)))
        # oracle: support submatrix is the 2-point simplex, inertia (1,0,1),
        # plus two exact zeros from the dead rows
        assert ine.counts() == (1, 2, 1)

    def test_t_uniform_matches_double_center(self):
        sp = named_example("tripod")
        t_ine = inertia(t_matrix(sp, DiscreteMeasure.uniform(4)))
        assert t_ine.counts() == inertia(double_center(s_matrix(sp))).counts()

    def test_t_euclidean_positive_semidefinite(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(9, 3))
        sp = from_euclidean_points(pts)
        w = rng.uniform(0.1, 1.0, size=9)
        w /= w.sum()
        assert inertia(t_matrix(sp, DiscreteMeasure(w))).s_minus == 0

    def test_bracket_property(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(3, 10))
            sp = from_distance_matrix_cached_n(rng, n)
            w = rng.uniform(0.05, 1.0, size=n)
            w /= w.sum()
            m = DiscreteMeasure(w)
            k_ine = inertia(k_matrix(sp, m))
            t_ine = inertia(t_matrix(sp, m))
            assert k_ine.s_plus - 1 <= t_ine.s_plus <= k_ine.s_plus
            assert k_ine.s_minus - 1 <= t_ine.s_minus <= k_ine.s_minus

    def test_kernel_identity_pre_congruence(self):
        # on the centered kernel before the sqrt-weight congruence:
        # kt_ii + kt_jj - 2 kt_ij == d^2_ij
        rng = np.random.default_rng(12)
        n = 7
        sp = from_distance_matrix_cached_n(rng, n)
        w = rng.uniform(0.05, 1.0, size=n)
        w /= w.sum()
        S = s_matrix(sp)
        sw = S @ w
        kt = S - sw[:, None] - sw[None, :] + float(w @ sw)
        ident = kt.diagonal()[:, None] + kt.diagonal()[None, :] - 2 * kt
        assert np.abs(ident - sp.dist**2).max() <= 1e-10 * sp.diameter**2

    def test_measure_length_mismatch(self):
        sp = named_example("tripod")
        with pytest.raises(InvalidMeasure):
            k_matrix(sp, DiscreteMeasure.uniform(5))


def from_distance_matrix_cached_n(rng, n):
    from mmsig.spaces import from_distance_matrix

    return from_distance_matrix(random_metric_matrix(rng, n))
