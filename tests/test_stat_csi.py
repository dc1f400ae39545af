import copy
import math

import numpy as np
import pytest

from miso_outage.channel import ChannelStatistics, SampleSource
from miso_outage.regions import BoundaryPoint, OutageSpec, non_dominated_points
from miso_outage.stat_csi import (
    ExponentialLinkModel,
    StatRegionSearch,
    StatSearchConfig,
    draw_beamformer_pairs,
    effective_means,
    link_success_closed_form,
    pair_success,
    rate_for_success,
    search_stat_boundary,
    stat_member,
    stat_member_mc,
    success_probability,
)


def diag_stats(q11=(2.0, 1.0), q21=(0.3, 0.7), q22=(1.5, 0.5), q12=(0.2, 0.4),
               sigma1=1.0, sigma2=1.0):
    return ChannelStatistics(
        n=2,
        Q11=np.diag(q11).astype(complex),
        Q12=np.diag(q12).astype(complex),
        Q21=np.diag(q21).astype(complex),
        Q22=np.diag(q22).astype(complex),
        sigma1_sq=sigma1,
        sigma2_sq=sigma2,
    )


class TestSuccessProbability:
    def test_equal_means_no_noise(self):
        # exp(0) * 1 / (1 + 1)
        assert success_probability(1.0, 1.0, 1.0, 0.0) == pytest.approx(0.5)

    def test_no_interference(self):
        assert success_probability(1.0, 1.0, 0.0, 1.0) == pytest.approx(math.exp(-1.0))

    def test_zero_rate_is_certain(self):
        assert success_probability(0.0, 0.3, 9.0, 2.0) == 1.0
        model = ExponentialLinkModel(0.3, 9.0, 2.0)
        assert link_success_closed_form(model, 0.0) == 1.0

    def test_zero_signal_mean(self):
        assert success_probability(0.5, 0.0, 1.0, 1.0) == 0.0

    def test_vectorized_broadcast(self):
        gamma = np.array([0.0, 1.0, 2.0])
        out = success_probability(gamma, 1.0, 1.0, 0.0)
        np.testing.assert_allclose(out, [1.0, 0.5, 1.0 / 3.0])

    def test_monotone_in_rate(self):
        r = np.linspace(0.0, 5.0, 80)
        pi = success_probability(np.expm1(r * math.log(2.0)), 1.7, 0.4, 0.8)
        assert np.all(np.diff(pi) <= 1e-15)

    def test_monotone_in_means(self):
        s = np.linspace(0.1, 5.0, 50)
        pi_s = success_probability(1.0, s, 0.5, 1.0)
        assert np.all(np.diff(pi_s) >= -1e-15)
        t = np.linspace(0.0, 5.0, 50)
        pi_t = success_probability(1.0, 1.0, t, 1.0)
        assert np.all(np.diff(pi_t) <= 1e-15)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            link_success_closed_form(ExponentialLinkModel(1.0, 1.0, 1.0), -0.1)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ExponentialLinkModel(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            ExponentialLinkModel(1.0, 1.0, -1.0)


class TestEffectiveMeans:
    def test_link_wiring(self):
        stats = diag_stats()
        w1, w2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        m1 = effective_means(stats, w1, w2, 1)
        assert m1.s_bar == pytest.approx(2.0)
        assert m1.t_bar == pytest.approx(0.7)
        assert m1.sigma_sq == 1.0
        m2 = effective_means(stats, w1, w2, 2)
        assert m2.s_bar == pytest.approx(0.5)
        assert m2.t_bar == pytest.approx(0.2)

    def test_eigenvector_maximizes_mean(self):
        stats = diag_stats()
        best = effective_means(stats, [1.0, 0.0], [1.0, 0.0], 1).s_bar
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            w /= np.linalg.norm(w)
            assert effective_means(stats, w, [1.0, 0.0], 1).s_bar <= best + 1e-12

    def test_zero_beamformer(self):
        stats = diag_stats()
        m = effective_means(stats, [0.0, 0.0], [0.0, 0.0], 1)
        assert m.s_bar == 0.0
        assert link_success_closed_form(m, 0.5) == 0.0

    def test_bad_link(self):
        with pytest.raises(ValueError):
            effective_means(diag_stats(), [1.0, 0.0], [1.0, 0.0], 0)


class TestInversion:
    def test_round_trip(self):
        model = ExponentialLinkModel(1.8, 0.6, 0.9)
        r = rate_for_success(model, 0.9)
        assert r > 0.0
        assert link_success_closed_form(model, r) == pytest.approx(0.9, abs=1e-9)

    def test_target_one_gives_zero_rate(self):
        assert rate_for_success(ExponentialLinkModel(1.0, 1.0, 1.0), 1.0) == 0.0

    def test_zero_signal_gives_zero_rate(self):
        assert rate_for_success(ExponentialLinkModel(0.0, 1.0, 1.0), 0.5) == 0.0

    @pytest.mark.parametrize("target", [0.0, -0.2, 1.1])
    def test_bad_target_rejected(self, target):
        with pytest.raises(ValueError):
            rate_for_success(ExponentialLinkModel(1.0, 1.0, 1.0), target)

    def test_no_interference_closed_form(self):
        """With t_bar = 0 the inverse is gamma = -s_bar ln(target) / sigma^2."""
        model = ExponentialLinkModel(2.0, 0.0, 0.5)
        r = rate_for_success(model, 0.8)
        gamma_expect = -2.0 * math.log(0.8) / 0.5
        assert r == pytest.approx(math.log2(1.0 + gamma_expect), abs=1e-9)


class TestMembership:
    def test_member_against_hand_values(self):
        """Interference-free diagonal setup: pi_i = exp(-gamma)."""
        stats = diag_stats(q11=(1.0, 1.0), q21=(0.0, 0.0), q22=(1.0, 1.0), q12=(0.0, 0.0))
        w1, w2 = np.array([1.0, 0.0]), np.array([1.0, 0.0])
        gamma = -math.log(0.95)
        r = math.log2(1.0 + gamma)
        pi1, pi2 = pair_success(stats, w1, w2, (r, r))
        assert pi1 == pytest.approx(0.95, abs=1e-12)
        assert pi2 == pytest.approx(0.95, abs=1e-12)
        assert stat_member(stats, w1, w2, (r, r), OutageSpec.common(0.1))
        assert not stat_member(stats, w1, w2, (r, r), OutageSpec.common(0.09))
        assert stat_member(stats, w1, w2, (r, r), OutageSpec.individual(0.05, 0.05))
        assert not stat_member(stats, w1, w2, (r, r), OutageSpec.individual(0.04, 0.05))

    def test_beamformer_norm_enforced(self):
        stats = diag_stats()
        with pytest.raises(ValueError, match="norm"):
            stat_member(stats, [2.0, 0.0], [1.0, 0.0], (0.1, 0.1), OutageSpec.common(0.1))

    def test_mc_matches_closed_form(self, demo_stats):
        w1 = np.array([1.0, 0.0], dtype=complex)
        w2 = np.array([0.0, 1.0], dtype=complex)
        point = (0.4, 0.3)
        pi1, pi2 = pair_success(demo_stats, w1, w2, point)
        source = SampleSource.gaussian(demo_stats, seed=11, count=20000)
        res = stat_member_mc(
            demo_stats,
            np.outer(w1, w1.conj()),
            np.outer(w2, w2.conj()),
            point,
            OutageSpec.individual(0.1, 0.1),
            source,
        )
        se1 = math.sqrt(pi1 * (1.0 - pi1) / res.n_samples)
        se2 = math.sqrt(pi2 * (1.0 - pi2) / res.n_samples)
        assert abs(res.success1 - pi1) <= 4.0 * se1
        assert abs(res.success2 - pi2) <= 4.0 * se2
        # disjoint channel sets make the links independent
        prod = pi1 * pi2
        se_joint = math.sqrt(prod * (1.0 - prod) / res.n_samples)
        assert abs(res.success_joint - prod) <= 4.0 * se_joint

    def test_mc_deterministic(self, demo_stats):
        source = SampleSource.gaussian(demo_stats, seed=3, count=5000)
        kwargs = dict(
            Psi1=0.5 * np.eye(2),
            Psi2=0.5 * np.eye(2),
            point=(0.3, 0.3),
            spec=OutageSpec.common(0.1),
        )
        a = stat_member_mc(demo_stats, source=source, **kwargs)
        b = stat_member_mc(demo_stats, source=source, **kwargs)
        assert a == b


class TestBeamformerDraws:
    def test_unit_norm(self):
        W1, W2 = draw_beamformer_pairs(3, 20, seed=5)
        np.testing.assert_allclose(np.linalg.norm(W1, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(W2, axis=1), 1.0, atol=1e-12)

    def test_prefix_stable_under_growth(self):
        W1a, W2a = draw_beamformer_pairs(2, 16, seed=9)
        W1b, W2b = draw_beamformer_pairs(2, 64, seed=9)
        np.testing.assert_array_equal(W1a, W1b[:16])
        np.testing.assert_array_equal(W2a, W2b[:16])

    def test_count_validation(self):
        with pytest.raises(ValueError):
            draw_beamformer_pairs(2, 0, seed=0)


@pytest.fixture(scope="module")
def search(demo_stats):
    return StatRegionSearch(demo_stats, StatSearchConfig(n_pairs=24, seed=2))


class TestRegionSearch:
    def test_individual_boundary_hits_both_targets(self, search):
        spec = OutageSpec.individual(0.1, 0.1)
        boundary = search.boundary(spec)
        assert boundary.points
        for p in boundary.points:
            assert p.payload["pi1"] == pytest.approx(0.9, abs=1e-9)
            assert p.payload["pi2"] == pytest.approx(0.9, abs=1e-9)

    def test_common_curve_keeps_product_at_floor(self, search):
        spec = OutageSpec.common(0.1)
        boundary = search.boundary(spec)
        assert boundary.points
        for p in boundary.points:
            assert p.payload["pi1"] * p.payload["pi2"] == pytest.approx(0.9, abs=1e-6)

    def test_boundary_is_non_dominated(self, search):
        for spec in (OutageSpec.common(0.1), OutageSpec.individual(0.1, 0.1)):
            pts = search.boundary(spec).points
            r1s = [p.r1 for p in pts]
            r2s = [p.r2 for p in pts]
            assert r1s == sorted(r1s)
            assert all(x > y for x, y in zip(r2s, r2s[1:]))

    def test_boundary_points_are_members(self, search, demo_stats):
        spec = OutageSpec.individual(0.1, 0.1)
        for p in search.boundary(spec).points[:5]:
            i = int(p.payload["pair_index"])
            assert stat_member(
                demo_stats, search.W1[i], search.W2[i],
                (p.r1 - 1e-9, p.r2 - 1e-9), spec,
            )

    @pytest.mark.parametrize(
        "spec", [OutageSpec.common(0.1), OutageSpec.individual(0.1, 0.1)],
        ids=["common", "individual"],
    )
    def test_boundary_is_union_of_single_pair_boundaries(self, demo_stats, spec):
        """All pairs evaluated in one batch give, bit for bit, the non-dominated
        points of the single-pair boundaries. Pair 3 has no signal on link 1,
        so its r1 range has zero width. 40 curve points: a grid step of
        edge / 39 rounds, unlike edge / 64 at the default 65."""
        config = StatSearchConfig(n_pairs=12, seed=5, curve_points=40)
        full = StatRegionSearch(demo_stats, config)
        full.s1[3] = 0.0
        union = []
        for i in range(12):
            single = copy.copy(full)
            for name in ("s1", "t1", "s2", "t2"):
                setattr(single, name, getattr(full, name)[i:i + 1])
            for p in single.boundary(spec).points:
                union.append(BoundaryPoint(p.r1, p.r2, {**p.payload, "pair_index": i}))
        expect = [(p.r1, p.r2, p.payload) for p in non_dominated_points(union)]
        got = [(p.r1, p.r2, p.payload) for p in full.boundary(spec).points]
        assert len(got) > 1
        assert got == expect

    def test_more_pairs_only_improve(self, demo_stats):
        spec = OutageSpec.individual(0.1, 0.1)
        small = search_stat_boundary(demo_stats, spec, StatSearchConfig(n_pairs=8, seed=2))
        big = search_stat_boundary(demo_stats, spec, StatSearchConfig(n_pairs=32, seed=2))
        for p in small.points:
            assert any(
                q.r1 >= p.r1 - 1e-12 and q.r2 >= p.r2 - 1e-12 for q in big.points
            )

    def test_member_any_matches_pair_probs(self, search):
        spec = OutageSpec.individual(0.1, 0.1)
        r1, r2 = 0.3, 0.3
        pi1, pi2 = search.pair_success_all(r1, r2)
        expect = bool(((pi1 >= 0.9) & (pi2 >= 0.9)).any())
        assert search.member_any(r1, r2, spec) == expect

    def test_column_height_infeasible(self, search):
        assert search.column_height(50.0, OutageSpec.individual(0.1, 0.1)) == -math.inf

    def test_column_height_tracks_membership(self, search):
        spec = OutageSpec.common(0.1)
        r1 = 0.2
        h = search.column_height(r1, spec)
        assert search.member_any(r1, h - 1e-6, spec)
        assert not search.member_any(r1, h + 1e-4, spec)

    def test_metadata(self, search):
        boundary = search.boundary(OutageSpec.common(0.1))
        assert boundary.metadata["n_pairs"] == 24
        assert boundary.metadata["seed"] == 2
        assert boundary.metadata["scenario_mode"] == "common"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StatSearchConfig(n_pairs=0)
        with pytest.raises(ValueError):
            StatSearchConfig(n_pairs=4, curve_points=1)
