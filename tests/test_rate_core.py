import math

import numpy as np
import pytest

from miso_outage.channel import ChannelRealization
from miso_outage.rate_core import (
    FEASIBILITY_SLACK,
    achievability_slack_batch,
    as_rate_point,
    frontier_batch,
    frontier_point,
    frontier_qmin,
    frontier_qmin_batch,
    frontier_signal_batch,
    gamma_from_rate,
    golden_max,
    is_achievable,
    max_r2_batch,
    max_r2_given_r1,
    mrt,
    power_frontier,
    rate_bf,
    rate_cov,
    rate_from_sinr,
    su_rate,
    su_rate_batch,
    validate_beamformer,
    validate_transmit_covariance,
    zf,
)

from conftest import random_channel_vectors


def aligned_realization():
    """All four channels along e1: interference always equals signal power."""
    e1 = [1.0, 0.0]
    return ChannelRealization(e1, e1, e1, e1)


def orthogonal_cross_realization():
    """Direct channels along e1, cross channels along e2: zero-forcing is free."""
    return ChannelRealization([1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0])


def random_realization(rng, n=2):
    return ChannelRealization(*(random_channel_vectors(rng, 1, n)[0] for _ in range(4)))


class TestScalarHelpers:
    def test_gamma_rate_frozen(self):
        assert gamma_from_rate(0.0) == 0.0
        assert gamma_from_rate(1.0) == pytest.approx(1.0, abs=1e-15)
        assert gamma_from_rate(2.0) == pytest.approx(3.0, abs=1e-14)
        assert rate_from_sinr(3.0) == pytest.approx(2.0, abs=1e-15)

    def test_gamma_rate_round_trip(self, rng):
        r = rng.uniform(0.0, 6.0, size=100)
        np.testing.assert_allclose(rate_from_sinr(gamma_from_rate(r)), r, atol=1e-12)

    def test_rate_point_validation(self):
        assert as_rate_point((0.5, 1.25)) == (0.5, 1.25)
        with pytest.raises(ValueError):
            as_rate_point((-0.1, 0.0))
        with pytest.raises(ValueError):
            as_rate_point((0.0, np.inf))

    def test_mrt_frozen(self):
        np.testing.assert_allclose(mrt([3.0, 4.0j]), [0.6, 0.8j], atol=1e-15)
        np.testing.assert_array_equal(mrt([0.0, 0.0]), [0.0, 0.0])

    def test_zf_frozen(self):
        np.testing.assert_allclose(zf([1.0, 1.0], [1.0, 0.0]), [0.0, 1.0], atol=1e-15)

    def test_zf_orthogonality(self, rng):
        for _ in range(20):
            a = random_channel_vectors(rng, 1, 3)[0]
            b = random_channel_vectors(rng, 1, 3)[0]
            w = zf(a, b)
            assert abs(np.vdot(b, w)) < 1e-12
            assert abs(np.linalg.norm(w) - 1.0) < 1e-12

    def test_beamformer_validation(self):
        validate_beamformer(np.array([0.6, 0.8]))
        with pytest.raises(ValueError, match="norm"):
            validate_beamformer(np.array([1.0, 0.5]))

    def test_transmit_covariance_validation(self):
        validate_transmit_covariance(0.5 * np.eye(2))
        with pytest.raises(ValueError, match="trace"):
            validate_transmit_covariance(np.eye(2))
        with pytest.raises(ValueError, match="Hermitian"):
            validate_transmit_covariance(np.array([[0.5, 0.2], [0.0, 0.4]]))


class TestRates:
    def test_rate_bf_frozen(self):
        h = aligned_realization()
        # full interference: log2(1 + 1 / (1 + 1))
        r = rate_bf(h, [1.0, 0.0], [1.0, 0.0], 1, 1.0)
        assert r == pytest.approx(0.5849625007211562, abs=1e-15)
        # interference steered away: log2(1 + 1)
        assert rate_bf(h, [1.0, 0.0], [0.0, 1.0], 1, 1.0) == pytest.approx(1.0)

    def test_rate_cov_matches_rank_one(self, rng):
        h = random_realization(rng)
        w1 = mrt(h.h11)
        w2 = zf(h.h22, h.h21)
        for link, sig in ((1, 0.7), (2, 1.3)):
            assert rate_cov(
                h, np.outer(w1, w1.conj()), np.outer(w2, w2.conj()), link, sig
            ) == pytest.approx(rate_bf(h, w1, w2, link, sig), abs=1e-12)

    def test_su_rate_frozen(self):
        h = ChannelRealization([1.0] * 3, [0.0] * 3, [0.0] * 3, [1.0] * 3)
        assert su_rate(h, 1, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_su_rate_batch_matches_scalar(self, rng):
        H = random_channel_vectors(rng, 30, 2)
        batch = su_rate_batch(H, 0.8)
        for k in range(30):
            h = ChannelRealization(H[k], H[k], H[k], H[k])
            assert batch[k] == pytest.approx(su_rate(h, 1, 0.8), abs=1e-12)

    def test_bad_link_raises(self):
        with pytest.raises(ValueError):
            su_rate(aligned_realization(), 3, 1.0)


class TestPowerFrontier:
    def test_frozen_parameters(self):
        fr = power_frontier([1.0, 1.0], [1.0, 0.0])
        assert fr.c == pytest.approx(1.0)
        assert fr.d == pytest.approx(1.0)
        assert fr.p_max == pytest.approx(2.0)
        assert fr.q_mrt == pytest.approx(0.5)
        assert not fr.degenerate

    def test_frozen_curve_values(self):
        fr = power_frontier([1.0, 1.0], [1.0, 0.0])
        assert fr.signal_power(0.0) == pytest.approx(1.0)
        assert fr.signal_power(0.25) == pytest.approx(1.8660254037844386, abs=1e-15)
        assert fr.signal_power(0.5) == pytest.approx(2.0)
        # flat beyond the matched-filter point
        assert fr.signal_power(0.9) == pytest.approx(2.0)

    def test_qmin_round_trip_frozen(self):
        fr = power_frontier([1.0, 1.0], [1.0, 0.0])
        assert frontier_qmin(fr, 1.8660254037844386) == pytest.approx(0.25, abs=1e-12)
        assert frontier_qmin(fr, 1.0) == 0.0
        assert frontier_qmin(fr, 2.0) == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(ValueError):
            frontier_qmin(fr, 2.5)

    def test_degenerate_cross(self):
        fr = power_frontier([2.0, 0.0], [0.0, 0.0])
        assert fr.degenerate
        assert fr.signal_power(0.0) == pytest.approx(4.0)
        assert frontier_qmin(fr, 3.9) == 0.0

    def test_qmin_inverts_curve(self, rng):
        for _ in range(30):
            a = random_channel_vectors(rng, 1, 3)[0]
            b = random_channel_vectors(rng, 1, 3)[0]
            fr = power_frontier(a, b)
            for t in np.linspace(0.0, fr.p_max, 17):
                q = frontier_qmin(fr, t)
                assert fr.signal_power(q) >= t - 1e-9
                if q > 1e-12:
                    # strictly cheaper interference cannot deliver the target
                    assert fr.signal_power(q * (1.0 - 1e-6)) < t

    def test_frontier_point_is_witness(self, rng):
        for _ in range(30):
            a = random_channel_vectors(rng, 1, 3)[0]
            b = random_channel_vectors(rng, 1, 3)[0]
            fr = power_frontier(a, b)
            for q in np.linspace(0.0, fr.q_mrt, 7):
                w = frontier_point(fr, q)
                assert np.linalg.norm(w) <= 1.0 + 1e-12
                assert abs(np.vdot(b, w)) ** 2 <= q + 1e-9
                assert abs(np.vdot(a, w)) ** 2 == pytest.approx(
                    fr.signal_power(q), abs=1e-9
                )

    def test_random_beamformers_never_beat_frontier(self, rng):
        a = random_channel_vectors(rng, 1, 3)[0]
        b = random_channel_vectors(rng, 1, 3)[0]
        fr = power_frontier(a, b)
        W = random_channel_vectors(rng, 2000, 3)
        W /= np.maximum(np.linalg.norm(W, axis=1, keepdims=True), 1e-12)
        sig = np.abs(W @ a.conj()) ** 2
        q = np.abs(W @ b.conj()) ** 2
        assert np.all(sig <= fr.signal_power(q) + 1e-9)

    def test_batch_matches_scalar(self, rng):
        A = random_channel_vectors(rng, 40, 2)
        B = random_channel_vectors(rng, 40, 2)
        F = frontier_batch(A, B)
        t = rng.uniform(0.0, 1.0, size=40) * F.p_max
        q = rng.uniform(0.0, 1.0, size=40) * F.q_mrt
        p_batch = frontier_signal_batch(F, q)
        qmin_batch = frontier_qmin_batch(F, t)
        for k in range(40):
            fr = power_frontier(A[k], B[k])
            assert p_batch[k] == pytest.approx(fr.signal_power(q[k]), abs=1e-12)
            assert qmin_batch[k] == pytest.approx(frontier_qmin(fr, t[k]), abs=1e-12)

    def test_scalar_calls_are_batches_of_one(self, rng):
        """power_frontier, signal_power and frontier_qmin run the batch kernels,
        so they equal the batch values exactly, degenerate rows included."""
        for n in (1, 2, 3, 8):
            A = random_channel_vectors(rng, 60, n)
            B = random_channel_vectors(rng, 60, n)
            B[0] = 0.0
            F = frontier_batch(A, B)
            t = rng.uniform(0.0, 1.0, size=60) * F.p_max
            t[1:10] = F.d[1:10] ** 2  # demands at the zero-forcing power
            q = rng.uniform(0.0, 1.2, size=60) * F.q_mrt
            p_batch = frontier_signal_batch(F, q)
            qmin_batch = frontier_qmin_batch(F, t)
            for k in range(60):
                fr = power_frontier(A[k], B[k])
                assert (fr.c, fr.d, fr.b_norm_sq, fr.p_max, fr.q_mrt, fr.degenerate) == (
                    F.c[k], F.d[k], F.b_norm_sq[k], F.p_max[k], F.q_mrt[k], F.degenerate[k]
                )
                assert fr.signal_power(q[k]) == p_batch[k]
                assert frontier_qmin(fr, t[k]) == qmin_batch[k]

    def test_qmin_batch_infeasible_marks_inf(self, rng):
        A = random_channel_vectors(rng, 5, 2)
        B = random_channel_vectors(rng, 5, 2)
        F = frontier_batch(A, B)
        q = frontier_qmin_batch(F, F.p_max * 1.5)
        assert np.all(np.isinf(q))


class TestGoldenMax:
    def test_parabola_batch(self, rng):
        m = rng.uniform(0.2, 0.8, size=50)
        x, f = golden_max(lambda t: -((t - m) ** 2), np.zeros(50), np.ones(50))
        np.testing.assert_allclose(x, m, atol=1e-9)
        np.testing.assert_allclose(f, 0.0, atol=1e-15)

    def test_monotone_picks_endpoint(self):
        x, f = golden_max(lambda t: t, np.zeros(3), np.full(3, 2.0))
        np.testing.assert_allclose(x, 2.0, atol=1e-12)
        np.testing.assert_allclose(f, 2.0, atol=1e-12)

    def test_zero_width_bracket(self):
        x, f = golden_max(lambda t: -t, np.ones(2), np.ones(2))
        np.testing.assert_allclose(x, 1.0)
        np.testing.assert_allclose(f, -1.0)


class TestAchievability:
    def test_aligned_symmetric_boundary(self):
        """With all channels aligned and noise 0.5, the symmetric boundary
        SINR solves 1.5 g^2 + 0.5 g - 1 = 0, i.e. g = 2/3 exactly."""
        h = aligned_realization()
        noise = (0.5, 0.5)
        r_star = math.log2(1.0 + 2.0 / 3.0)
        assert is_achievable(h, (r_star - 1e-6, r_star - 1e-6), noise).achievable
        assert not is_achievable(h, (r_star + 1e-3, r_star + 1e-3), noise).achievable

    def test_orthogonal_cross_square_region(self):
        h = orthogonal_cross_realization()
        noise = (1.0, 1.0)
        assert is_achievable(h, (1.0, 1.0), noise).achievable
        assert not is_achievable(h, (1.0 + 1e-3, 1.0), noise).achievable
        assert max_r2_given_r1(h, 0.3, noise) == pytest.approx(1.0, abs=1e-9)

    def test_witness_certifies_achievable_points(self, rng):
        noise = (0.6, 0.9)
        for _ in range(25):
            h = random_realization(rng)
            cap1 = su_rate(h, 1, noise[0])
            r1 = 0.5 * cap1
            r2 = 0.5 * max_r2_given_r1(h, r1, noise)
            wit = is_achievable(h, (r1, r2), noise)
            assert wit.achievable
            assert wit.margin >= -1e-7
            assert np.linalg.norm(wit.w1) <= 1.0 + 1e-9
            assert np.linalg.norm(wit.w2) <= 1.0 + 1e-9

    def test_su_cap_is_binding(self, rng):
        noise = (0.7, 0.7)
        for _ in range(10):
            h = random_realization(rng)
            cap = su_rate(h, 1, noise[0])
            assert is_achievable(h, (cap, 0.0), noise).achievable
            assert not is_achievable(h, (cap + 1e-6, 0.0), noise).achievable

    def test_max_r2_batch_consistent_with_slack_oracle(self, rng):
        N, noise = 120, (0.5, 0.8)
        arrs = {k: random_channel_vectors(rng, N, 2) for k in ("h11", "h12", "h21", "h22")}
        F1 = frontier_batch(arrs["h11"], arrs["h12"])
        F2 = frontier_batch(arrs["h22"], arrs["h21"])
        r1 = 0.6 * su_rate_batch(arrs["h11"], noise[0])
        g1 = gamma_from_rate(r1)
        r2_star = max_r2_batch(F1, F2, g1, noise)
        assert np.all(np.isfinite(r2_star))
        delta = 1e-6
        g_below, _, _ = achievability_slack_batch(
            F1, F2, g1, gamma_from_rate(np.maximum(r2_star - delta, 0.0)), noise
        )
        g_above, _, _ = achievability_slack_batch(
            F1, F2, g1, gamma_from_rate(r2_star + delta), noise
        )
        assert np.all(g_below >= -FEASIBILITY_SLACK)
        assert np.all(g_above < 0.0)

    def test_max_r2_batch_nonincreasing_in_r1(self, rng):
        N, noise = 60, (0.5, 0.5)
        arrs = {k: random_channel_vectors(rng, N, 2) for k in ("h11", "h12", "h21", "h22")}
        F1 = frontier_batch(arrs["h11"], arrs["h12"])
        F2 = frontier_batch(arrs["h22"], arrs["h21"])
        caps = su_rate_batch(arrs["h11"], noise[0])
        prev = None
        for frac in (0.0, 0.25, 0.5, 0.75, 0.999):
            r2 = max_r2_batch(F1, F2, gamma_from_rate(frac * caps), noise)
            if prev is not None:
                assert np.all(r2 <= prev + 1e-9)
            prev = r2

    def test_max_r2_at_zero_r1_is_su_rate(self, rng):
        noise = (0.9, 1.1)
        for _ in range(10):
            h = random_realization(rng)
            assert max_r2_given_r1(h, 0.0, noise) == pytest.approx(
                su_rate(h, 2, noise[1]), abs=1e-9
            )

    def test_infeasible_r1_raises(self):
        h = orthogonal_cross_realization()
        with pytest.raises(ValueError, match="infeasible"):
            max_r2_given_r1(h, 5.0, (1.0, 1.0))

    def test_scalar_matches_batch_decision(self, rng):
        noise = (0.5, 0.5)
        N = 40
        arrs = {k: random_channel_vectors(rng, N, 2) for k in ("h11", "h12", "h21", "h22")}
        F1 = frontier_batch(arrs["h11"], arrs["h12"])
        F2 = frontier_batch(arrs["h22"], arrs["h21"])
        point = (0.6, 0.4)
        g_max, _, _ = achievability_slack_batch(
            F1, F2, gamma_from_rate(point[0]), gamma_from_rate(point[1]), noise
        )
        for k in range(N):
            h = ChannelRealization(*(arrs[key][k] for key in ("h11", "h12", "h21", "h22")))
            wit = is_achievable(h, point, noise)
            assert wit.achievable == (g_max[k] >= -FEASIBILITY_SLACK)
            assert wit.power_slack == pytest.approx(g_max[k], abs=1e-12)
