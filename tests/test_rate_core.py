import math
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miso_outage import rate_core
from miso_outage.channel import CHANNEL_KEYS, ChannelRealization, SampleSource
from miso_outage.outage_mc import CaseLabel, classify, is_achievable
from miso_outage.presets import demo_statistics
from miso_outage.regions import InstantaneousRegionPipeline
from miso_outage.rate_core import (
    FEASIBILITY_SLACK,
    GOLDEN_VALUE_TOL,
    NORM_TOL,
    RATE_SLACK,
    _two_product,
    achievability_slack_batch,
    as_noise,
    as_rate_point,
    bisect_largest,
    frontier_batch,
    frontier_point,
    frontier_qmin_batch,
    frontier_signal_batch,
    gamma_from_rate,
    golden_max,
    max_r2_batch,
    mrt,
    power_frontier,
    quad_form,
    rate_bf,
    rate_from_sinr,
    validate_beamformer,
    witness_rates_batch,
)

from conftest import BAD_NOISES, random_channel_vectors, random_psd
from oracles import rate_cov, su_rate_batch, validate_transmit_covariance

EPS = np.finfo(float).eps


def aligned_realization():
    """All four channels along e1: interference always equals signal power."""
    e1 = [1.0, 0.0]
    return ChannelRealization(e1, e1, e1, e1)


def orthogonal_cross_realization():
    """Direct channels along e1, cross channels along e2: zero-forcing is free."""
    return ChannelRealization([1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0])


def random_realization(rng, n=2):
    return ChannelRealization(*(random_channel_vectors(rng, 1, n)[0] for _ in range(4)))


def realization_frontiers(h):
    """(F1, F2) of one realization: the column kernel's inputs, a batch of one."""
    return (frontier_batch(h.h11[None, :], h.h12[None, :]),
            frontier_batch(h.h22[None, :], h.h21[None, :]))


def above_su_sinr(F1, gamma1, noise) -> np.ndarray:
    """The empty rows of the column at a gamma1 that no rate r1 gave (the
    zero-forcing knee, and the like): gamma1 above link 1's single-user
    SINR p_max1 / sigma1^2. At gamma1 = gamma_from_rate(r1) the pipeline's
    own decision, r1 > su1, is passed instead."""
    return np.broadcast_to(np.asarray(gamma1) > F1.p_max / noise[0], F1.c.shape)


NONE_EMPTY = np.zeros(1, dtype=bool)


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

    def test_noise_validation(self):
        assert as_noise((0.5, 1)) == (0.5, 1.0)

    @pytest.mark.parametrize("noise", BAD_NOISES)
    def test_invalid_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="noise"):
            as_noise(noise)
        h = random_realization(np.random.default_rng(5))
        with pytest.raises(ValueError, match="noise"):
            is_achievable(h, (0.5, 0.5), noise)

    def test_mrt_frozen(self):
        np.testing.assert_allclose(mrt([3.0, 4.0j]), [0.6, 0.8j], atol=1e-15)
        np.testing.assert_array_equal(mrt([0.0, 0.0]), [0.0, 0.0])

    def test_zf_frozen(self):
        """The zero-forcing beamformer is the frontier point at q = 0."""
        w = frontier_point(power_frontier([1.0, 1.0], [1.0, 0.0]), 0.0)
        np.testing.assert_allclose(w, [0.0, 1.0], atol=1e-15)

    def test_zf_orthogonality(self, rng):
        for _ in range(20):
            a = random_channel_vectors(rng, 1, 3)[0]
            b = random_channel_vectors(rng, 1, 3)[0]
            w = frontier_point(power_frontier(a, b), 0.0)
            assert abs(np.vdot(b, w)) < 1e-12
            assert abs(np.linalg.norm(w) - 1.0) < 1e-12

    def test_collinear_channels_at_one_antenna(self):
        """At n = 1 own and cross channels are always collinear; their
        frontier point once had norm 1.41 and is_achievable raised "w2: norm
        1.41... exceeds unit power budget"."""
        h = ChannelRealization([1 + 0.5j], [0.3 - 0.7j], [0.4 + 0.2j], [0.9 - 0.1j])
        wit = is_achievable(h, (0.5, 0.5), (0.5, 0.5))
        assert wit.achievable
        for w in (wit.w1, wit.w2):
            assert np.linalg.norm(w) <= 1.0 + NORM_TOL
        assert wit.margin >= -1e-12

    def test_beamformer_validation(self):
        validate_beamformer(np.array([0.6, 0.8]))
        with pytest.raises(ValueError, match=r"^w1: norm 1\.118"):
            validate_beamformer(np.array([1.0, 0.5]), "w1")
        # The row rule StatRegionSearch applies, so a NaN norm fails too.
        with pytest.raises(ValueError, match=r"^w: norm nan"):
            validate_beamformer(np.array([np.nan, 0.5]))

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
        w2 = frontier_point(power_frontier(h.h22, h.h21), 0.0)
        for link, sig in ((1, 0.7), (2, 1.3)):
            assert rate_cov(
                h, np.outer(w1, w1.conj()), np.outer(w2, w2.conj()), link, sig
            ) == pytest.approx(rate_bf(h, w1, w2, link, sig), abs=1e-12)

    def test_su_rate_frozen(self):
        assert su_rate_batch(np.ones((1, 3)), 1.0)[0] == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("n", [8, 9, 16])
    def test_su_rate_batch_is_the_pipeline_formula(self, rng, n):
        """Bit for bit the single-user rate of the region pipeline,
        rate_from_sinr(p_max / sigma^2), also from n = 8 on, where numpy's
        own row sum would add in pairs."""
        H = random_channel_vectors(rng, 20_000, n)
        B = random_channel_vectors(rng, 20_000, n)
        np.testing.assert_array_equal(
            su_rate_batch(H, 0.7), rate_from_sinr(frontier_batch(H, B).p_max / 0.7)
        )

    def test_bad_link_raises(self):
        with pytest.raises(ValueError, match="link"):
            rate_bf(aligned_realization(), [1.0, 0.0], [1.0, 0.0], 3, 1.0)


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
        """The inverse at the demand 1 * (t + 0): t itself."""
        fr = power_frontier([1.0, 1.0], [1.0, 0.0])
        q = frontier_qmin_batch(fr, 1.0, np.array([1.8660254037844386, 1.0, 2.0]), 0.0)
        assert q[0] == pytest.approx(0.25, abs=1e-12)
        assert q[1] == 0.0
        assert q[2] == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_cross(self):
        fr = power_frontier([2.0, 0.0], [0.0, 0.0])
        assert fr.degenerate
        assert fr.signal_power(0.0) == pytest.approx(4.0)
        assert frontier_qmin_batch(fr, 1.0, np.array([3.9]), 0.0)[0] == 0.0

    def test_qmin_inverts_curve(self, rng):
        for _ in range(30):
            a = random_channel_vectors(rng, 1, 3)[0]
            b = random_channel_vectors(rng, 1, 3)[0]
            fr = power_frontier(a, b)
            ts = np.linspace(0.0, fr.p_max, 17)
            for t, q in zip(ts, frontier_qmin_batch(fr, 1.0, ts, 0.0)):
                assert fr.signal_power(q) >= t - 1e-9
                if q > 1e-12:
                    # strictly cheaper interference cannot deliver the target
                    assert fr.signal_power(q * (1.0 - 1e-6)) < t

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 8),
        kind=st.sampled_from(["random", "aligned", "zero-own", "zero-cross"]),
        power=st.sampled_from([-6.0, 0.0, 6.0]) | st.floats(-6.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_frontier_point_is_witness(self, n, kind, power, seed):
        """The frontier point stays in the unit ball, causes at most
        min(q, q_mrt) and delivers p(q), at q = 0, q_mrt / 2, q_mrt and
        2 q_mrt, on channels of power 10^power: random, aligned (b =
        (0.7 - 0.3j) a, where the residual of a off b is rounding alone),
        and with a vanished own or cross channel. At n = 1 own and cross
        channels are always collinear; there, and on aligned channels at
        n = 2, the point once had norm 1.41."""
        rng = np.random.default_rng(seed)
        a, b = random_channel_vectors(rng, 2, n) * math.sqrt(10.0**power)
        if kind == "aligned":
            b = (0.7 - 0.3j) * a
        elif kind == "zero-own":
            a = np.zeros(n, dtype=complex)
        elif kind == "zero-cross":
            b = np.zeros(n, dtype=complex)
        fr = power_frontier(a, b)
        if kind == "aligned":
            assert fr.d < 1e-15 * math.sqrt(fr.p_max)
        for q in (0.0, 0.5 * fr.q_mrt, fr.q_mrt, 2.0 * fr.q_mrt):
            w = frontier_point(fr, q)
            assert np.linalg.norm(w) <= 1.0 + 1e-12
            assert abs(np.vdot(b, w)) ** 2 <= (min(q, fr.q_mrt) * (1.0 + 1e-12)
                                               + 1e-15 * fr.p_max)
            # p(q) carries d^2, rounding alone where a lies along b, and
            # the point drops it there: 1e-15 p_max absolute covers that.
            assert abs(np.vdot(a, w)) ** 2 == pytest.approx(fr.signal_power(q), rel=1e-12,
                                                            abs=1e-15 * fr.p_max)

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
        for k in range(40):
            fr = power_frontier(A[k], B[k])
            assert p_batch[k] == pytest.approx(fr.signal_power(q[k]), abs=1e-12)

    def test_scalar_calls_are_batches_of_one(self, rng):
        """power_frontier and signal_power run the batch kernels, so they equal
        the batch values exactly, degenerate rows included."""
        for n in (1, 2, 3, 8):
            A = random_channel_vectors(rng, 60, n)
            B = random_channel_vectors(rng, 60, n)
            B[0] = 0.0
            F = frontier_batch(A, B)
            q = rng.uniform(0.0, 1.2, size=60) * F.q_mrt
            p_batch = frontier_signal_batch(F, q)
            for k in range(60):
                fr = power_frontier(A[k], B[k])
                assert (fr.c, fr.d, fr.b_norm_sq, fr.p_max, fr.q_mrt, fr.degenerate) == (
                    F.c[k], F.d[k], F.b_norm_sq[k], F.p_max[k], F.q_mrt[k], F.degenerate[k]
                )
                assert fr.signal_power(q[k]) == p_batch[k]

    def test_qmin_batch_infeasible_marks_inf(self, rng):
        A = random_channel_vectors(rng, 5, 2)
        B = random_channel_vectors(rng, 5, 2)
        F = frontier_batch(A, B)
        q = frontier_qmin_batch(F, 1.0, F.p_max * 1.5, 0.0)
        assert np.all(np.isinf(q))


def left_to_right(X: np.ndarray) -> np.ndarray:
    """Row sums by scalar adds, first column to last: the rowsum oracle."""
    sums = []
    for row in X.tolist():
        acc = row[0]
        for x in row[1:]:
            acc = acc + x
        sums.append(acc)
    return np.array(sums)


def antenna_rows(rng, n: int):
    """Random own/cross rows with a zero cross row, a zero own row and a
    cross row parallel to its own row (zero-forcing distance near 0)."""
    A = random_channel_vectors(rng, 300, n)
    B = random_channel_vectors(rng, 300, n)
    B[0] = 0.0
    A[1] = 0.0
    B[2] = (0.3 - 2.0j) * A[2]
    return A, B


class TestRowsum:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_frontier_sums_left_to_right(self, rng, n):
        """Every antenna sum in frontier_batch adds its terms left to right,
        at every n, so the fields equal an oracle built from scalar adds."""
        A, B = antenna_rows(rng, n)
        F = frontier_batch(A, B)
        asq = left_to_right(np.abs(A) ** 2)
        bsq = left_to_right(np.abs(B) ** 2)
        inner = left_to_right(B.conj() * A)
        np.testing.assert_array_equal(F.p_max, asq)
        np.testing.assert_array_equal(F.b_norm_sq, bsq)
        live = ~F.degenerate
        resid = A[live] - (inner[live] / bsq[live])[:, None] * B[live]
        np.testing.assert_array_equal(F.d[live], np.sqrt(left_to_right((resid.conj() * resid).real)))
        np.testing.assert_array_equal(F.c[live], np.abs(inner[live]) / np.sqrt(bsq[live]))
        both = live & (asq > 0.0)
        np.testing.assert_array_equal(F.q_mrt[both], np.abs(inner[both]) ** 2 / asq[both])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_numpy_reductions(self, rng, n):
        """Against np.sum / np.linalg.norm along the antenna axis: the sums of
        nonnegative terms agree within rtol 1e-15 (exactly up to n = 7, where
        numpy also adds left to right); the complex inner product, whose terms
        can cancel, within 1e-15 of the summed magnitudes of its terms
        (numpy pairs complex terms from n = 4). Up to n = 3 every field is
        identical."""
        A, B = antenna_rows(rng, n)
        F = frontier_batch(A, B)
        asq = np.sum(np.abs(A) ** 2, axis=1)
        bsq = np.sum(np.abs(B) ** 2, axis=1)
        terms = B.conj() * A
        inner = np.sum(terms, axis=1)
        np.testing.assert_allclose(F.p_max, asq, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(F.b_norm_sq, bsq, rtol=1e-15, atol=0.0)
        assert np.all(np.abs(rate_core.rowsum(terms) - inner) <= 1e-15 * np.sum(np.abs(terms), axis=1))
        live = ~F.degenerate
        resid = A[live] - (inner[live] / bsq[live])[:, None] * B[live]
        d = np.linalg.norm(resid, axis=1)
        # d is the distance of a from span(b): a's share of the inner
        # product's rounding reaches it with the scale ||a||.
        assert np.all(np.abs(F.d[live] - d) <= 1e-15 * (d + np.sqrt(asq[live])))
        c = np.abs(inner[live]) / np.sqrt(bsq[live])
        assert np.all(np.abs(F.c[live] - c) <= 1e-15 * np.sqrt(asq[live]))
        if n <= 7:
            np.testing.assert_array_equal(F.p_max, asq)
            np.testing.assert_array_equal(F.b_norm_sq, bsq)
        if n <= 3:
            np.testing.assert_array_equal(F.c[live], c)
            np.testing.assert_array_equal(F.d[live], d)
            both = live & (asq > 0.0)
            np.testing.assert_array_equal(F.q_mrt[both], np.abs(inner[both]) ** 2 / asq[both])


class TestQuadForm:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_batch_equals_per_row_form(self, rng, n):
        """Each row of the batch is, bit for bit, the scalar form
        np.conj(w) @ Q @ w clamped at 0, and a 1-D w is a batch of one."""
        for Q in (random_psd(rng, n), random_psd(rng, n, rank=1)):
            W = random_channel_vectors(rng, 2000, n)
            W[0] = 0.0
            expect = np.array([max(complex(np.conj(w) @ Q @ w).real, 0.0) for w in W])
            np.testing.assert_array_equal(quad_form(Q, W), expect)
            for i in (0, 1, 1999):
                one = quad_form(Q, W[i])
                assert type(one) is float and one == expect[i]
                np.testing.assert_array_equal(quad_form(Q, W[i:i + 1]), expect[i:i + 1])

    def test_negative_form_raises(self):
        Q = np.diag([1.0, -1.0]).astype(complex)
        W = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match=r"quadratic form is negative: -0\.28"):
            quad_form(Q, W)
        with pytest.raises(ValueError, match="negative"):
            quad_form(Q, W[2])

    def test_rounding_below_zero_clamps(self):
        Q = np.diag([1.0, -1e-12]).astype(complex)
        assert quad_form(Q, np.array([0.0, 1.0])) == 0.0
        assert quad_form(Q, np.empty((0, 2))).shape == (0,)


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


def below(threshold, budget=200):
    """Membership t <= threshold that fails the test after budget calls,
    more than a bisection of a double needs, instead of looping forever."""
    calls = []

    def member(t):
        calls.append(t)
        assert len(calls) <= budget, "bisection does not terminate"
        return t <= threshold

    return member


class TestBisectLargest:
    def test_tol_below_float_spacing_terminates(self):
        """Bisection stops once its ends are adjacent floats, whatever tol."""
        assert bisect_largest(below(1.5), 2.0, 0.0) == 1.5
        x = bisect_largest(below(0.3), 1.0, 1e-300)
        assert x <= 0.3 < np.nextafter(x, np.inf)


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
        bounds = max_r2_batch(*realization_frontiers(h), gamma_from_rate(0.3), noise, NONE_EMPTY)
        r2 = bounds.refined(True)[0][0]
        assert r2 == pytest.approx(1.0, abs=1e-9)

    def test_witness_certifies_achievable_points(self, rng):
        noise = (0.6, 0.9)
        for _ in range(25):
            h = random_realization(rng)
            r1 = 0.5 * su_rate_batch(h.h11[None, :], noise[0])[0]
            F1, F2 = realization_frontiers(h)
            r2 = 0.5 * max_r2_batch(F1, F2, gamma_from_rate(r1), noise,
                                    NONE_EMPTY).refined(True)[0][0]
            wit = is_achievable(h, (r1, r2), noise)
            assert wit.achievable
            assert wit.margin >= -1e-7
            assert np.linalg.norm(wit.w1) <= 1.0 + 1e-9
            assert np.linalg.norm(wit.w2) <= 1.0 + 1e-9

    def test_su_cap_is_binding(self, rng):
        noise = (0.7, 0.7)
        for _ in range(10):
            h = random_realization(rng)
            cap = su_rate_batch(h.h11[None, :], noise[0])[0]
            assert is_achievable(h, (cap, 0.0), noise).achievable
            assert not is_achievable(h, (cap + 1e-6, 0.0), noise).achievable

    def test_su_corner_is_case_b(self, rng):
        """(su1, 0) is always achievable: transmitter 2 can stay silent. So it
        is case B on each of 2000 random realizations (n = 2, noise 0.7).
        When the kernel decided its empty rows on powers, 559 of them were
        case D (579 without numpy's AVX-512 paths): where gamma1 = 2^su1 - 1
        rounds above the single-user SINR, it asks for more than full
        power."""
        noise = (0.7, 0.7)
        arrs = {key: random_channel_vectors(rng, 2000, 2) for key in CHANNEL_KEYS}
        su1 = su_rate_batch(arrs["h11"], noise[0])
        for k in range(2000):
            h = ChannelRealization(*(arrs[key][k] for key in CHANNEL_KEYS))
            assert classify(h, (float(su1[k]), 0.0), noise) is CaseLabel.B, k

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        family=st.sampled_from(["random", "aligned", "rank-1", "zero-cross"]),
        n=st.sampled_from([1, 2, 8]),
        seed=st.integers(0, 2**32 - 1),
        log_noise=st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
        u=st.floats(0.0, 1.0),
    )
    def test_decision_is_case_b(self, family, n, seed, log_noise, u):
        """At r1 in {0, u su1, su1} and r2 at the column plus k RATE_SLACK
        (k = -2..2), 0 and su2: achievable is classify's case B, the witness
        beamformers lie in the unit ball, and an achievable point's witness
        meets both targets within RATE_SLACK plus the kernel's contract."""
        arrs = contract_channels(np.random.default_rng(seed), n, 1, family)
        h = ChannelRealization(*(arrs[key][0] for key in CHANNEL_KEYS))
        noise = (10.0 ** log_noise[0], 10.0 ** log_noise[1])
        pipeline = InstantaneousRegionPipeline(SampleSource.explicit([h]), noise)
        su1, su2 = float(pipeline.su1[0]), float(pipeline.su2[0])
        for r1 in (0.0, u * su1, su1):
            column = float(pipeline.column(r1)[0])
            r2s = [column + k * RATE_SLACK for k in range(-2, 3)] + [0.0, su2]
            for r2 in (r2 for r2 in r2s if r2 >= 0.0):
                wit = is_achievable(h, (r1, r2), noise)
                assert wit.achievable == (classify(h, (r1, r2), noise) is CaseLabel.B)
                for w in (wit.w1, wit.w2):
                    assert np.linalg.norm(w) <= 1.0 + NORM_TOL
                if wit.achievable:
                    assert wit.margin >= -RATE_SLACK - GOLDEN_VALUE_TOL * max(1.0, r2)

    def test_max_r2_batch_consistent_with_slack_oracle(self, rng):
        N, noise = 120, (0.5, 0.8)
        arrs = {k: random_channel_vectors(rng, N, 2) for k in ("h11", "h12", "h21", "h22")}
        F1 = frontier_batch(arrs["h11"], arrs["h12"])
        F2 = frontier_batch(arrs["h22"], arrs["h21"])
        r1 = 0.6 * su_rate_batch(arrs["h11"], noise[0])
        g1 = gamma_from_rate(r1)
        r2_star = max_r2_batch(F1, F2, g1, noise, np.zeros(N, dtype=bool)).refined(True)[0]
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
            r1 = frac * caps
            r2 = max_r2_batch(F1, F2, gamma_from_rate(r1), noise, r1 > caps).refined(True)[0]
            if prev is not None:
                assert np.all(r2 <= prev + 1e-9)
            prev = r2

    def test_max_r2_at_zero_r1_is_su_rate(self, rng):
        noise = (0.9, 1.1)
        for _ in range(10):
            h = random_realization(rng)
            r2 = max_r2_batch(*realization_frontiers(h), 0.0, noise, NONE_EMPTY).refined(True)[0][0]
            assert r2 == pytest.approx(su_rate_batch(h.h22[None, :], noise[1])[0], abs=1e-9)

    def test_infeasible_r1_is_minus_inf(self):
        """r1 above the link-1 single-user rate (1 bit here): an empty column."""
        h = orthogonal_cross_realization()
        bounds = max_r2_batch(*realization_frontiers(h), gamma_from_rate(5.0), (1.0, 1.0),
                              np.ones(1, dtype=bool))
        r2 = bounds.refined(True)[0]
        assert r2[0] == -math.inf

    def test_scalar_matches_batch_decision(self, rng):
        """is_achievable is classify's case B, and its column_margin is the
        column at r1 of the whole batch (bit for bit: a row's column does not
        depend on its batch) minus r2."""
        noise = (0.5, 0.5)
        N = 40
        arrs = {k: random_channel_vectors(rng, N, 2) for k in ("h11", "h12", "h21", "h22")}
        hs = [ChannelRealization(*(arrs[key][k] for key in CHANNEL_KEYS)) for k in range(N)]
        pipeline = InstantaneousRegionPipeline(SampleSource.explicit(hs), noise)
        decisions = []
        for point in ((0.6, 0.4), (2.0, 2.0), (4.0, 0.5)):
            column = pipeline.column(point[0])
            for k, h in enumerate(hs):
                wit = is_achievable(h, point, noise)
                assert wit.achievable == (classify(h, point, noise) is CaseLabel.B)
                assert wit.column_margin == column[k] - point[1]
                assert wit.achievable == (wit.column_margin >= -RATE_SLACK)
                decisions.append(wit.achievable)
        assert any(decisions) and not all(decisions)


DEGENERATE_FAMILIES = ("zero-cross", "aligned", "orthogonal", "rank-1")


def contract_channels(rng, n: int, count: int, family: str = "random") -> dict:
    """Four (count, n) channel arrays drawn from random PSD covariances A A^H,
    then bent into one degenerate family.

    rank-1: every covariance has rank one. zero-cross: h12 vanishes, and h21
    on every other row. aligned: each cross channel is a complex multiple of
    the same transmitter's own channel. orthogonal: each cross channel is
    projected off the own channel (zero when n = 1).
    """
    rank = 1 if family == "rank-1" else n
    arrs = {
        key: random_channel_vectors(rng, count, rank) @ random_channel_vectors(rng, n, rank).T
        for key in CHANNEL_KEYS
    }
    for own, cross in (("h11", "h12"), ("h22", "h21")):
        a, b = arrs[own], arrs[cross]
        if family == "aligned":
            arrs[cross] = random_channel_vectors(rng, count, 1) * a
        elif family == "orthogonal":
            inner = np.sum(a.conj() * b, axis=1) / np.sum(np.abs(a) ** 2, axis=1)
            arrs[cross] = b - inner[:, None] * a
    if family == "zero-cross":
        arrs["h12"][:] = 0.0
        arrs["h21"][::2] = 0.0
    return arrs


def assert_within_contract(value, reference):
    """Same infinite entries; finite ones within GOLDEN_VALUE_TOL * max(1, |ref|)."""
    finite = np.isfinite(reference)
    np.testing.assert_array_equal(value[~finite], reference[~finite])
    scale = np.maximum(1.0, np.abs(reference[finite]))
    err = np.abs(value[finite] - reference[finite]) / scale
    assert np.all(err <= GOLDEN_VALUE_TOL), f"worst scaled error {np.max(err):.3g}"


def column_bracket(F1, F2, g1, noise, exceed1):
    """hi of the column search's bracket [0, hi], written out here:
    transmitter 2 causes at most its matched-filter interference, and little
    enough that link 1 reaches gamma1 at full power; 0 on the empty rows
    exceed1, and clamped at 0 on the others."""
    with np.errstate(divide="ignore", invalid="ignore"):
        top = np.where(g1 > 0.0, F1.p_max / g1 - noise[0], np.inf)
    return np.where(exceed1, 0.0, np.maximum(np.minimum(F2.q_mrt, top), 0.0))


def column_phi(F1, F2, gamma1, q2, noise):
    """The column ratio p2(q2) / (q1min(gamma1 (q2 + sigma1^2)) + sigma2^2)
    from the two frontier kernels."""
    q1min = frontier_qmin_batch(F1, gamma1, q2, noise[0])
    return frontier_signal_batch(F2, q2) / (q1min + noise[1])


def column_oracle(F1, F2, gamma1, noise, exceed1):
    """The column search with no closed-form rows: every row outside exceed1
    is searched over its whole bracket by golden_max. Its phi shares the
    power slack with the kernel; TestIndependentOracle checks that phi
    against a 60-digit evaluation."""
    g1 = np.broadcast_to(np.asarray(gamma1, dtype=float), F1.c.shape)
    hi = column_bracket(F1, F2, g1, noise, exceed1)
    _, phi_max = golden_max(lambda q2: column_phi(F1, F2, g1, q2, noise), np.zeros_like(hi), hi)
    return np.where(exceed1, -np.inf, rate_from_sinr(phi_max))


def check_accuracy_contract(arrs, noise, rng):
    """The column kernel against column_oracle, and the slack's witness
    against both rate targets, at rate points spanning [0, 1.2 x single-user
    rate] of each realization."""
    F1 = frontier_batch(arrs["h11"], arrs["h12"])
    F2 = frontier_batch(arrs["h22"], arrs["h21"])
    su1 = su_rate_batch(arrs["h11"], noise[0])
    su2 = su_rate_batch(arrs["h22"], noise[1])
    draws = [rng.uniform(0.0, 1.2, size=(2, su1.size)) for _ in range(3)]
    # Steep points: r1 just below its ceiling (column kernel) or just above
    # zero with a large r2 (slack kernel) puts the maximizer just below the
    # bracket top, at the square-root singularity of the other link's frontier
    # inverse, where the search converges slowest.
    for _ in range(2):
        near = 10.0 ** rng.uniform(-9.0, -1.0, size=su1.size)
        draws.append((1.0 - near, rng.uniform(0.0, 1.2, size=su1.size)))
        draws.append((near, rng.uniform(0.3, 1.0, size=su1.size)))
    for frac1, frac2 in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 1.0), *draws]:
        r1, r2 = frac1 * su1, frac2 * su2
        gamma1, gamma2 = gamma_from_rate(r1), gamma_from_rate(r2)
        exceed1 = r1 > su1
        assert_within_contract(
            max_r2_batch(F1, F2, gamma1, noise, exceed1).refined(True)[0],
            column_oracle(F1, F2, gamma1, noise, exceed1),
        )
        assert_bounds_hold(F1, F2, gamma1, noise, exceed1, rng)
        g, q1, q2 = achievability_slack_batch(F1, F2, gamma1, gamma2, noise)
        ok = g >= -FEASIBILITY_SLACK
        rate1, rate2 = witness_rates_batch(F1, F2, q1, q2, noise)
        assert np.all(rate1[ok] >= r1[ok] - RATE_SLACK)
        assert np.all(rate2[ok] >= r2[ok] - RATE_SLACK)


class TestAccuracyContract:
    """max_r2_batch (root search) stays within GOLDEN_VALUE_TOL of the exact
    maximum, as column_oracle finds it, and the witness of the slack oracle
    achievability_slack_batch meets both targets wherever the slack says
    feasible."""

    @pytest.mark.parametrize("family", ["random", "rank-1"])
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_random_channels(self, n, family):
        rng = np.random.default_rng(100 + n)
        noise = (float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.05, 2.0)))
        check_accuracy_contract(contract_channels(rng, n, 3000, family), noise, rng)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        family=st.sampled_from(DEGENERATE_FAMILIES),
        n=st.sampled_from([1, 2, 4, 8]),
        seed=st.integers(0, 2**32 - 1),
        noise=st.tuples(st.floats(0.01, 5.0), st.floats(0.01, 5.0)),
    )
    def test_degenerate_families(self, family, n, seed, noise):
        rng = np.random.default_rng(seed)
        check_accuracy_contract(contract_channels(rng, n, 400, family), noise, rng)


def zero_forcing_knee(F1, F2, noise):
    """gamma1 at which transmitter 1's demand at the top of the bracket
    [0, q_mrt2] equals its zero-forcing power d1^2."""
    return F1.d_sq / (F2.q_mrt + noise[0])


def column_inputs(rng, n, count, noise, family="random"):
    """Frontiers of contract_channels and link 1's single-user rates."""
    arrs = contract_channels(rng, n, count, family)
    return (
        frontier_batch(arrs["h11"], arrs["h12"]),
        frontier_batch(arrs["h22"], arrs["h21"]),
        su_rate_batch(arrs["h11"], noise[0]),
    )


class TestColumnSearch:
    """max_r2_batch answers the empty rows it is handed and the zero-forcing
    rows in closed form and searches the rest as a compact batch."""

    @pytest.mark.parametrize("family", ["random", *DEGENERATE_FAMILIES])
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_matches_whole_bracket_search(self, n, family):
        rng = np.random.default_rng(200 + n)
        noise = (float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.05, 2.0)))
        count = 1500
        F1, F2, su1 = column_inputs(rng, n, count, noise, family)
        knee = zero_forcing_knee(F1, F2, noise)
        r1s = [np.zeros(count)] + [f * su1 for f in (1e-3, 1e-2, 0.1, 0.3, 1.0)]
        r1s += [rng.uniform(0.0, 1.2, count) * su1 for _ in range(2)]
        r1s.append((1.0 - 10.0 ** rng.uniform(-9.0, -1.0, count)) * su1)
        columns = [(gamma_from_rate(r1), r1 > su1) for r1 in r1s]
        # Either side of the zero-forcing test, where the closed form ends.
        columns += [(g, above_su_sinr(F1, g, noise))
                    for g in (knee * (1.0 + eta) for eta in (-1e-6, -1e-12, 0.0, 1e-12, 1e-7,
                                                              1e-6, 1e-3))]
        for gamma1, exceed1 in columns:
            r2, q2 = max_r2_batch(F1, F2, gamma1, noise, exceed1).refined(True)
            assert_within_contract(r2, column_oracle(F1, F2, gamma1, noise, exceed1))
            assert_bounds_hold(F1, F2, gamma1, noise, exceed1, rng)
            ok = np.isfinite(r2)
            np.testing.assert_array_equal(q2[~ok], 0.0)
            q1 = frontier_qmin_batch(F1, gamma1, q2, noise[0])
            rate1, rate2 = witness_rates_batch(F1, F2, q1, q2, noise)
            assert np.all(rate1[ok] >= rate_from_sinr(gamma1)[ok] - RATE_SLACK)
            assert np.all(rate2[ok] >= r2[ok] - RATE_SLACK)

    def test_row_does_not_depend_on_its_batch(self):
        rng = np.random.default_rng(11)
        count, noise = 240, (0.4, 0.7)
        arrs = contract_channels(rng, 2, count)
        su1 = su_rate_batch(arrs["h11"], noise[0])
        r1 = rng.uniform(0.0, 1.2, count) * su1
        gamma1, empty = gamma_from_rate(r1), r1 > su1

        def search(index):
            # The column of the given rows, from their sliced channel arrays.
            F1 = frontier_batch(arrs["h11"][index], arrs["h12"][index])
            F2 = frontier_batch(arrs["h22"][index], arrs["h21"][index])
            return max_r2_batch(F1, F2, gamma1[index], noise, empty[index]).refined(True)

        F1 = frontier_batch(arrs["h11"], arrs["h12"])
        F2 = frontier_batch(arrs["h22"], arrs["h21"])
        r2, q2 = max_r2_batch(F1, F2, gamma1, noise, empty).refined(True)
        hi = column_bracket(F1, F2, gamma1, noise, empty)
        zero_forcing = ~empty & (gamma1 * (hi + noise[0]) <= F1.d_sq)
        assert empty.any() and zero_forcing.any() and not (empty | zero_forcing).all()
        rev = np.arange(count)[::-1]
        r2_rev, q2_rev = search(rev)
        np.testing.assert_array_equal(r2_rev[rev], r2)
        np.testing.assert_array_equal(q2_rev[rev], q2)
        for k in range(count):
            r2_k, q2_k = search(np.array([k]))
            assert (r2_k[0], q2_k[0]) == (r2[k], q2[k])

    def test_all_rows_zero_forcing(self):
        rng = np.random.default_rng(12)
        noise = (0.5, 0.8)
        F1, F2, _ = column_inputs(rng, 2, 200, noise)
        empty = np.zeros(200, dtype=bool)
        bounds = max_r2_batch(F1, F2, 0.0, noise, empty)
        assert bounds.searched.size == 0
        with mock.patch.object(rate_core, "_phi_evaluator", side_effect=AssertionError):
            r2, q2 = bounds.refined(True)
        assert_within_contract(r2, column_oracle(F1, F2, 0.0, noise, empty))
        np.testing.assert_array_equal(q2, F2.q_mrt)

    def test_no_row_zero_forcing(self):
        rng = np.random.default_rng(13)
        count, noise = 200, (0.5, 0.8)
        F1, F2, _ = column_inputs(rng, 2, count, noise)
        # Between the zero-forcing knee and the single-user ceiling.
        gamma1 = np.sqrt(zero_forcing_knee(F1, F2, noise) * F1.p_max / noise[0])
        empty = above_su_sinr(F1, gamma1, noise)
        bounds = max_r2_batch(F1, F2, gamma1, noise, empty)
        assert bounds.searched.size == count
        r2, _ = bounds.refined(True)
        assert np.all(np.isfinite(r2))
        assert_within_contract(r2, column_oracle(F1, F2, gamma1, noise, empty))

    def test_all_brackets_empty(self):
        rng = np.random.default_rng(14)
        noise = (0.5, 0.8)
        F1, F2, su1 = column_inputs(rng, 2, 200, noise)
        r1 = su1.max() + 0.1
        bounds = max_r2_batch(F1, F2, gamma_from_rate(r1), noise, r1 > su1)
        assert bounds.searched.size == 0
        with mock.patch.object(rate_core, "_phi_evaluator", side_effect=AssertionError):
            r2, q2 = bounds.refined(True)
        np.testing.assert_array_equal(r2, -np.inf)
        np.testing.assert_array_equal(q2, 0.0)

    @pytest.mark.parametrize("factor", [1.0 - 1e-15, 1.0, 1.0 + 1e-15])
    def test_ulp_width_brackets(self, factor):
        """r1 at the single-user ceiling: every non-empty bracket spans a few
        ulps of link 1's demand, where phi is a rounding staircase. At
        r1 = su1 exactly no row is empty, also where the rounded gamma1
        asks for more than full power: its bracket is [0, 0]."""
        rng = np.random.default_rng(300)
        noise = (0.6, 0.9)
        F1, F2, su1 = column_inputs(rng, 2, 2000, noise)
        r1 = factor * su1
        gamma1, empty = gamma_from_rate(r1), r1 > su1
        hi = column_bracket(F1, F2, gamma1, noise, empty)
        assert np.all(gamma1[~empty] * hi[~empty] <= 32 * EPS * F1.p_max[~empty])
        np.testing.assert_array_equal(empty, factor > 1.0)
        assert_column_contract(F1, F2, gamma1, noise, empty)

    @pytest.mark.parametrize("family2", ["random", "aligned"])
    def test_singular_low_end(self, family2):
        """Transmitter 1's cross channel along its own (d1 = 0): every searched
        bracket starts at L = 0, where p2 rises like sqrt(q2) (c2 > 0); with
        transmitter 2 aligned too (d2 = 0), p2 also vanishes there."""
        rng = np.random.default_rng(301)
        noise = (0.4, 0.7)
        count = 1000
        arrs = contract_channels(rng, 2, count, "random")
        arrs["h12"] = random_channel_vectors(rng, count, 1) * arrs["h11"]
        if family2 == "aligned":
            arrs["h21"] = random_channel_vectors(rng, count, 1) * arrs["h22"]
        F1 = frontier_batch(arrs["h11"], arrs["h12"])
        F2 = frontier_batch(arrs["h22"], arrs["h21"])
        su1 = su_rate_batch(arrs["h11"], noise[0])
        for frac in (1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-6):
            r1 = frac * su1
            gamma1, empty = gamma_from_rate(r1), r1 > su1
            hi = column_bracket(F1, F2, gamma1, noise, empty)
            searched = ~empty & (gamma1 * (hi + noise[0]) > F1.d_sq)
            assert searched.all()
            assert np.all(np.clip(F1.d_sq / gamma1 - noise[0], 0.0, hi) == 0.0)
            assert np.all(F2.c > 0.0)
            assert_column_contract(F1, F2, gamma1, noise, empty)

    def test_singular_high_end(self):
        """r1 just below the single-user ceiling: the bracket top is the
        full-power limit p_max1 / gamma1 - sigma1^2, where link 1's frontier
        inverse has its square-root singularity."""
        rng = np.random.default_rng(302)
        noise = (0.8, 0.5)
        count = 1000
        F1, F2, su1 = column_inputs(rng, 4, count, noise)
        for eta in (1e-12, 1e-9, 1e-6, 1e-3):
            r1 = (1.0 - eta) * su1
            gamma1 = gamma_from_rate(r1)
            assert np.all(F1.p_max / gamma1 - noise[0] < F2.q_mrt)
            assert_column_contract(F1, F2, gamma1, noise, r1 > su1)

    def test_never_calls_golden_max(self):
        """One search path: every searched row takes the root search, also an
        ulp below and at the single-user ceiling, where brackets are a few
        ulps of demand wide, and golden_max is called on no input."""
        rng = np.random.default_rng(303)
        noise = (0.5, 0.8)
        F1, F2, su1 = column_inputs(rng, 2, 500, noise)
        for factor in (0.5, 1.0 - 1e-15, 1.0):
            r1 = factor * su1
            with mock.patch.object(rate_core, "golden_max", side_effect=AssertionError):
                bounds = max_r2_batch(F1, F2, gamma_from_rate(r1), noise, r1 > su1)
                r2, _ = bounds.refined(True)
            assert bounds.searched.size > 0
            assert np.isfinite(r2).any()

    @pytest.mark.parametrize("eta", [0.0, 1e-15, 1e-12, 1e-9])
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_witness_near_the_ceiling(self, n, eta):
        """At r1 = su1 (1 - eta), transmitter 2 at the column's maximizer and
        transmitter 1 at its frontier inverse (the operating point of
        InstantaneousRegionPipeline.witness_rates) reach r1 and the column's
        r2 within RATE_SLACK: the kernel and the inverse share one slack."""
        rng = np.random.default_rng(305 + n)
        noise = (float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.05, 2.0)))
        F1, F2, su1 = column_inputs(rng, n, 2000, noise)
        r1 = (1.0 - eta) * su1
        gamma1 = gamma_from_rate(r1)
        r2, q2 = max_r2_batch(F1, F2, gamma1, noise, r1 > su1).refined(True)
        ok = np.isfinite(r2)
        assert ok.sum() > 500
        q1 = frontier_qmin_batch(F1, gamma1, q2, noise[0])
        rate1, rate2 = witness_rates_batch(F1, F2, q1, q2, noise)
        assert np.all(rate1[ok] >= r1[ok] - RATE_SLACK)
        assert np.all(rate2[ok] >= r2[ok] - RATE_SLACK)

    @pytest.mark.parametrize("family", ["random", "aligned"])
    @pytest.mark.parametrize("r1", [1e-310, 5e-324])
    def test_subnormal_r1(self, family, r1):
        """gamma1 subnormal: p_max1 / gamma1 overflows, which is no cap on the
        bracket, and the column is link 2's single-user rate up to rounding,
        with no RuntimeWarning on the way."""
        rng = np.random.default_rng(304)
        noise = (0.5, 0.8)
        arrs = contract_channels(rng, 2, 300, family)
        F1 = frontier_batch(arrs["h11"], arrs["h12"])
        F2 = frontier_batch(arrs["h22"], arrs["h21"])
        gamma1 = float(gamma_from_rate(r1))
        assert 0.0 < gamma1 < np.finfo(float).tiny
        r2 = max_r2_batch(F1, F2, gamma1, noise, np.zeros(300, dtype=bool)).refined(True)[0]
        assert_within_contract(r2, su_rate_batch(arrs["h22"], noise[1]))
        g_max, _, _ = achievability_slack_batch(F1, F2, gamma1, 0.0, noise)
        assert np.all(np.isfinite(g_max))


def assert_column_contract(F1, F2, gamma1, noise, exceed1):
    """The column search within the contract of column_oracle, and its
    maximizer a witness of both rates."""
    r2, q2 = max_r2_batch(F1, F2, gamma1, noise, exceed1).refined(True)
    assert_within_contract(r2, column_oracle(F1, F2, gamma1, noise, exceed1))
    ok = np.isfinite(r2)
    q1 = frontier_qmin_batch(F1, gamma1, q2, noise[0])
    rate1, rate2 = witness_rates_batch(F1, F2, q1, q2, noise)
    assert np.all(rate1[ok] >= rate_from_sinr(gamma1)[ok] - RATE_SLACK)
    assert np.all(rate2[ok] >= r2[ok] - RATE_SLACK)


def bound_gammas(rng, F1, F2, su1, noise) -> list:
    """(gamma1, exceed1) columns like those of TestAccuracyContract and
    TestColumnSearch: r1 = 0, fixed and random fractions of su1, steep
    points 1e-15..1e-1 below it, at and an ulp either side of it, and the
    zero-forcing knee times 1 + eta."""
    count = su1.size
    fracs = [np.zeros(count), *(np.full(count, f) for f in (1e-3, 1e-2, 0.1, 0.3, 1.0))]
    fracs += [rng.uniform(0.0, 1.2, count) for _ in range(2)]
    fracs += [1.0 - 10.0 ** rng.uniform(-15.0, -1.0, count) for _ in range(2)]
    fracs += [np.full(count, f) for f in (1.0 - 1e-15, 1.0 + 1e-15)]
    knees = [zero_forcing_knee(F1, F2, noise) * (1.0 + eta)
             for eta in (-1e-6, -1e-12, 0.0, 1e-12, 1e-7, 1e-6, 1e-3)]
    return [(gamma_from_rate(f * su1), f * su1 > su1) for f in fracs] + [
        (knee, above_su_sinr(F1, knee, noise)) for knee in knees
    ]


def assert_bounds_hold(F1, F2, gamma1, noise, exceed1, rng):
    """lower <= the column value <= upper bit for bit, both equal to it (and
    q2 to its maximizer) on the rows answered in closed form, and a refine
    of a random subset of the searched rows bit-equal to the full search on
    that subset and to the lower bound (and the bracket's q2) elsewhere."""
    bounds = max_r2_batch(F1, F2, gamma1, noise, exceed1)
    values, q2 = bounds.refined(True)
    assert np.all(bounds.lower <= values)
    assert np.all(values <= bounds.upper)
    closed = np.ones(values.size, dtype=bool)
    closed[bounds.searched] = False
    for bound in (bounds.lower, bounds.upper):
        np.testing.assert_array_equal(bound[closed], values[closed])
    np.testing.assert_array_equal(bounds.q2[closed], q2[closed])
    which = rng.random(bounds.searched.size) < 0.3
    refined, refined_q2 = bounds.refined(which)
    rows = np.zeros(values.size, dtype=bool)
    rows[bounds.searched[which]] = True
    np.testing.assert_array_equal(refined[rows], values[rows])
    np.testing.assert_array_equal(refined_q2[rows], q2[rows])
    np.testing.assert_array_equal(refined[~rows], bounds.lower[~rows])
    np.testing.assert_array_equal(refined_q2[~rows], bounds.q2[~rows])
    return bounds.searched.size


class TestColumnBounds:
    """max_r2_batch's bracket stage bounds every column value from both
    sides, bit for bit: lower is the better bracket end through the search's
    own evaluate, upper the closed form p2(H) / sigma2^2 plus UPPER_MARGIN
    (derived at its definition). TestAccuracyContract and TestColumnSearch
    check the bounds on all their columns; these tests add extreme noise and
    the tiny-noise region. Without the margin the kernel's value passes the
    closed form, by rounding, on the random and rank-1 families."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        family=st.sampled_from(["random", *DEGENERATE_FAMILIES]),
        n=st.sampled_from([1, 2, 4, 8]),
        seed=st.integers(0, 2**32 - 1),
        noise=st.tuples(*[st.sampled_from([1e-300, 1e-6, 0.3, 1.0, 1e6]) | st.floats(0.01, 5.0)]
                        * 2),
    )
    def test_degenerate_families_and_noise(self, family, n, seed, noise):
        rng = np.random.default_rng(seed)
        F1, F2, su1 = column_inputs(rng, n, 200, noise, family)
        for gamma1, exceed1 in bound_gammas(rng, F1, F2, su1, noise):
            assert_bounds_hold(F1, F2, gamma1, noise, exceed1, rng)

    def test_tiny_noise_region(self):
        """The columns of the 1000-bit region at noise 1e-300 (demo
        statistics, 1500 samples, seed 4, r1 = 0..1000 bits)."""
        stream = SampleSource.gaussian(demo_statistics(), seed=4, count=1500).arrays()
        noise = (1e-300, 1e-300)
        F1 = frontier_batch(stream["h11"], stream["h12"])
        F2 = frontier_batch(stream["h22"], stream["h21"])
        rng = np.random.default_rng(401)
        su1 = su_rate_batch(stream["h11"], noise[0])
        searched = sum(assert_bounds_hold(F1, F2, gamma_from_rate(r1), noise, r1 > su1, rng)
                       for r1 in np.linspace(0.0, 1000.0, 8))
        assert searched > 0

    def test_overflowing_derivative_factor(self):
        """Noise 1e-300, n = 8, r1 an ulp below su1: k = gamma1 b1 b2 / p1
        overflows on rows 164 and 934, where the search once returned NaN.
        Their values are within the contract of column_oracle, the bounds
        hold, and no RuntimeWarning is raised (the suite makes one an
        error)."""
        noise = (1e-300, 1e-300)
        arrs = contract_channels(np.random.default_rng(3008), 8, 1500, "random")
        F1 = frontier_batch(arrs["h11"], arrs["h12"])
        F2 = frontier_batch(arrs["h22"], arrs["h21"])
        gamma1 = gamma_from_rate((1.0 - 1e-15) * su_rate_batch(arrs["h11"], noise[0]))
        empty = np.zeros(1500, dtype=bool)
        rows = np.array([164, 934])
        with np.errstate(over="ignore"):
            assert np.all(np.isinf(gamma1[rows] * F1.b_norm_sq[rows] * F2.safe_bsq[rows]
                                   / F1.p_max[rows]))
        r2 = max_r2_batch(F1, F2, gamma1, noise, empty).refined(True)[0]
        oracle = column_oracle(F1, F2, gamma1, noise, empty)
        assert_within_contract(r2[rows], oracle[rows])
        assert_within_contract(r2, oracle)
        assert_bounds_hold(F1, F2, gamma1, noise, empty, np.random.default_rng(402))

    @pytest.mark.parametrize("where", ["zero r1", "r1 above every su1"])
    def test_column_with_no_searched_row(self, where):
        """Every row in closed form (all zero-forcing at gamma1 = 0, all
        brackets empty above every su1): no evaluate is built, and lower,
        upper and the exact column are equal bit for bit."""
        noise = (0.5, 0.8)
        F1, F2, su1 = column_inputs(np.random.default_rng(15), 2, 300, noise)
        r1 = 0.0 if where == "zero r1" else su1.max() + 0.1
        with mock.patch.object(rate_core, "_phi_evaluator",
                               side_effect=AssertionError) as build:
            bounds = max_r2_batch(F1, F2, gamma_from_rate(r1), noise, r1 > su1)
            values, q2 = bounds.refined(True)
            lower, upper = bounds.lower, bounds.upper
        build.assert_not_called()
        assert bounds.searched.size == 0
        np.testing.assert_array_equal(lower, values)
        np.testing.assert_array_equal(upper, values)
        np.testing.assert_array_equal(q2, bounds.q2)
        assert np.all(np.isfinite(values)) == (where == "zero r1")

    def test_refine_of_no_row_changes_nothing(self):
        """Refining an empty selection runs no evaluation and gives the
        lower bound and the bracket's q2; the bracket stage is left as it
        was, so the exact column after it is the one before it."""
        noise = (0.5, 0.8)
        F1, F2, su1 = column_inputs(np.random.default_rng(16), 4, 400, noise)
        bounds = max_r2_batch(F1, F2, gamma_from_rate(0.6 * su1), noise, np.zeros(400, dtype=bool))
        assert bounds.searched.size > 0
        exact = bounds.refined(True)
        stage = [getattr(bounds, name).copy()
                 for name in ("top", "q2", "lo", "width", "best", "y1", "f0", "f1")]
        with mock.patch.object(rate_core, "_phi_evaluator", side_effect=AssertionError):
            values, q2 = bounds.refined(False)
        np.testing.assert_array_equal(values, bounds.lower)
        np.testing.assert_array_equal(q2, bounds.q2)
        assert np.all(values <= exact[0]) and np.any(values < exact[0])
        for before, name in zip(stage, ("top", "q2", "lo", "width", "best", "y1", "f0", "f1")):
            np.testing.assert_array_equal(getattr(bounds, name), before)
        for after, before in zip(bounds.refined(True), exact):
            np.testing.assert_array_equal(after, before)


def decimal_phi(F1, F2, k: int, gamma1: float, q2: float, noise) -> Decimal:
    """phi of row k at q2 to 60 digits (stdlib decimal), taking the float
    frontier fields, gamma1, q2 and the noise as exact: the frontier inverse
    and the frontier written out with the slack p1 - t formed directly,
    independently of rate_core._demand_slack."""
    with localcontext() as ctx:
        ctx.prec = 60
        c1, d1, b1, p1, m1, dsq1 = (
            Decimal(float(getattr(F1, name)[k]))
            for name in ("c", "d", "b_norm_sq", "p_max", "q_mrt", "d_sq")
        )
        c2, d2, b2, p2, m2 = (
            Decimal(float(getattr(F2, name)[k]))
            for name in ("c", "d", "b_norm_sq", "p_max", "q_mrt")
        )
        q = Decimal(q2)
        t = Decimal(gamma1) * (q + Decimal(noise[0]))
        if t <= dsq1 or F1.degenerate[k]:
            q1min = Decimal(0)
        else:
            s = min(t, p1).sqrt()
            w = max(p1 - t, Decimal(0)).sqrt()
            u = max((s * c1 - d1 * w) / p1, Decimal(0))
            q1min = min(u * u * b1, m1)
        if F2.degenerate[k]:
            signal = p2
        else:
            x = min(max(min(q, m2) / b2, Decimal(0)), Decimal(1))
            amp = c2 * x.sqrt() + d2 * (1 - x).sqrt()
            signal = amp * amp
        return signal / (q1min + Decimal(noise[1]))


def relative_error(value: float, exact: Decimal) -> float:
    return float(abs(Decimal(float(value)) - exact) / exact)


class TestIndependentOracle:
    """column_oracle's phi shares the power slack with the kernel, so both
    are checked here against decimal_phi, which does not."""

    PHI_TOL = 1e-14

    def test_phi_against_decimal(self):
        """Float phi within 1e-14 (relative) of decimal_phi at the ends and
        three interior points of each searched bracket [L, H], with r1 at the
        single-user ceiling and 1e-15 to 1e-3 (relative) below it, where the
        frontier inverse magnifies the slack's error; and the kernel's own
        maximum at its maximizer, as the exact column returns them."""
        rng = np.random.default_rng(306)
        noise = (0.6, 0.9)
        count = 30
        F1, F2, su1 = column_inputs(rng, 2, count, noise)
        below = [1.0 - 10.0 ** rng.uniform(-15.0, -3.0, count) for _ in range(2)]
        fracs = [np.ones(count), *below]
        pairs = 0
        for frac in fracs:
            gamma1, empty = gamma_from_rate(frac * su1), frac * su1 > su1
            hi = column_bracket(F1, F2, gamma1, noise, empty)
            rows = np.flatnonzero(~empty & (gamma1 * (hi + noise[0]) > F1.d_sq))
            lo = np.clip(F1.d_sq / gamma1 - noise[0], 0.0, hi)
            for pos in (0.0, 0.1, 0.5, 0.9, 1.0):
                q2 = lo + pos * (hi - lo)
                phi = column_phi(F1, F2, gamma1, q2, noise)
                for k in rows:
                    exact = decimal_phi(F1, F2, k, float(gamma1[k]), float(q2[k]), noise)
                    assert relative_error(phi[k], exact) <= self.PHI_TOL, (k, pos)
                    pairs += 1
            bounds = max_r2_batch(F1, F2, gamma1, noise, empty)
            np.testing.assert_array_equal(bounds.searched, rows)
            # The Illinois stage's maximum and maximizer on every searched
            # row, which the exact column returns bit for bit.
            q_star, phi_star = bounds._illinois(np.ones(rows.size, dtype=bool), rows)
            values, q2 = bounds.refined(True)
            np.testing.assert_array_equal(q2[rows], q_star)
            np.testing.assert_array_equal(values[rows], rate_from_sinr(phi_star))
            for j, k in enumerate(rows):
                exact = decimal_phi(F1, F2, k, float(gamma1[k]), float(q_star[j]), noise)
                assert relative_error(phi_star[j], exact) <= self.PHI_TOL, k
        assert pairs >= 300


LARGEST_GAMMA = float(gamma_from_rate(np.nextafter(1024.0, 0.0)))


class TestExactProduct:
    """_two_product is Dekker's two-product behind the power slack, split
    at the significands so that extreme factors do not overflow."""

    GAMMAS = [5e-324, 2.0**-1022, 1.0, 2.0**1000, LARGEST_GAMMA]
    SIGMAS = [5e-324, 0.5, 1e300, 1.7e308]

    @staticmethod
    def check(a: float, b: float):
        """high = fl(a b) and high + low = a b exactly where a b is normal;
        an overflow leaves high = inf and low = 0."""
        high, low = _two_product(np.array([a]), b)
        exact = Fraction(a) * Fraction(b)
        if exact > Fraction(np.finfo(float).max):
            assert (high[0], low[0]) == (np.inf, 0.0)
        elif exact >= Fraction(np.finfo(float).tiny):
            assert high[0] == a * b
            assert Fraction(float(high[0])) + Fraction(float(low[0])) == exact

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("sigma_sq", SIGMAS)
    def test_extremes(self, gamma, sigma_sq):
        assert LARGEST_GAMMA < np.finfo(float).max
        self.check(gamma, sigma_sq)

    def test_full_significands(self):
        """Factors with full 53-bit significands, whose products have a
        nonzero low part, across the exponent range where low is normal."""
        rng = np.random.default_rng(307)
        for _ in range(2000):
            ea, eb = rng.integers(-1070, 1023, size=2)
            if not -960 <= ea + eb <= 1020:
                continue
            a = math.ldexp(float(rng.uniform(1.0, 2.0)), int(ea))
            b = math.ldexp(float(rng.uniform(1.0, 2.0)), int(eb))
            self.check(a, b)
        a = rng.uniform(1.0, 2.0, 100) * 2.0**1000
        high, low = _two_product(a, 0.7)
        assert np.any(low != 0.0)
        for ai, high_i, low_i in zip(a, high, low):
            exact = Fraction(float(ai)) * Fraction(0.7)
            assert Fraction(float(high_i)) + Fraction(float(low_i)) == exact
