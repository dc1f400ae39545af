import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from miso_outage import stat_csi
from miso_outage.channel import ChannelStatistics, SampleSource
from miso_outage.regions import OutageSpec, non_dominated_points
from miso_outage.stat_csi import (
    StatRegionSearch,
    _invert_success,
    _rates_for_success,
    _success,
    draw_beamformer_pairs,
    success_probability,
)

from conftest import random_psd
from oracles import stat_common_boundary, stat_common_curves, stat_member_mc


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
        search = StatRegionSearch(diag_stats(), [[0.0, 1.0]], [[1.0, 0.0]])
        pi1, pi2 = search.pair_success_all(0.0, 0.0)
        assert (pi1[0], pi2[0]) == (1.0, 1.0)

    def test_zero_signal_mean(self):
        assert success_probability(0.5, 0.0, 1.0, 1.0) == 0.0

    def test_vectorized_broadcast(self):
        gamma = np.array([0.0, 1.0, 2.0])
        out = success_probability(gamma, 1.0, 1.0, 0.0)
        np.testing.assert_allclose(out, [1.0, 0.5, 1.0 / 3.0])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        data=st.data(),
        size=st.integers(1, 40),
        sigma_sq=st.sampled_from([1e-300, 1e-6, 0.5, 1e6, 1e300]) | st.floats(1e-3, 1e3),
    )
    def test_guards_change_no_bit_of_positive_inputs(self, data, size, sigma_sq):
        """Where every gamma and mean is positive the guards select nothing:
        the result equals, bit for bit, the bare formula that the inversion
        evaluates (_success) and the guarded formula written out here. With
        one zero gamma or zero mean it equals the guarded formula."""
        positive = st.floats(1e-300, 1e300) | st.sampled_from([2.0 ** -101, 1.0, 2.0 ** 1023])
        gamma, s = (np.array(data.draw(st.lists(positive, min_size=size, max_size=size)))
                    for _ in range(2))
        t = np.array(data.draw(st.lists(st.floats(0.0, 1e300), min_size=size, max_size=size)))

        def guarded(gamma, s):
            safe_s = np.where(s > 0.0, s, 1.0)
            safe_g = np.where(gamma > 0.0, gamma, 0.0)
            pi = np.exp(-safe_g * sigma_sq / safe_s) * safe_s / (safe_s + safe_g * t)
            return np.where(gamma <= 0.0, 1.0, np.where(s > 0.0, pi, 0.0))

        with np.errstate(over="ignore", invalid="ignore"):
            got = success_probability(gamma, s, t, sigma_sq)
            np.testing.assert_array_equal(got, _success(gamma, s, t, sigma_sq))
            np.testing.assert_array_equal(got, guarded(gamma, s))
            for zeroed in (gamma, s):
                zeroed[size // 2] = 0.0
                np.testing.assert_array_equal(success_probability(gamma, s, t, sigma_sq),
                                              guarded(gamma, s))

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
        search = StatRegionSearch(diag_stats(), [[1.0, 0.0]], [[1.0, 0.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            search.member_any(-0.1, 0.2, OutageSpec.common(0.1))

    def test_model_validation(self):
        """The means are quadratic forms of the covariances: a covariance with
        a negative one is rejected when the evaluator is built."""
        stats = diag_stats(q21=(-1.0, 0.5))
        with pytest.raises(ValueError, match="negative"):
            StatRegionSearch(stats, [[1.0, 0.0]], [[1.0, 0.0]])


class TestEffectiveMeans:
    def test_link_wiring(self):
        search = StatRegionSearch(diag_stats(), [[1.0, 0.0]], [[0.0, 1.0]])
        assert search.s1[0] == pytest.approx(2.0)
        assert search.t1[0] == pytest.approx(0.7)
        assert search.s2[0] == pytest.approx(0.5)
        assert search.t2[0] == pytest.approx(0.2)

    def test_eigenvector_maximizes_mean(self):
        stats = diag_stats()
        rng = np.random.default_rng(0)
        W = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
        W /= np.linalg.norm(W, axis=1, keepdims=True)
        W1 = np.vstack([[1.0, 0.0], W])
        search = StatRegionSearch(stats, W1, np.tile([1.0, 0.0], (51, 1)))
        assert np.all(search.s1[1:] <= search.s1[0] + 1e-12)

    def test_zero_beamformer(self):
        stats = diag_stats()
        search = StatRegionSearch(stats, [[0.0, 0.0]], [[0.0, 0.0]])
        assert search.s1[0] == 0.0 and search.s2[0] == 0.0
        pi1, pi2 = search.pair_success_all(0.5, 0.5)
        assert (pi1[0], pi2[0]) == (0.0, 0.0)


class TestInversion:
    def test_round_trip(self):
        r = _rates_for_success(1.8, 0.6, 0.9, np.array([0.9]))
        assert r[0] > 0.0
        pi = success_probability(np.expm1(r * math.log(2.0)), 1.8, 0.6, 0.9)
        assert pi[0] == pytest.approx(0.9, abs=1e-9)

    def test_target_one_gives_zero_rate(self):
        r = _rates_for_success(np.array([1.0, 0.0]), 1.0, 1.0, np.array([1.0, 1.0]))
        assert r.tolist() == [0.0, 0.0]

    def test_zero_signal_gives_zero_rate(self):
        r = _rates_for_success(np.array([0.0, 0.0]), 1.0, 1.0, np.array([0.5, 0.9]))
        assert r.tolist() == [0.0, 0.0]

    def test_no_interference_closed_form(self):
        """With t_bar = 0 the inverse is gamma = -s_bar ln(target) / sigma^2."""
        targets = np.array([0.5, 0.8, 0.99])
        r = _rates_for_success(2.0, 0.0, 0.5, targets)
        gamma_expect = -2.0 * np.log(targets) / 0.5
        np.testing.assert_allclose(r, np.log2(1.0 + gamma_expect), rtol=0, atol=1e-9)


def invert_success_oracle(s_bar, t_bar, sigma_sq, targets):
    """Every element doubles at most 200 times, then takes all 100 bisection
    steps. Returns (gamma, capped); capped is True when some element still
    met its target after the 200th doubling."""
    targets = np.asarray(targets, dtype=float)
    s = np.broadcast_to(np.asarray(s_bar, dtype=float), targets.shape).copy()
    t = np.broadcast_to(np.asarray(t_bar, dtype=float), targets.shape)
    gamma = np.zeros(targets.shape)
    alive = (s > 0.0) & (targets < 1.0)
    hi = np.ones(targets.shape)
    capped = True
    for _ in range(200):
        below = alive & (success_probability(hi, s, t, sigma_sq) >= targets)
        if not below.any():
            capped = False
            break
        hi = np.where(below, 2.0 * hi, hi)
    lo = np.zeros(targets.shape)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        ok = success_probability(mid, s, t, sigma_sq) >= targets
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    return np.where(alive, lo, gamma), capped


MEANS = st.sampled_from([0.0, 1e-300, 1e-12, 0.3, 1.0, 4.2, 1e12]) | st.floats(0.0, 10.0)
TARGETS = st.sampled_from([1.0, 1.0 - 2.0 ** -53, 0.9, 0.5, 1e-3]) | st.floats(1e-6, 1.0)
NOISES = st.sampled_from([1e-300, 1e-30, 1e-6, 0.5, 1e6, 1e30, 1e300]) | st.floats(1e-3, 1e3)


class TestInversionOracle:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        m=st.integers(1, 6),
        k=st.integers(1, 5),
        per_row=st.booleans(),
        sigma_sq=NOISES,
        per_element_noise=st.booleans(),
        data=st.data(),
    )
    def test_equals_full_bisection(self, m, k, per_row, sigma_sq, per_element_noise, data):
        """Dropping settled elements changes no bit: equal to the full
        100-step bisection for (m, 1) means against (m, k) targets and for
        (m, k) means, including zero means, targets 1 and 1 - 2^-53, and
        noise from 1e-300 to 1e300, one noise power for all elements or an
        (m, k) array of them. Huge noise over a tiny mean overflows the
        exponent's argument to -inf, which gives the right success 0; that
        warning is not what this test checks."""
        mean_shape = (m, 1) if per_row else (m, k)
        s = np.array(data.draw(st.lists(MEANS, min_size=m * mean_shape[1],
                                        max_size=m * mean_shape[1]))).reshape(mean_shape)
        t = np.array(data.draw(st.lists(MEANS, min_size=s.size, max_size=s.size))).reshape(mean_shape)
        targets = np.array(data.draw(st.lists(TARGETS, min_size=m * k, max_size=m * k))).reshape(m, k)
        if per_element_noise:
            sigma_sq = np.array(data.draw(st.lists(NOISES, min_size=m * k,
                                                   max_size=m * k))).reshape(m, k)
        with np.errstate(over="ignore"):
            expect, capped = invert_success_oracle(s, t, sigma_sq, targets)
            assume(not capped)
            got = _invert_success(s, t, sigma_sq, targets)
        assert got.shape == (m, k)
        np.testing.assert_array_equal(got, expect)

    def test_pruned_elements_leave_the_others_bits(self):
        """A pruning callback sees each live element's flat index and a
        bracket [lo, hi] holding its final gamma, after bisection steps 6,
        12 and 24 only. The elements it drops come back NaN, and every other
        element keeps the bits of the unpruned inversion, here for every
        drop pattern of three seeded rounds."""
        rng = np.random.default_rng(5)
        s = rng.uniform(0.1, 4.0, (40, 1))
        t = rng.uniform(0.0, 2.0, (40, 1))
        targets = rng.uniform(0.05, 1.0, (40, 9))
        targets[::7] = 1.0
        sigma_sq = rng.uniform(0.1, 2.0, (40, 9))
        expect = _invert_success(s, t, sigma_sq, targets)
        seen = []

        def prune(index, lo, hi):
            assert np.all(index[1:] > index[:-1])
            final = expect.flat[index]
            assert np.all((lo <= final) & (final <= hi))
            seen.append(index.size)
            return rng.random(index.size) < 0.3

        got = _invert_success(s, t, sigma_sq, targets, prune)
        assert len(seen) == 3 and seen[0] > seen[1] > seen[2] > 0
        dropped = np.isnan(got)
        assert dropped.any() and not dropped[::7].any()
        np.testing.assert_array_equal(got[~dropped], expect[~dropped])

    def test_unsettled_elements_take_all_steps(self, monkeypatch):
        """Target 1 - 2^-53 puts gamma near 1e-16, below the resolution of
        100 halvings of [0, 1]: those two elements are evaluated in every
        step, while the other two leave the working set once they settle."""
        sizes = []
        real = stat_csi._success

        def recording(gamma, *args):
            sizes.append(np.size(gamma))
            return real(gamma, *args)

        monkeypatch.setattr(stat_csi, "_success", recording)
        s = np.array([1.8, 2.5, 3.0, 4.2])
        targets = np.array([1.0 - 2.0 ** -53, 0.9, 0.5, 1.0 - 2.0 ** -53])
        got = _invert_success(s, 0.4, 0.5, targets)
        monkeypatch.undo()
        expect, _ = invert_success_oracle(s, 0.4, 0.5, targets)
        np.testing.assert_array_equal(got, expect)
        steps = sizes[-100:]
        assert steps[0] == 4 and steps[-1] == 2 and sum(steps) < 400

    def test_tiny_noise_keeps_doubling_past_200(self):
        """With t = 0 the inverse is -s ln(target) / sigma^2, about 2^995 at
        noise 1e-300: doubling goes on past 2^200 to bracket it."""
        s = np.array([1.8, 4.2])
        gamma = _invert_success(s, 0.0, 1e-300, np.array([0.9, 0.9]))
        np.testing.assert_allclose(gamma, -s * math.log(0.9) / 1e-300, rtol=1e-13)
        rates = _rates_for_success(s, 0.0, 1e-300, np.array([0.9, 0.9]))
        assert np.all((994.0 < rates) & (rates < 996.0))

    def test_rate_beyond_the_float_range_raises(self):
        with pytest.raises(ValueError, match=r"noise power 5e-324"):
            _invert_success(np.array([3.0, 1.0]), 0.0, 5e-324, np.array([0.9, 0.5]))


class TestMembership:
    def test_member_against_hand_values(self):
        """Interference-free diagonal setup: pi_i = exp(-gamma)."""
        stats = diag_stats(q11=(1.0, 1.0), q21=(0.0, 0.0), q22=(1.0, 1.0), q12=(0.0, 0.0))
        w1, w2 = np.array([1.0, 0.0]), np.array([1.0, 0.0])
        gamma = -math.log(0.95)
        r = math.log2(1.0 + gamma)
        pair = StatRegionSearch(stats, [w1], [w2])
        pi1, pi2 = pair.pair_success_all(r, r)
        assert pi1[0] == pytest.approx(0.95, abs=1e-12)
        assert pi2[0] == pytest.approx(0.95, abs=1e-12)
        assert pair.member_any(r, r, OutageSpec.common(0.1))
        assert not pair.member_any(r, r, OutageSpec.common(0.09))
        assert pair.member_any(r, r, OutageSpec.individual(0.05, 0.05))
        assert not pair.member_any(r, r, OutageSpec.individual(0.04, 0.05))

    def test_beamformer_norm_enforced(self):
        stats = diag_stats()
        with pytest.raises(ValueError, match="norm"):
            StatRegionSearch(stats, [[2.0, 0.0]], [[1.0, 0.0]])

    @pytest.mark.parametrize(
        "point", [(-1.0, -1.0), (0.2, -1e-12), (math.nan, 0.2), (0.2, math.inf)],
        ids=["negative", "slightly-negative", "nan", "inf"],
    )
    def test_invalid_rate_points_rejected(self, demo_stats, point):
        w1 = np.array([1.0, 0.0], dtype=complex)
        w2 = np.array([0.0, 1.0], dtype=complex)
        spec = OutageSpec.individual(0.1, 0.1)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            StatRegionSearch(demo_stats, [w1], [w2]).member_any(*point, spec)
        source = SampleSource.gaussian(demo_stats, seed=3, count=100)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            stat_member_mc(demo_stats, np.outer(w1, w1.conj()), np.outer(w2, w2.conj()),
                           point, spec, source)

    def test_mc_matches_closed_form(self, demo_stats):
        w1 = np.array([1.0, 0.0], dtype=complex)
        w2 = np.array([0.0, 1.0], dtype=complex)
        point = (0.4, 0.3)
        pi1, pi2 = StatRegionSearch(demo_stats, [w1], [w2]).pair_success_all(*point)
        pi1, pi2 = float(pi1[0]), float(pi2[0])
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
    return StatRegionSearch(demo_stats, *draw_beamformer_pairs(2, 24, seed=2))


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
            pair = StatRegionSearch(demo_stats, search.W1[i:i + 1], search.W2[i:i + 1])
            assert pair.member_any(p.r1 - 1e-9, p.r2 - 1e-9, spec)

    @pytest.mark.parametrize(
        "spec", [OutageSpec.common(0.1), OutageSpec.individual(0.1, 0.1)],
        ids=["common", "individual"],
    )
    def test_boundary_is_union_of_single_pair_boundaries(self, demo_stats, spec):
        """All pairs evaluated in one batch give, bit for bit, the non-dominated
        points of the single-pair boundaries. Pair 3 has a zero beamformer on
        transmitter 1, so it has no signal on link 1 and its r1 range has zero
        width. 40 curve points: a grid step of edge / 39 rounds, unlike
        edge / 64 at the default 65."""
        W1, W2 = draw_beamformer_pairs(2, 12, seed=5)
        W1[3] = 0.0
        full = StatRegionSearch(demo_stats, W1, W2, curve_points=40)
        assert full.s1[3] == 0.0
        union = []
        for i in range(12):
            single = StatRegionSearch(demo_stats, W1[i:i + 1], W2[i:i + 1], curve_points=40)
            for p in single.boundary(spec).points:
                union.append((p.r1, p.r2, {**p.payload, "pair_index": i}))
        kept = non_dominated_points([(r1, r2) for r1, r2, _ in union])
        expect = [union[j] for j in kept]
        got = [(p.r1, p.r2, p.payload) for p in full.boundary(spec).points]
        assert len(got) > 1
        assert got == expect

    def test_scalar_calls_are_one_row_evaluators(self, demo_stats):
        """A single pair is a one-row evaluator: its success probabilities and
        membership on (W1[i], W2[i]) equal row i of a 64-pair evaluator bit
        for bit, including a zero-signal row."""
        W1, W2 = draw_beamformer_pairs(2, 64, seed=7)
        W1[5] = 0.0
        W2[40] = 0.0
        search = StatRegionSearch(demo_stats, W1, W2)
        common, individual = OutageSpec.common(0.1), OutageSpec.individual(0.1, 0.2)
        points = ((0.0, 0.0), (0.2, 0.2), (0.5, 0.05), (0.3, 0.7), (1.1, 0.2), (2.5, 2.5))
        for point in points:
            pi1, pi2 = search.pair_success_all(*point)
            for i in range(64):
                pair = StatRegionSearch(demo_stats, W1[i:i + 1], W2[i:i + 1])
                one1, one2 = pair.pair_success_all(*point)
                np.testing.assert_array_equal(one1, pi1[i:i + 1])
                np.testing.assert_array_equal(one2, pi2[i:i + 1])
                assert pair.member_any(*point, common) == bool(pi1[i] * pi2[i] >= 0.9)
                assert pair.member_any(*point, individual) == bool(
                    pi1[i] >= 0.9 and pi2[i] >= 0.8
                )
            assert pi1[5] == (1.0 if point[0] == 0.0 else 0.0)
            assert pi2[40] == (1.0 if point[1] == 0.0 else 0.0)

    def test_empty_candidate_set(self, demo_stats):
        """No pairs: empty boundaries, no member point, no column."""
        W1, W2 = draw_beamformer_pairs(2, 4, seed=1)
        search = StatRegionSearch(demo_stats, W1[:0], W2[:0])
        assert search.s1.shape == search.t2.shape == (0,)
        for spec in (OutageSpec.common(0.1), OutageSpec.individual(0.1, 0.2)):
            boundary = search.boundary(spec)
            assert boundary.points == [] and boundary.warnings == []
            assert boundary.metadata["n_pairs"] == 0
            assert not search.member_any(0.0, 0.0, spec)
            assert not search.member_any(0.2, 0.1, spec)
            assert search.column_height(0.0, spec) == -math.inf

    def test_pareto_filter_sees_the_survivors(self, demo_stats, monkeypatch):
        """The common boundary makes one Pareto filter call, the counts a
        benchmark trace reads from non_dominated_points' argument and result.
        Its argument holds the curve points that survive pruning: rows of the
        full 64 x 65 grid, bit for bit, fewer than all of them. Its result is
        exactly the boundary's points."""
        calls = []
        real = stat_csi.non_dominated_points

        def recording(points):
            result = real(points)
            calls.append((np.array(points), result))
            return result

        monkeypatch.setattr(stat_csi, "non_dominated_points", recording)
        search = StatRegionSearch(demo_stats, *draw_beamformer_pairs(2, 64, seed=9))
        spec = OutageSpec.common(0.1)
        boundary = search.boundary(spec)
        monkeypatch.undo()
        ((points, kept),) = calls
        assert [tuple(points[j]) for j in kept] == [(p.r1, p.r2) for p in boundary.points]
        assert len(boundary.points) > 1
        r1, r2, _, _ = stat_common_curves(search, spec)
        assert set(map(tuple, points.tolist())) <= set(zip(r1.tolist(), r2.tolist()))
        assert len(boundary.points) < len(points) < 64 * 65

    def test_tiny_noise_rates_are_not_capped(self):
        """Without interference the rate at success 0.9 is
        log2(1 - s ln 0.9 / sigma^2): about 995 bits at noise 1e-300, not the
        200 bits of a doubling cap. Noise below the float range of that
        rate is an error."""
        stats = diag_stats(q21=(0.0, 0.0), q12=(0.0, 0.0), sigma1=1e-300, sigma2=1e-300)
        W1, W2 = draw_beamformer_pairs(2, 4, seed=3)
        search = StatRegionSearch(stats, W1, W2)
        corners = search.boundary(OutageSpec.individual(0.1, 0.1)).points
        assert corners
        for p in corners:
            i = p.payload["pair_index"]
            assert p.r1 == pytest.approx(math.log2(-search.s1[i] * math.log(0.9) / 1e-300), abs=1e-9)
            assert p.r2 == pytest.approx(math.log2(-search.s2[i] * math.log(0.9) / 1e-300), abs=1e-9)
        assert search.boundary(OutageSpec.common(0.1)).points[0].r2 > 990.0
        tiny = StatRegionSearch(diag_stats(q21=(0.0, 0.0), sigma1=5e-324), W1, W2)
        with pytest.raises(ValueError, match="noise power 5e-324"):
            tiny.boundary(OutageSpec.individual(0.1, 0.1))

    def test_overflow_names_the_first_link_that_overflows(self):
        """The individual boundary inverts both links in one call, each
        element with its link's noise power. Its error names link 1's noise
        power when both links overflow, and link 2's when only link 2 does,
        as two calls one link at a time would."""
        W1, W2 = draw_beamformer_pairs(2, 4, seed=3)
        spec = OutageSpec.individual(0.1, 0.1)
        for sigma1, sigma2, named in ((5e-324, 1e-323, "5e-324"), (1.0, 1e-323, "1e-323")):
            stats = diag_stats(q21=(0.0, 0.0), q12=(0.0, 0.0), sigma1=sigma1, sigma2=sigma2)
            with pytest.raises(ValueError, match=f"noise power {named}: "):
                StatRegionSearch(stats, W1, W2).boundary(spec)

    def test_more_pairs_only_improve(self, demo_stats):
        spec = OutageSpec.individual(0.1, 0.1)
        small = StatRegionSearch(demo_stats, *draw_beamformer_pairs(2, 8, seed=2)).boundary(spec)
        big = StatRegionSearch(demo_stats, *draw_beamformer_pairs(2, 32, seed=2)).boundary(spec)
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

    @pytest.mark.parametrize("point", [(-1.0, -1.0), (math.nan, 0.0), (0.2, math.inf)])
    def test_member_any_rejects_invalid_points(self, search, point):
        for spec in (OutageSpec.common(0.1), OutageSpec.individual(0.1, 0.1)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                search.member_any(*point, spec)

    @pytest.mark.parametrize("point", [(-1.0, 0.2), (math.nan, 0.2), (0.2, math.inf),
                                       (0.2, -1e-300)])
    def test_pair_success_all_rejects_invalid_rates(self, search, point):
        """As member_any does: at r1 = NaN or -1 link 1 would otherwise succeed
        with probability 1."""
        with pytest.raises(ValueError, match="finite and nonnegative"):
            search.pair_success_all(*point)
        bad = 0 if point[0] != 0.2 else 1
        rates = [np.full(len(search.s1), 0.3), np.full(len(search.s1), 0.3)]
        rates[bad][-1] = point[bad]
        with pytest.raises(ValueError, match="finite and nonnegative"):
            search.pair_success_all(*rates)

    def test_pair_success_all_takes_one_rate_per_pair(self, search):
        r1 = np.linspace(0.0, 1.0, len(search.s1))
        pi1, pi2 = search.pair_success_all(r1, 0.4)
        for k in (0, len(r1) // 2, len(r1) - 1):
            one1, one2 = search.pair_success_all(float(r1[k]), 0.4)
            assert (pi1[k], pi2[k]) == (one1[k], one2[k])

    @pytest.mark.parametrize("r1", [-5.0, math.nan, math.inf])
    def test_column_height_rejects_invalid_r1(self, search, r1):
        for spec in (OutageSpec.common(0.1), OutageSpec.individual(0.1, 0.1)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                search.column_height(r1, spec)

    def test_column_height_tracks_membership(self, search):
        spec = OutageSpec.common(0.1)
        r1 = 0.2
        h = search.column_height(r1, spec)
        assert search.member_any(r1, h - 1e-6, spec)
        assert not search.member_any(r1, h + 1e-4, spec)

    def test_metadata(self, search):
        boundary = search.boundary(OutageSpec.common(0.1))
        assert boundary.metadata == {
            "scenario_mode": "common", "n_pairs": 24, "curve_points": 65,
        }

    def test_config_validation(self, demo_stats):
        W1, W2 = draw_beamformer_pairs(2, 4, seed=0)
        with pytest.raises(ValueError, match="curve_points"):
            StatRegionSearch(demo_stats, W1, W2, curve_points=1)
        for curve_points in (2.5, 3.0, True):
            with pytest.raises(ValueError, match="curve_points must be an integer"):
                StatRegionSearch(demo_stats, W1, W2, curve_points=curve_points)
        # Held as a Python int, so the boundary metadata serializes to JSON.
        assert type(StatRegionSearch(demo_stats, W1, W2, np.int64(3)).curve_points) is int
        with pytest.raises(ValueError, match=r"W2\[2\]: norm"):
            StatRegionSearch(demo_stats, W1, W2 * [[1.0], [1.0], [1.0 + 1e-6], [1.0]])
        with pytest.raises(ValueError, match=r"W1\[0\]: norm nan"):
            StatRegionSearch(demo_stats, W1 * np.nan, W2)
        with pytest.raises(ValueError, match="shape"):
            StatRegionSearch(demo_stats, W1, W2[:3])
        with pytest.raises(ValueError, match="shape"):
            StatRegionSearch(demo_stats, W1[0], W2[0])


class TestPrunedBoundary:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        n_pairs=st.sampled_from([1, 2, 64, 300]) | st.integers(1, 300),
        curve_points=st.sampled_from([65, 2, 3]),
        epsilon=st.floats(0.01, 0.5),
        noise=st.sampled_from([1e-300, 1e-30, 1e-6, 1.0, 1e6]) | st.floats(1e-3, 1e3),
        # The links that see interference; the others have t_bar = 0.
        interference=st.sampled_from(["both", "link1", "link2", "none"]),
        copies=st.integers(0, 40),
        zeros=st.integers(0, 3),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @example(300, 65, 0.01, 1e-300, "link1", 5, 3, 1)
    @example(300, 65, 0.5, 1e6, "none", 5, 3, 2)
    @example(300, 65, 0.1, 1.0, "both", 40, 0, 3)
    def test_equals_every_point_inverted(self, n_pairs, curve_points, epsilon, noise,
                                         interference, copies, zeros, seed):
        """Pruning changes no bit: the common boundary equals the one of every
        curve point inverted to the last bit under one Pareto filter, points,
        payloads and metadata. The pairs include exact copies of other pairs
        (ties), zero beamformers, and t_bar = 0 on a link without
        interference; noise runs from 1e-300 to 1e6."""
        rng = np.random.default_rng(seed)
        cov = {key: random_psd(rng, 2) for key in ("Q11", "Q12", "Q21", "Q22")}
        if interference in ("link2", "none"):
            cov["Q21"] = np.zeros((2, 2), dtype=complex)
        if interference in ("link1", "none"):
            cov["Q12"] = np.zeros((2, 2), dtype=complex)
        stats = ChannelStatistics(n=2, sigma1_sq=noise, sigma2_sq=noise, **cov)
        W1, W2 = draw_beamformer_pairs(2, n_pairs, seed % 1000)
        for _ in range(copies):
            src, dst = rng.integers(n_pairs, size=2)
            W1[dst], W2[dst] = W1[src], W2[src]
        for _ in range(zeros):
            (W1, W2)[rng.integers(2)][rng.integers(n_pairs)] = 0.0
        search = StatRegionSearch(stats, W1, W2, curve_points=curve_points)
        spec = OutageSpec.common(epsilon)
        got, expect = search.boundary(spec), stat_common_boundary(search, spec)
        assert [(p.r1, p.r2, p.payload) for p in got.points] == [
            (p.r1, p.r2, p.payload) for p in expect.points
        ]
        assert got.metadata == expect.metadata and got.warnings == expect.warnings == []
