import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miso_outage.channel import ChannelRealization, SampleSource
from miso_outage.outage_mc import (
    CaseLabel,
    CaseProbabilities,
    classify,
    estimate_case_probs,
    simulate_policy,
    split_cases,
)

from conftest import BAD_NOISES, realizations
from oracles import case_counts

NOISE = (0.5, 0.5)


def aligned_realization():
    e1 = [1.0, 0.0]
    return ChannelRealization(e1, e1, e1, e1)


def orthogonal_cross_realization():
    return ChannelRealization([1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0])


class TestClassify:
    def test_aligned_cases(self):
        """Aligned channels, noise 0.5: single-user rate log2(3) per link and a
        symmetric joint boundary at log2(5/3), so (1, 1) lands strictly between."""
        h = aligned_realization()
        assert classify(h, (1.0, 1.0), NOISE) is CaseLabel.D
        assert classify(h, (0.5, 0.5), NOISE) is CaseLabel.B
        assert classify(h, (3.0, 3.0), NOISE) is CaseLabel.A
        assert classify(h, (1.0, 3.0), NOISE) is CaseLabel.C1
        assert classify(h, (3.0, 1.0), NOISE) is CaseLabel.C2

    def test_orthogonal_cross_cases(self):
        h = orthogonal_cross_realization()
        noise = (1.0, 1.0)
        assert classify(h, (1.0, 1.0), noise) is CaseLabel.B
        assert classify(h, (0.5, 1.5), noise) is CaseLabel.C1
        assert classify(h, (1.5, 0.5), noise) is CaseLabel.C2
        assert classify(h, (1.5, 1.5), noise) is CaseLabel.A

    def test_zero_point_always_b(self, demo_source):
        for h in realizations(demo_source, 0, 5):
            assert classify(h, (0.0, 0.0), NOISE) is CaseLabel.B

    def test_matches_stream_counts(self, demo_source):
        point = (0.5, 0.5)
        probs = estimate_case_probs(
            SampleSource.explicit(realizations(demo_source, 0, 200)), point, NOISE
        )
        tally = {label: 0 for label in CaseLabel}
        for h in realizations(demo_source, 0, 200):
            tally[classify(h, point, NOISE)] += 1
        assert tally[CaseLabel.A] == probs.count_a
        assert tally[CaseLabel.B] == probs.count_b
        assert tally[CaseLabel.C1] == probs.count_c1
        assert tally[CaseLabel.C2] == probs.count_c2
        assert tally[CaseLabel.D] == probs.count_d


class TestCaseCounts:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), max_size=40))
    def test_matches_mask_sums(self, rows):
        """Counts equal split_cases's mask sums over arbitrary masks, rows with
        joint & exceed1 (which no pipeline produces) included."""
        exceed1, exceed2, joint = np.array(rows, dtype=bool).reshape(-1, 3).T
        counts = case_counts(exceed1, exceed2, joint)
        masks = split_cases(exceed1, exceed2, joint)
        assert counts == tuple(int(m.sum()) for m in masks[:4])
        assert all(type(c) is int for c in counts)


class TestCaseProbabilities:
    @pytest.mark.parametrize("point", [(0.3, 0.3), (0.8, 0.6), (1.6, 1.6)])
    def test_partition_identities(self, demo_source, point):
        probs = estimate_case_probs(demo_source, point, NOISE)
        n = probs.n_samples
        assert n == demo_source.count
        assert (
            probs.count_a + probs.count_b + probs.count_c1 + probs.count_c2 + probs.count_d
            == n
        )
        assert probs.p_a + probs.p_b + probs.p_c1 + probs.p_c2 + probs.p_d == 1.0
        assert probs.count_su_exceed1 == probs.count_a + probs.count_c2
        assert probs.count_su_exceed2 == probs.count_a + probs.count_c1

    def test_exceedance_independence(self, demo_source):
        """Direct channels of the two links are independent, so the joint
        exceedance mass factorizes up to Monte-Carlo noise."""
        probs = estimate_case_probs(demo_source, (1.6, 1.6), NOISE)
        prod = probs.p_su_exceed1 * probs.p_su_exceed2
        se = np.sqrt(prod * (1.0 - prod) / probs.n_samples) + 1e-12
        assert abs(probs.p_a - prod) <= 4.0 * se + 2.0 / probs.n_samples

    def test_standard_errors(self, demo_source):
        probs = estimate_case_probs(demo_source, (0.5, 0.5), NOISE)
        expect = np.sqrt(probs.p_b * (1.0 - probs.p_b) / probs.n_samples)
        assert probs.as_dict()["standard_errors"]["p_b"] == pytest.approx(expect, rel=1e-12)

    def test_from_counts_rejects_empty(self):
        with pytest.raises(ValueError):
            CaseProbabilities.from_counts(0, 0, 0, 0, 0, 0, 0)

    def test_synthetic_marker(self):
        probs = CaseProbabilities.synthetic(0.1, 0.6, 0.1, 0.1, 0.1)
        assert probs.n_samples == 0
        assert probs.p_su_exceed1 == pytest.approx(0.2)
        assert probs.as_dict()["estimates"]["p_b"] == 0.6

    def test_as_dict_round_numbers(self, demo_source):
        d = estimate_case_probs(demo_source, (0.5, 0.5), NOISE).as_dict()
        assert set(d["counts"]) == {"a", "b", "c1", "c2", "d"}
        assert sum(d["counts"].values()) == d["n_samples"]


class TestSimulatePolicy:
    POINT = (0.6, 0.6)

    def test_success_composition_extreme_biases(self, demo_source):
        probs = estimate_case_probs(demo_source, self.POINT, NOISE)
        assert probs.count_d > 0  # point chosen so the coin actually matters
        all1 = simulate_policy(demo_source, self.POINT, 1.0, NOISE)
        assert all1.count_d2 == 0
        assert all1.count_d1 == probs.count_d
        assert all1.success1 == probs.count_b + probs.count_c1 + probs.count_d
        assert all1.success2 == probs.count_b + probs.count_c2
        all2 = simulate_policy(demo_source, self.POINT, 0.0, NOISE)
        assert all2.count_d1 == 0
        assert all2.success1 == probs.count_b + probs.count_c1
        assert all2.success2 == probs.count_b + probs.count_c2 + probs.count_d

    def test_case_usage_matches_classification(self, demo_source):
        probs = estimate_case_probs(demo_source, self.POINT, NOISE)
        out = simulate_policy(demo_source, self.POINT, 0.4, NOISE)
        assert out.count_a == probs.count_a
        assert out.count_b == probs.count_b
        assert out.count_c1 == probs.count_c1
        assert out.count_c2 == probs.count_c2
        assert out.count_d1 + out.count_d2 == probs.count_d

    def test_success_decomposes_over_coin(self, demo_source):
        out = simulate_policy(demo_source, self.POINT, 0.4, NOISE)
        assert out.success1 == out.count_b + out.count_c1 + out.count_d1
        assert out.success2 == out.count_b + out.count_c2 + out.count_d2

    def test_outage_frequencies(self, demo_source):
        out = simulate_policy(demo_source, self.POINT, 0.5, NOISE)
        assert out.outage1_freq == pytest.approx(1.0 - out.success1 / out.n_samples)
        d = out.as_dict()
        assert d["success"]["link1"] == out.success1
        assert d["case_usage"]["d_serve1"] == out.count_d1

    @pytest.mark.parametrize("point", [(0.3, 0.3), (0.6, 0.6), (0.9, 0.4), (0.2, 1.1)])
    def test_case_b_operating_point_meets_both_targets(self, demo_source, point):
        """Each link succeeds exactly where the policy serves it, so the case-B
        operating point (the column maximizer) meets both targets in every
        case-B realization."""
        for bias in (0.0, 0.5, 1.0):
            out = simulate_policy(demo_source, point, bias, NOISE)
            assert out.count_b > 0
            assert out.success1 == out.count_b + out.count_c1 + out.count_d1
            assert out.success2 == out.count_b + out.count_c2 + out.count_d2

    def test_coin_determinism(self, demo_source):
        a = simulate_policy(demo_source, self.POINT, 0.3, NOISE, coin_seed=5)
        b = simulate_policy(demo_source, self.POINT, 0.3, NOISE, coin_seed=5)
        assert a == b
        c = simulate_policy(demo_source, self.POINT, 0.3, NOISE, coin_seed=6)
        assert c.count_d1 != a.count_d1 or c.count_d2 != a.count_d2

    def test_coin_split_tracks_bias(self, demo_source):
        bias = 0.3
        out = simulate_policy(demo_source, self.POINT, bias, NOISE)
        n_d = out.count_d1 + out.count_d2
        se = np.sqrt(bias * (1.0 - bias) / n_d)
        assert abs(out.count_d1 / n_d - bias) <= 4.0 * se

    def test_bias_validation(self, demo_source):
        with pytest.raises(ValueError, match="bias"):
            simulate_policy(demo_source, self.POINT, 1.5, NOISE)


@pytest.mark.parametrize("noise", BAD_NOISES)
def test_invalid_noise_rejected(demo_source, noise):
    """Every library entry point that builds the region pipeline."""
    source = SampleSource.explicit(realizations(demo_source, 0, 20))
    with pytest.raises(ValueError, match="noise"):
        estimate_case_probs(source, (0.5, 0.5), noise)
    with pytest.raises(ValueError, match="noise"):
        classify(aligned_realization(), (0.5, 0.5), noise)
    with pytest.raises(ValueError, match="noise"):
        simulate_policy(source, (0.5, 0.5), 0.5, noise)
