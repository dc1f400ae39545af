import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miso_outage import regions
from miso_outage.channel import ChannelStatistics, SampleSource
from miso_outage.outage_mc import (
    CaseLabel,
    CaseProbabilities,
    classify,
    count_true,
    estimate_case_probs,
)
from miso_outage.rate_core import (
    FEASIBILITY_SLACK,
    achievability_slack_batch,
    bisect_largest,
    frontier_qmin_batch,
    gamma_from_rate,
)
from miso_outage.regions import (
    CSV_COLUMNS,
    BoundaryPoint,
    GridConfig,
    InstantaneousRegionPipeline,
    OutageSpec,
    RegionBoundary,
    bias_interval,
    boundary_csv_lines,
    common_inst_member,
    fixed_choice_member,
    format_value,
    individual_inst_member,
    non_dominated_points,
    verdict,
    write_boundary_csv,
)

from conftest import (
    BAD_NOISES,
    random_channel_vectors,
    random_psd,
    random_statistics,
    realizations,
)
from oracles import axis_intercept, split_cases, su_rate_batch, trace_boundary

NOISE = (0.5, 0.5)


def count_probs(n, c_a, c_b, c_c1, c_c2):
    return CaseProbabilities.from_counts(n, c_a, c_b, c_c1, c_c2, 0, 0)


class TestOutageSpec:
    def test_common(self):
        spec = OutageSpec.common(0.1)
        assert spec.mode == "common" and spec.epsilon == 0.1

    def test_individual(self):
        spec = OutageSpec.individual(0.1, 0.2)
        assert (spec.epsilon1, spec.epsilon2) == (0.1, 0.2)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_out_of_range(self, eps):
        with pytest.raises(ValueError):
            OutageSpec.common(eps)
        with pytest.raises(ValueError):
            OutageSpec.individual(eps, 0.5)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            OutageSpec(mode="joint", epsilon=0.1)


class TestMembershipFrozen:
    def test_common_threshold(self):
        probs = count_probs(100, 0, 92, 0, 0)
        assert common_inst_member(probs, 0.1).member
        assert common_inst_member(probs, 0.1).margin == pytest.approx(0.02)
        assert not common_inst_member(count_probs(100, 0, 85, 0, 0), 0.1).member

    def test_half_b_half_d_pins_bias(self):
        """p_b = p_d = 0.5 with eps = 0.25 per link: the only working coin
        bias is exactly one half."""
        probs = count_probs(100, 0, 50, 0, 0)
        verdict = individual_inst_member(probs, 0.25, 0.25)
        assert verdict.member
        assert verdict.margin1 == pytest.approx(0.25)
        assert verdict.margin3 == pytest.approx(0.0)
        iv = bias_interval(probs, 0.25, 0.25)
        assert iv.nonempty
        assert iv.lo == pytest.approx(0.5)
        assert iv.hi == pytest.approx(0.5)

    def test_eps_one_gives_full_interval(self):
        probs = count_probs(100, 20, 20, 20, 20)
        iv = bias_interval(probs, 1.0, 1.0)
        assert iv.nonempty and iv.lo == 0.0 and iv.hi == 1.0

    def test_all_d_small_eps_empty_interval(self):
        """Everything in case D with eps = 0.4 per link: serving link 1 at
        least 60% of the time and link 2 at least 60% cannot both hold."""
        probs = count_probs(100, 0, 0, 0, 0)
        iv = bias_interval(probs, 0.4, 0.4)
        assert not iv.nonempty
        assert iv.lo == pytest.approx(0.6)
        assert iv.hi == pytest.approx(0.4)
        assert not individual_inst_member(probs, 0.4, 0.4).member

    def test_sum_condition_can_fail_alone(self):
        """Per-link conditions hold but the joint one fails: no bias works."""
        probs = count_probs(100, 10, 85, 0, 0)
        verdict = individual_inst_member(probs, 0.1, 0.1)
        assert verdict.margin1 == pytest.approx(0.0)
        assert verdict.margin2 == pytest.approx(0.0)
        assert verdict.margin3 == pytest.approx(-0.05)
        assert not verdict.member
        iv = bias_interval(probs, 0.1, 0.1)
        assert not iv.nonempty
        assert iv.lo == pytest.approx(1.0)
        assert iv.hi == pytest.approx(0.0)

    def test_fixed_choice_frozen(self):
        probs = count_probs(100, 0, 85, 0, 5)
        one = fixed_choice_member(probs, 0.1, 0.1, choice=1)
        assert one.member
        assert one.margin_served == pytest.approx(0.05)
        assert one.margin_other == pytest.approx(0.0)
        two = fixed_choice_member(probs, 0.1, 0.1, choice=2)
        assert not two.member
        assert two.margin_other == pytest.approx(-0.05)

    def test_fixed_choice_validation(self):
        with pytest.raises(ValueError, match="choice"):
            fixed_choice_member(count_probs(100, 0, 100, 0, 0), 0.1, 0.1, choice=3)

    def test_zero_p_d_interval(self):
        good = count_probs(100, 0, 95, 5, 0)
        assert bias_interval(good, 0.1, 0.1).as_dict() == {
            "lo": 0.0,
            "hi": 1.0,
            "nonempty": True,
        }
        bad = count_probs(100, 50, 50, 0, 0)
        iv = bias_interval(bad, 0.1, 0.1)
        assert not iv.nonempty


class TestMembershipAlgebra:
    EPS = (0.1, 0.25, 0.4, 0.75)

    def iter_count_vectors(self, n=14):
        for c_a, c_b, c_c1, c_c2 in itertools.product(range(0, n + 1, 2), repeat=4):
            if c_a + c_b + c_c1 + c_c2 <= n:
                yield count_probs(n, c_a, c_b, c_c1, c_c2)

    def test_interval_matches_membership(self):
        for probs in self.iter_count_vectors():
            for e1, e2 in itertools.product(self.EPS, repeat=2):
                verdict = individual_inst_member(probs, e1, e2)
                iv = bias_interval(probs, e1, e2)
                assert iv.nonempty == verdict.member
                if iv.nonempty:
                    assert 0.0 <= iv.lo <= iv.hi <= 1.0

    def test_interval_endpoints_satisfy_constraints(self):
        for probs in self.iter_count_vectors():
            for e1, e2 in itertools.product(self.EPS, repeat=2):
                iv = bias_interval(probs, e1, e2)
                if not iv.nonempty:
                    continue
                for p in (iv.lo, iv.hi, 0.5 * (iv.lo + iv.hi)):
                    s1 = probs.p_b + probs.p_c1 + p * probs.p_d
                    s2 = probs.p_b + probs.p_c2 + (1.0 - p) * probs.p_d
                    assert s1 >= 1.0 - e1 - 1e-9
                    assert s2 >= 1.0 - e2 - 1e-9

    def test_fixed_choice_implies_individual(self):
        for probs in self.iter_count_vectors():
            for e1, e2 in itertools.product(self.EPS, repeat=2):
                for choice in (1, 2):
                    if fixed_choice_member(probs, e1, e2, choice).member:
                        assert individual_inst_member(probs, e1, e2).member

    def test_common_implies_fixed_choice(self):
        for probs in self.iter_count_vectors():
            for eps in self.EPS:
                if common_inst_member(probs, eps).member:
                    assert fixed_choice_member(probs, eps, eps, 1).member
                    assert fixed_choice_member(probs, eps, eps, 2).member

    def test_razor_tie_counts_stay_consistent(self):
        """Counts that sit exactly on the eps thresholds at production scale."""
        n, e = 20000, 0.1
        for c_a, c_b, c_c1, c_c2 in [
            (2000, 18000, 0, 0),
            (0, 18000, 0, 2000),
            (0, 16000, 2000, 2000),
            (2000, 16000, 0, 0),
            (0, 18000, 1000, 1000),
        ]:
            probs = count_probs(n, c_a, c_b, c_c1, c_c2)
            verdict = individual_inst_member(probs, e, e)
            assert bias_interval(probs, e, e).nonempty == verdict.member
            for choice in (1, 2):
                if fixed_choice_member(probs, e, e, choice).member:
                    assert verdict.member
            if common_inst_member(probs, e).member:
                assert fixed_choice_member(probs, e, e, 1).member


class TestTraceBoundary:
    def test_linear_region(self):
        grid = GridConfig(r1_cap=1.0, r2_cap=1.2, n_points=11)
        boundary = trace_boundary(lambda r1, r2: r1 + r2 <= 1.0, grid)
        assert not boundary.warnings
        assert len(boundary.points) == 11
        for p in boundary.points:
            assert p.r2 == pytest.approx(1.0 - p.r1, abs=2.0 * grid.tolerance)

    def test_rectangle_collapses_to_corner(self):
        grid = GridConfig(r1_cap=1.0, r2_cap=1.0, n_points=11)
        boundary = trace_boundary(lambda r1, r2: r1 <= 0.5 and r2 <= 0.7, grid)
        assert len(boundary.points) == 1
        corner = boundary.points[0]
        assert corner.r1 == pytest.approx(0.5)
        assert corner.r2 == pytest.approx(0.7, abs=2.0 * grid.tolerance)

    def test_cap_warning(self):
        grid = GridConfig(r1_cap=1.0, r2_cap=1.0, n_points=5)
        boundary = trace_boundary(lambda r1, r2: True, grid)
        assert any("cap" in w for w in boundary.warnings)
        assert boundary.points[-1].r2 == 1.0

    def test_annotate_payload(self):
        grid = GridConfig(r1_cap=1.0, r2_cap=1.2, n_points=5)
        boundary = trace_boundary(
            lambda r1, r2: r1 + r2 <= 1.0, grid, annotate=lambda r1, r2: {"s": r1 + r2}
        )
        assert all(abs(p.payload["s"] - (p.r1 + p.r2)) < 1e-12 for p in boundary.points)

    def test_metadata_merge(self):
        grid = GridConfig(r1_cap=2.0, r2_cap=1.0, n_points=5, tol=1e-4)
        boundary = trace_boundary(lambda r1, r2: r2 <= 0.1, grid, metadata={"tag": "x"})
        assert boundary.metadata["tag"] == "x"
        assert boundary.metadata["bisection_tol"] == 1e-4
        assert boundary.metadata["n_grid"] == 5

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridConfig(r1_cap=1.0, r2_cap=1.0, n_points=1)
        with pytest.raises(ValueError):
            GridConfig(r1_cap=-1.0, r2_cap=1.0)

    @pytest.mark.parametrize("n_points", [2.5, 3.0, np.float64(4.0), True, np.True_, "5"])
    def test_grid_rejects_non_integer_n_points(self, n_points):
        with pytest.raises(ValueError, match="n_points must be an integer"):
            GridConfig(r1_cap=1.0, r2_cap=1.0, n_points=n_points)

    def test_grid_takes_numpy_integer_n_points(self):
        np.testing.assert_array_equal(
            GridConfig(r1_cap=1.0, r2_cap=1.0, n_points=np.int64(5)).r1_values,
            [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("name, value", [
        ("r1_cap", math.inf), ("r1_cap", math.nan), ("r2_cap", math.inf), ("r2_cap", math.nan),
        ("tol", math.nan), ("tol", math.inf), ("tol", -1e-3),
    ])
    def test_grid_rejects_non_finite_caps_and_bad_tol(self, name, value):
        """Named in the error, as the config's grid.* checks do; a NaN tol or
        an infinite r2 cap would otherwise trace a lone point (r1, 0)."""
        fields = {"r1_cap": 1.9, "r2_cap": 3.0, "n_points": 4, "tol": None, name: value}
        with pytest.raises(ValueError, match=name):
            GridConfig(**fields)

    def test_zero_tol_bisects_to_adjacent_floats(self, demo_stats):
        pipeline = InstantaneousRegionPipeline(
            SampleSource.gaussian(demo_stats, seed=42, count=2000), NOISE
        )
        spec = OutageSpec.individual(0.1, 0.1)
        boundary = pipeline.trace(spec, GridConfig(r1_cap=1.9, r2_cap=3.0, n_points=4, tol=0.0))
        assert [round(p.r1, 3) for p in boundary.points] == [0.633, 1.267]
        for p in boundary.points:
            assert pipeline.member(p.r1, p.r2, spec)
            assert not pipeline.member(p.r1, np.nextafter(p.r2, np.inf), spec)


def non_dominated_oracle(points) -> list[int]:
    """The filter as a Python sort and loop over (r1, r2) pairs."""
    ordered = sorted(range(len(points)), key=lambda i: (-points[i][0], -points[i][1]))
    kept, best_r2 = [], -math.inf
    for i in ordered:
        if points[i][1] > best_r2:
            kept.append(i)
            best_r2 = points[i][1]
    return kept[::-1]


class TestNonDominated:
    def test_matches_bruteforce(self, rng):
        pts = rng.uniform(0.0, 1.0, size=(60, 2))
        kept = non_dominated_points(pts)
        expected = [
            (x, y)
            for x, y in pts
            if not any((a >= x and b > y) or (a > x and b >= y) for a, b in pts)
        ]
        assert sorted(map(tuple, pts[kept])) == sorted(expected)
        r1s = pts[kept, 0].tolist()
        assert r1s == sorted(r1s)

    def test_duplicates_collapse(self):
        """Of two equal rows the earlier one is kept."""
        kept = non_dominated_points([(0.3, 0.4), (0.3, 0.4), (0.1, 0.5)])
        assert kept.tolist() == [2, 0]

    def test_empty(self):
        assert non_dominated_points(np.empty((0, 2))).tolist() == []
        assert non_dominated_points([]).tolist() == []

    def test_matches_sort_and_loop_with_ties(self, rng):
        """Coordinates drawn from a few values, so rows tie in r1, in r2 and
        in both: the kept indices equal a stable Python sort and loop."""
        for m in (1, 2, 7, 200):
            pts = rng.integers(0, 5, size=(m, 2)) / 4.0
            assert non_dominated_points(pts).tolist() == non_dominated_oracle(pts.tolist())

    def test_first_of_equal_rows_is_kept(self, rng):
        """Five non-dominated points, each repeated about 100 times in random
        order: the kept row of each is its first occurrence, which only a
        stable sort guarantees."""
        i = rng.integers(0, 5, size=500)
        pts = np.column_stack([i, 4 - i]) / 4.0
        kept = non_dominated_points(pts)
        assert kept.tolist() == [int(np.argmax(i == v)) for v in range(5)]


def record_forks(monkeypatch) -> list:
    """Patch os.fork to log, in the forking process, the pid of each helper."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.fixture(scope="module")
def pipeline(demo_source):
    return InstantaneousRegionPipeline(demo_source, NOISE)


class TestPipeline:
    def test_case_probs_match_direct_estimator(self, pipeline, demo_source):
        for point in ((0.5, 0.5), (0.8, 0.3), (1.4, 1.4)):
            direct = estimate_case_probs(demo_source, point, NOISE)
            cached = pipeline.case_probs(*point)
            assert cached.count_a == direct.count_a
            assert cached.count_b == direct.count_b
            assert cached.count_c1 == direct.count_c1
            assert cached.count_c2 == direct.count_c2

    @pytest.mark.parametrize("seed", range(6))
    def test_witness_on_rows_equals_the_witness_on_every_row(self, seed):
        """The witness on a set of rows of a Column that refines on demand,
        as the policy split takes it on its unsettled rows, equals bit for
        bit the witness over every row of the exact column: q1, the frontier
        inverse at the column maximizers, both rates, the values and q2*,
        for 13 values of r1 from 0 to 1.3 x the median su1 under three noise
        pairs. The rows are a random tenth of them: searched, closed-form
        and exceed1 rows."""
        stats = random_statistics(np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        for noise in ((0.5, 0.5), (0.05, 2.0), (2.0, 0.05)):
            pipeline = InstantaneousRegionPipeline(
                SampleSource.gaussian(stats, seed=seed, count=2000), noise)
            for r1 in np.linspace(0.0, 1.3 * float(np.median(pipeline.su1)), 13):
                rates = pipeline.witness_rates(r1)
                exact = pipeline._column(r1)
                q1 = frontier_qmin_batch(pipeline.F1, float(gamma_from_rate(r1)), exact.q2,
                                         noise[0])
                assert exact.q1.tobytes() == q1.tobytes()
                bounds = pipeline._bounds(r1)
                lazy = regions.Column(bounds.exceed1, pipeline.su2).refining(bounds)
                rows = np.flatnonzero(rng.random(q1.size) < 0.1)
                got = pipeline._witness(r1, lazy, rows)
                want = (exact.q1, *rates)
                assert [x.tobytes() for x in got] == [x[rows].tobytes() for x in want]
                for name in ("values", "q2"):
                    assert (getattr(lazy, name)[rows].tobytes()
                            == getattr(exact, name)[rows].tobytes())

    def test_case_b_counts_match_slack_oracle(self, pipeline):
        """The column threshold, the only production case-B classifier, against
        the independent slack oracle: equal case-B counts at every point, one
        of them within 1e-4 bits of the individual-outage boundary."""
        spec = OutageSpec.individual(0.1, 0.1)
        assert pipeline.member(0.4, 0.0, spec)
        edge = bisect_largest(lambda r2: pipeline.member(0.4, r2, spec), 3.0, 1e-4)
        points = ((0.5, 0.5), (0.8, 0.3), (1.4, 1.4), (0.2, 1.1), (0.4, edge))
        for r1, r2 in points:
            g_max, _, _ = achievability_slack_batch(
                pipeline.F1, pipeline.F2, gamma_from_rate(r1), gamma_from_rate(r2), NOISE
            )
            feasible = int(np.sum(g_max >= -FEASIBILITY_SLACK))
            assert feasible == pipeline.case_probs(r1, r2).count_b, (r1, r2)

    def test_membership_monotone_along_column(self, pipeline):
        spec = OutageSpec.individual(0.1, 0.1)
        r1 = 0.4
        heights = np.linspace(0.0, 2.5, 26)
        flags = [pipeline.member(r1, h, spec) for h in heights]
        assert flags == sorted(flags, reverse=True)

    def test_su_caps_are_quantiles(self, pipeline):
        r1_cap, r2_cap = pipeline.su_caps(0.1, 0.2)
        assert r1_cap == pytest.approx(float(np.quantile(pipeline.su1, 0.1)) * 1.1)
        assert r2_cap == pytest.approx(float(np.quantile(pipeline.su2, 0.2)) * 1.1)

    def test_axis_intercept_is_su_order_statistic(self, pipeline):
        eps = 0.1
        spec = OutageSpec.individual(eps, eps)
        k = math.floor(eps * pipeline.n_samples)
        expected = float(np.sort(pipeline.su1)[k])
        got = axis_intercept(pipeline, spec, link=1)
        assert got == pytest.approx(expected, abs=1e-5)

    def test_scenario_nesting_pointwise(self, pipeline):
        eps = 0.1
        common = OutageSpec.common(eps)
        indiv = OutageSpec.individual(eps, eps)
        r1_cap, r2_cap = pipeline.su_caps(eps, eps)
        for r1 in np.linspace(0.0, r1_cap, 7):
            for r2 in np.linspace(0.0, r2_cap, 7):
                in_common = pipeline.member(r1, r2, common)
                in_fixed1 = pipeline.member(r1, r2, indiv, "fixed1")
                in_fixed2 = pipeline.member(r1, r2, indiv, "fixed2")
                in_indiv = pipeline.member(r1, r2, indiv)
                if in_common:
                    assert in_fixed1 and in_fixed2
                if in_fixed1 or in_fixed2:
                    assert in_indiv

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        n=st.sampled_from([1, 2, 8]),
        kinds=st.lists(st.sampled_from(["zero", "rank-1", "aligned", "full"]),
                       min_size=4, max_size=4),
        noise=st.tuples(*[st.floats(-6.0, 6.0).map(lambda e: 10.0**e)] * 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scenario_nesting_on_degenerate_statistics(self, n, kinds, noise, seed):
        """The pointwise nesting above, on zero, rank-1 and aligned (rank-1
        along one shared direction) covariances and noise powers in
        1e-6..1e6: at every point the counts partition the stream and equal
        the split_cases oracle's, common implies fixed1 and fixed2, either
        of those implies individual, and classify of each realization is its
        row of the oracle."""
        rng = np.random.default_rng(seed)
        shared = random_channel_vectors(rng, 1, n)[0]

        def covariance(kind):
            if kind == "zero":
                return np.zeros((n, n), dtype=complex)
            if kind == "full":
                return random_psd(rng, n)
            u = shared if kind == "aligned" else random_channel_vectors(rng, 1, n)[0]
            return np.outer(u, u.conj())

        stats = ChannelStatistics(n, *map(covariance, kinds), *noise)
        source = SampleSource.gaussian(stats, seed=seed, count=12)
        fresh = InstantaneousRegionPipeline(source, noise)
        common, indiv = OutageSpec.common(0.4), OutageSpec.individual(0.4, 0.4)
        hs = realizations(source, 0, source.count)
        for r1, r2 in itertools.product(*(
                (0.0, np.median(su), 1.1 * su.max())
                for su in (fresh.su1, fresh.su2))):
            masks = split_cases(*fresh.case_tests(r1, r2))
            probs = fresh.case_probs(r1, r2)
            assert probs.counts == tuple(count_true(mask) for mask in masks)
            assert sum(probs.counts) == source.count and min(probs.counts) >= 0
            in_fixed = [fresh.member(r1, r2, indiv, v) for v in ("fixed1", "fixed2")]
            if fresh.member(r1, r2, common):
                assert all(in_fixed)
            if any(in_fixed):
                assert fresh.member(r1, r2, indiv)
            for k, h in enumerate(hs):
                label = next(lab for lab, mask in zip(CaseLabel, masks) if mask[k])
                assert classify(h, (r1, r2), noise) is label

    def test_trace_boundary_shape_and_payload(self, pipeline):
        spec = OutageSpec.individual(0.1, 0.1)
        caps = pipeline.su_caps(0.1, 0.1)
        grid = GridConfig(r1_cap=caps[0], r2_cap=caps[1], n_points=12)
        boundary = pipeline.trace(spec, grid)
        assert boundary.points
        r1s = [p.r1 for p in boundary.points]
        r2s = [p.r2 for p in boundary.points]
        assert r1s == sorted(r1s)
        assert all(x > y for x, y in zip(r2s, r2s[1:]))
        payload = boundary.points[0].payload
        assert {"p_a", "p_b", "p_c1", "p_c2", "p_d", "margin1", "margin2", "margin3"} <= set(payload)
        assert boundary.metadata["seed"] == 7
        assert boundary.metadata["n_samples"] == pipeline.n_samples

    @pytest.mark.parametrize("point", [(-1.0, -1.0), (math.nan, 0.5), (0.5, math.inf)])
    def test_rejects_invalid_points(self, pipeline, point):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            pipeline.member(*point, OutageSpec.individual(0.1, 0.1))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            pipeline.case_probs(*point)

    @pytest.mark.parametrize("r1", [-1.0, -2.0, math.nan, math.inf])
    def test_column_entry_points_reject_invalid_r1(self, demo_source, r1):
        fresh = InstantaneousRegionPipeline(demo_source, NOISE)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            fresh.witness_rates(r1)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            fresh.column(r1)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            fresh.precompute_columns([0.3, r1])
        assert fresh._stream.columns == {}

    def test_common_variant_rejects_fixed(self, pipeline):
        with pytest.raises(ValueError):
            verdict(pipeline.case_probs(0.1, 0.1), OutageSpec.common(0.1), "fixed1")

    def test_parallel_columns_identical(self, demo_source, monkeypatch):
        """Columns are bitwise equal for any process count; with k processes
        k - 1 helpers are forked, this process being the k-th. The store
        belongs to the stream, so each parallel pipeline samples its own."""
        forks = record_forks(monkeypatch)
        serial = InstantaneousRegionPipeline(demo_source, NOISE)
        r1_values = [0.0, 0.3, 0.6, 0.9]
        serial.precompute_columns(r1_values, workers=1)
        helpers = []
        for workers in (1, 2, 3, 5):
            regions.clear_stream_cache()
            parallel = InstantaneousRegionPipeline(demo_source, NOISE)
            before = len(forks)
            parallel.precompute_columns(r1_values, workers=workers)
            helpers.append(len(forks) - before)
            held = dict(parallel._stream.columns)
            for r1 in r1_values:
                np.testing.assert_array_equal(serial.column(r1), parallel.column(r1))
            assert parallel._stream.columns == held
        assert sorted(serial._stream.columns) == r1_values
        assert helpers == [0, 1, 2, 3]

    def test_pool_capped_at_missing_columns(self, demo_source, monkeypatch):
        forks = record_forks(monkeypatch)
        fresh = InstantaneousRegionPipeline(demo_source, NOISE)
        fresh.precompute_columns([0.3, 0.6], workers=8)
        assert len(forks) == 1
        fresh.precompute_columns([0.3, 0.6, 0.9], workers=8)
        fresh.precompute_columns([0.3, 0.6, 0.9], workers=8)
        assert len(forks) == 1
        assert sorted(fresh._stream.columns) == [0.3, 0.6, 0.9]

    def test_su_rates_from_frontier_power(self, demo_source):
        """su_i read off the frontier's p_max = ||h_ii||^2 equal a fresh
        single-user rate pass over the stream, bit for bit."""
        fresh = InstantaneousRegionPipeline(demo_source, NOISE)
        arrs = demo_source.arrays()
        np.testing.assert_array_equal(fresh.su1, su_rate_batch(arrs["h11"], NOISE[0]))
        np.testing.assert_array_equal(fresh.su2, su_rate_batch(arrs["h22"], NOISE[1]))

    @pytest.mark.parametrize("noise", BAD_NOISES)
    def test_invalid_noise_rejected(self, demo_stats, noise):
        with pytest.raises(ValueError, match="noise"):
            InstantaneousRegionPipeline(SampleSource.gaussian(demo_stats, 0, 50), noise)

    def test_empty_stream_rejected(self, demo_stats):
        with pytest.raises(ValueError, match="at least one sample"):
            InstantaneousRegionPipeline(SampleSource.gaussian(demo_stats, 1, 0), NOISE)


class TestCsv:
    def make_boundary(self):
        points = [
            BoundaryPoint(0.0, 1.5, {"p_a": 0.0, "p_b": 0.9123456789, "margin1": 0.05}),
            BoundaryPoint(0.5, 1.0, {"p_a": 0.01, "p_b": 0.9, "margin1": 0.0125}),
        ]
        return RegionBoundary(points=points, warnings=[], metadata={})

    def test_format_value(self):
        assert format_value(None) == ""
        assert format_value(0.5) == "0.5"
        assert format_value(0.9123456789) == "0.9123456789"
        assert format_value(1e-12) == "1e-12"

    def test_lines_header_and_missing_cells(self):
        lines = boundary_csv_lines(self.make_boundary())
        assert lines[0] == ",".join(CSV_COLUMNS)
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1.5"
        assert first[CSV_COLUMNS.index("margin2")] == ""

    def test_write_round_trip(self, tmp_path):
        path = tmp_path / "boundary.csv"
        write_boundary_csv(self.make_boundary(), path)
        text = path.read_text()
        assert text.endswith("\n")
        rows = text.strip().split("\n")
        assert len(rows) == 3
        got = float(rows[1].split(",")[3])
        assert got == pytest.approx(0.9123456789, abs=1e-9)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_boundary_csv(self.make_boundary(), a)
        write_boundary_csv(self.make_boundary(), b)
        assert a.read_bytes() == b.read_bytes()
