"""Acceptance suite: one test per criterion, each printing one pass/fail line.

All criteria run at the documented operating point (n = 2 antennas, noise
0.5 per receiver, outage tolerance 0.1 per link, demo covariances) unless the
criterion itself enumerates its inputs (criterion 4 runs every case-count
vector of N = 20). Runtime budgets are asserted alongside the numerical
tolerances.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from miso_outage.channel import ChannelRealization, SampleSource
from miso_outage.cli import parse_config, run_region
from miso_outage.outage_mc import CaseProbabilities, estimate_case_probs, simulate_policy
from miso_outage.presets import DEMO_SEED, demo_config, demo_statistics
from miso_outage.rate_core import (
    FEASIBILITY_SLACK,
    achievability_slack_batch,
    frontier_batch,
    gamma_from_rate,
    power_frontier,
)
from miso_outage.regions import (
    InstantaneousRegionPipeline,
    OutageSpec,
    bias_interval,
    verdict,
)
from miso_outage.stat_csi import StatRegionSearch, draw_beamformer_pairs

from conftest import random_statistics
from oracles import axis_intercept, stat_member_mc, su_rate_batch

EPS = 0.1
NOISE = (0.5, 0.5)
MARGIN_BAND = 1e-6


def _verdict(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def nesting_pipeline():
    """Shared 2e4-sample stream at the documented operating point."""
    source = SampleSource.gaussian(demo_statistics(), seed=DEMO_SEED, count=20_000)
    return InstantaneousRegionPipeline(source, NOISE)


@pytest.fixture(scope="module")
def stat_search():
    return StatRegionSearch(demo_statistics(), *draw_beamformer_pairs(2, 64, seed=9))


def test_criterion_1_partition_sums():
    """Five case estimates sum to exactly 1.0 and counts to N."""
    t0 = time.perf_counter()
    gaussian = SampleSource.gaussian(demo_statistics(), seed=DEMO_SEED, count=20_000)
    e1 = [1.0, 0.0]
    explicit = SampleSource.explicit([ChannelRealization(e1, e1, e1, e1)] * 7)
    checked = 0
    for source in (gaussian, explicit):
        for point in ((0.0, 0.5), (0.3, 0.3), (0.7, 1.1), (1.6, 1.6)):
            probs = estimate_case_probs(source, point, NOISE)
            counts = (
                probs.count_a + probs.count_b + probs.count_c1
                + probs.count_c2 + probs.count_d
            )
            assert counts == source.count
            assert (
                probs.p_a + probs.p_b + probs.p_c1 + probs.p_c2 + probs.p_d == 1.0
            )
            checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        elapsed < 60.0,
        f"estimates sum to exactly 1.0 and counts to N at {checked} "
        f"source/point combinations ({elapsed:.1f}s)",
    )


def _certify_on_grid(fr1, fr2, gamma1, gamma2, m=300):
    """Sound feasible/infeasible certificates from an m x m (q1, q2) grid.

    A grid pair satisfying both power constraints certifies achievability.
    For infeasibility, the margin on each q1 segment is bounded above by the
    best-case signal (right endpoint) minus the interference any sufficient q2
    must cause (a grid lower bound at the segment's easiest demand); negative
    bounds on every segment certify that no q1 works.
    """
    q1 = np.linspace(0.0, fr1.q_mrt, m)
    q2 = np.linspace(0.0, fr2.q_mrt, m)
    p1 = np.atleast_1d(fr1.signal_power(q1))
    p2 = np.atleast_1d(fr2.signal_power(q2))
    ok1 = p1[:, None] >= gamma1 * (q2[None, :] + NOISE[0])
    ok2 = p2[None, :] >= gamma2 * (q1[:, None] + NOISE[1])
    feasible = bool(np.any(ok1 & ok2))

    t_lo = gamma2 * (q1[:-1] + NOISE[1])
    unservable = t_lo > fr2.p_max * (1.0 + 1e-12)
    idx = np.searchsorted(p2, t_lo, side="left") - 1
    q2_lb = np.where(idx < 0, 0.0, q2[np.clip(idx, 0, m - 1)])
    seg_ub = p1[1:] - gamma1 * (q2_lb + NOISE[0])
    infeasible = bool(np.all(unservable | (seg_ub < 0.0)))
    return feasible, infeasible


def test_criterion_2_oracle_vs_bruteforce():
    """Achievability oracle vs 300x300 interference-grid certificates."""
    t0 = time.perf_counter()
    n_channels = 500
    points = [(0.25, 0.25), (0.6, 0.9), (1.0, 0.4), (1.3, 1.3), (0.45, 1.6)]
    source = SampleSource.gaussian(demo_statistics(), seed=1234, count=n_channels)
    arrs = source.arrays()
    F1 = frontier_batch(arrs["h11"], arrs["h12"])
    F2 = frontier_batch(arrs["h22"], arrs["h21"])
    frontiers = [
        (
            power_frontier(arrs["h11"][k], arrs["h12"][k]),
            power_frontier(arrs["h22"][k], arrs["h21"][k]),
        )
        for k in range(n_channels)
    ]
    disagreements = 0
    determinate = 0
    total = 0
    for r1, r2 in points:
        gamma1 = float(gamma_from_rate(r1))
        gamma2 = float(gamma_from_rate(r2))
        g_max, _, _ = achievability_slack_batch(F1, F2, gamma1, gamma2, NOISE)
        for k in range(n_channels):
            total += 1
            feas_cert, infeas_cert = _certify_on_grid(
                frontiers[k][0], frontiers[k][1], gamma1, gamma2
            )
            assert not (feas_cert and infeas_cert)
            determinate += feas_cert or infeas_cert
            if abs(g_max[k]) < MARGIN_BAND:
                continue
            oracle_yes = g_max[k] >= -FEASIBILITY_SLACK
            if (feas_cert and not oracle_yes) or (infeas_cert and oracle_yes):
                disagreements += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        disagreements == 0 and elapsed < 120.0,
        f"{disagreements} disagreements outside the |g|<{MARGIN_BAND:g} band over "
        f"{total} channel/point decisions ({determinate} grid-certified, "
        f"{elapsed:.1f}s)",
    )


def test_criterion_3_frontier_optimality():
    """1e4 random unit beamformers per channel never beat the frontier."""
    t0 = time.perf_counter()
    n_channels, n_beams = 50, 10_000
    source = SampleSource.gaussian(demo_statistics(), seed=777, count=n_channels)
    arrs = source.arrays()
    rng = np.random.default_rng(2024)
    worst = -np.inf
    for k in range(n_channels):
        for own, cross in ((arrs["h11"][k], arrs["h12"][k]),
                           (arrs["h22"][k], arrs["h21"][k])):
            fr = power_frontier(own, cross)
            W = rng.standard_normal((n_beams, 2)) + 1j * rng.standard_normal((n_beams, 2))
            W /= np.linalg.norm(W, axis=1, keepdims=True)
            sig = np.abs(W @ own.conj()) ** 2
            q = np.abs(W @ cross.conj()) ** 2
            worst = max(worst, float(np.max(sig - fr.signal_power(q))))
    elapsed = time.perf_counter() - t0
    _verdict(
        3,
        worst <= 1e-9 and elapsed < 60.0,
        f"max frontier excess {worst:.3e} over {n_channels} channels x "
        f"{n_beams} beamformers per TX ({elapsed:.1f}s)",
    )


def test_criterion_4_bias_interval_equivalence():
    """bias_interval nonemptiness vs the three membership inequalities, on
    every count vector of N = 20 samples, stated on the counts."""
    t0 = time.perf_counter()
    steps = 20  # N, so a probability step of 0.05
    eps_grid = [i / 10.0 for i in range(1, 10)]
    mismatches = 0
    checked = 0
    for k_a, k_b, k_c1, k_c2 in itertools.product(range(steps + 1), repeat=4):
        if k_a + k_b + k_c1 + k_c2 > steps:
            continue
        probs = CaseProbabilities.from_counts(steps, k_a, k_b, k_c1, k_c2, 0, 0)
        for e1 in eps_grid:
            for e2 in eps_grid:
                conditions = (
                    e1 >= (k_a + k_c2) / steps
                    and e2 >= (k_a + k_c1) / steps
                    and e1 + e2 >= (steps + k_a - k_b) / steps
                )
                if bias_interval(probs, e1, e2).nonempty != conditions:
                    mismatches += 1
                checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        4,
        mismatches == 0 and elapsed < 60.0,
        f"{mismatches} mismatches over {checked} simplex x tolerance "
        f"combinations ({elapsed:.1f}s)",
    )


def test_criterion_5_policy_outage_at_member_points():
    """Policy simulation at member points adjacent to the boundary."""
    t0 = time.perf_counter()
    n = 100_000
    source = SampleSource.gaussian(demo_statistics(), seed=DEMO_SEED, count=n)
    pipeline = InstantaneousRegionPipeline(source, NOISE)
    spec = OutageSpec.individual(EPS, EPS)
    r1_cap, r2_cap = pipeline.su_caps(EPS, EPS)
    tol = r2_cap / 500.0
    se = math.sqrt(EPS * (1.0 - EPS) / n)
    limit = EPS + 3.0 * se

    worst_outage = -np.inf
    simulated = 0
    for frac in np.linspace(0.05, 0.95, 10):
        r1 = float(frac * r1_cap / 1.1)
        assert pipeline.member(r1, 0.0, spec)
        lo, hi = 0.0, r2_cap
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if pipeline.member(r1, mid, spec):
                lo = mid
            else:
                hi = mid
        r2 = max(lo - 2.0 * tol, 0.0)
        point = (r1, r2)
        assert pipeline.member(r1, r2, spec)
        probs = pipeline.case_probs(r1, r2)
        interval = bias_interval(probs, EPS, EPS)
        assert interval.nonempty
        for bias in {interval.lo, 0.5 * (interval.lo + interval.hi), interval.hi}:
            outcome = simulate_policy(source, point, bias, NOISE, coin_seed=11)
            worst_outage = max(worst_outage, outcome.outage1_freq, outcome.outage2_freq)
            assert outcome.outage1_freq <= limit
            assert outcome.outage2_freq <= limit
            simulated += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        5,
        worst_outage <= limit and elapsed < 300.0,
        f"worst per-link outage {worst_outage:.5f} <= {limit:.5f} over 10 "
        f"boundary-adjacent points x {simulated // 10} biases at N={n} "
        f"({elapsed:.1f}s)",
    )


def test_criterion_6_closed_form_vs_monte_carlo(rng):
    """Closed-form link success probabilities vs 1e5-sample Monte-Carlo."""
    t0 = time.perf_counter()
    n_configs, n_samples = 20, 100_000
    worst_ratio = 0.0
    for trial in range(n_configs):
        stats = random_statistics(rng)
        w1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w1 /= np.linalg.norm(w1)
        w2 /= np.linalg.norm(w2)
        point = (float(rng.uniform(0.1, 1.2)), float(rng.uniform(0.1, 1.2)))
        pi1, pi2 = StatRegionSearch(stats, [w1], [w2]).pair_success_all(*point)
        pi1, pi2 = float(pi1[0]), float(pi2[0])
        source = SampleSource.gaussian(stats, seed=5000 + trial, count=n_samples)
        res = stat_member_mc(
            stats,
            np.outer(w1, w1.conj()),
            np.outer(w2, w2.conj()),
            point,
            OutageSpec.individual(EPS, EPS),
            source,
        )
        for closed, mc in ((pi1, res.success1), (pi2, res.success2)):
            se = math.sqrt(max(closed * (1.0 - closed), 1e-12) / n_samples)
            worst_ratio = max(worst_ratio, abs(mc - closed) / (4.0 * se))
            assert abs(mc - closed) <= 4.0 * se
    elapsed = time.perf_counter() - t0
    _verdict(
        6,
        worst_ratio <= 1.0 and elapsed < 120.0,
        f"worst |closed - MC| at {worst_ratio:.2f} of the 4*SE budget over "
        f"{n_configs} random configurations ({elapsed:.1f}s)",
    )


def _bisect_height(member, r2_cap, tol):
    if not member(0.0):
        return -math.inf
    if member(r2_cap):
        return float(r2_cap)
    lo, hi = 0.0, float(r2_cap)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if member(mid):
            lo = mid
        else:
            hi = mid
    return lo


def test_criterion_7_region_nesting(nesting_pipeline, stat_search):
    """Scenario nesting with common random numbers on a shared 50x50 grid."""
    t0 = time.perf_counter()
    pipeline = nesting_pipeline
    common = OutageSpec.common(EPS)
    indiv = OutageSpec.individual(EPS, EPS)
    r1_cap, r2_cap = pipeline.su_caps(EPS, EPS)
    r1_grid = np.linspace(0.0, r1_cap, 50)
    r2_grid = np.linspace(0.0, r2_cap, 50)
    tol = r2_cap / 500.0

    inst_violations = 0
    stat_violations = 0
    domination_failures = 0
    # Column by column, so the pipeline searches each column once, and
    # refines it once: column() makes the held Column exact.
    for r1 in r1_grid:
        pipeline.column(float(r1))
        for r2 in r2_grid:
            probs = pipeline.case_probs(float(r1), float(r2))
            in_common = verdict(probs, common).member
            in_fixed1 = verdict(probs, indiv, "fixed1").member
            in_fixed2 = verdict(probs, indiv, "fixed2").member
            in_indiv = verdict(probs, indiv).member
            if in_common and not (in_fixed1 and in_fixed2):
                inst_violations += 1
            if (in_fixed1 or in_fixed2) and not in_indiv:
                inst_violations += 1
            in_common_stat = stat_search.member_any(float(r1), float(r2), common)
            in_indiv_stat = stat_search.member_any(float(r1), float(r2), indiv)
            if in_common_stat and not in_indiv_stat:
                stat_violations += 1
        for spec in (indiv, common):
            inst_h = _bisect_height(
                lambda r2: pipeline.member(float(r1), r2, spec), r2_cap, tol
            )
            stat_h = stat_search.column_height(float(r1), spec)
            if stat_h > inst_h + tol:
                domination_failures += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        7,
        inst_violations == 0
        and stat_violations == 0
        and domination_failures == 0
        and elapsed < 600.0,
        f"{inst_violations} instantaneous nesting violations, {stat_violations} "
        f"statistical nesting violations over 2500 shared-grid points; "
        f"{domination_failures} columns where a statistical boundary exceeds "
        f"the instantaneous one ({elapsed:.1f}s)",
    )


def test_criterion_8_axis_intercepts(nesting_pipeline):
    """Boundary axis intercepts vs the SU-rate eps-quantile of a fresh stream."""
    t0 = time.perf_counter()
    pipeline = nesting_pipeline
    spec = OutageSpec.individual(EPS, EPS)
    n = pipeline.n_samples
    fresh = SampleSource.gaussian(demo_statistics(), seed=DEMO_SEED + 1, count=n)
    arrs = fresh.arrays()
    worst_ratio = 0.0
    for link, own in ((1, "h11"), (2, "h22")):
        su = su_rate_batch(arrs[own], NOISE[link - 1])
        intercept = axis_intercept(pipeline, spec, link=link)
        q_emp = float(np.quantile(su, EPS))
        slope = float(np.quantile(su, EPS + 0.02) - np.quantile(su, EPS - 0.02)) / 0.04
        se_rate = slope * math.sqrt(EPS * (1.0 - EPS) * 2.0 / n)
        worst_ratio = max(worst_ratio, abs(intercept - q_emp) / (4.0 * se_rate))
        assert abs(intercept - q_emp) <= 4.0 * se_rate
    elapsed = time.perf_counter() - t0
    _verdict(
        8,
        worst_ratio <= 1.0 and elapsed < 60.0,
        f"worst intercept deviation at {worst_ratio:.2f} of the 4*SE budget "
        f"for both links ({elapsed:.1f}s)",
    )


def test_criterion_9_determinism(tmp_path):
    """Byte-identical region outputs across reruns and worker counts."""
    t0 = time.perf_counter()
    doc = demo_config("individual-inst", basename="det")
    files = ("det_boundary.csv", "det_fixed1.csv", "det_fixed2.csv",
             "det_manifest.json")
    for label, workers in (("a", 1), ("b", 1), ("c", 8)):
        run_region(parse_config(json.dumps(doc)), str(tmp_path / label),
                   workers=workers)
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / other / name).read_bytes()
        for name in files
        for other in ("b", "c")
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        9,
        identical,
        f"rerun and 1-vs-8-worker outputs byte-identical across {len(files)} "
        f"files ({elapsed:.1f}s)",
    )
