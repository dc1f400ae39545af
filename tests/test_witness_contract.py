"""The witness contract and the Columns that refine on demand.

`point` and `simulate` read a Column that counts on the column kernel's
lower bound and refines only the rows a count leaves in doubt, and the
policy split computes link 2's witness rate only on the case-B rows where
the witness contract (`rate_core.WITNESS_MARGIN`) leaves its success open.
Their case counts and successes must equal, point by point, the route over
the exact column and every row's witness rates (`oracles.simulate_policy`),
and the contract must hold row by row: link 1's witness rate at least
r1 - margin, link 2's within the margin of the column value. Both hold over
the accuracy-contract families and on a stream where the frontier inverse
once returned its mirror root. A `point` refines only the rows whose bounds
straddle its threshold, and a `simulate` after it refines nothing.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from miso_outage import cli, rate_core
from miso_outage.channel import ChannelStatistics, SampleSource
from miso_outage.outage_mc import simulate_policy
from miso_outage.presets import demo_config
from miso_outage.rate_core import (
    RATE_SLACK,
    WITNESS_MARGIN,
    FrontierBatch,
    frontier_qmin_batch,
)
from miso_outage.regions import Column, InstantaneousRegionPipeline

import oracles
from conftest import random_psd

# Every covariance [[1, 1], [1, 1]] (rank 1: both antennas see one fading
# coefficient, so each cross channel is parallel to its transmitter's own
# channel) and noise near 1e-300: transmitter 1's zero-forcing power is
# rounding, and at this point its demand at the column maximizer passes it
# by an ulp or so on 20 rows.
MIRROR_POINT = ("332.1984848747924", "497.16821704704284")


def mirror_config(tmp_path) -> str:
    doc = demo_config("individual-inst", mc_samples=4000, seed=1)
    doc["covariances"] = {key: [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]
                          for key in doc["covariances"]}
    doc["noise"] = [1e-300, 0.7e-300]
    path = tmp_path / "mirror.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(argv) -> dict:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


def test_inverse_clamps_the_mirror_root():
    """A row of that stream where the demand passes d1^2 by an ulp, so the
    zero-forcing test t <= d^2 fails, and the rounded u = (s c - d w) / p_max
    is negative: the inverse is 0, where the column kernel's evaluate also
    puts transmitter 1 (it clamps u at 0), not the mirror root u^2 ||b||^2
    (1.6e-63 here, which swamps sigma2^2 = 7e-301)."""
    fields = ("0x1.6d72082512f1cp-1", "0x1.94c583ada5b53p-53", "0x1.5ff42d1fcababp-1",
              "0x1.04d72f027ca67p-1", "0x1.5ff42d1fcaba8p-1")
    F = FrontierBatch(*(np.array([float.fromhex(x)]) for x in fields), np.array([False]))
    gamma = float.fromhex("0x1.25c2138a4030bp+332")
    q = np.array([float.fromhex("0x1.16de6ff74c68cp-437")])
    assert gamma * (q[0] + 1e-300) > F.d_sq[0]
    assert frontier_qmin_batch(F, gamma, q, 1e-300)[0] == 0.0


def test_mirror_root_stream(tmp_path):
    """At bias 0.5 each link succeeds on every case-B row, its own C case and
    the case-D rows that serve it, as the contract says: with numpy's
    AVX-512 paths 3918 case-B rows and 3963 successes of link 2. With the
    mirror root link 2 succeeded on 3959 there; the witness gave it about
    1e-68 bits on rows whose column value is 562 bits. (Without AVX-512 the
    stream differs in its last bits and counts 3912 case-B rows.)"""
    config = mirror_config(tmp_path)
    point = run(["point", config, *MIRROR_POINT])
    outcome = run(["simulate", config, *MIRROR_POINT, "0.5"])
    used = outcome["case_usage"]
    assert used["b"] == point["case_probabilities"]["counts"]["b"] > 3900
    assert outcome["success"] == {"link1": used["b"] + used["c1"] + used["d_serve1"],
                                  "link2": used["b"] + used["c2"] + used["d_serve2"]}
    parsed = cli.load_config(config)
    pipeline = InstantaneousRegionPipeline(parsed.source, parsed.noise)
    assert_contract(pipeline, float(MIRROR_POINT[0]))
    assert_equals_exact_route(parsed.source, parsed.noise, float(MIRROR_POINT[0]),
                              [float(MIRROR_POINT[1])])


def assert_contract(pipeline, r1: float) -> tuple:
    """Both witness inequalities on every row that is case B at some r2 (its
    column value is at least -RATE_SLACK); returns the least (rate2 - value)
    and (rate1 - r1), each over max(1, |.|)."""
    values = pipeline.column(r1)
    rate1, rate2 = pipeline.witness_rates(r1)
    rows = values >= -RATE_SLACK
    if not rows.any():
        return np.inf, np.inf
    v, w1, w2 = values[rows], rate1[rows], rate2[rows]
    scale1, scale2 = max(1.0, r1), np.maximum(1.0, np.abs(v))
    assert np.all(w1 >= r1 - WITNESS_MARGIN * scale1)
    assert np.all(np.abs(w2 - v) <= WITNESS_MARGIN * scale2)
    return float(np.min((w2 - v) / scale2)), float(np.min(w1 - r1) / scale1)


def assert_equals_exact_route(source, noise, r1: float, r2s) -> None:
    """At each (r1, r2), the case counts and successes at bias 0.5 of the
    Column that refines on demand equal oracles.simulate_policy's, row by
    row over oracles.exact_column and every row's witness rates. The store
    is emptied first, and the r2 are queried in turn on the one Column, so
    each query finds the rows of the ones before it refined."""
    InstantaneousRegionPipeline(source, noise)._stream.columns.clear()
    got = [simulate_policy(source, (r1, r2), 0.5, noise, coin_seed=3) for r2 in r2s]
    for outcome, r2 in zip(got, r2s):
        assert outcome == oracles.simulate_policy(source, (r1, r2), 0.5, noise, 3), (r1, r2)


FAMILIES = ("random", "rank-1", "zero-cross", "aligned")


def family_statistics(rng, n: int, family: str) -> ChannelStatistics:
    """Random covariances bent into one family: rank-1 covariances, zero
    cross covariances, or rank-1 own covariances with each cross covariance
    a multiple of the same transmitter's own (aligned channels)."""
    rank = 1 if family in ("rank-1", "aligned") else n
    Q = {key: random_psd(rng, n, rank) for key in ("Q11", "Q12", "Q21", "Q22")}
    if family == "zero-cross":
        Q["Q12"] = Q["Q21"] = np.zeros((n, n))
    elif family == "aligned":
        Q["Q12"] = float(rng.uniform(0.1, 3.0)) * Q["Q11"]
        Q["Q21"] = float(rng.uniform(0.1, 3.0)) * Q["Q22"]
    return ChannelStatistics(n=n, **Q, sigma1_sq=1.0, sigma2_sq=1.0)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_families(n, family):
    """Noise 1e-300 to 1e6 (each link its own), 600 samples; r1 at fractions
    of link 1's single-user rates, one an ulp below a realization's own; r2
    at quantiles of the case-B column values and at thresholds an ulp from
    a realization's column value, where the witness decides link 2."""
    rng = np.random.default_rng(1000 * n + FAMILIES.index(family))
    stats = family_statistics(rng, n, family)
    for exponent in (-300, -150, -30, -6, 0, 6):
        noise = tuple(10.0 ** (exponent + x) for x in rng.uniform(-0.5, 0.5, 2))
        source = SampleSource.gaussian(stats, seed=int(rng.integers(2**31)), count=600)
        pipeline = InstantaneousRegionPipeline(source, noise)
        su1 = pipeline.su1
        r1s = [float(np.quantile(su1, f)) * s for f, s in ((0.1, 0.5), (0.5, 0.7), (0.9, 0.9))]
        r1s.append(float(np.nextafter(su1[0], 0.0)))
        for r1 in r1s:
            assert_contract(pipeline, r1)
            values = pipeline.column(r1)
            reach = values[values >= 0.0]
            r2s = [0.0]
            if reach.size:
                r2s += [float(x) for x in np.quantile(reach, [0.2, 0.6, 0.95])]
                r2s += [float(np.nextafter(v + RATE_SLACK, 0.0)) for v in reach[:2]]
            assert_equals_exact_route(source, noise, r1, r2s)


def query_points(seed: int) -> list:
    """The rate points of the benchmark's inst-queries workload at seed."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, 1.0, size=(8, 2)) * (1.7, 1.7)
    return [(round(float(x), 6), round(float(y), 6)) for x, y in xy]


def test_point_refines_only_the_straddling_rows(tmp_path, monkeypatch):
    """At the eight rate points of the benchmark's inst-queries workload at
    seed 1 (N = 2e4): each point runs the column kernel once and refines 481
    of the 29 954 searched rows in all, those whose bounds straddle its
    threshold; the three simulate calls after it refine no row and compute
    no witness rate, since no case-B row is within the margin of it."""
    config = tmp_path / "queries.json"
    config.write_text(json.dumps(demo_config("individual-inst", mc_samples=20_000, seed=1)))
    kernels, refines, witnesses = [], [], []
    kernel, refine = rate_core.max_r2_batch, rate_core.ColumnBounds.refine
    qmin = rate_core.frontier_qmin_batch

    def counted_kernel(*args):
        kernels.append(kernel(*args))
        return kernels[-1]

    def counted_refine(self, rows):
        refines.append(rows.size)
        return refine(self, rows)

    def counted_qmin(F, gamma, q, sigma_sq):
        witnesses.append(q.size)
        return qmin(F, gamma, q, sigma_sq)

    monkeypatch.setattr("miso_outage.regions.max_r2_batch", counted_kernel)
    monkeypatch.setattr(rate_core.ColumnBounds, "refine", counted_refine)
    monkeypatch.setattr("miso_outage.regions.frontier_qmin_batch", counted_qmin)
    point_rows = 0
    for r1, r2 in query_points(1):
        refines.clear()
        run(["point", str(config), repr(r1), repr(r2)])
        point_rows += sum(refines)
        refines.clear()
        for bias in ("0.2", "0.5", "0.8"):
            run(["simulate", str(config), repr(r1), repr(r2), bias, "--coin-seed", "1"])
        assert refines == [] and witnesses == [0]
        witnesses.clear()
    assert len(kernels) == 8
    assert sum(bounds.searched.size for bounds in kernels) == 29_954
    assert point_rows == 481


@pytest.mark.parametrize("seed", range(4))
def test_counts_do_not_depend_on_what_was_refined(demo_source, seed):
    """A Column that refines on demand, queried at r2 in a random order,
    with random rows refined in between, counts and splits every r2 as the
    exact column does; the bounds it tightened still give the exact column
    under ColumnBounds.refined(True), bit for bit."""
    rng = np.random.default_rng(seed)
    pipeline = InstantaneousRegionPipeline(demo_source, (0.5, 0.5))
    r1 = float(np.quantile(pipeline.su1, rng.uniform(0.05, 0.6)))
    exact = oracles.exact_column(pipeline, r1)
    values, q2 = exact.values, exact.q2
    r2s = [float(x) for x in np.quantile(values[values >= 0.0], rng.uniform(0.0, 1.0, 12))]
    bounds = pipeline._bounds(r1)
    column = Column(bounds.exceed1, pipeline.su2).refining(bounds)
    for r2 in r2s + r2s[::-1]:
        if rng.random() < 0.3:
            column.refine_rows(np.flatnonzero(rng.random(values.size) < 0.01))
        assert column.case_probs(r2) == exact.case_probs(r2), r2
        for got, want in zip(column.masks(r2), exact.masks(r2)):
            np.testing.assert_array_equal(got, want)
    for got, want in zip(bounds.refined(True), (values, q2)):
        assert got.tobytes() == want.tobytes()
