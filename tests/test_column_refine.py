"""Bound-and-refine column tracing.

`InstantaneousRegionPipeline._trace_column` bisects every variant on the
column kernel's lower and upper bounds, refines in one call the searched
rows whose bounds straddle a count still in doubt, and bisects again on the
result. Its (inside, r2, payload) per variant must equal, bit for bit, a
trace over the fully refined column (`exact_trace`): with the kernel's own
bounds, and with any looser ones, since the argument uses only
lower <= value <= upper. A column outside at r2 = 0 even on its upper bound
refines nothing, and neither does one whose bounds decide every count.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miso_outage import rate_core
from miso_outage.channel import ChannelStatistics, SampleSource
from miso_outage.cli import SCENARIOS, parse_config
from miso_outage.presets import demo_config
from miso_outage.regions import (
    Column,
    GridConfig,
    InstantaneousRegionPipeline,
    OutageSpec,
    assemble_boundary,
    trace_column,
    verdict,
)

from conftest import random_psd

NOISE = (0.5, 0.5)
INST_SCENARIOS = [name for name, (_, variants) in SCENARIOS.items() if variants is not None]


def scenario_spec(scenario, eps=(0.1, 0.1)):
    mode, variants = SCENARIOS[scenario]
    spec = OutageSpec.common(eps[0]) if mode == "common" else OutageSpec.individual(*eps)
    return spec, tuple(variants)


def exact_trace(pipeline, r1, spec, grid, variants) -> list:
    """trace_column of every variant on one Column over the fully refined
    column at r1: every query counted on the exact values."""
    exceed1, values, q2 = pipeline._search(r1)
    column = Column(exceed1, pipeline.su2).on(values, q2)

    def traced(variant):
        def member(r1, r2):
            return verdict(column.case_probs(r2), spec, variant).member

        def annotate(r1, r2):
            probs = column.case_probs(r2)
            payload = probs.as_dict()["estimates"]
            payload.update(verdict(probs, spec, variant).margins())
            return payload

        return trace_column(member, r1, grid, annotate)

    return [traced(variant) for variant in variants]


def record_refines(monkeypatch) -> list:
    """Sizes of the ColumnBounds.refine calls from here on that a Column
    makes (the ones _trace_column makes), not those of the exact columns of
    _search (ColumnBounds.refined)."""
    sizes, exact = [], []
    refine, refined = rate_core.ColumnBounds.refine, rate_core.ColumnBounds.refined

    def recorded(self, rows):
        if not exact:
            sizes.append(rows.size)
        return refine(self, rows)

    def unrecorded(self, which):
        exact.append(which)
        try:
            return refined(self, which)
        finally:
            exact.pop()

    monkeypatch.setattr(rate_core.ColumnBounds, "refine", recorded)
    monkeypatch.setattr(rate_core.ColumnBounds, "refined", unrecorded)
    return sizes


def with_bounds(monkeypatch, pipeline, change):
    """Make the pipeline trace on change(bounds) instead of the kernel's own."""
    own = pipeline._bounds
    monkeypatch.setattr(pipeline, "_bounds", lambda r1: change(own(r1)))


def with_values(bounds, lower, upper):
    """A copy of bounds whose lower and upper are the given arrays."""
    bounds = copy.copy(bounds)
    bounds.lower, bounds.upper = lower, upper
    return bounds


def loosen(bounds, lower=None, upper=None):
    """bounds with other lower and upper values on the searched rows, given
    as functions of the kernel's (rows keep their closed-form values)."""
    rows = bounds.searched
    lo, hi = bounds.lower.copy(), bounds.upper.copy()
    if lower is not None:
        lo[rows] = lower(lo[rows])
    if upper is not None:
        hi[rows] = upper(hi[rows])
    return with_values(bounds, lo, hi)


def tighten(bounds):
    """bounds whose lower and upper are both the exact values."""
    values = bounds.refined(True)[0]
    return with_values(bounds, values, values.copy())


def demo_grid(pipeline, n_points=9, r2_scale=1.0):
    r1_cap, r2_cap = pipeline.su_caps(0.1, 0.1)
    return GridConfig(r1_cap=r1_cap, r2_cap=r2_scale * r2_cap, n_points=n_points)


def assert_columns_equal(pipeline, spec, grid, variants):
    for r1 in grid.r1_values:
        r1 = float(r1)
        assert (pipeline._trace_column(r1, spec, grid, variants)
                == exact_trace(pipeline, r1, spec, grid, variants)), r1


@pytest.mark.parametrize("r2_scale", [1.0, 0.4])
@pytest.mark.parametrize("scenario", INST_SCENARIOS)
def test_columns_equal_the_exact_trace(demo_source, monkeypatch, scenario, r2_scale):
    """Every column of the demo grid, and of one whose r2 cap is still
    inside, equals the trace over the fully refined column, and the refines
    take a small share of the searched rows."""
    pipeline = InstantaneousRegionPipeline(demo_source, NOISE)
    spec, variants = scenario_spec(scenario)
    grid = demo_grid(pipeline, r2_scale=r2_scale)
    sizes = record_refines(monkeypatch)
    assert_columns_equal(pipeline, spec, grid, variants)
    searched = sum(pipeline._bounds(float(r1)).searched.size for r1 in grid.r1_values)
    assert 0 < sum(sizes) < 0.25 * searched


@pytest.mark.parametrize("workers", [2, 3])
def test_forked_helpers_trace_the_exact_columns(demo_source, workers):
    """Columns bounded and refined in forked helpers give the boundary
    points and warnings of the exact traces."""
    pipeline = InstantaneousRegionPipeline(demo_source, NOISE)
    spec, variants = scenario_spec("individual-inst")
    grid = demo_grid(pipeline)
    columns = [exact_trace(pipeline, float(r1), spec, grid, variants) for r1 in grid.r1_values]
    expected = [assemble_boundary(grid, [column[i] for column in columns])
                for i in range(len(variants))]
    got = pipeline.trace_variants(spec, grid, variants, workers=workers)
    assert [(b.points, b.warnings) for b in got] == [(b.points, b.warnings) for b in expected]


def test_column_outside_even_on_the_upper_bound_refines_nothing(demo_source, monkeypatch):
    pipeline = InstantaneousRegionPipeline(demo_source, NOISE)
    spec, variants = scenario_spec("individual-inst")
    grid = demo_grid(pipeline)
    r1 = float(grid.r1_values[-1])
    bounds = pipeline._bounds(r1)
    upper = Column(bounds.exceed1, pipeline.su2).on(bounds.upper)
    assert not any(verdict(upper.case_probs(0.0), spec, v).member for v in variants)
    sizes = record_refines(monkeypatch)
    assert pipeline._trace_column(r1, spec, grid, variants) == [(False, None, None)] * 3
    assert sizes == []
    assert exact_trace(pipeline, r1, spec, grid, variants) == [(False, None, None)] * 3


def test_cap_inside_column(demo_source):
    """r2_cap inside for every variant: the bisections stop at the cap on
    both bounds, and the payload there is exact."""
    pipeline = InstantaneousRegionPipeline(demo_source, NOISE)
    spec, variants = scenario_spec("individual-inst")
    grid = GridConfig(r1_cap=1.0, r2_cap=0.05, n_points=3)
    r1 = 0.5
    traced = pipeline._trace_column(r1, spec, grid, variants)
    assert [r2 for _, r2, _ in traced] == [grid.r2_cap] * 3
    assert traced == exact_trace(pipeline, r1, spec, grid, variants)


def test_column_outside_on_the_lower_bound_inside_on_the_upper(demo_source, monkeypatch):
    """With the searched rows' lower bounds at -inf, some variant is
    outside at r2 = 0 on the lower bound, inside on the exact column: its
    doubt starts at r2 = 0, and the trace still equals the exact one."""
    pipeline = InstantaneousRegionPipeline(demo_source, NOISE)
    spec, variants = scenario_spec("individual-inst")
    grid = demo_grid(pipeline)
    r1 = float(grid.r1_values[6])
    expected = exact_trace(pipeline, r1, spec, grid, variants)
    assert all(inside for inside, _, _ in expected)
    with_bounds(monkeypatch, pipeline,
                lambda b: loosen(b, lower=lambda lo: np.full_like(lo, -np.inf)))
    bounds = pipeline._bounds(r1)
    lower = Column(bounds.exceed1, pipeline.su2).on(bounds.lower)
    assert not all(verdict(lower.case_probs(0.0), spec, v).member for v in variants)
    assert pipeline._trace_column(r1, spec, grid, variants) == expected


def test_empty_window(demo_source, monkeypatch):
    """No searched row (r1 = 0), or bounds that decide every count (both
    equal to the exact values): the traces are exact with no refine."""
    pipeline = InstantaneousRegionPipeline(demo_source, NOISE)
    spec, variants = scenario_spec("individual-inst")
    grid = demo_grid(pipeline)
    sizes = record_refines(monkeypatch)
    assert pipeline._bounds(0.0).searched.size == 0
    assert pipeline._trace_column(0.0, spec, grid, variants) == exact_trace(
        pipeline, 0.0, spec, grid, variants)
    r1 = float(grid.r1_values[4])
    expected = exact_trace(pipeline, r1, spec, grid, variants)
    sizes.clear()
    with_bounds(monkeypatch, pipeline, tighten)
    assert pipeline._bounds(r1).searched.size > 0
    assert pipeline._trace_column(r1, spec, grid, variants) == expected
    assert sizes == []


@pytest.mark.parametrize("how", ["lower", "upper", "both", "infinite upper"])
@pytest.mark.parametrize("scenario", INST_SCENARIOS)
def test_looser_bounds_give_the_same_trace(demo_source, monkeypatch, scenario, how):
    """The trace depends on the bounds only through lower <= value <= upper:
    bounds loosened by random amounts (or an infinite upper bound) trace the
    same columns, bit for bit."""
    rng = np.random.default_rng(INST_SCENARIOS.index(scenario))
    pipeline = InstantaneousRegionPipeline(demo_source, NOISE)
    spec, variants = scenario_spec(scenario)
    grid = demo_grid(pipeline, n_points=7)

    def lower(lo):
        return lo - rng.exponential(0.05, lo.size) if how in ("lower", "both") else lo

    def upper(hi):
        if how == "infinite upper":
            return np.full_like(hi, np.inf)
        return hi + rng.exponential(0.05, hi.size) if how in ("upper", "both") else hi

    with_bounds(monkeypatch, pipeline, lambda b: loosen(b, lower, upper))
    assert_columns_equal(pipeline, spec, grid, variants)


def test_tiny_noise_region():
    """The 1000-bit region at noise 1e-300 (demo statistics, 1500 samples,
    seed 4, caps of 1000 bits on both axes)."""
    doc = demo_config("individual-inst", mc_samples=1500, seed=4, n_grid=8)
    doc["noise"] = [1e-300, 1e-300]
    config = parse_config(json.dumps(doc))
    pipeline = InstantaneousRegionPipeline(config.source, config.noise)
    spec, variants = scenario_spec("individual-inst", config.epsilons)
    grid = GridConfig(r1_cap=1000.0, r2_cap=1000.0, n_points=8)
    assert_columns_equal(pipeline, spec, grid, variants)
    assert any(pipeline._bounds(float(r1)).searched.size for r1 in grid.r1_values)


def degenerate_statistics(rng, n: int, family: str, noise) -> ChannelStatistics:
    """Random covariances bent into one family: zero cross covariances,
    rank-1 covariances, or rank-1 own covariances with each cross covariance
    a multiple of the same transmitter's own (aligned channels)."""
    rank = 1 if family in ("rank-1", "aligned") else n
    Q = {key: random_psd(rng, n, rank) for key in ("Q11", "Q12", "Q21", "Q22")}
    if family == "zero-cross":
        Q["Q12"] = Q["Q21"] = np.zeros((n, n))
    elif family == "aligned":
        Q["Q12"] = float(rng.uniform(0.1, 3.0)) * Q["Q11"]
        Q["Q21"] = float(rng.uniform(0.1, 3.0)) * Q["Q22"]
    return ChannelStatistics(n=n, **Q, sigma1_sq=noise[0], sigma2_sq=noise[1])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([1, 8]),
    family=st.sampled_from(["zero-cross", "rank-1", "aligned", "random"]),
    log_noise=st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
    seed=st.integers(0, 2**32 - 1),
    scenario=st.sampled_from(INST_SCENARIOS),
)
def test_degenerate_statistics(n, family, log_noise, seed, scenario):
    """Streams of degenerate statistics (n = 1 or 8; zero, rank-1 or aligned
    cross covariances; noise 1e-6 to 1e6): every column of a 6-point grid
    equals the trace over the fully refined column."""
    rng = np.random.default_rng(seed)
    noise = tuple(10.0 ** x for x in log_noise)
    stats = degenerate_statistics(rng, n, family, noise)
    pipeline = InstantaneousRegionPipeline(SampleSource.gaussian(stats, seed, 600), noise)
    spec, variants = scenario_spec(scenario)
    assert_columns_equal(pipeline, spec, demo_grid(pipeline, n_points=6), variants)
