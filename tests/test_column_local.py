"""Column-local region tracing.

`InstantaneousRegionPipeline.trace_variants` computes each r1 column in the
process that bisects it and returns only (inside, r2, payload) per variant.
Its boundaries must equal `trace_boundary` run over cached columns, for every
instantaneous scenario and worker count; its per-column case counts must
equal `outage_mc.case_counts` on the comparison masks; and the parent of a
pooled `region` run must neither cache nor receive a column.
"""

import json
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miso_outage import cli, regions
from miso_outage.channel import ChannelRealization, SampleSource
from miso_outage.cli import SCENARIOS
from miso_outage.outage_mc import CaseProbabilities, case_counts, count_true
from miso_outage.presets import demo_config
from miso_outage.rate_core import RATE_SLACK
from miso_outage.regions import (
    CaseCounter,
    GridConfig,
    InstantaneousRegionPipeline,
    OutageSpec,
    trace_boundary,
    verdict,
)

NOISE = (0.5, 0.5)
INST_SCENARIOS = [name for name, (_, variants) in SCENARIOS.items() if variants is not None]

# Two realizations whose first one has an empty column at r1 = su1 exactly:
# on the grid (0, su1, 2 su1) it is case D at the middle column and case C2
# at the last, so fixed-choice 1 membership at (0.5, 0.4) leaves the region
# and comes back (a non-monotone warning), and r2_cap = 0.05 is still inside.
WARNING_CHANNELS = [
    {"h11": [1.35 + 0.189j, -0.397 - 0.021j], "h12": [0.609 - 0.152j, -0.365 + 0.242j],
     "h21": [0.103 + 0.896j, -0.865 - 1.298j], "h22": [-1.201 + 0.967j, -1.282 - 0.361j]},
    {"h11": [5.4 + 0.756j, -1.588 - 0.084j], "h12": [0.00609 - 0.00152j, -0.00365 + 0.00242j],
     "h21": [0.00103 + 0.00896j, -0.00865 - 0.01298j], "h22": [-1.201 + 0.967j, -1.282 - 0.361j]},
]


def mask_probs(pipeline, r1, r2) -> CaseProbabilities:
    """Case probabilities from the three comparison masks, by case_counts."""
    exceed1, exceed2, joint = pipeline.case_tests(r1, r2)
    return CaseProbabilities.from_counts(
        pipeline.n_samples, *case_counts(exceed1, exceed2, joint),
        count_true(exceed1), count_true(exceed2),
    )


def oracle_boundary(pipeline, spec, grid, variant):
    """trace_boundary over cached columns: membership from pipeline.member,
    payloads from the mask counts."""
    pipeline.precompute_columns(grid.r1_values)

    def annotate(r1, r2):
        probs = mask_probs(pipeline, r1, r2)
        payload = probs.as_dict()["estimates"]
        payload.update(verdict(probs, spec, variant).margins())
        return payload

    meta = {"scenario_mode": spec.mode, "variant": variant,
            "n_samples": pipeline.n_samples, "seed": pipeline.source.seed}
    return trace_boundary(lambda r1, r2: pipeline.member(r1, r2, spec, variant),
                          grid, annotate=annotate, metadata=meta)


def demo_case(demo_source, eps):
    pipeline = InstantaneousRegionPipeline(demo_source, NOISE)
    r1_cap, r2_cap = pipeline.su_caps(eps[0], eps[1])
    return demo_source, GridConfig(r1_cap=r1_cap, r2_cap=r2_cap, n_points=9)


def capped_case(demo_source, eps):
    source, grid = demo_case(demo_source, eps)
    return source, GridConfig(r1_cap=grid.r1_cap, r2_cap=0.4 * grid.r2_cap, n_points=7)


def warning_case(demo_source, eps):
    source = SampleSource.explicit(
        [ChannelRealization(**{k: np.array(v) for k, v in h.items()}) for h in WARNING_CHANNELS]
    )
    su1 = float(InstantaneousRegionPipeline(source, NOISE).su1[0])
    return source, GridConfig(r1_cap=2.0 * su1, r2_cap=0.05, n_points=3)


CASES = {
    "demo": (demo_case, (0.1, 0.1)),
    "r2-capped": (capped_case, (0.1, 0.1)),
    "explicit-warnings": (warning_case, (0.5, 0.4)),
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("scenario", INST_SCENARIOS)
def test_column_local_boundaries_equal_cached_trace(demo_source, scenario, case, workers):
    """Points, payloads, warnings and metadata equal the cached-column trace,
    and the tracing pipeline caches no column."""
    make, eps = CASES[case]
    source, grid = make(demo_source, eps)
    mode, variants = SCENARIOS[scenario]
    spec = OutageSpec.common(eps[1]) if mode == "common" else OutageSpec.individual(*eps)

    local = InstantaneousRegionPipeline(source, NOISE)
    boundaries = local.trace_variants(spec, grid, variants, workers=workers)
    assert local._columns == {}

    cached = InstantaneousRegionPipeline(source, NOISE)
    expected = [oracle_boundary(cached, spec, grid, variant) for variant in variants]
    assert boundaries == expected
    assert all(boundary.points for boundary in boundaries)
    if case == "explicit-warnings":
        warnings = {v: " ".join(b.warnings) for v, b in zip(variants, boundaries)}
        assert all("r2 cap" in text for text in warnings.values())
        if "fixed1" in warnings:
            assert "non-monotone" in warnings["fixed1"]


RATES = [0.0, 0.25, 0.5, 1.0]
COLUMN_VALUES = [-math.inf, 0.0, 0.25 - 0.5 * RATE_SLACK, 0.25, 0.5 - 2.0 * RATE_SLACK, 1.0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    rows=st.lists(
        st.tuples(st.sampled_from(RATES), st.sampled_from(RATES), st.sampled_from(COLUMN_VALUES)),
        min_size=1, max_size=30,
    ),
    r1=st.sampled_from(RATES + [0.75]),
    r2s=st.lists(st.sampled_from(RATES + [0.75]), max_size=6),
)
def test_counter_equals_case_counts(rows, r1, r2s):
    """On arbitrary masks (exceed1 with joint included), -inf column entries
    and r2 = 0, every query, repeated ones from the memo included, equals the
    case counts of the three comparison masks."""
    su1, su2, column = (np.array(col) for col in zip(*rows))
    counter = CaseCounter(len(rows), su1, su2, column, r1)
    for r2 in [0.0, *r2s, *r2s]:
        exceed1, exceed2, joint = r1 > su1, r2 > su2, column >= r2 - RATE_SLACK
        expected = CaseProbabilities.from_counts(
            len(rows), *case_counts(exceed1, exceed2, joint),
            count_true(exceed1), count_true(exceed2),
        )
        assert counter.case_probs(r2) == expected


def _is_scalar_tree(value) -> bool:
    if isinstance(value, (list, tuple)):
        return all(_is_scalar_tree(v) for v in value)
    if isinstance(value, dict):
        return all(_is_scalar_tree(v) for v in value.values())
    return value is None or type(value) in (bool, float, str)


def test_pooled_region_parent_caches_and_receives_no_column(tmp_path, monkeypatch):
    """`region --workers 2` over 8 columns: this process computes its own 4
    columns, receives only scalars for the other 4, and caches nothing."""
    received, pipelines, computed = [], [], []

    class RecordingPool(ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            results = super().map(fn, *iterables, **kwargs)
            return (received.append(r) or r for r in results)

    class RecordingPipeline(InstantaneousRegionPipeline):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pipelines.append(self)

    kernel = regions.max_r2_batch

    def counted_kernel(*args):
        computed.append(1)
        return kernel(*args)

    monkeypatch.setattr(regions, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(regions, "max_r2_batch", counted_kernel)
    monkeypatch.setattr(cli, "InstantaneousRegionPipeline", RecordingPipeline)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(demo_config("individual-inst", mc_samples=2000, seed=3, n_grid=8)))
    assert cli.main(["region", str(config), "--out", str(tmp_path / "out"), "--workers", "2"]) == 0

    (pipeline,) = pipelines
    assert pipeline._columns == {}
    assert len(computed) == 4
    assert len(received) == 4
    assert all(len(steps) == 3 and _is_scalar_tree(steps) for steps in received)
