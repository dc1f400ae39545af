"""Column-local region tracing.

`InstantaneousRegionPipeline.trace_variants` computes each r1 column in the
process that bisects it and returns only (inside, r2, payload) per variant.
Its boundaries must equal the `trace_boundary` oracle run over cached
columns, for every instantaneous scenario and worker count; its per-column
case counts must equal the `case_counts` oracle on the comparison masks; and the parent of a
`region --workers 2` run must neither cache nor receive a column. A helper
that fails is reported and reaped, and the claim order (largest r1 first)
does not change the boundaries.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import miso_outage
from miso_outage import cli, regions
from miso_outage.channel import ChannelRealization, SampleSource
from miso_outage.cli import SCENARIOS
from miso_outage.outage_mc import CaseProbabilities, count_true
from miso_outage.presets import demo_config
from miso_outage.rate_core import RATE_SLACK
from miso_outage.regions import (
    Column,
    GridConfig,
    InstantaneousRegionPipeline,
    OutageSpec,
    boundary_csv_lines,
    verdict,
)

from oracles import case_counts, trace_boundary

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
    assert local._stream.columns == {}

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
    counter = Column(r1, su1, su2, column, np.zeros_like(column))
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


def region_config(tmp_path) -> str:
    """The demo individual-inst region at 2000 samples over 8 columns."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(demo_config("individual-inst", mc_samples=2000, seed=3, n_grid=8)))
    return str(config)


def record_claims(monkeypatch) -> tuple[list, list]:
    """Patch the claim and collect steps of `_map_columns` to log the indices
    this process claims and the (index, result) pairs it receives."""
    claimed, received = [], []
    claims, collect = regions._claims, regions._collect

    def recording_claims(fd, order):
        # A helper appends to its own copy of the list; this one sees ours.
        for i in claims(fd, order):
            claimed.append(i)
            yield i

    def recording_collect(pid, read_fd):
        pairs = collect(pid, read_fd)
        received.extend(pairs)
        return pairs

    monkeypatch.setattr(regions, "_claims", recording_claims)
    monkeypatch.setattr(regions, "_collect", recording_collect)
    return claimed, received


def test_pooled_region_parent_caches_and_receives_no_column(tmp_path, monkeypatch):
    """`region --workers 2` over 8 columns: each column is claimed exactly
    once, this process computes the kernel only for the columns it claimed,
    receives only scalars for the others, and caches nothing."""
    claimed, received = record_claims(monkeypatch)
    pipelines, computed = [], []

    class RecordingPipeline(InstantaneousRegionPipeline):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pipelines.append(self)

    kernel = regions.max_r2_batch

    def counted_kernel(*args):
        computed.append(1)
        return kernel(*args)

    monkeypatch.setattr(regions, "max_r2_batch", counted_kernel)
    monkeypatch.setattr(cli, "InstantaneousRegionPipeline", RecordingPipeline)
    config = region_config(tmp_path)
    assert cli.main(["region", config, "--out", str(tmp_path / "out"), "--workers", "2"]) == 0

    (pipeline,) = pipelines
    assert pipeline._stream.columns == {}
    assert sorted(claimed + [i for i, _ in received]) == list(range(8))
    assert len(computed) == len(claimed)
    assert all(len(steps) == 3 and _is_scalar_tree(steps) for _, steps in received)


def test_columns_claimed_largest_r1_first():
    assert regions._claim_order([0.0, 0.5, 0.25, 0.75]) == [3, 1, 2, 0]


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_claim_order_does_not_change_boundaries(demo_source, monkeypatch, order):
    """The boundaries, down to their CSV bytes, do not depend on the order
    in which the processes claim the columns."""
    source, grid = demo_case(demo_source, (0.1, 0.1))
    spec = OutageSpec.individual(0.1, 0.1)
    variants = SCENARIOS["individual-inst"][1]
    expected = InstantaneousRegionPipeline(source, NOISE).trace_variants(spec, grid, variants,
                                                                         workers=2)
    largest_first = regions._claim_order

    def reordered(r1_values):
        indices = largest_first(r1_values)[::-1]
        if order == "shuffled":
            np.random.default_rng(5).shuffle(indices)
        return indices

    monkeypatch.setattr(regions, "_claim_order", reordered)
    for workers in (2, 3):
        got = InstantaneousRegionPipeline(source, NOISE).trace_variants(spec, grid, variants,
                                                                        workers=workers)
        assert got == expected
        assert [boundary_csv_lines(b) for b in got] == [boundary_csv_lines(b) for b in expected]


def test_each_claim_taken_once_under_contention(demo_source, monkeypatch):
    """70 000 items, more than a pipe holds as one-byte tokens, over six
    processes, more than the CPUs of a usual test host: every item is
    claimed by exactly one process and its result lands at its index."""
    claimed, received = record_claims(monkeypatch)

    class Squares(InstantaneousRegionPipeline):
        def _square(self, r1):
            return r1 * r1

    values = [float(v) for v in range(70_000)]
    squares = Squares(demo_source, NOISE)._map_columns("_square", values, 6)
    assert squares == [v * v for v in values]
    assert sorted(claimed + [i for i, _ in received]) == list(range(len(values)))


# Runs `region --workers 2` with a column kernel that fails: in the helper,
# by raising ("raise") or by ending it with os._exit(3) ("exit"), or in the
# caller while the helper is still busy ("caller"). The helper's first column
# waits until the caller is in one too, and the caller's first column waits
# until the helper is in its own, so both take part whichever runs first;
# the caller then waits 0.2 s more, so a helper's failure lands before the
# caller claims again. Prints the exit code, whether any child is left
# unreaped, whether the open descriptors are the same as before, and how
# many columns the caller computed.
FAILING_COLUMN = r"""
import json, os, select, sys, time
from miso_outage import cli, regions

mode, config, out = sys.argv[1:]
caller = os.getpid()
caller_in_r, caller_in_w = os.pipe()
helper_in_r, helper_in_w = os.pipe()
kernel = regions.max_r2_batch
computed = []

def failing_kernel(*args):
    if os.getpid() != caller:
        select.select([caller_in_r], [], [], 60.0)
        os.write(helper_in_w, b"x")
        if mode == "exit":
            os._exit(3)
        if mode == "raise":
            raise ValueError("kernel failed in a helper")
        time.sleep(100)
    if not computed:
        os.write(caller_in_w, b"x")
        select.select([helper_in_r], [], [], 60.0)
        time.sleep(0.2)
    computed.append(1)
    if mode == "caller":
        raise ValueError("kernel failed in the caller")
    return kernel(*args)

regions.max_r2_batch = failing_kernel
fds = sorted(os.listdir("/proc/self/fd"))
rc = cli.main(["region", config, "--out", out, "--workers", "2"])
try:
    os.waitpid(-1, os.WNOHANG)
    reaped = False
except ChildProcessError:
    reaped = True
print(json.dumps({"rc": rc, "reaped": reaped,
                  "fds_kept": sorted(os.listdir("/proc/self/fd")) == fds,
                  "caller_columns": len(computed)}))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists descriptors in /proc")
@pytest.mark.parametrize("mode, message, caller_columns", [
    ("raise", r"error: kernel failed in a helper", 1),
    ("exit", r"error: column helper \d+ ended \(exit status 3\) without reporting", 7),
    ("caller", r"error: kernel failed in the caller", 1),
])
def test_failing_column_is_reported_and_helpers_reaped(tmp_path, mode, message, caller_columns):
    """`region --workers 2` exits 1 with the failing column's error, or with
    a clear one when a helper died without reporting; a helper still busy
    when the caller fails is killed. No child is left unreaped and no
    descriptor stays open. A column that raises in the helper ends the
    claims, so the caller computes only the column it is on (1 of 8); a
    helper that dies is found only at collection, after the caller has
    computed the other 7. In a subprocess with a timeout, so a hang fails
    the test instead of the suite."""
    env = dict(os.environ)
    src = str(Path(miso_outage.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-c", FAILING_COLUMN, mode, region_config(tmp_path), str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "rc": 1, "reaped": True, "fds_kept": True, "caller_columns": caller_columns,
    }
    assert re.search(message, done.stderr), done.stderr
    assert not out.exists()


def test_workers_need_fork(tmp_path, monkeypatch, capsys):
    """Without os.fork, `--workers 2` fails with a message naming --workers
    instead of quietly running on one process; `--workers 1` still runs."""
    monkeypatch.delattr(os, "fork")
    config = region_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["region", config, "--out", str(out), "--workers", "2"]) == 1
    assert "--workers 2" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["region", config, "--out", str(out), "--workers", "1"]) == 0
