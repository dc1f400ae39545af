"""Column-local region tracing.

`InstantaneousRegionPipeline.trace_variants` computes each r1 column in the
process that bisects it and returns only (inside, r2, payload) per variant.
Its boundaries must equal the `trace_boundary` oracle run over exact
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
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import miso_outage
from miso_outage import channel, cli, regions
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

from oracles import case_counts, exact_column, trace_boundary

NOISE = (0.5, 0.5)
INST_SCENARIOS = [name for name, (_, variants) in SCENARIOS.items() if variants is not None]

# Two realizations. On the grid (0, 0.9 su1, 1.8 su1) of the first one, with
# r2_cap = 2.5 below both su2 (3.22 bits), the first is case B up to the cap
# at r1 = 0, case D above its column of 2.16 bits at the middle column and
# case C2 at the last; the second is case B up to the cap in every column.
# Fixed-choice 1 at (0.5, 0.4) serves link 2 on B and C2 but not on D, so
# its boundary reaches the cap at the first and last columns and stays below
# 2.16 bits in between: a real fixed-choice non-monotonicity, B -> D -> C2
# along r1. Every variant reaches the cap somewhere.
WARNING_CHANNELS = [
    {"h11": [1.35 + 0.189j, -0.397 - 0.021j], "h12": [0.609 - 0.152j, -0.365 + 0.242j],
     "h21": [0.103 + 0.896j, -0.865 - 1.298j], "h22": [-1.201 + 0.967j, -1.282 - 0.361j]},
    {"h11": [5.4 + 0.756j, -1.588 - 0.084j], "h12": [0.00609 - 0.00152j, -0.00365 + 0.00242j],
     "h21": [0.00103 + 0.00896j, -0.00865 - 0.01298j], "h22": [-1.201 + 0.967j, -1.282 - 0.361j]},
]


def mask_probs(column, r2) -> CaseProbabilities:
    """Case probabilities from a Column's three comparison masks at r2, by
    case_counts."""
    exceed1, exceed2, joint = column.masks(r2)
    return CaseProbabilities.from_counts(
        column.values.size, *case_counts(exceed1, exceed2, joint),
        count_true(exceed1), count_true(exceed2),
    )


def oracle_boundary(pipeline, spec, grid, variant):
    """trace_boundary over exact columns (oracles.exact_column), never the
    pipeline's column store: membership from the exact Column's counts,
    payloads from its mask counts."""
    exact = {}

    def column(r1):
        if r1 not in exact:
            exact[r1] = exact_column(pipeline, r1)
        return exact[r1]

    def member(r1, r2):
        return verdict(column(r1).case_probs(r2), spec, variant).member

    def annotate(r1, r2):
        probs = mask_probs(column(r1), r2)
        payload = probs.as_dict()["estimates"]
        payload.update(verdict(probs, spec, variant).margins())
        return payload

    meta = {"scenario_mode": spec.mode, "variant": variant,
            "n_samples": pipeline.n_samples, "seed": pipeline.source.seed}
    return trace_boundary(member, grid, annotate=annotate, metadata=meta)


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
    return source, GridConfig(r1_cap=1.8 * su1, r2_cap=2.5, n_points=3)


CASES = {
    "demo": (demo_case, (0.1, 0.1)),
    "r2-capped": (capped_case, (0.1, 0.1)),
    "explicit-warnings": (warning_case, (0.5, 0.4)),
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("scenario", INST_SCENARIOS)
def test_column_local_boundaries_equal_cached_trace(demo_source, scenario, case, workers):
    """Points, payloads, warnings and metadata equal the exact-column trace,
    and the tracing pipeline caches no column."""
    make, eps = CASES[case]
    source, grid = make(demo_source, eps)
    mode, variants = SCENARIOS[scenario]
    spec = OutageSpec.common(eps[1]) if mode == "common" else OutageSpec.individual(*eps)

    local = InstantaneousRegionPipeline(source, NOISE)
    boundaries = local.trace_variants(spec, grid, variants, workers=workers)
    assert local._stream.columns._entry is None

    cached = InstantaneousRegionPipeline(source, NOISE)
    expected = [oracle_boundary(cached, spec, grid, variant) for variant in variants]
    assert boundaries == expected
    assert all(boundary.points for boundary in boundaries)
    if case == "explicit-warnings":
        warnings = {v: b.warnings for v, b in zip(variants, boundaries)}
        assert all(any("r2 cap" in w for w in ws) for ws in warnings.values())
        if "fixed1" in warnings:
            cap = f"r2 cap {grid.r2_cap:.6g} still inside at r1="
            assert warnings["fixed1"] == [cap + f"{r1:.6g}" for r1 in grid.r1_values[[0, 2]]]


@pytest.mark.parametrize("case", ["demo", "explicit-warnings"])
@pytest.mark.parametrize("scenario", INST_SCENARIOS)
def test_base_verdict_depends_on_exceed1_alone(demo_source, scenario, case):
    """At r2 = 0 a row is case C2 where r1 > su1 and case B elsewhere (its
    column is >= 0), so each variant's verdict there is `verdict` on the
    counts (A, B, C1, C2) = (0, N - #exceed1, 0, #exceed1), the counts
    Column.at_zero gives on the base column. #exceed1 grows
    with r1, so along r1 the base point leaves the region once and never
    comes back: assemble_boundary has no non-monotone column to report."""
    make, eps = CASES[case]
    source, grid = make(demo_source, eps)
    mode, variants = SCENARIOS[scenario]
    spec = OutageSpec.common(eps[1]) if mode == "common" else OutageSpec.individual(*eps)
    pipeline = InstantaneousRegionPipeline(source, NOISE)
    su1, n = pipeline.su1, pipeline.n_samples
    r1_values = sorted([*grid.r1_values, *np.quantile(su1, [0.05, 0.1, 0.5]), *su1[:2],
                        2.0 * su1.max()])
    for variant in variants:
        inside = []
        for r1 in r1_values:
            e = count_true(r1 > su1)
            probs = CaseProbabilities.from_counts(n, 0, n - e, 0, e, e, 0)
            assert pipeline.case_probs(r1, 0.0) == probs
            assert Column(r1 > su1, pipeline.su2).at_zero() == probs
            expected = verdict(probs, spec, variant).member
            assert pipeline.member(r1, 0.0, spec, variant) == expected
            inside.append(expected)
        assert inside[0] and not inside[-1] and inside == sorted(inside, reverse=True)


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
    """On arbitrary masks, -inf column entries (on every exceed1 row, where
    max_r2_batch puts them, and elsewhere) and r2 = 0, every query, repeated
    ones from the memo included, equals the case counts of the three
    comparison masks."""
    su1, su2, column = (np.array(col) for col in zip(*rows))
    column[r1 > su1] = -math.inf
    counter = Column(r1 > su1, su2).on(column, np.zeros_like(column))
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


def record_helpers(monkeypatch) -> list:
    """Patch the fork and collect steps of `_map_columns` to log, per helper
    in the order it was forked (process h = 1, 2, ...), its pid and the
    (index, result) pairs this process receives from it."""
    helpers = []
    fork, collect = os.fork, regions._collect

    def recording_fork():
        pid = fork()
        if pid:
            helpers.append((pid, []))
        return pid

    def recording_collect(pid, read_fd):
        pairs = collect(pid, read_fd)
        dict(helpers)[pid].extend(pairs)
        return pairs

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(regions, "_collect", recording_collect)
    return helpers


def test_pooled_region_parent_caches_and_receives_no_column(tmp_path, monkeypatch):
    """`region --workers 2` over 8 columns: the last, r1 = r1_cap, is
    outside the region at r2 = 0 and decided before the split, with no
    kernel call; of the other 7, process h computes exactly order[h::2] of
    the claim order, this process (h = 0) computes the kernel only for its
    own columns, receives only scalars for the others, and caches
    nothing."""
    helpers = record_helpers(monkeypatch)
    pipelines, computed, traced = [], [], []

    class RecordingPipeline(InstantaneousRegionPipeline):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pipelines.append(self)

        def _trace_column(self, r1, spec, grid, variants):
            # A helper appends to its own copy of the list; this one sees ours.
            traced.append(list(grid.r1_values).index(r1))
            return super()._trace_column(r1, spec, grid, variants)

    kernel = regions.max_r2_batch

    def counted_kernel(*args):
        computed.append(1)
        return kernel(*args)

    monkeypatch.setattr(regions, "max_r2_batch", counted_kernel)
    monkeypatch.setattr(cli, "InstantaneousRegionPipeline", RecordingPipeline)
    config = region_config(tmp_path)
    assert cli.main(["region", config, "--out", str(tmp_path / "out"), "--workers", "2"]) == 0

    (pipeline,) = pipelines
    assert pipeline._stream.columns._entry is None
    order = list(range(7))[::-1]
    ((_, received),) = helpers
    assert traced == order[0::2]
    assert [i for i, _ in received] == order[1::2]
    assert len(computed) == len(traced)
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


def test_each_column_computed_once_by_its_process(demo_source, monkeypatch):
    """70 000 items, more than a pipe holds as one-byte tokens, over six
    processes, more than the CPUs of a usual test host: process h computes
    exactly order[h::6] of the claim order, and every result lands at its
    index."""
    helpers = record_helpers(monkeypatch)
    squared = []

    class Squares(InstantaneousRegionPipeline):
        def _square(self, r1):
            # A helper appends to its own copy of the list; this one sees ours.
            squared.append(int(r1))
            return r1 * r1

    values = [float(v) for v in range(70_000)]
    pipeline = Squares(demo_source, NOISE)
    squares = pipeline._map_columns(pipeline._square, values, 6)
    assert squares == [v * v for v in values]
    order = regions._claim_order(values)
    assert squared == order[0::6]
    assert [[i for i, _ in pairs] for _, pairs in helpers] == [order[h::6] for h in range(1, 6)]



def record_placement(monkeypatch) -> tuple[list, list]:
    """Patch the placement calls of `_map_columns` to log, in this process,
    the CPU read before each fork, and in each process, its own
    sched_setaffinity calls (a helper appends to its own copy of the
    list)."""
    read, calls = [], []
    current_cpu, setaffinity = regions._current_cpu, getattr(os, "sched_setaffinity", None)

    def recording_cpu():
        read.append(current_cpu())
        return read[-1]

    def recording_setaffinity(pid, mask):
        calls.append(set(mask))
        setaffinity(pid, mask)

    monkeypatch.setattr(regions, "_current_cpu", recording_cpu)
    monkeypatch.setattr(os, "sched_setaffinity", recording_setaffinity, raising=False)
    return read, calls


def placements(pipeline, calls, workers) -> dict:
    """pid -> (its sched_setaffinity calls, its mask after them), from a run
    that each process executes on its columns and returns through its pipe."""

    def placement(r1):
        return os.getpid(), list(calls), os.sched_getaffinity(0)

    return {pid: (made, mask) for pid, made, mask in
            pipeline._map_columns(placement, [0.0, 1.0, 2.0, 3.0], workers)}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs a mask with another CPU")
def test_helper_leaves_the_callers_cpu(demo_source, monkeypatch):
    """Each helper first excludes the CPU the caller read just before
    forking it, then restores the caller's mask; the caller calls neither."""
    helpers = record_helpers(monkeypatch)
    read, calls = record_placement(monkeypatch)
    allowed = os.sched_getaffinity(0)
    placed = placements(InstantaneousRegionPipeline(demo_source, NOISE), calls, 3)
    assert placed.pop(os.getpid()) == ([], allowed)
    assert len(read) == len(helpers) == len(placed) == 2
    for (pid, _), cpu in zip(helpers, read):
        assert cpu in allowed
        assert placed[pid] == ([allowed - {cpu}, allowed], allowed)


def test_one_cpu_mask_makes_no_affinity_call(demo_source, monkeypatch):
    """With one CPU in the mask (taskset -c 0, here a patched
    sched_getaffinity) there is nowhere to move a helper to."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _, calls = record_placement(monkeypatch)
    placed = placements(InstantaneousRegionPipeline(demo_source, NOISE), calls, 2)
    assert len(placed) == 2
    assert all(made == [] for made, _ in placed.values())


@pytest.mark.parametrize("missing", ["sched_setaffinity", "thread stat"])
def test_region_without_placement_is_unchanged(tmp_path, monkeypatch, capsys, missing):
    """Without os.sched_setaffinity (macOS has fork but not this call), or
    when the caller cannot read its CPU, helpers stay where the kernel puts
    them: `region --workers 2` prints and writes the bytes of `--workers 1`."""
    config = region_config(tmp_path)
    got = {}
    for workers in (1, 2):
        if workers == 2 and missing == "sched_setaffinity":
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        elif workers == 2:
            monkeypatch.setattr(regions, "_THREAD_STAT", str(tmp_path / "missing"))
            assert regions._current_cpu() is None
        out = tmp_path / f"out{workers}"
        assert cli.main(["region", config, "--out", str(out), "--workers", str(workers)]) == 0
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        got[workers] = (capsys.readouterr().out, files)
    assert got[2] == got[1]

@pytest.mark.parametrize("workers", [2, 3])
def test_no_thread_alive_at_a_fork(demo_stats, monkeypatch, workers):
    """Every helper is forked from a process with one thread. The sampler
    first fills a Gaussian stream of 8192 realizations on two threads (two
    usable CPUs and a thread per 4096 rows are assumed, whatever the host
    and the package's threshold); they are joined before the first fork.
    Python 3.12 warns of a fork from a process with more threads; this
    checks the same on every version."""
    monkeypatch.setattr(channel, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(channel, "_MIN_ROWS_PER_THREAD", 4096)
    started, at_fork = [], []
    start, fork = threading.Thread.start, os.fork

    def recording_start(thread):
        started.append(thread)
        start(thread)

    def recording_fork():
        at_fork.append(threading.active_count())
        return fork()

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    monkeypatch.setattr(os, "fork", recording_fork)
    regions.clear_stream_cache()
    pipeline = InstantaneousRegionPipeline(SampleSource.gaussian(demo_stats, 5, 8192), NOISE)
    assert len(started) == 1
    grid = GridConfig(*pipeline.su_caps(0.1, 0.1), n_points=4)
    pipeline.trace_variants(OutageSpec.individual(0.1, 0.1), grid, ("plain",), workers=workers)
    assert at_fork == [1] * (workers - 1)


# Runs `region --workers 2` with a column kernel that fails: in the helper,
# by raising ("raise") or by ending it with os._exit(3) ("exit"), or in the
# caller while the helper is still busy ("caller"). The helper's first column
# waits until the caller is in one too, and the caller's first column waits
# until the helper is in its own, so both take part whichever runs first.
# Prints the exit code, whether any child is left unreaped, whether the open
# descriptors are the same as before, and how many columns the caller
# computed.
FAILING_COLUMN = r"""
import json, os, select, sys, time
from miso_outage import channel, cli, regions

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
    ("raise", r"error: kernel failed in a helper", 4),
    ("exit", r"error: column helper \d+ ended \(exit status 3\) without reporting", 4),
    ("caller", r"error: kernel failed in the caller", 1),
])
def test_failing_column_is_reported_and_helpers_reaped(tmp_path, mode, message, caller_columns):
    """`region --workers 2` exits 1 with the failing column's error, or with
    a clear one when a helper died without reporting; a helper still busy
    when the caller fails is killed. No child is left unreaped and no
    descriptor stays open. A helper's failure, raised or a death, is found
    at collection, after the caller has computed its own share (4 of the 7
    columns left once r1 = r1_cap, outside at r2 = 0, is decided); a
    failure in the caller stops it at its first kernel call. In a
    subprocess with a timeout, so a hang fails the test instead of the
    suite."""
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
