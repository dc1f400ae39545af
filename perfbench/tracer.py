"""Spans and counts recorded around the package's public functions.

The tracer patches names where they are looked up, from outside the package:
``regions`` imports ``max_r2_batch`` by name, so the kernel is wrapped as
``miso_outage.regions.max_r2_batch``; ``golden_max`` and the objectives it
evaluates are ``rate_core`` globals; ``cli`` imports ``estimate_case_probs``,
``simulate_policy``, ``load_config`` and ``write_boundary_csv`` by name.
Functions called tens of thousands of times per operation (column lookups,
membership queries, ``success_probability``) get counters, not spans.

A span records its name, start, end and parent. The process pool forks, so
workers inherit the wrappers; ``os.register_at_fork`` gives each worker an
empty span stack, and a worker appends its finished top-level spans to a file
in the spill directory, which ``collect`` reads back.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# Name and unit of every per-layer metric, in report order.
LAYER_METRICS = (
    ("channel.sample_calls", "count"),
    ("channel.samples", "count"),
    ("channel.resample_ratio", "ratio"),
    ("channel.sample_s", "s"),
    ("channel.bytes_computed", "B"),
    ("channel.self_s", "s"),
    ("rate_core.frontier_calls", "count"),
    ("rate_core.frontier_s", "s"),
    ("rate_core.column_calls", "count"),
    ("rate_core.column_s", "s"),
    ("rate_core.slack_calls", "count"),
    ("rate_core.slack_s", "s"),
    ("rate_core.optimizer_evals", "count"),
    ("rate_core.evals_per_column", "count"),
    ("rate_core.eval_s", "s"),
    ("rate_core.ns_per_elem_eval", "ns"),
    ("rate_core.self_s", "s"),
    ("outage_mc.case_calls", "count"),
    ("outage_mc.case_s", "s"),
    ("outage_mc.policy_calls", "count"),
    ("outage_mc.policy_s", "s"),
    ("outage_mc.self_s", "s"),
    ("regions.pipeline_init_s", "s"),
    ("regions.precompute_s", "s"),
    ("regions.columns_requested", "count"),
    ("regions.columns_computed", "count"),
    ("regions.column_hit_ratio", "ratio"),
    ("regions.pool_workers", "count"),
    ("regions.pool_cpu_util", "ratio"),
    ("regions.trace_s", "s"),
    ("regions.member_calls", "count"),
    ("regions.case_probs_calls", "count"),
    ("regions.case_probs_s", "s"),
    ("regions.trace_warnings", "count"),
    ("regions.boundary_err_max", "bit"),
    ("regions.self_s", "s"),
    ("stat_csi.search_init_s", "s"),
    ("stat_csi.boundary_s", "s"),
    ("stat_csi.invert_calls", "count"),
    ("stat_csi.invert_s", "s"),
    ("stat_csi.success_evals", "count"),
    ("stat_csi.success_elems", "count"),
    ("stat_csi.candidate_points", "count"),
    ("stat_csi.kept_points", "count"),
    ("stat_csi.pareto_s", "s"),
    ("stat_csi.self_s", "s"),
    ("cli.config_load_s", "s"),
    ("cli.csv_write_s", "s"),
    ("cli.artifact_bytes", "B"),
    ("cli.artifact_identical", "ratio"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)
MODULES = ("channel", "rate_core", "outage_mc", "regions", "stat_csi", "cli")


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """In-memory spans and counters of one process; see the module docstring."""

    def __init__(self):
        self.spill_dir = None
        self.main_pid = os.getpid()
        self.enabled = True
        # (pipeline, spec, grid, variant, boundary) of every traced boundary
        self.traces = []
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self):
        self.spans = []
        self.stack = []
        self.counters = Counter()
        self._next_id = 0

    def restart(self, spill_dir: Path):
        """Forget everything recorded so far; the next repetition spills to spill_dir."""
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(parents=True)
        self.traces = []
        self._reset()

    @contextmanager
    def span(self, name: str):
        self._next_id += 1
        sp = {"pid": os.getpid(), "id": self._next_id,
              "parent": self.stack[-1]["id"] if self.stack else None,
              "name": name, "attrs": {}}
        self.stack.append(sp)
        sp["start"] = time.perf_counter()
        try:
            yield sp
        finally:
            sp["end"] = time.perf_counter()
            self.stack.pop()
            self.spans.append(sp)
            if not self.stack and sp["pid"] != self.main_pid:
                self._spill()

    def _spill(self):
        path = self.spill_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a") as f:
            f.write(json.dumps({"spans": self.spans, "counters": self.counters}) + "\n")
        self.spans = []
        self.counters = Counter()

    def collect(self) -> tuple[list[dict], Counter]:
        """Spans and counters of this process and of every pool worker."""
        spans = list(self.spans)
        counters = Counter(self.counters)
        for path in sorted(self.spill_dir.glob("worker-*.jsonl")):
            for line in path.read_text().splitlines():
                chunk = json.loads(line)
                spans.extend(chunk["spans"])
                counters.update(chunk["counters"])
        return spans, counters

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, record=None, before=None):
        """Replace owner.attr with a spanned wrapper.

        before(bound_args) runs first and its value is passed on;
        record(span, bound_args, result, state) annotates the span.
        """
        original = getattr(owner, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            bound = None
            if record is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            state = before() if before is not None else None
            with self.span(name) as sp:
                result = original(*args, **kwargs)
                if record is not None:
                    record(sp, bound.arguments, result, state)
            return result

        setattr(owner, attr, wrapper)

    def count(self, owner, attr: str, key: str, elems=None, when=None):
        """Replace owner.attr with a wrapper that only counts calls."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if self.enabled and (when is None or when()):
                self.counters[key] += 1
                if elems is not None:
                    self.counters[key + ".elems"] += elems(result)
            return result

        setattr(owner, attr, wrapper)

    def wrap_optimizer(self, rate_core):
        """Span golden_max and count its objective evaluations and elements."""
        original = rate_core.golden_max

        @functools.wraps(original)
        def golden_max(f, lo, hi, *args, **kwargs):
            if not self.enabled:
                return original(f, lo, hi, *args, **kwargs)
            with self.span("rate_core.optimizer") as sp:
                attrs = sp["attrs"]
                attrs["evals"] = attrs["elems"] = 0

                def objective(x):
                    attrs["evals"] += 1
                    attrs["elems"] += x.size
                    return f(x)

                return original(objective, lo, hi, *args, **kwargs)

        rate_core.golden_max = golden_max

    def install(self):
        """Wrap the public functions of every layer the workloads reach."""
        from miso_outage import channel, cli, outage_mc, rate_core, regions, stat_csi

        def sampled(sp, a, result, state):
            sp["attrs"]["samples"] = a["stop"] - a["start"]
            sp["attrs"]["bytes"] = sum(v.nbytes for v in result.values())

        self.wrap(channel, "gaussian_sample_arrays", "channel.sample", record=sampled)

        for module in (regions, outage_mc):
            self.wrap(module, "frontier_batch", "rate_core.frontier")
        self.wrap(regions, "max_r2_batch", "rate_core.column")
        self.wrap(outage_mc, "achievability_slack_batch", "rate_core.slack")
        self.wrap_optimizer(rate_core)

        self.wrap(cli, "estimate_case_probs", "outage_mc.case")
        self.wrap(cli, "simulate_policy", "outage_mc.policy")

        pipeline = regions.InstantaneousRegionPipeline
        self.wrap(pipeline, "__init__", "regions.pipeline_init")

        def precomputed(sp, a, result, cpu_before):
            sp["attrs"]["requested"] = len(a["r1_values"])
            if a["workers"] > 1:
                sp["attrs"]["pool_cpu_s"] = _children_cpu_s() - cpu_before

        self.wrap(pipeline, "precompute_columns", "regions.precompute",
                  record=precomputed, before=_children_cpu_s)

        def traced(sp, a, result, state):
            sp["attrs"]["warnings"] = len(result.warnings)
            self.traces.append((a["self"], a["spec"], a["grid"], a["variant"], result))

        self.wrap(pipeline, "trace", "regions.trace", record=traced)
        self.wrap(pipeline, "case_probs", "regions.case_probs")
        self.count(pipeline, "member", "regions.member")
        self.count(pipeline, "column", "regions.column_lookup",
                   when=lambda: not (self.stack and self.stack[-1]["name"] == "regions.precompute"))

        search = stat_csi.StatRegionSearch
        self.wrap(search, "__init__", "stat_csi.search_init")
        self.wrap(search, "boundary", "stat_csi.boundary")
        self.wrap(stat_csi, "_invert_success", "stat_csi.invert")
        self.count(stat_csi, "success_probability", "stat_csi.success", elems=lambda r: r.size)

        def filtered(sp, a, result, state):
            sp["attrs"]["candidates"] = len(a["points"])
            sp["attrs"]["kept"] = len(result)

        self.wrap(stat_csi, "non_dominated_points", "stat_csi.pareto", record=filtered)

        self.wrap(cli, "load_config", "cli.config_load")
        self.wrap(cli, "write_boundary_csv", "cli.csv_write")


def bisection_error_max(traces, rate_slack: float) -> float:
    """Largest distance from a traced boundary point up to the exact boundary
    of the sampled region along its column.

    Along a cached column, membership changes only where r2 crosses a
    single-user rate su2 or a realization's largest achievable r2 (plus the
    rate slack), so the exact boundary is the largest such threshold that is
    still a member; it lies within one bisection tolerance above the point.
    Call with the tracer disabled.
    """
    import numpy as np

    worst = 0.0
    for pipeline, spec, grid, variant, boundary in traces:
        for p in boundary.points:
            if p.r2 >= grid.r2_cap:
                continue
            column = pipeline.column(p.r1)
            cand = np.concatenate([pipeline.su2, column + rate_slack])
            cand = np.sort(cand[(cand >= p.r2) & (cand <= p.r2 + grid.tolerance)])
            lo, hi = 0, len(cand)
            while lo < hi:
                mid = (lo + hi) // 2
                if pipeline.member(p.r1, float(cand[mid]), spec, variant):
                    lo = mid + 1
                else:
                    hi = mid
            if lo:
                worst = max(worst, float(cand[lo - 1]) - p.r2)
    return worst


def layer_metrics(spans: list[dict], counters: Counter, n_samples: int, main_pid: int) -> dict:
    """Per-layer metrics from one traced repetition (see LAYER_METRICS).

    Times named after a layer boundary are inclusive span durations;
    ``<module>.self_s`` is the time spent in that module's spans minus the
    part covered by their child spans.
    """
    by_name = defaultdict(list)
    child_time = Counter()
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            child_time[(s["pid"], s["parent"])] += s["end"] - s["start"]

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def attr(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    self_s = Counter()
    for s in spans:
        self_s[s["name"].split(".")[0]] += s["end"] - s["start"] - child_time[(s["pid"], s["id"])]

    column_ids = {(s["pid"], s["id"]) for s in by_name["rate_core.column"]}
    column_evals = sum(s["attrs"]["evals"] for s in by_name["rate_core.optimizer"]
                       if (s["pid"], s["parent"]) in column_ids)
    evals = attr("rate_core.optimizer", "evals")
    optimizer_s = busy("rate_core.optimizer")

    pool_spans = [s for s in by_name["regions.precompute"] if "pool_cpu_s" in s["attrs"]]
    pool_wall = sum(s["end"] - s["start"] for s in pool_spans)
    pool_cpu = sum(s["attrs"]["pool_cpu_s"] for s in pool_spans)
    workers = len({s["pid"] for s in spans if s["pid"] != main_pid})

    requested = attr("regions.precompute", "requested") + counters["regions.column_lookup"]
    computed = calls("rate_core.column")

    m = {
        "channel.sample_calls": calls("channel.sample"),
        "channel.samples": attr("channel.sample", "samples"),
        "channel.resample_ratio": ratio(attr("channel.sample", "samples"), n_samples),
        "channel.sample_s": busy("channel.sample"),
        "channel.bytes_computed": attr("channel.sample", "bytes"),
        "rate_core.frontier_calls": calls("rate_core.frontier"),
        "rate_core.frontier_s": busy("rate_core.frontier"),
        "rate_core.column_calls": computed,
        "rate_core.column_s": busy("rate_core.column"),
        "rate_core.slack_calls": calls("rate_core.slack"),
        "rate_core.slack_s": busy("rate_core.slack"),
        "rate_core.optimizer_evals": evals,
        "rate_core.evals_per_column": ratio(column_evals, computed),
        "rate_core.eval_s": ratio(optimizer_s, evals),
        "rate_core.ns_per_elem_eval": ratio(optimizer_s, attr("rate_core.optimizer", "elems")) * 1e9,
        "outage_mc.case_calls": calls("outage_mc.case"),
        "outage_mc.case_s": busy("outage_mc.case"),
        "outage_mc.policy_calls": calls("outage_mc.policy"),
        "outage_mc.policy_s": busy("outage_mc.policy"),
        "regions.pipeline_init_s": busy("regions.pipeline_init"),
        "regions.precompute_s": busy("regions.precompute"),
        "regions.columns_requested": requested,
        "regions.columns_computed": computed,
        "regions.column_hit_ratio": ratio(requested - computed, requested),
        "regions.pool_workers": workers,
        "regions.pool_cpu_util": ratio(pool_cpu, workers * pool_wall),
        "regions.trace_s": busy("regions.trace"),
        "regions.member_calls": counters["regions.member"],
        "regions.case_probs_calls": calls("regions.case_probs"),
        "regions.case_probs_s": busy("regions.case_probs"),
        "regions.trace_warnings": attr("regions.trace", "warnings"),
        "stat_csi.search_init_s": busy("stat_csi.search_init"),
        "stat_csi.boundary_s": busy("stat_csi.boundary"),
        "stat_csi.invert_calls": calls("stat_csi.invert"),
        "stat_csi.invert_s": busy("stat_csi.invert"),
        "stat_csi.success_evals": counters["stat_csi.success"],
        "stat_csi.success_elems": counters["stat_csi.success.elems"],
        "stat_csi.candidate_points": attr("stat_csi.pareto", "candidates"),
        "stat_csi.kept_points": attr("stat_csi.pareto", "kept"),
        "stat_csi.pareto_s": busy("stat_csi.pareto"),
        "cli.config_load_s": busy("cli.config_load"),
        "cli.csv_write_s": busy("cli.csv_write"),
    }
    for module in MODULES:
        m[f"{module}.self_s"] = self_s[module]
    return m
