"""Outage-constrained rate-region membership and boundary tracing.

A rate pair belongs to the common-outage region when the probability of joint
achievability satisfies p_b >= 1 - eps. For individual outage constraints
(eps1, eps2) membership holds iff a constant mixing bias p for case D exists
such that each link succeeds often enough; nonemptiness of that bias interval
is equivalent to three linear conditions on the case probabilities:

    eps1 >= p_a + p_c2
    eps2 >= p_a + p_c1
    eps1 + eps2 >= 1 + p_a - p_b

Membership and interval emptiness are decided from one canonical computation
of these margins so the equivalence is exact in floating point, not just in
exact arithmetic. Fixed-choice variants pin the case-D decision to one link.

Boundary tracing bisects the largest member r2 per r1 grid column. The
instantaneous-region pipeline classifies one shared sample stream (common
random numbers) through, per column, each realization's largest achievable
r2, so scenario nesting can be verified pointwise without re-sampling noise.
A column is read only with su1 and su2, so a region is traced column-locally:
the process that computes a column bisects every variant on it, builds the
payloads at the boundary points and drops the column, returning a few scalars
per variant. With the columns ordered largest r1 first, the caller and k - 1
forked helpers each compute every k-th of them; results do not depend on
who computed a column, and the caller assembles the boundaries in r1 order.
Every reader of the column at r1 goes through one Column: the values and
maximizers of one max_r2_batch call, whose empty rows are the Column's
exceed1 = r1 > su1, its case counts, masks, case B's operating point and
the policy's bias-free part at the last (r2, coin seed).
A Column is bounded before it is searched: it counts on the kernel's lower
bound of the column, with the rows it has refined written in, and before a
count at r2 it root-searches, in one call, the rows whose lower and upper
bounds straddle the joint threshold r2 - RATE_SLACK (Column.refine). Every
other row is on the same side of the threshold as its exact value, so the
counts, and every output, are the exact column's, bit for bit, whatever
was refined before. point refines the rows its one threshold leaves in
doubt, and simulate only the case-B rows whose link-2 witness it needs
(outage_mc.split_policy). A traced column bisects every variant on the
kernel's lower and upper bounds first, and its Column refines the rows
that leave a queried count in doubt at once (_trace_column). column(),
precompute_columns (column over a list), witness_rates and is_achievable
refine every searched row.

What a process keeps between commands (the sampled stream and its column
store here, the policy split on each Column, the run-config and the
beamformer search in cli) is held by one rule, LastValue: the value built
for the last key is returned for an equal key; any other key drops it
before the next value is built, so two are never held at once, and a build
that raises leaves nothing held. A Gaussian stream is sampled once per
process: pipelines on the same statistics, seed, count and noise share one
sampled stream (the frontiers and single-user rates), keyed by the exact
bytes of those inputs, and clear_stream_cache drops it. Explicit-channel
sources are never cached. A stream's column store holds the Column of the
last r1 read, keyed by that r1; trace_variants empties it. A stream's
arrays and columns are read-only, so a write into one raises instead of
changing a later call's result.
"""

from __future__ import annotations

import copy
import functools
import math
import operator
import os
import pickle
import signal
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .channel import COVARIANCE_KEYS, ChannelStatistics, SampleSource, check_integer
from .outage_mc import (
    CaseProbabilities,
    PolicySplit,
    count_true,
    read_only,
    split_policy,
    witness_unsettled,
)
from .rate_core import (
    RATE_SLACK,
    ColumnBounds,
    FrontierBatch,
    as_noise,
    as_rate_point,
    bisect_largest,
    frontier_batch,
    frontier_qmin_batch,
    gamma_from_rate,
    max_r2_batch,
    rate_from_sinr,
    witness_rates_batch,
)


def _check_eps(value: float, name: str, allow_one: bool = False) -> float:
    value = float(value)
    hi_ok = value <= 1.0 if allow_one else value < 1.0
    if not (0.0 < value and hi_ok):
        bound = "(0, 1]" if allow_one else "(0, 1)"
        raise ValueError(f"{name} must lie in {bound}, got {value}")
    return value


@dataclass(frozen=True)
class OutageSpec:
    """Outage mode and tolerance(s): common eps or per-link (eps1, eps2)."""

    mode: str
    epsilon: float | None = None
    epsilon1: float | None = None
    epsilon2: float | None = None

    def __post_init__(self):
        if self.mode == "common":
            _check_eps(self.epsilon, "epsilon")
        elif self.mode == "individual":
            _check_eps(self.epsilon1, "epsilon1")
            _check_eps(self.epsilon2, "epsilon2")
        else:
            raise ValueError(f"mode must be 'common' or 'individual', got {self.mode!r}")

    @classmethod
    def common(cls, epsilon: float) -> "OutageSpec":
        return cls(mode="common", epsilon=float(epsilon))

    @classmethod
    def individual(cls, epsilon1: float, epsilon2: float) -> "OutageSpec":
        return cls(mode="individual", epsilon1=float(epsilon1), epsilon2=float(epsilon2))


@dataclass
class CommonMembership:
    member: bool
    margin: float

    def margins(self) -> dict:
        return {"margin1": self.margin}


@dataclass
class IndividualMembership:
    """Verdict plus the three condition margins (all >= 0 iff member)."""

    member: bool
    margin1: float
    margin2: float
    margin3: float

    def margins(self) -> dict:
        return {"margin1": self.margin1, "margin2": self.margin2, "margin3": self.margin3}


@dataclass
class FixedChoiceMembership:
    member: bool
    margin_served: float
    margin_other: float

    def margins(self) -> dict:
        return {"margin1": self.margin_served, "margin2": self.margin_other}


@dataclass
class BiasInterval:
    """Feasible constant mixing biases.

    When nonempty, [lo, hi] is the feasible set already intersected with
    [0, 1]. When empty, lo and hi keep their raw (uninverted) values so the
    failure is visible; lo > hi or [lo, hi] missing [0, 1] entirely.
    """

    lo: float
    hi: float
    nonempty: bool

    def as_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "nonempty": self.nonempty}


def common_inst_member(probs: CaseProbabilities, epsilon: float) -> CommonMembership:
    epsilon = _check_eps(epsilon, "epsilon", allow_one=True)
    margin = probs.p_b - (1.0 - epsilon)
    return CommonMembership(member=margin >= 0.0, margin=margin)


def individual_inst_member(
    probs: CaseProbabilities, epsilon1: float, epsilon2: float
) -> IndividualMembership:
    """The three individual-outage margins and their verdict.

    Each composite mass sums the exact integer counts before its single
    division by n_samples, so it carries one rounding; this keeps verdicts
    consistent across scenarios whose conditions are integer-count
    complements of each other.
    """
    epsilon1 = _check_eps(epsilon1, "epsilon1", allow_one=True)
    epsilon2 = _check_eps(epsilon2, "epsilon2", allow_one=True)
    n = probs.n_samples
    margin1 = epsilon1 - (probs.count_a + probs.count_c2) / n
    margin2 = epsilon2 - (probs.count_a + probs.count_c1) / n
    margin3 = (epsilon1 + epsilon2) - (n + probs.count_a - probs.count_b) / n
    return IndividualMembership(
        member=(margin1 >= 0.0 and margin2 >= 0.0 and margin3 >= 0.0),
        margin1=margin1,
        margin2=margin2,
        margin3=margin3,
    )


def bias_interval(
    probs: CaseProbabilities, epsilon1: float, epsilon2: float
) -> BiasInterval:
    """Constant biases p with both link success constraints met.

    Nonemptiness is decided from the same three margins as
    individual_inst_member (the equivalence is exact algebra), so the two
    operations can never disagree through differing float routes. The bound
    values (1 - eps1 - p_b - p_c1)/p_d and (p_b + p_c2 + p_d - 1 + eps2)/p_d
    are then reported, clamped to [0, 1].
    """
    member = individual_inst_member(probs, epsilon1, epsilon2).member
    if probs.p_d > 0.0:
        lo = (1.0 - epsilon1 - probs.p_b - probs.p_c1) / probs.p_d
        hi = (probs.p_b + probs.p_c2 + probs.p_d - 1.0 + epsilon2) / probs.p_d
    else:
        lo, hi = (0.0, 1.0) if member else (1.0, 0.0)
    if not member:
        return BiasInterval(lo=lo, hi=hi, nonempty=False)
    lo = min(max(lo, 0.0), 1.0)
    hi = min(max(hi, 0.0), 1.0)
    if lo > hi:
        # membership guarantees lo <= hi up to rounding; collapse ulp crossings
        lo = hi = min(max(0.5 * (lo + hi), 0.0), 1.0)
    return BiasInterval(lo=lo, hi=hi, nonempty=True)


def fixed_choice_member(
    probs: CaseProbabilities, epsilon1: float, epsilon2: float, choice: int
) -> FixedChoiceMembership:
    """Membership when case D always serves the chosen link."""
    epsilon1 = _check_eps(epsilon1, "epsilon1", allow_one=True)
    epsilon2 = _check_eps(epsilon2, "epsilon2", allow_one=True)
    n = probs.n_samples
    if choice == 1:
        margin_served = (probs.count_b + probs.count_c1 + probs.count_d) / n - (1.0 - epsilon1)
        margin_other = (probs.count_b + probs.count_c2) / n - (1.0 - epsilon2)
    elif choice == 2:
        margin_served = (probs.count_b + probs.count_c2 + probs.count_d) / n - (1.0 - epsilon2)
        margin_other = (probs.count_b + probs.count_c1) / n - (1.0 - epsilon1)
    else:
        raise ValueError(f"choice must be 1 or 2, got {choice}")
    return FixedChoiceMembership(
        member=(margin_served >= 0.0 and margin_other >= 0.0),
        margin_served=margin_served,
        margin_other=margin_other,
    )


def verdict(probs: CaseProbabilities, spec: OutageSpec, variant: str = "plain"):
    """Membership record of the scenario (spec.mode, variant) at probs.

    variant picks the case-D policy of individual outage: "plain" (the best
    constant coin) or "fixed1"/"fixed2" (always serve that link); common
    outage has only "plain".
    """
    if spec.mode == "common":
        if variant != "plain":
            raise ValueError("fixed-choice variants need individual constraints")
        return common_inst_member(probs, spec.epsilon)
    if variant == "plain":
        return individual_inst_member(probs, spec.epsilon1, spec.epsilon2)
    if variant in ("fixed1", "fixed2"):
        return fixed_choice_member(
            probs, spec.epsilon1, spec.epsilon2, 1 if variant == "fixed1" else 2
        )
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# Boundary tracing
# ---------------------------------------------------------------------------


@dataclass
class GridConfig:
    """r1 grid over [0, r1_cap]; r2 bisection capped at r2_cap.

    Bisection tolerance defaults to one tenth of the r1 grid spacing. A tol
    of 0 bisects until the bracket ends are adjacent floats.
    """

    r1_cap: float
    r2_cap: float
    n_points: int = 50
    tol: float | None = None
    MIN_N_POINTS = 2  # the grid's ends, 0 and r1_cap

    def __post_init__(self):
        self.n_points = check_integer(self.n_points, "n_points", self.MIN_N_POINTS)
        for name in ("r1_cap", "r2_cap"):
            cap = getattr(self, name)
            if not (math.isfinite(cap) and cap > 0.0):
                raise ValueError(f"{name} must be a finite positive number, got {cap}")
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ValueError(f"tol must be a finite nonnegative number, got {self.tol}")

    @property
    def r1_values(self) -> np.ndarray:
        return np.linspace(0.0, self.r1_cap, self.n_points)

    @property
    def tolerance(self) -> float:
        if self.tol is not None:
            return self.tol
        return self.r1_cap / (self.n_points - 1) / 10.0


@dataclass
class BoundaryPoint:
    r1: float
    r2: float
    payload: dict = field(default_factory=dict)


@dataclass
class RegionBoundary:
    """Componentwise non-dominated boundary points in increasing r1 order."""

    points: list[BoundaryPoint]
    warnings: list[str]
    metadata: dict


def non_dominated_points(points) -> np.ndarray:
    """Row indices of the componentwise maxima of a point cloud, by increasing r1.

    points is an (m, 2) array of (r1, r2) rows. A row is dropped when some
    other row is >= in both coordinates (and different, or an earlier
    duplicate of it): a stable sort by decreasing r1, then decreasing r2,
    keeps each row whose r2 exceeds every r2 before it.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    order = np.lexsort((-points[:, 1], -points[:, 0]))
    r2 = np.concatenate(([-np.inf], points[order, 1]))
    return order[r2[1:] > np.maximum.accumulate(r2)[:-1]][::-1]


def trace_column(member, r1: float, grid: GridConfig, annotate=None) -> tuple:
    """One traced column: (inside at r2 = 0, largest member r2, payload).

    Outside the region at r2 = 0 the column gives (False, None, None). Inside,
    r2 is bisected below grid.r2_cap and the payload is annotate(r1, r2), or
    {} without annotate.
    """
    if not member(r1, 0.0):
        return False, None, None
    r2 = bisect_largest(lambda r2: member(r1, r2), grid.r2_cap, grid.tolerance)
    return True, r2, ({} if annotate is None else annotate(r1, r2))


def assemble_boundary(grid: GridConfig, columns, metadata: dict | None = None) -> RegionBoundary:
    """Boundary from trace_column's results at grid.r1_values, in r1 order.

    A column whose boundary reaches grid.r2_cap is reported as a warning; the
    componentwise non-dominated points are kept with their payloads. Columns
    outside the region at r2 = 0 give no point; on an instantaneous region
    they are the last ones, since at r2 = 0 every variant's verdict depends
    on #(r1 > su1) alone, which grows with r1.
    """
    warnings: list[str] = []
    raw: list[BoundaryPoint] = []
    for r1, (inside, r2, payload) in zip(grid.r1_values, columns):
        r1 = float(r1)
        if not inside:
            continue
        if r2 == grid.r2_cap:
            warnings.append(f"r2 cap {grid.r2_cap:.6g} still inside at r1={r1:.6g}")
        raw.append(BoundaryPoint(r1, r2, payload))
    points = [raw[i] for i in non_dominated_points([(p.r1, p.r2) for p in raw])]
    meta = dict(metadata or {})
    meta.update(
        {
            "r1_cap": grid.r1_cap,
            "r2_cap": grid.r2_cap,
            "n_grid": grid.n_points,
            "bisection_tol": grid.tolerance,
        }
    )
    return RegionBoundary(points=points, warnings=warnings, metadata=meta)


# ---------------------------------------------------------------------------
# Instantaneous-region pipeline (shared stream, column-local tracing)
# ---------------------------------------------------------------------------


def _column_key(r1: float) -> float:
    """r1 as a column-cache key: a finite, nonnegative float, else ValueError."""
    return as_rate_point((r1, 0.0))[0]


def _claim_order(r1_values: list) -> list[int]:
    """Indices of r1_values by decreasing r1; process h of k computes every
    k-th of them from position h (InstantaneousRegionPipeline._map_columns).

    The kernel's bracket stage costs more as r1 grows, since fewer rows are
    zero-forcing (answered in closed form), and trace_variants deals out
    only the columns inside the region at r2 = 0. On the benchmark grid
    (individual-inst, N = 2e4, seed 42, 8 columns, r1 = 0..1.87, one
    process on a 2-vCPU host) r1 = 1.87 is decided before the split and the
    other seven columns take 0.8 1.8 2.0 2.3 2.5 2.9 3.6 ms. Dealt out
    largest r1 first, they give this process 8.8 ms and the helper 7.0 ms:
    the helper starts its share 0-5 ms after this process (the fork), so
    the longer share falls to the process that starts first.
    """
    return sorted(range(len(r1_values)), key=r1_values.__getitem__, reverse=True)


# The calling thread's own stat file; its field 39 is the CPU it last ran on.
_THREAD_STAT = "/proc/thread-self/stat"


def _current_cpu() -> int | None:
    """The CPU the calling thread runs on, or None where _THREAD_STAT
    cannot be read (no /proc)."""
    try:
        with open(_THREAD_STAT, "rb") as stat:
            # Field 2, the command name, is in parentheses and may hold spaces.
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except OSError:
        return None


def _leave_cpu(cpu: int | None) -> None:
    """Move this process off `cpu` once, then allow it every CPU of its mask
    again, so the kernel may move it later. Does nothing when cpu is None
    or not in the mask, when the mask holds no other CPU (taskset -c 0),
    or without os.sched_setaffinity (macOS has fork but not this call); a
    refused call leaves the placement to the kernel, since it changes no
    result."""
    if cpu is None or not hasattr(os, "sched_setaffinity"):
        return
    allowed = os.sched_getaffinity(0)
    if cpu in allowed and len(allowed) > 1:
        try:
            os.sched_setaffinity(0, allowed - {cpu})
            os.sched_setaffinity(0, allowed)
        except OSError:
            pass


def _run_helper(write_fd: int, compute, caller_cpu: int | None):
    """Body of a forked helper; never returns.

    First leaves caller_cpu, the CPU the caller read just before the fork
    (_leave_cpu), inside the try whose finally exits, so that no exception
    returns into the caller's stack. A new child may start on its parent's
    CPU, and at the demo size the kernel then left the busy helper there
    beside the busy caller for the whole region: a warm 8-column region
    took 30 ms on two processes against 21 ms on one. Then sends
    compute()'s (index, result) pairs, or the exception that stopped it,
    down write_fd as one pickle. os._exit skips the caller's cleanup
    (atexit handlers, buffered output, open files), which belongs to the
    caller alone.
    """
    status = 1
    try:
        _leave_cpu(caller_cpu)
        try:
            report = compute()
        except BaseException as exc:
            report = exc
        with os.fdopen(write_fd, "wb") as stream:
            pickle.dump(report, stream, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _collect(pid: int, read_fd: int) -> list:
    """A helper's (index, result) pairs, read from read_fd (closed here);
    the helper is reaped. Raises the helper's exception, or
    ChildProcessError when it ended without a complete report. The caller
    reads this after computing its own share, so a helper's failure is
    raised only then."""
    try:
        with os.fdopen(read_fd, "rb") as stream:
            report = pickle.load(stream)
    except (EOFError, pickle.UnpicklingError):
        report = None
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if isinstance(report, BaseException):
        raise report
    if report is None or status != 0:
        raise ChildProcessError(
            f"column helper {pid} ended (exit status {status}) without reporting its columns"
        )
    return report


@contextmanager
def power_scale_checked(owner):
    """Run the frontier or column kernels with floating-point overflow
    raising, as a ValueError that names the power scale and owner.noise,
    read only then (a pipeline's __init__ sets it inside).

    Every outage quantity depends on the powers only through the SINRs, so
    scaling the covariances and noise powers together changes nothing until
    a product of powers overflows: from about 1e123 the column search's
    derivative, and the frontiers' |b^H a|^2 further up. There the counts
    would be wrong with no error.
    """
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise ValueError(
            f"noise powers {list(owner.noise)}: at this power scale the powers overflow "
            "floating point. Outage regions depend only on Q_ij / sigma_i^2, so divide "
            "the covariances and the noise powers by one common factor"
        ) from exc


def _overflow_checked(method):
    """A pipeline method run under power_scale_checked. The errstate is
    entered once per call, never per kernel evaluation."""

    @functools.wraps(method)
    def checked(self, *args, **kwargs):
        with power_scale_checked(self):
            return method(self, *args, **kwargs)

    return checked


def _threshold(r2: float) -> float:
    """The joint threshold at r2: a row is case B iff its column value is
    at least r2 - RATE_SLACK."""
    return r2 - RATE_SLACK


def _jointly_achievable(column: np.ndarray, r2: float) -> np.ndarray:
    """The one case-B decision: r2 within RATE_SLACK of the column's largest
    achievable r2."""
    return column >= _threshold(r2)


# The window of a Column.refine that makes the column exact at every r2.
EVERY_THRESHOLD = (-math.inf, math.inf)


def _read_only_view(array: np.ndarray) -> np.ndarray:
    """A read-only view of array, which sees later writes into array."""
    view = array.view()
    view.flags.writeable = False
    return view


class LastValue:
    """A one-entry cache, the keep-the-last rule of the module docstring:
    get(key, build) returns the held value if key equals its key, else drops
    it and holds build()'s value under key; clear() drops it. It holds the
    sampled stream, the stream's Column by r1, the policy split on a Column
    and, in cli, the run-config and the statistical-CSI search."""

    def __init__(self):
        self._entry = None

    def clear(self) -> None:
        self._entry = None

    def get(self, key, build):
        if self._entry is None or self._entry[0] != key:
            # Dropped first: not held while build runs, nor after it raises.
            self._entry = None
            self._entry = (key, build())
        return self._entry[1]


class Column:
    """The column at r1: per realization the largest achievable r2 (values)
    and the interference q2* of transmitter 2 that attains it, case B's
    operating point, or a bound of those values, with no q2*.

    Column(exceed1, su2) is the part that no column value enters: exceed1,
    the rows where r1 > su1, as the column kernel took it, its count and su2
    on its rows. on(values, q2) gives the Column over fixed values, sharing
    that part; refining(bounds) the Column over max_r2_batch's ColumnBounds,
    which counts on their lower bound with the rows it has refined written
    in. case_probs is the package's one count of the five cases: point,
    simulate, classify, is_achievable and every trace read it. The kernel
    marks exactly the exceed1 rows -inf, in its bounds too, so joint never
    holds on them, and at each r2 the counts follow, with no mask per case,
    from the comparisons exceed2 = r2 > su2 and joint on all rows and
    exceed2 on the exceed1 rows: with a = exceed1 & exceed2, A = #a,
    B = #joint, C1 = #exceed2 - #(exceed2 & joint) - #a, C2 = #exceed1 - #a,
    and D the rest, the rows in none of exceed1, exceed2 and joint. Each r2
    is counted once; a repeated query (another variant's bisection, a
    payload, the policy split after a point) reads the memo.

    A refining Column counts, and gives masks, only after refine has made
    its values exact at the threshold: the rows left at their lower bound
    lie on the same side of it as their exact values. So its counts are the
    exact column's whatever it has refined before, and refining more rows
    never changes a count already made. policy, a LastValue, holds the last
    PolicySplit taken on the column, keyed by (r2, coin seed): a bias sweep
    at one rate point reuses it. The arrays it shows are read-only.
    """

    def __init__(self, exceed1: np.ndarray, su2: np.ndarray):
        self.su2 = su2
        self.exceed1 = read_only(exceed1)
        self.count_exceed1 = count_true(exceed1)
        self.su2_exceed1 = su2[exceed1]

    def on(self, values: np.ndarray, q2: np.ndarray | None = None) -> "Column":
        """The Column at this r1 over values, with maximizers q2 (None for a
        bound): the r1-only part is shared, and the counts are its own."""
        column = copy.copy(self)
        column._values, column._q2 = values, q2
        column.values = _read_only_view(values)
        column.q2 = None if q2 is None else _read_only_view(q2)
        column._bounds = column._upper = None
        column._exact_in = []  # threshold windows [a, b] refine has made exact
        column.policy = LastValue()
        column._memo = {}
        return column

    def refining(self, bounds: ColumnBounds) -> "Column":
        """The Column over bounds (at this r1) that refines their searched
        rows on demand. It takes bounds over: its values and q2 are
        bounds.lower and bounds.q2, and a refined row's exact value is
        written into bounds.lower and bounds.upper, and its maximizer into
        bounds.q2, so they stay bounds of the column and the maximizer of
        the value held. The rows in doubt are those where lower < upper."""
        column = self.on(bounds.lower, bounds.q2)
        column._bounds, column._upper = bounds, bounds.upper
        return column

    def refine(self, *windows) -> None:
        """Make the values exact at every threshold r2 - RATE_SLACK in each
        window [a, b]: the rows in doubt whose [value, upper] reaches a
        threshold in a window, value < b and upper >= a, are refined in one
        call. Every other row is on the same side of each of those
        thresholds as its exact value. A window inside one made exact
        before refines nothing, and a Column over fixed values has nothing
        to refine."""
        if self._bounds is None:
            return
        windows = [(a, b) for a, b in windows
                   if not any(x <= a and b <= y for x, y in self._exact_in)]
        if not windows:
            return
        reach = np.zeros(self._values.size, dtype=bool)
        for a, b in windows:
            reach |= (self._upper >= a) & (self._values < b)
        self.refine_rows(np.flatnonzero(reach))
        if EVERY_THRESHOLD in windows:
            # Every row is exact: the Column is one over fixed values now.
            self._bounds = self._upper = None
        else:
            self._exact_in += windows

    def refine_rows(self, rows: np.ndarray) -> None:
        """Refine, in one call, those of rows (increasing indices) whose
        value is still in doubt."""
        if self._bounds is None:
            return
        rows = rows[self._values[rows] < self._upper[rows]]
        if rows.size:
            with power_scale_checked(self._bounds):
                values, q2 = self._bounds.refine(rows)
            self._values[rows] = self._upper[rows] = values
            self._q2[rows] = q2

    def at_zero(self) -> CaseProbabilities:
        """The counts at r2 = 0, the same on every column at this r1, so the
        base Column(exceed1, su2) has them: the rows off exceed1 are case B
        (their column values are >= 0) and those on it case C2 (su2 >= 0,
        so no row exceeds r2 = 0)."""
        n, k = self.su2.size, self.count_exceed1
        return CaseProbabilities.from_counts(n, 0, n - k, 0, k, k, 0)

    def _exact_at(self, r2: float) -> None:
        threshold = _threshold(r2)
        self.refine((threshold, threshold))

    def masks(self, r2: float) -> tuple:
        """(exceed1, exceed2, joint) at r2, the per-realization split."""
        self._exact_at(r2)
        return self.exceed1, r2 > self.su2, _jointly_achievable(self.values, r2)

    def case_probs(self, r2: float) -> CaseProbabilities:
        probs = self._memo.get(r2)
        if probs is None:
            self._exact_at(r2)
            probs = self._memo[r2] = self._count(r2)
        return probs

    def _count(self, r2: float) -> CaseProbabilities:
        exceed2 = r2 > self.su2
        joint = _jointly_achievable(self.values, r2)
        n_exceed2 = count_true(exceed2)
        n_a = count_true(r2 > self.su2_exceed1)
        return CaseProbabilities.from_counts(
            self.values.size,
            n_a,
            count_true(joint),
            n_exceed2 - count_true(exceed2 & joint) - n_a,
            self.count_exceed1 - n_a,
            self.count_exceed1,
            n_exceed2,
        )


@dataclass
class _Stream:
    """A sampled stream: both frontiers, the single-user rates and the column
    store, a LastValue of the Column at the last r1 read. Its arrays are
    read-only."""

    F1: FrontierBatch
    F2: FrontierBatch
    su1: np.ndarray
    su2: np.ndarray
    columns: LastValue = field(default_factory=LastValue)


def _sample_stream(source: SampleSource, noise: tuple[float, float]) -> _Stream:
    arrs = source.arrays()
    # Each pair of channels is dropped once its frontier exists, so the
    # build never holds all four sampled arrays and both frontiers at once.
    F1 = frontier_batch(arrs.pop("h11"), arrs.pop("h12"))
    F2 = frontier_batch(arrs.pop("h22"), arrs.pop("h21"))
    su = []
    for link, (F, sigma_sq) in enumerate(((F1, noise[0]), (F2, noise[1])), start=1):
        # p_max = ||h_ii||^2, so the single-user SINR is p_max / sigma_i^2.
        with np.errstate(over="ignore"):
            sinr = F.p_max / sigma_sq
        infinite = count_true(np.isinf(sinr))
        if infinite:
            raise ValueError(
                f"noise {list(noise)} is too small for these channel powers: link "
                f"{link}'s single-user SINR ||h{link}{link}||^2 / sigma{link}^2 overflows, "
                f"so its single-user rate is infinite in {infinite} of {source.count} "
                "realizations"
            )
        su.append(rate_from_sinr(sinr))
    for array in (*vars(F1).values(), *vars(F2).values(), *su):
        read_only(array)
    return _Stream(F1, F2, *su)


# The sampled stream of the last Gaussian source, keyed by _stream_key.
_streams = LastValue()


def clear_stream_cache() -> None:
    """Forget the cached stream, so the next pipeline on it samples it again."""
    _streams.clear()


def statistics_key(stats: ChannelStatistics) -> tuple:
    """n, the four covariances and both noise powers of stats, as exact
    bytes: the part of a cache key that the statistics give."""
    return (
        stats.n,
        *(stats.covariance(key).tobytes() for key in COVARIANCE_KEYS),
        np.array([stats.sigma1_sq, stats.sigma2_sq]).tobytes(),
    )


def _stream_key(source: SampleSource, noise: tuple[float, float]) -> tuple:
    """Everything a Gaussian stream's frontiers and single-user rates depend
    on, as exact bytes."""
    return (*statistics_key(source.stats), np.array(noise).tobytes(), source.seed, source.count)


class InstantaneousRegionPipeline:
    """Shared-stream evaluator of instantaneous-CSI outage regions.

    One fixed sample stream serves every rate point (common random numbers).
    Per r1 column the largest achievable r2 of each realization is the
    expensive oracle work; case counts at any (r1, r2) are then threshold
    comparisons, which makes membership exactly monotone in r2 along a column
    and lets several scenarios share identical classifications. Every column
    comes from one kernel call, in _bounds. The store's Column refines on
    demand; trace_variants builds each column's Columns in the process that
    bisects it and stores none.
    """

    @_overflow_checked
    def __init__(self, source: SampleSource, noise: tuple[float, float]):
        if source.count <= 0:
            raise ValueError("need at least one sample")
        self.source = source
        self.noise = as_noise(noise)
        if source.realizations is None:
            self._stream = _streams.get(_stream_key(source, self.noise),
                                        lambda: _sample_stream(source, self.noise))
        else:
            self._stream = _sample_stream(source, self.noise)
        self.F1, self.F2 = self._stream.F1, self._stream.F2
        self.su1, self.su2 = self._stream.su1, self._stream.su2
        self.n_samples = source.count

    def su_caps(self, eps1: float, eps2: float):
        """Grid caps from the single-user rate quantiles, plus 10 % headroom.

        On the r1 axis the region ends where the single-user outage of link 1
        reaches eps1, i.e. at the empirical eps1-quantile of su1; same for
        link 2. The headroom keeps the true intercept strictly inside the grid.
        """
        r1_cap = float(np.quantile(self.su1, eps1)) * 1.1
        r2_cap = float(np.quantile(self.su2, eps2)) * 1.1
        return r1_cap, r2_cap

    @_overflow_checked
    def _bounds(self, r1: float) -> ColumnBounds:
        """The column kernel at r1 after its bracket stage: the pipeline's one
        call of max_r2_batch per computed column. Its empty rows are decided
        here, once, on rates: exceed1 = r1 > su1, which every Column on these
        bounds takes from them."""
        return max_r2_batch(self.F1, self.F2, float(gamma_from_rate(r1)), self.noise,
                            r1 > self.su1)

    def _column(self, r1: float) -> Column:
        """The Column at r1, held in the store by r1; a new one refines on
        demand."""
        r1 = _column_key(r1)

        def build():
            bounds = self._bounds(r1)
            return Column(bounds.exceed1, self.su2).refining(bounds)

        return self._stream.columns.get(r1, build)

    def column(self, r1: float) -> np.ndarray:
        """Each realization's largest achievable r2 at r1 (read-only): the
        Column at r1 with every searched row refined."""
        column = self._column(r1)
        column.refine(EVERY_THRESHOLD)
        return column.values

    def _map_columns(self, run, r1_values: list, workers: int, *args) -> list:
        """[run(r1, *args) for r1 in r1_values], run by up to `workers`
        processes, this one included.

        With k = min(workers, len(r1_values)) > 1, k - 1 helpers are forked
        and process h of k computes order[h::k] of _claim_order (largest r1
        first); this process is h = 0. Just before each fork this process
        reads the CPU it is on, and the helper moves off that CPU once
        (_run_helper): on a 2-vCPU host, 2 workers trace the warm 50-column
        demo region in 69-86 ms against 118-134 ms on one process, where a
        helper left on the caller's CPU made it up to 146 ms. Each helper
        reports its results through its own pipe, collected after this
        process has computed its own share; they come back in r1 order and
        do not depend on k or on who computed what. A helper's failure, an
        exception or a death without a report (os._exit, a signal), is
        therefore raised only then. Every helper is reaped before this
        returns or raises: on an error here, the helpers still running are
        killed first.
        """
        if workers > 1 and not hasattr(os, "fork"):
            raise ValueError(f"--workers {workers} needs os.fork, which this platform "
                             "lacks; use --workers 1")
        procs = min(workers, len(r1_values))
        if procs <= 1:
            return [run(r1, *args) for r1 in r1_values]
        order = _claim_order(r1_values)

        def share(h: int) -> list:
            return [(i, run(r1_values[i], *args)) for i in order[h::procs]]

        helpers = {}  # pid -> read end of its pipe, until collected
        try:
            for h in range(1, procs):
                read_fd, write_fd = os.pipe()
                try:
                    cpu = _current_cpu()
                    pid = os.fork()
                    if pid == 0:
                        _run_helper(write_fd, functools.partial(share, h), cpu)
                except BaseException:
                    os.close(read_fd)
                    raise
                finally:
                    # Closed before the next fork, so the helper holds the
                    # only write end and its death reads as end of file.
                    os.close(write_fd)
                helpers[pid] = read_fd
            pairs = share(0)
            while helpers:
                pid, read_fd = helpers.popitem()
                pairs += _collect(pid, read_fd)
        finally:
            for pid, read_fd in helpers.items():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(read_fd)
        results = [None] * len(r1_values)
        for i, result in pairs:
            results[i] = result
        return results

    def precompute_columns(self, r1_values, workers: int = 1) -> list[np.ndarray]:
        """[column(r1) for r1 in r1_values], every r1 checked before the
        first column is computed; the store holds the last one. workers is
        not used, every column is computed in this process: it stays while
        perfbench/tracer.py's record of this call reads it."""
        return [self.column(r1) for r1 in [_column_key(r1) for r1 in r1_values]]

    @_overflow_checked
    def _witness(self, r1: float, column: Column, rows: np.ndarray | None = None) -> tuple:
        """(q1, link 1's rate, link 2's rate) at the case-B operating point of
        the Column at r1 (transmitter 2 at the column maximizer q2*,
        transmitter 1 at q1, the least interference that reaches r1), on the
        given rows, refined first, or on every row, which the caller has
        refined. This is the one computation of that point. Every step is
        elementwise, so a row gets the same bits on any set of rows."""
        F1, F2, q2 = self.F1, self.F2, column.q2
        if rows is not None:
            column.refine_rows(rows)
            F1, F2, q2 = F1.take(rows), F2.take(rows), q2[rows]
        q1 = frontier_qmin_batch(F1, float(gamma_from_rate(r1)), q2, self.noise[0])
        return q1, *witness_rates_batch(F1, F2, q1, q2, self.noise)

    def witness_rates(self, r1: float):
        """Link rates at the case-B operating point on every row of the exact
        column at r1, computed on each call and not held."""
        column = self._column(r1)
        column.refine(EVERY_THRESHOLD)
        return self._witness(r1, column)[1:]

    def policy_split(self, r1: float, r2: float, coin_seed: int) -> PolicySplit:
        """The bias-free part of the policy's outcome at (r1, r2) and the coin
        seed (an integer), held on the Column at r1 by (r2, coin seed). Link
        2's witness rate is computed only on the case-B rows where the
        witness contract leaves its success open (witness_unsettled)."""
        r1, r2 = as_rate_point((r1, r2))
        column = self._column(r1)
        coin_seed = operator.index(coin_seed)

        def split():
            probs, masks = column.case_probs(r2), column.masks(r2)
            rows = witness_unsettled(column.values, masks[2], r2)
            return split_policy(probs, masks, self._witness(r1, column, rows)[2], (r1, r2),
                                coin_seed)

        return column.policy.get((r2, coin_seed), split)

    def case_tests(self, r1: float, r2: float):
        """Masks (exceed1, exceed2, joint) at (r1, r2), for callers that need
        the per-realization split."""
        r1, r2 = as_rate_point((r1, r2))
        return self._column(r1).masks(r2)

    def case_probs(self, r1: float, r2: float) -> CaseProbabilities:
        r1, r2 = as_rate_point((r1, r2))
        return self._column(r1).case_probs(r2)

    def member(self, r1: float, r2: float, spec: OutageSpec, variant: str = "plain") -> bool:
        return verdict(self.case_probs(r1, r2), spec, variant).member

    @_overflow_checked
    def _trace_column(self, r1: float, spec: OutageSpec, grid: GridConfig,
                      variants: tuple) -> list[tuple]:
        """trace_column of every variant on the column at r1, root-searching
        only the rows whose bounds leave a queried count in doubt.

        Every verdict is monotone in the column values (raising a value can
        only move its row into case B) and in r2, so a bisection on the
        kernel's lower bound ends at or below the one on the exact column,
        and a bisection on the upper bound at or above it: both follow the
        exact bisection until the first query where they disagree with it.
        Per variant the lower bound gives r2_lo (or none, outside at r2 = 0)
        and the upper one r2_hi (outside there: outside on the exact column
        too). The exact bisection then has verdict True up to r2_lo. Past
        r2_hi it queries only r2 that the upper bisection also queried and
        found outside, so its verdict there is False. Only queries in
        (r2_lo, r2_hi] and the payload at its result, which lies in
        [r2_lo, r2_hi], are counted. The exact bisections run on one
        refining Column, made exact at the joint thresholds r2 - RATE_SLACK
        of every such span at once (Column.refine): one refine call, after
        which no query refines again. So the counts made are the exact
        column's, and so are the r2 and payloads, bit for bit.

        The Columns are built here, never read from or put in the store, and
        dropped on return, which leaves (inside, r2, payload) per variant.
        """
        bounds = self._bounds(r1)
        base = Column(bounds.exceed1, self.su2)
        lower, upper = base.on(bounds.lower), base.on(bounds.upper)

        def bisected(column, variant, below=-math.inf, above=math.inf, annotate=None):
            def member(r1, r2):
                if r2 <= below:
                    return True
                if r2 > above:
                    return False
                return verdict(column.case_probs(r2), spec, variant).member

            return trace_column(member, r1, grid, annotate)

        spans = []  # per variant: (r2_lo or -inf, r2_hi), None if outside
        for variant in variants:
            inside, r2_lo, _ = bisected(lower, variant)
            below = r2_lo if inside else -math.inf
            inside, r2_hi, _ = bisected(upper, variant, below)
            spans.append((below, r2_hi) if inside else None)

        # It writes the rows it refines into bounds.lower and bounds.upper,
        # which the bisections on lower and upper are done with.
        exact = base.refining(bounds)
        exact.refine(*((_threshold(max(lo, 0.0)), _threshold(hi))
                       for lo, hi in filter(None, spans)))

        def annotated(variant):
            def annotate(r1, r2):
                probs = exact.case_probs(r2)
                payload = probs.as_dict()["estimates"]
                payload.update(verdict(probs, spec, variant).margins())
                return payload

            return annotate

        return [
            (False, None, None) if span is None
            else bisected(exact, variant, *span, annotate=annotated(variant))
            for variant, span in zip(variants, spans)
        ]

    def trace_variants(self, spec: OutageSpec, grid: GridConfig, variants,
                       workers: int = 1) -> list[RegionBoundary]:
        """Boundaries of the case-D variants on one pass over the r1 grid.

        A column outside the region at r2 = 0 for every variant is decided
        here from Column.at_zero, with no kernel call, and the others are
        dealt out by _map_columns: each is computed once, by the process it
        falls to, and bisected there for every variant. This process
        receives (inside, r2, payload) per column and variant and assembles
        each boundary in r1 order. The store is emptied first.
        """
        r1_values = [_column_key(r1) for r1 in grid.r1_values]
        self._stream.columns.clear()
        variants = tuple(variants)

        def inside_at_zero(r1):
            probs = Column(r1 > self.su1, self.su2).at_zero()
            return any(verdict(probs, spec, variant).member for variant in variants)

        traced = [r1 for r1 in r1_values if inside_at_zero(r1)]
        steps = dict(zip(traced, self._map_columns(self._trace_column, traced, workers, spec,
                                                   grid, variants)))
        outside = [(False, None, None)] * len(variants)
        steps = [steps.get(r1, outside) for r1 in r1_values]
        return [
            assemble_boundary(grid, [column[i] for column in steps], metadata={
                "scenario_mode": spec.mode,
                "variant": variant,
                "n_samples": self.n_samples,
                "seed": self.source.seed,
            })
            for i, variant in enumerate(variants)
        ]

    def trace(self, spec: OutageSpec, grid: GridConfig, variant: str = "plain") -> RegionBoundary:
        return self.trace_variants(spec, grid, (variant,))[0]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("r1", "r2", "p_a", "p_b", "p_c1", "p_c2", "p_d",
               "margin1", "margin2", "margin3")


def format_value(x) -> str:
    """Deterministic 10-significant-digit formatting for CSV cells."""
    if x is None:
        return ""
    return f"{float(x):.10g}"


def boundary_csv_lines(boundary: RegionBoundary, columns=CSV_COLUMNS) -> list[str]:
    lines = [",".join(columns)]
    for p in boundary.points:
        row = {"r1": p.r1, "r2": p.r2, **p.payload}
        lines.append(",".join(format_value(row.get(col)) for col in columns))
    return lines


def write_boundary_csv(boundary: RegionBoundary, path, columns=CSV_COLUMNS):
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(boundary_csv_lines(boundary, columns)) + "\n")
