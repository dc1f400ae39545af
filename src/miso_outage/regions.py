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
per variant. The caller and k - 1 forked helpers claim the columns from one
shared counter, largest r1 first; results do not depend on who computed a
column, and the caller assembles the boundaries in r1 order.
A traced column is bounded before it is searched: every variant is bisected
on the kernel's lower and upper bounds of the column, and only the rows
whose bounds leave a count in doubt are root-searched, in one call, before
the bisection that gives the boundary point. The r2 and payloads are those
of the exact column, bit for bit (_trace_column).
Every reader of the column at r1 goes through one Column: the values and
maximizers of one max_r2_batch call, its case counts, masks and case B's
witness rates. The store's Columns are exact: column(), point, simulate and
precompute_columns refine every searched row.

A Gaussian stream is sampled once per process: pipelines on the same
statistics, seed, count and noise share one sampled stream (the frontiers and
single-user rates), held in a one-entry cache keyed by the exact bytes of
those inputs. A new key replaces the entry, and clear_stream_cache empties
it. Explicit-channel sources are never cached. A stream's column store holds
the Columns of the last request: a read of one column keeps the store if it
holds that column, else holds that one alone; precompute_columns holds the
requested set and trace_variants empties it. A stream's arrays and columns are read-only, so a write into
one raises instead of changing a later call's result.
"""

from __future__ import annotations

import copy
import math
import os
import pickle
import signal
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .channel import COVARIANCE_KEYS, SampleSource
from .outage_mc import CaseProbabilities, count_true
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


def _case_mass(probs: CaseProbabilities, labels: tuple[str, ...]) -> float:
    """Combined probability of several cases.

    Sample-backed estimates sum the exact integer counts before the single
    division, so a composite mass carries one rounding; this keeps membership
    verdicts consistent across scenarios whose conditions are integer-count
    complements of each other. Synthetic vectors fall back to summing the
    stored estimates left to right.
    """
    if probs.n_samples > 0:
        total = 0
        for lab in labels:
            total += getattr(probs, f"count_{lab}")
        return total / probs.n_samples
    value = 0.0
    for lab in labels:
        value += getattr(probs, f"p_{lab}")
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
    epsilon1 = _check_eps(epsilon1, "epsilon1", allow_one=True)
    epsilon2 = _check_eps(epsilon2, "epsilon2", allow_one=True)
    margin1 = epsilon1 - _case_mass(probs, ("a", "c2"))
    margin2 = epsilon2 - _case_mass(probs, ("a", "c1"))
    if probs.n_samples > 0:
        not_b_plus_a = (
            probs.n_samples + probs.count_a - probs.count_b
        ) / probs.n_samples
    else:
        not_b_plus_a = 1.0 + probs.p_a - probs.p_b
    margin3 = (epsilon1 + epsilon2) - not_b_plus_a
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
    if choice == 1:
        margin_served = _case_mass(probs, ("b", "c1", "d")) - (1.0 - epsilon1)
        margin_other = _case_mass(probs, ("b", "c2")) - (1.0 - epsilon2)
    elif choice == 2:
        margin_served = _case_mass(probs, ("b", "c2", "d")) - (1.0 - epsilon2)
        margin_other = _case_mass(probs, ("b", "c1")) - (1.0 - epsilon1)
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

    def __post_init__(self):
        if not isinstance(self.n_points, (int, np.integer)) or isinstance(self.n_points, bool):
            raise ValueError(f"n_points must be an integer, got {self.n_points!r}")
        if self.n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {self.n_points}")
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

    Non-monotone responses across columns (membership reappearing after a
    column whose base point already left the region, or cap hits) are
    reported as warnings, a symptom of Monte-Carlo noise at the boundary; the
    componentwise non-dominated points are kept with their payloads.
    """
    warnings: list[str] = []
    raw: list[BoundaryPoint] = []
    outside_seen = False
    for r1, (inside, r2, payload) in zip(grid.r1_values, columns):
        r1 = float(r1)
        if not inside:
            outside_seen = True
            continue
        if outside_seen:
            warnings.append(f"non-monotone membership: column r1={r1:.6g} is inside "
                            "after an earlier column left the region")
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
    """Indices of r1_values by decreasing r1, the order columns are claimed in.

    The kernel's bracket stage costs more as r1 grows, since fewer rows are
    zero-forcing (answered in closed form), but a traced column's refine and
    counts depend on where its boundary lies, and a column outside the
    region even on its upper bound costs its bracket stage alone. So the
    largest r1 is no longer the longest column: on the benchmark grid
    (individual-inst, N = 2e4, 8 columns, r1 = 0..1.91, one process on a
    2-vCPU host) the columns take 1.0 2.2 2.6 3.1 3.5 3.9 5.0 2.4 ms.
    Largest r1 first still hands the long columns out early and the
    cheapest one (r1 = 0) last: with those times two processes finish 2.4 %
    after an even split of the work, and 1.6 % after the best split of
    these eight columns, which no claim order can beat.
    """
    return sorted(range(len(r1_values)), key=r1_values.__getitem__, reverse=True)


@contextmanager
def _counter_locked(fd: int):
    """Holds the POSIX record lock on the claim counter of file fd. Such a
    lock belongs to one process, so the caller and its forked helpers
    exclude each other, and the kernel drops it if its holder dies."""
    import fcntl  # POSIX only, like os.fork; the one-process path needs neither

    fcntl.lockf(fd, fcntl.LOCK_EX)
    try:
        yield
    finally:
        fcntl.lockf(fd, fcntl.LOCK_UN)


def _claims(fd: int, order: list):
    """The items of order that this process claims, each claimed by exactly
    one of the processes sharing fd.

    The next position in order is a counter at offset 0 of the file fd (an
    empty file reads as 0), advanced under _counter_locked.
    """
    while True:
        with _counter_locked(fd):
            n = int.from_bytes(os.pread(fd, 8, 0), "little")
            os.pwrite(fd, (n + 1).to_bytes(8, "little"), 0)
        if n >= len(order):
            return
        yield order[n]


def _end_claims(fd: int, order: list):
    """Moves the claim counter of fd to the end of order, so that no process
    claims another item."""
    with _counter_locked(fd):
        os.pwrite(fd, len(order).to_bytes(8, "little"), 0)


def _run_helper(write_fd: int, counter_fd: int, order: list, run, r1_values: list,
                args: tuple):
    """Body of a forked helper; never returns.

    Computes run(r1, *args) for every index it claims from counter_fd and
    sends the list of (index, result) pairs, or the exception that stopped
    it, down write_fd as one pickle. An exception first ends the claims, so
    the other processes stop after the column they are on. os._exit skips
    the caller's cleanup (atexit handlers, buffered output, open files),
    which belongs to the caller alone.
    """
    status = 1
    try:
        try:
            report = [(i, run(r1_values[i], *args)) for i in _claims(counter_fd, order)]
        except BaseException as exc:
            _end_claims(counter_fd, order)
            report = exc
        with os.fdopen(write_fd, "wb") as stream:
            pickle.dump(report, stream, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _collect(pid: int, read_fd: int) -> list:
    """A helper's (index, result) pairs, read from read_fd (closed here);
    the helper is reaped. Raises the helper's exception, or
    ChildProcessError when it ended without a complete report."""
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


def _jointly_achievable(column: np.ndarray, r2: float) -> np.ndarray:
    """The one case-B decision: r2 within RATE_SLACK of the column's largest
    achievable r2."""
    return column >= r2 - RATE_SLACK


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class Column:
    """The column at r1: per realization the largest achievable r2 (values)
    and the interference q2* of transmitter 2 that attains it, case B's
    operating point, as max_r2_batch's ColumnBounds.exact returns them. A
    Column over a bound of those values (on) counts the same way; a traced
    column counts on its bounds and on their refinement, with no q2*.

    exceed1 = r1 > su1 does not depend on r2, so it, its count, and su2 and
    the values on its rows, are taken once, and the r1-only part is shared
    with the Columns built from this one by on. At each r2 the counts of the
    masks of outage_mc.split_cases follow, without the masks, from the
    comparisons exceed2 = r2 > su2 and joint on all rows and on the exceed1
    rows: with a = exceed1 & exceed2, A = #a, B = #joint - #(a & joint),
    C1 = #(exceed2 & ~joint) - #(a & ~joint) and
    C2 = #(exceed1 & ~joint) - #(a & ~joint). Each r2 is counted once; a
    repeated query (another variant's bisection, a payload) reads the memo.
    witness holds the link rates at the case-B operating point once the
    pipeline has computed them. The arrays are read-only.
    """

    def __init__(self, r1: float, su1: np.ndarray, su2: np.ndarray,
                 values: np.ndarray, q2: np.ndarray | None = None):
        self.su2 = su2
        self.exceed1 = _read_only(r1 > su1)
        self.count_exceed1 = count_true(self.exceed1)
        self.su2_exceed1 = su2[self.exceed1]
        self._hold(values, q2)

    def on(self, values: np.ndarray) -> "Column":
        """The Column at the same r1 over other values (a bound of these, or
        their refinement), with no q2*: the r1-only work, exceed1 with its
        count and su2 on its rows, is shared; the counts are its own."""
        column = copy.copy(self)
        column._hold(values, None)
        return column

    def _hold(self, values: np.ndarray, q2: np.ndarray | None):
        self.values = _read_only(values)
        self.q2 = None if q2 is None else _read_only(q2)
        self.values_exceed1 = values[self.exceed1]
        self.witness: tuple | None = None
        self._memo: dict[float, CaseProbabilities] = {}

    def masks(self, r2: float) -> tuple:
        """(exceed1, exceed2, joint) at r2, the per-realization split."""
        return self.exceed1, r2 > self.su2, _jointly_achievable(self.values, r2)

    def case_probs(self, r2: float) -> CaseProbabilities:
        probs = self._memo.get(r2)
        if probs is None:
            probs = self._memo[r2] = self._count(r2)
        return probs

    def _count(self, r2: float) -> CaseProbabilities:
        exceed2 = r2 > self.su2
        joint = _jointly_achievable(self.values, r2)
        a = r2 > self.su2_exceed1
        a_joint = _jointly_achievable(self.values_exceed1, r2)
        n_exceed2 = count_true(exceed2)
        n_a = count_true(a)
        n_a_nj = n_a - count_true(a & a_joint)
        return CaseProbabilities.from_counts(
            self.values.size,
            n_a,
            count_true(joint) - (n_a - n_a_nj),
            n_exceed2 - count_true(exceed2 & joint) - n_a_nj,
            self.count_exceed1 - count_true(a_joint) - n_a_nj,
            self.count_exceed1,
            n_exceed2,
        )


@dataclass
class _Stream:
    """A sampled stream: both frontiers, the single-user rates and the column
    store, the Columns of the last request by r1. Its arrays are read-only."""

    F1: FrontierBatch
    F2: FrontierBatch
    su1: np.ndarray
    su2: np.ndarray
    columns: dict[float, Column] = field(default_factory=dict)


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
        _read_only(array)
    return _Stream(F1, F2, *su)


# The one cached stream of this process, as (key, stream); see _shared_stream.
_cached_stream: tuple | None = None


def clear_stream_cache() -> None:
    """Forget the cached stream, so the next pipeline on it samples it again."""
    global _cached_stream
    _cached_stream = None


def _stream_key(source: SampleSource, noise: tuple[float, float]) -> tuple:
    """Everything a Gaussian stream's frontiers and single-user rates depend
    on, as exact bytes."""
    stats = source.stats
    return (
        stats.n,
        *(stats.covariance(key).tobytes() for key in COVARIANCE_KEYS),
        np.array([stats.sigma1_sq, stats.sigma2_sq, *noise]).tobytes(),
        source.seed,
        source.count,
    )


def _shared_stream(source: SampleSource, noise: tuple[float, float]) -> _Stream:
    """The sampled stream of a Gaussian source: the cached one when its key
    matches, else a new one, which replaces it in the cache."""
    global _cached_stream
    key = _stream_key(source, noise)
    if _cached_stream is None or _cached_stream[0] != key:
        # Dropped first, so that the old stream is not held while sampling.
        _cached_stream = None
        _cached_stream = (key, _sample_stream(source, noise))
    return _cached_stream[1]


class InstantaneousRegionPipeline:
    """Shared-stream evaluator of instantaneous-CSI outage regions.

    One fixed sample stream serves every rate point (common random numbers).
    Per r1 column the largest achievable r2 of each realization is the
    expensive oracle work; case counts at any (r1, r2) are then threshold
    comparisons, which makes membership exactly monotone in r2 along a column
    and lets several scenarios share identical classifications. Every column
    comes from one kernel call, in _bounds. _search refines all its searched
    rows for the stream's store (see the module docstring); trace_variants
    builds each column's Columns in the process that bisects it, on the
    kernel's bounds and the rows it refines, and stores none.
    """

    def __init__(self, source: SampleSource, noise: tuple[float, float]):
        if source.count <= 0:
            raise ValueError("need at least one sample")
        self.source = source
        self.noise = as_noise(noise)
        if source.realizations is None:
            self._stream = _shared_stream(source, self.noise)
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

    def _bounds(self, r1: float) -> ColumnBounds:
        """The column kernel at r1 after its bracket stage: the pipeline's one
        call of max_r2_batch per computed column."""
        return max_r2_batch(self.F1, self.F2, float(gamma_from_rate(r1)), self.noise)

    def _search(self, r1: float) -> tuple:
        """(values, q2*) at r1, every searched row refined: the exact column."""
        return self._bounds(r1).exact()

    def column(self, r1: float) -> np.ndarray:
        """Each realization's largest achievable r2 at r1 (read-only), by the
        store's one lookup: on a miss the held columns are dropped first."""
        r1 = _column_key(r1)
        store = self._stream.columns
        if r1 not in store:
            store.clear()
            store[r1] = Column(r1, self.su1, self.su2, *self._search(r1))
        return store[r1].values

    def _column(self, r1: float) -> Column:
        """The Column at r1, requested through column()."""
        self.column(r1)
        return self._stream.columns[_column_key(r1)]

    def _map_columns(self, method: str, r1_values: list, workers: int, *args) -> list:
        """[self.method(r1, *args) for r1 in r1_values], run by up to `workers`
        processes, this one included.

        With k = min(workers, len(r1_values)) > 1, k - 1 helpers are forked
        and all k processes claim indices from one shared counter in
        _claim_order (largest r1 first), so a process that finishes early
        takes the next column instead of idling. Each helper reports its
        results through its own pipe; they come back in r1 order and do not
        depend on k or on who claimed what. Every helper is reaped before
        this returns or raises: on an error here, the helpers still running
        are killed first. A column that raises in a helper ends the claims
        at once, so this process stops after its current column and raises
        that exception. A helper that dies instead (os._exit, a signal) is
        still detected only here, at collection, after this process has run
        out of claims.
        """
        run = getattr(self, method)
        if workers > 1 and not hasattr(os, "fork"):
            raise ValueError(f"--workers {workers} needs os.fork, which this platform "
                             "lacks; use --workers 1")
        procs = min(workers, len(r1_values))
        if procs <= 1:
            return [run(r1, *args) for r1 in r1_values]
        order = _claim_order(r1_values)
        results = [None] * len(r1_values)
        helpers = {}  # pid -> read end of its pipe, until collected
        with tempfile.TemporaryFile() as counter:
            try:
                for _ in range(procs - 1):
                    read_fd, write_fd = os.pipe()
                    try:
                        pid = os.fork()
                        if pid == 0:
                            _run_helper(write_fd, counter.fileno(), order, run, r1_values, args)
                    except BaseException:
                        os.close(read_fd)
                        raise
                    finally:
                        # Closed before the next fork, so the helper holds the
                        # only write end and its death reads as end of file.
                        os.close(write_fd)
                    helpers[pid] = read_fd
                for i in _claims(counter.fileno(), order):
                    results[i] = run(r1_values[i], *args)
                while helpers:
                    pid, read_fd = helpers.popitem()
                    for i, result in _collect(pid, read_fd):
                        results[i] = result
            finally:
                for pid, read_fd in helpers.items():
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    os.close(read_fd)
        return results

    def precompute_columns(self, r1_values, workers: int = 1):
        """Make the store hold the columns at r1_values: held ones are kept,
        the others dropped, and the missing ones computed by up to `workers`
        processes, this one included (see _map_columns)."""
        keys = list(dict.fromkeys(_column_key(r1) for r1 in r1_values))
        store = self._stream.columns
        held = {r1: store[r1] for r1 in keys if r1 in store}
        store.clear()
        store.update(held)
        todo = [r1 for r1 in keys if r1 not in held]
        for r1, found in zip(todo, self._map_columns("_search", todo, workers)):
            store[r1] = Column(r1, self.su1, self.su2, *found)

    def witness_rates(self, r1: float):
        """Link rates at the case-B operating point (transmitter 2 at the column
        maximizer, transmitter 1 just reaching r1), computed once per Column
        and held on it, read-only."""
        r1 = _column_key(r1)
        column = self._column(r1)
        if column.witness is None:
            q1 = frontier_qmin_batch(self.F1, float(gamma_from_rate(r1)), column.q2,
                                     self.noise[0])
            rates = witness_rates_batch(self.F1, self.F2, q1, column.q2, self.noise)
            column.witness = tuple(_read_only(rate) for rate in rates)
        return column.witness

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
        [r2_lo, r2_hi], are counted. The searched rows whose [lower, upper]
        straddles the joint threshold r2 - RATE_SLACK somewhere in such a
        span are refined in one call; every other row keeps its lower bound,
        which is on the same side of each of those thresholds as its exact
        value. So the counts made are the exact column's, and so are the
        r2 and payloads, bit for bit.

        The Columns are built here, never read from or put in the store, and
        dropped on return, which leaves (inside, r2, payload) per variant.
        """
        bounds = self._bounds(r1)
        lower = Column(r1, self.su1, self.su2, bounds.lower)
        upper = lower.on(bounds.upper)

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

        searched = bounds.searched
        lo, hi = bounds.lower[searched], bounds.upper[searched]
        undecided = np.zeros(searched.size, dtype=bool)
        for span in spans:
            if span is not None:
                undecided |= (hi >= max(span[0], 0.0) - RATE_SLACK) & (lo < span[1] - RATE_SLACK)
        exact = lower
        if undecided.any():
            values = bounds.lower.copy()
            values[searched[undecided]] = bounds.refine(undecided)[0]
            exact = lower.on(values)

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

        Each column is computed once, by the process that takes it in
        _map_columns, and bisected there for every variant; this process
        receives (inside, r2, payload) per column and variant and assembles
        each boundary in r1 order. The store is emptied first.
        """
        r1_values = [_column_key(r1) for r1 in grid.r1_values]
        self._stream.columns.clear()
        steps = self._map_columns("_trace_column", r1_values, workers, spec, grid,
                                  tuple(variants))
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
