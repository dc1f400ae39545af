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
random numbers) and caches, per column, each realization's largest achievable
r2, so scenario nesting can be verified pointwise without re-sampling noise.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channel import SampleSource
from .outage_mc import CaseProbabilities, split_cases
from .rate_core import (
    RATE_SLACK,
    as_rate_point,
    bisect_largest,
    column_search_batch,
    frontier_batch,
    frontier_qmin_batch,
    gamma_from_rate,
    max_r2_batch,
    su_rate_batch,
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

    Bisection tolerance defaults to one tenth of the r1 grid spacing.
    """

    r1_cap: float
    r2_cap: float
    n_points: int = 50
    tol: float | None = None

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {self.n_points}")
        if not (self.r1_cap > 0.0 and self.r2_cap > 0.0):
            raise ValueError("caps must be positive")

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


def non_dominated_points(points: list[BoundaryPoint]) -> list[BoundaryPoint]:
    """Componentwise maxima of an arbitrary point cloud, sorted by r1.

    A point is dropped when some other point is >= in both coordinates (and
    different, or an earlier duplicate of it).
    """
    ordered = sorted(points, key=lambda p: (-p.r1, -p.r2))
    kept = []
    best_r2 = -math.inf
    for p in ordered:
        if p.r2 > best_r2:
            kept.append(p)
            best_r2 = p.r2
    kept.reverse()
    return kept


def trace_boundary(
    member,
    grid: GridConfig,
    annotate=None,
    metadata: dict | None = None,
) -> RegionBoundary:
    """Trace the upper boundary of a downward-closed region.

    member(r1, r2) -> bool is the membership oracle; annotate(r1, r2) -> dict,
    when given, supplies the payload attached to each surviving point.
    Non-monotone oracle responses across columns (membership reappearing after
    a column whose base point already left the region, or cap hits) are
    reported as warnings, a symptom of Monte-Carlo noise at the boundary.
    """
    warnings: list[str] = []
    raw: list[BoundaryPoint] = []
    tol = grid.tolerance
    outside_seen = False
    for r1 in grid.r1_values:
        r1 = float(r1)
        if not member(r1, 0.0):
            outside_seen = True
            continue
        if outside_seen:
            warnings.append(f"non-monotone membership: column r1={r1:.6g} is inside "
                            "after an earlier column left the region")
        r2 = bisect_largest(lambda r2: member(r1, r2), grid.r2_cap, tol)
        if r2 == grid.r2_cap:
            warnings.append(f"r2 cap {grid.r2_cap:.6g} still inside at r1={r1:.6g}")
        raw.append(BoundaryPoint(r1, r2))
    points = non_dominated_points(raw)
    if annotate is not None:
        for p in points:
            p.payload = annotate(p.r1, p.r2)
    meta = dict(metadata or {})
    meta.update(
        {
            "r1_cap": grid.r1_cap,
            "r2_cap": grid.r2_cap,
            "n_grid": grid.n_points,
            "bisection_tol": tol,
        }
    )
    return RegionBoundary(points=points, warnings=warnings, metadata=meta)


# ---------------------------------------------------------------------------
# Instantaneous-region pipeline (shared stream, cached columns)
# ---------------------------------------------------------------------------

_WORKER = {}


def _column_key(r1: float) -> float:
    """r1 as a column-cache key: a finite, nonnegative float, else ValueError."""
    return as_rate_point((r1, 0.0))[0]


def _pipeline_worker_init(pipeline: "InstantaneousRegionPipeline"):
    # A forked worker inherits the parent's pipeline (stream and frontiers)
    # for free; under spawn it arrives pickled. Either way nothing is re-sampled.
    _WORKER["pipeline"] = pipeline


def _pipeline_worker_column(r1: float) -> np.ndarray:
    return _WORKER["pipeline"]._compute_column(r1)


class InstantaneousRegionPipeline:
    """Shared-stream evaluator of instantaneous-CSI outage regions.

    One fixed sample stream serves every rate point (common random numbers).
    Per r1 column the largest achievable r2 of each realization is computed
    once (this is the expensive oracle work) and cached; case counts at any
    (r1, r2) are then threshold comparisons, which makes membership exactly
    monotone in r2 along a column and lets several scenarios share identical
    classifications.
    """

    def __init__(self, source: SampleSource, noise: tuple[float, float]):
        self.source = source
        self.noise = (float(noise[0]), float(noise[1]))
        arrs = source.arrays()
        self.F1 = frontier_batch(arrs["h11"], arrs["h12"])
        self.F2 = frontier_batch(arrs["h22"], arrs["h21"])
        self.su1 = su_rate_batch(arrs["h11"], self.noise[0])
        self.su2 = su_rate_batch(arrs["h22"], self.noise[1])
        self.n_samples = source.count
        self._columns: dict[float, np.ndarray] = {}

    def su_caps(self, eps1: float, eps2: float):
        """Grid caps from the single-user rate quantiles, plus 10 % headroom.

        On the r1 axis the region ends where the single-user outage of link 1
        reaches eps1, i.e. at the empirical eps1-quantile of su1; same for
        link 2. The headroom keeps the true intercept strictly inside the grid.
        """
        r1_cap = float(np.quantile(self.su1, eps1)) * 1.1
        r2_cap = float(np.quantile(self.su2, eps2)) * 1.1
        return r1_cap, r2_cap

    def _compute_column(self, r1: float) -> np.ndarray:
        return max_r2_batch(self.F1, self.F2, float(gamma_from_rate(r1)), self.noise)

    def column(self, r1: float) -> np.ndarray:
        r1 = _column_key(r1)
        cached = self._columns.get(r1)
        if cached is None:
            cached = self._columns[r1] = self._compute_column(r1)
        return cached

    def precompute_columns(self, r1_values, workers: int = 1):
        """Fill the column cache, optionally with a process pool.

        Results are identical for any worker count; parallelism only changes
        which process runs each column.
        """
        keys = [_column_key(r1) for r1 in r1_values]
        todo = [r1 for r1 in keys if r1 not in self._columns]
        if not todo:
            return
        if workers <= 1:
            for r1 in todo:
                self.column(r1)
            return
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_pipeline_worker_init,
            initargs=(self,),
        ) as pool:
            for r1, col in zip(todo, pool.map(_pipeline_worker_column, todo)):
                self._columns[r1] = col

    def witness_rates(self, r1: float):
        """Link rates at the case-B operating point (transmitter 2 at the column
        maximizer, transmitter 1 just reaching r1); also caches the column."""
        r1 = _column_key(r1)
        gamma1 = float(gamma_from_rate(r1))
        column, q2 = column_search_batch(self.F1, self.F2, gamma1, self.noise)
        self._columns.setdefault(r1, column)
        q1 = frontier_qmin_batch(self.F1, gamma1 * (q2 + self.noise[0]))
        return witness_rates_batch(self.F1, self.F2, q1, q2, self.noise)

    def case_tests(self, r1: float, r2: float):
        """Masks (exceed1, exceed2, joint) at (r1, r2): the only case-B decision."""
        r1, r2 = as_rate_point((r1, r2))
        joint = self.column(r1) >= r2 - RATE_SLACK
        return r1 > self.su1, r2 > self.su2, joint

    def case_probs(self, r1: float, r2: float) -> CaseProbabilities:
        exceed1, exceed2, joint = self.case_tests(r1, r2)
        a, b, c1, c2, _ = split_cases(exceed1, exceed2, joint)
        counts = (int(m.sum()) for m in (a, b, c1, c2, exceed1, exceed2))
        return CaseProbabilities.from_counts(self.n_samples, *counts)

    def member(self, r1: float, r2: float, spec: OutageSpec, variant: str = "plain") -> bool:
        return verdict(self.case_probs(r1, r2), spec, variant).member

    def trace(self, spec: OutageSpec, grid: GridConfig, variant: str = "plain") -> RegionBoundary:
        self.precompute_columns(grid.r1_values)

        def member(r1, r2):
            return self.member(r1, r2, spec, variant)

        def annotate(r1, r2):
            probs = self.case_probs(r1, r2)
            payload = probs.as_dict()["estimates"]
            payload.update(verdict(probs, spec, variant).margins())
            return payload

        meta = {
            "scenario_mode": spec.mode,
            "variant": variant,
            "n_samples": self.n_samples,
            "seed": self.source.seed,
        }
        return trace_boundary(member, grid, annotate=annotate, metadata=meta)

    def axis_intercept(self, spec: OutageSpec, link: int = 1, variant: str = "plain") -> float:
        """Largest member rate on one axis (the other link's target at zero),
        bisected to 1e-6 bits below a cap of 1.5 x the largest single-user
        rate + 1."""
        if link not in (1, 2):
            raise ValueError(f"link must be 1 or 2, got {link}")

        def member(r):
            point = (r, 0.0) if link == 1 else (0.0, r)
            return self.member(point[0], point[1], spec, variant)

        if not member(0.0):
            return 0.0
        su = self.su1 if link == 1 else self.su2
        return bisect_largest(member, float(su.max()) * 1.5 + 1.0, 1e-6)


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
