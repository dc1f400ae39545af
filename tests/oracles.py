"""Reference implementations the tests check the package against.

No command reaches these: each is a second route to a quantity the package
computes another way, or the formula for an input the package never takes.
Their arithmetic is kept as it was when they lived in the package, so the
tests that pin them keep their meaning:

- su_rate_batch: single-user rates of a stacked channel array;
- exact_column: the Column at r1 over the exact column, every searched row
  refined in one ColumnBounds.refined call, where the pipeline's Columns
  refine on demand (Column.refine);
- split_cases and case_counts: the five case masks from the three
  comparison masks, and their counts without the masks, the mask-level
  reference for regions.Column.case_probs, the package's one count;
- stat_member_mc (with StatMcResult): Monte-Carlo statistical-CSI
  membership under general-rank transmit covariances;
- rate_cov (with validate_transmit_covariance): one link's rate under
  transmit covariances, of which rate_core.rate_bf is the rank-one case;
- simulate_policy: the policy's outcome from per-row achieved rates (the
  five case masks and np.select) over exact_column, each compared with its
  target, where
  outage_mc.PolicySplit compares only case B's witness rates, takes the
  other counts from the Column and counts only case D's coins at each bias;
- trace_boundary: a whole-region trace over any membership oracle, by
  regions.trace_column and regions.assemble_boundary;
- axis_intercept: an outage region's intercept on one rate axis;
- stat_common_curves and stat_common_boundary: a StatRegionSearch's
  common-outage curve points, every one inverted to the last bit, and one
  Pareto filter over all of them, where StatRegionSearch.boundary bisects
  only the points that can still reach the front.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from miso_outage.channel import ChannelStatistics, SampleSource
from miso_outage.outage_mc import PolicyOutcome, count_true
from miso_outage.rate_core import (
    NORM_TOL,
    RATE_SLACK,
    as_rate_point,
    bisect_largest,
    gamma_from_rate,
    quad_form,
    rate_from_sinr,
    rowsum,
)
from miso_outage.regions import (
    BoundaryPoint,
    Column,
    GridConfig,
    InstantaneousRegionPipeline,
    OutageSpec,
    RegionBoundary,
    assemble_boundary,
    non_dominated_points,
    power_scale_checked,
    trace_column,
)
from miso_outage.stat_csi import (
    StatRegionSearch,
    _meets,
    _rates_for_success,
    success_probability,
)


def su_rate_batch(H: np.ndarray, sigma_sq: float) -> np.ndarray:
    """Single-user rates for a stacked (N, n) own-channel array: ||h||^2 summed
    by rowsum, as frontier_batch forms p_max, so they equal the pipeline's."""
    return rate_from_sinr(rowsum(np.abs(np.asarray(H)) ** 2) / float(sigma_sq))


def exact_column(pipeline: InstantaneousRegionPipeline, r1: float) -> Column:
    """The Column at r1 over the exact column: the pipeline's one kernel call
    at r1 (its _bounds), with every searched row refined at once by
    ColumnBounds.refined(True), under the pipeline's overflow check."""
    bounds = pipeline._bounds(r1)
    with power_scale_checked(pipeline):
        values, q2 = bounds.refined(True)
    return Column(bounds.exceed1, pipeline.su2).on(values, q2)


def split_cases(exceed1: np.ndarray, exceed2: np.ndarray, joint: np.ndarray):
    """Masks (A, B, C1, C2, D) of the five-case split.

    exceed_i marks realizations where r_i exceeds the single-user rate of link
    i, joint those where the rate pair is jointly achievable.
    """
    a = exceed1 & exceed2
    b = ~a & joint
    c1 = ~a & ~b & exceed2
    c2 = ~a & ~b & exceed1
    return a, b, c1, c2, ~(a | b | c1 | c2)


def case_counts(exceed1: np.ndarray, exceed2: np.ndarray, joint: np.ndarray):
    """Counts (A, B, C1, C2) of split_cases's masks, without building them.

    With a = exceed1 & exceed2 and nj = ~joint: B = joint minus a & joint, and
    C1 (C2) = exceed2 & nj (exceed1 & nj) minus a & nj, because a lies inside
    both exceed masks. Exact for arbitrary masks, not only consistent ones.
    """
    a = exceed1 & exceed2
    nj = ~joint
    n_a = count_true(a)
    n_a_nj = count_true(a & nj)
    return (
        n_a,
        count_true(joint) - (n_a - n_a_nj),
        count_true(exceed2 & nj) - n_a_nj,
        count_true(exceed1 & nj) - n_a_nj,
    )


def simulate_policy(
    source: SampleSource, point, bias: float, noise: tuple[float, float], coin_seed: int = 0
) -> PolicyOutcome:
    """The policy's outcome at bias p, row by row over exact_column at r1,
    never the pipeline's column store: each realization's achieved rates
    under its case (the witness rates on B, su_i on Ci and on the case-D rows
    that serve link i, 0 elsewhere), compared with r_i - RATE_SLACK."""
    r1, r2 = as_rate_point(point)
    bias = float(bias)
    if not 0.0 <= bias <= 1.0:
        raise ValueError(f"bias must lie in [0, 1], got {bias}")
    pipeline = InstantaneousRegionPipeline(source, noise)
    column = exact_column(pipeline, r1)
    _, r1_witness, r2_witness = pipeline._witness(r1, column)
    a, b, c1, c2, d = split_cases(*column.masks(r2))
    coin = np.random.default_rng(coin_seed).random(source.count)
    serve1 = d & (coin < bias)
    serve2 = d & ~serve1

    r1_ach = np.select([b, c1 | serve1], [r1_witness, pipeline.su1])
    r2_ach = np.select([b, c2 | serve2], [r2_witness, pipeline.su2])
    success1 = r1_ach >= r1 - RATE_SLACK
    success2 = r2_ach >= r2 - RATE_SLACK
    return PolicyOutcome(
        n_samples=source.count,
        bias=bias,
        coin_seed=int(coin_seed),
        success1=count_true(success1),
        success2=count_true(success2),
        count_a=count_true(a),
        count_b=count_true(b),
        count_c1=count_true(c1),
        count_c2=count_true(c2),
        count_d1=count_true(serve1),
        count_d2=count_true(serve2),
    )


def validate_transmit_covariance(Psi: np.ndarray, name: str = "Psi") -> np.ndarray:
    """Hermitian PSD with trace <= 1 (power budget), small tolerances."""
    Psi = np.asarray(Psi, dtype=np.complex128)
    if Psi.ndim != 2 or Psi.shape[0] != Psi.shape[1]:
        raise ValueError(f"{name}: expected a square matrix, got shape {Psi.shape}")
    if np.max(np.abs(Psi - Psi.conj().T)) > 1e-9:
        raise ValueError(f"{name}: not Hermitian")
    if float(np.linalg.eigvalsh(Psi).min()) < -1e-9:
        raise ValueError(f"{name}: not positive semidefinite")
    tr = float(np.real(np.trace(Psi)))
    if tr > 1.0 + NORM_TOL:
        raise ValueError(f"{name}: trace {tr} exceeds unit power budget")
    return Psi


def rate_cov(h, Psi1, Psi2, link: int, sigma_sq: float) -> float:
    """Rate of one link under general transmit covariances (Psi1, Psi2)."""
    if link not in (1, 2):
        raise ValueError(f"link must be 1 or 2, got {link}")
    Psi1 = validate_transmit_covariance(Psi1, "Psi1")
    Psi2 = validate_transmit_covariance(Psi2, "Psi2")
    own_h = h.h11 if link == 1 else h.h22
    cross_h = h.h21 if link == 1 else h.h12
    own_Psi, cross_Psi = (Psi1, Psi2) if link == 1 else (Psi2, Psi1)
    signal = quad_form(own_Psi, own_h)
    interference = quad_form(cross_Psi, cross_h)
    return float(rate_from_sinr(signal / (interference + float(sigma_sq))))


@dataclass
class StatMcResult:
    """Monte-Carlo membership estimate for general-rank transmit covariances."""

    member: bool
    success1: float
    success2: float
    success_joint: float
    n_samples: int


def stat_member_mc(
    stats: ChannelStatistics,
    Psi1: np.ndarray,
    Psi2: np.ndarray,
    point,
    spec: OutageSpec,
    source: SampleSource,
) -> StatMcResult:
    """Estimate the outage constraints by sampling the fading distribution.

    Success is the non-strict event R_i >= r_i; under continuous fading the
    boundary has probability zero, so this matches the closed form.
    """
    Psi1 = validate_transmit_covariance(np.asarray(Psi1, dtype=complex), "Psi1")
    Psi2 = validate_transmit_covariance(np.asarray(Psi2, dtype=complex), "Psi2")
    r1, r2 = as_rate_point(point)
    arrs = source.arrays()
    sinr1 = quad_form(Psi1, arrs["h11"]) / (quad_form(Psi2, arrs["h21"]) + stats.sigma1_sq)
    sinr2 = quad_form(Psi2, arrs["h22"]) / (quad_form(Psi1, arrs["h12"]) + stats.sigma2_sq)
    ok1 = sinr1 >= gamma_from_rate(r1)
    ok2 = sinr2 >= gamma_from_rate(r2)
    n = source.count
    success1 = int(ok1.sum()) / n
    success2 = int(ok2.sum()) / n
    success_joint = int((ok1 & ok2).sum()) / n
    return StatMcResult(
        member=bool(_meets(spec, success1, success2, success_joint)),
        success1=success1,
        success2=success2,
        success_joint=success_joint,
        n_samples=n,
    )


def trace_boundary(
    member,
    grid: GridConfig,
    annotate=None,
    metadata: dict | None = None,
) -> RegionBoundary:
    """Trace the upper boundary of a downward-closed region.

    member(r1, r2) -> bool is the membership oracle; annotate(r1, r2) -> dict,
    when given, supplies the payload attached to each boundary point. Every
    column runs trace_column, and assemble_boundary reports the warnings and
    keeps the non-dominated points.
    """
    columns = [trace_column(member, float(r1), grid, annotate) for r1 in grid.r1_values]
    return assemble_boundary(grid, columns, metadata)


def axis_intercept(pipeline, spec: OutageSpec, link: int = 1, variant: str = "plain") -> float:
    """Largest member rate of an InstantaneousRegionPipeline on one axis (the
    other link's target at zero), bisected to 1e-6 bits below a cap of
    1.5 x the largest single-user rate + 1."""
    if link not in (1, 2):
        raise ValueError(f"link must be 1 or 2, got {link}")

    def member(r):
        point = (r, 0.0) if link == 1 else (0.0, r)
        return pipeline.member(point[0], point[1], spec, variant)

    if not member(0.0):
        return 0.0
    su = pipeline.su1 if link == 1 else pipeline.su2
    return bisect_largest(member, float(su.max()) * 1.5 + 1.0, 1e-6)


def stat_common_curves(search: StatRegionSearch, spec: OutageSpec) -> tuple:
    """Every common-outage curve point of search, as flat arrays (r1, r2, pi1,
    pi2) of pairs x search.curve_points, pair by pair: r1 on a grid up to the
    pair's largest rate at success 1 - eps, and r2 inverted to the last bit
    for every point."""
    floor = 1.0 - spec.epsilon
    shape = search.s1.shape
    edge = _rates_for_success(search.s1, search.t1, search.stats.sigma1_sq,
                              np.full(shape, floor))[:, None]
    k = search.curve_points
    r1 = np.arange(k) * (edge / (k - 1))
    r1[:, -1:] = edge
    pi1, _, g2 = search._link2_at(r1, spec)
    pi2 = success_probability(g2, search.s2[:, None], search.t2[:, None],
                              search.stats.sigma2_sq)
    return tuple(x.ravel() for x in (r1, rate_from_sinr(g2), pi1, pi2))


def stat_common_boundary(search: StatRegionSearch, spec: OutageSpec) -> RegionBoundary:
    """The common-outage boundary of search: one Pareto filter over all of
    stat_common_curves's points."""
    r1, r2, pi1, pi2 = stat_common_curves(search, spec)
    k = search.curve_points
    kept = [
        BoundaryPoint(
            float(r1[j]), float(r2[j]),
            {"pair_index": j // k, "pi1": float(pi1[j]), "pi2": float(pi2[j])},
        )
        for j in non_dominated_points(np.column_stack([r1, r2])).tolist()
    ]
    metadata = {"scenario_mode": spec.mode, "n_pairs": len(search.s1), "curve_points": k}
    return RegionBoundary(points=kept, warnings=[], metadata=metadata)
