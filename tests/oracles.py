"""Reference implementations the tests check the package against.

No command reaches these: each is a second route to a quantity the package
computes another way, or the formula for an input the package never takes.
Their arithmetic is kept as it was when they lived in the package, so the
tests that pin them keep their meaning:

- su_rate_batch: single-user rates of a stacked channel array;
- case_counts: the five-case counts from the three comparison masks, the
  route regions.Column's counts replace along a column;
- stat_member_mc (with StatMcResult): Monte-Carlo statistical-CSI
  membership under general-rank transmit covariances;
- rate_cov (with validate_transmit_covariance): one link's rate under
  transmit covariances, of which rate_core.rate_bf is the rank-one case;
- trace_boundary: a whole-region trace over any membership oracle, by
  regions.trace_column and regions.assemble_boundary;
- axis_intercept: an outage region's intercept on one rate axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from miso_outage.channel import ChannelStatistics, SampleSource
from miso_outage.outage_mc import count_true
from miso_outage.rate_core import (
    NORM_TOL,
    as_rate_point,
    bisect_largest,
    gamma_from_rate,
    quad_form,
    rate_from_sinr,
    rowsum,
)
from miso_outage.regions import (
    GridConfig,
    OutageSpec,
    RegionBoundary,
    assemble_boundary,
    trace_column,
)
from miso_outage.stat_csi import _meets


def su_rate_batch(H: np.ndarray, sigma_sq: float) -> np.ndarray:
    """Single-user rates for a stacked (N, n) own-channel array: ||h||^2 summed
    by rowsum, as frontier_batch forms p_max, so they equal the pipeline's."""
    return rate_from_sinr(rowsum(np.abs(np.asarray(H)) ** 2) / float(sigma_sq))


def case_counts(exceed1: np.ndarray, exceed2: np.ndarray, joint: np.ndarray):
    """Counts (A, B, C1, C2) of outage_mc.split_cases's masks, without building them.

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
