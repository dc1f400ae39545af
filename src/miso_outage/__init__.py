"""Achievable outage rate regions of the two-user MISO interference channel.

Subpackage map:

- channel: channel model, validation, reproducible Gaussian sampling
- rate_core: per-realization rates, power frontiers, the column kernel
- outage_mc: case classification and achievability, Monte-Carlo estimates,
  policy simulation
- regions: membership conditions, bias intervals, boundary tracing
- stat_csi: closed-form statistical-CSI evaluator over explicit beamformer pairs
- cli: batch front-end (run configs, CSV boundaries, JSON manifests)
"""

__version__ = "0.1.0"

from .channel import (
    ChannelRealization,
    ChannelStatistics,
    SampleSource,
    ValidationError,
    factor_covariance,
    validate_statistics,
)
from .outage_mc import (
    CaseLabel,
    CaseProbabilities,
    FeasibilityWitness,
    PolicyOutcome,
    classify,
    estimate_case_probs,
    is_achievable,
    simulate_policy,
)
from .rate_core import (
    PowerFrontier,
    frontier_point,
    mrt,
    power_frontier,
    rate_bf,
)
from .regions import (
    BiasInterval,
    BoundaryPoint,
    GridConfig,
    InstantaneousRegionPipeline,
    OutageSpec,
    RegionBoundary,
    bias_interval,
    common_inst_member,
    fixed_choice_member,
    individual_inst_member,
    write_boundary_csv,
)
from .stat_csi import StatRegionSearch, draw_beamformer_pairs

__all__ = [
    "__version__",
    "BiasInterval",
    "BoundaryPoint",
    "CaseLabel",
    "CaseProbabilities",
    "ChannelRealization",
    "ChannelStatistics",
    "FeasibilityWitness",
    "GridConfig",
    "InstantaneousRegionPipeline",
    "OutageSpec",
    "PolicyOutcome",
    "PowerFrontier",
    "RegionBoundary",
    "SampleSource",
    "StatRegionSearch",
    "ValidationError",
    "bias_interval",
    "classify",
    "common_inst_member",
    "draw_beamformer_pairs",
    "estimate_case_probs",
    "factor_covariance",
    "fixed_choice_member",
    "frontier_point",
    "individual_inst_member",
    "is_achievable",
    "mrt",
    "power_frontier",
    "rate_bf",
    "simulate_policy",
    "validate_statistics",
    "write_boundary_csv",
]
