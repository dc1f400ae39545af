"""Outage regions under statistical CSI with fixed beamformers.

With only channel statistics at the transmitters the beamformers cannot adapt
per realization. For a fixed unit-norm pair (w1, w2) and Gaussian channels,
h^H w is a scalar complex Gaussian, so received signal and interference powers
are exponential with means given by quadratic forms of the covariances:

    s_bar_1 = w1^H Q11 w1,   t_bar_1 = w2^H Q21 w2   (link 1)

and the per-link success probability has the closed form

    Pr{R_i >= r} = exp(-gamma sigma_i^2 / s_bar) * s_bar / (s_bar + gamma t_bar)

with gamma = 2^r - 1. The two links' successes are independent because each
involves a disjoint set of channel vectors, so the common-outage condition is
the product pi1*pi2 >= 1 - eps and individual outage constrains each factor.

Rate regions are searched over randomly drawn beamformer pairs (uniform on
the complex unit sphere, one seeded draw per pair index): every pair
contributes its feasible rate points and the reported boundary is the
non-dominated frontier of the union. General-rank transmit covariances are
supported through a Monte-Carlo membership check instead of a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelStatistics, SampleSource
from .rate_core import (
    LN2,
    gamma_from_rate,
    quad_form,
    rate_from_sinr,
    validate_beamformer,
    validate_transmit_covariance,
)
from .regions import BoundaryPoint, OutageSpec, RegionBoundary, non_dominated_points

STAT_CSV_COLUMNS = ("r1", "r2", "pi1", "pi2", "pair_index")


@dataclass(frozen=True)
class ExponentialLinkModel:
    """Mean signal power, mean interference power and noise for one link."""

    s_bar: float
    t_bar: float
    sigma_sq: float

    def __post_init__(self):
        if self.s_bar < 0.0 or self.t_bar < 0.0:
            raise ValueError("mean powers must be nonnegative")
        if self.sigma_sq < 0.0:
            raise ValueError("noise variance must be nonnegative")


def effective_means(
    stats: ChannelStatistics, w1: np.ndarray, w2: np.ndarray, link: int
) -> ExponentialLinkModel:
    """Exponential parameters of one link induced by a fixed beamformer pair."""
    w1 = np.asarray(w1, dtype=complex)
    w2 = np.asarray(w2, dtype=complex)
    if link == 1:
        return ExponentialLinkModel(
            s_bar=quad_form(stats.Q11, w1),
            t_bar=quad_form(stats.Q21, w2),
            sigma_sq=stats.sigma1_sq,
        )
    if link == 2:
        return ExponentialLinkModel(
            s_bar=quad_form(stats.Q22, w2),
            t_bar=quad_form(stats.Q12, w1),
            sigma_sq=stats.sigma2_sq,
        )
    raise ValueError(f"link must be 1 or 2, got {link}")


def success_probability(gamma, s_bar, t_bar, sigma_sq) -> np.ndarray:
    """Pr{SINR >= gamma} for exponential signal/interference, vectorized.

    gamma <= 0 gives 1; zero mean signal gives 0 for gamma > 0.
    """
    gamma = np.asarray(gamma, dtype=float)
    s = np.asarray(s_bar, dtype=float)
    t = np.asarray(t_bar, dtype=float)
    shape = np.broadcast_shapes(gamma.shape, s.shape, t.shape)
    gamma, s, t = (np.broadcast_to(x, shape) for x in (gamma, s, t))
    safe_s = np.where(s > 0.0, s, 1.0)
    safe_g = np.where(gamma > 0.0, gamma, 0.0)
    pi = np.exp(-safe_g * sigma_sq / safe_s) * safe_s / (safe_s + safe_g * t)
    pi = np.where(s > 0.0, pi, 0.0)
    return np.where(gamma <= 0.0, 1.0, pi)


def link_success_closed_form(model: ExponentialLinkModel, r: float) -> float:
    """Probability that the link sustains rate r."""
    r = float(r)
    if r < 0.0:
        raise ValueError(f"rate must be nonnegative, got {r}")
    return float(
        success_probability(gamma_from_rate(r), model.s_bar, model.t_bar, model.sigma_sq)
    )


def _invert_success(s_bar, t_bar, sigma_sq, targets) -> np.ndarray:
    """Largest gamma with success >= target, elementwise (targets in (0, 1])."""
    targets = np.asarray(targets, dtype=float)
    s = np.broadcast_to(np.asarray(s_bar, dtype=float), targets.shape).copy()
    t = np.broadcast_to(np.asarray(t_bar, dtype=float), targets.shape)
    gamma = np.zeros(targets.shape)
    alive = (s > 0.0) & (targets < 1.0)
    hi = np.ones(targets.shape)
    for _ in range(200):
        below = alive & (success_probability(hi, s, t, sigma_sq) >= targets)
        if not below.any():
            break
        hi = np.where(below, 2.0 * hi, hi)
    lo = np.zeros(targets.shape)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        ok = success_probability(mid, s, t, sigma_sq) >= targets
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    return np.where(alive, lo, gamma)


def _rates_for_success(s_bar, t_bar, sigma_sq, targets) -> np.ndarray:
    """Largest rates whose success reaches targets, elementwise (targets in (0, 1]).

    log1p is libm's, one element at a time. numpy's vectorized log1p can round
    the last bit differently, and the end point of a common-outage curve sits
    exactly on the success floor, where that bit decides whether the other
    link's success target is 1 or just below it.
    """
    gamma = _invert_success(s_bar, t_bar, sigma_sq, targets)
    return np.array([math.log1p(g) for g in gamma]) / LN2


def rate_for_success(model: ExponentialLinkModel, target: float) -> float:
    """Largest rate whose success probability still reaches target."""
    target = float(target)
    if not 0.0 < target <= 1.0:
        raise ValueError(f"target must lie in (0, 1], got {target}")
    rate = _rates_for_success(model.s_bar, model.t_bar, model.sigma_sq, np.array([target]))
    return float(rate[0])


def pair_success(
    stats: ChannelStatistics, w1: np.ndarray, w2: np.ndarray, point
) -> tuple[float, float]:
    """Closed-form per-link success probabilities at a rate point."""
    r1, r2 = float(point[0]), float(point[1])
    pi1 = link_success_closed_form(effective_means(stats, w1, w2, 1), r1)
    pi2 = link_success_closed_form(effective_means(stats, w1, w2, 2), r2)
    return pi1, pi2


def stat_member(
    stats: ChannelStatistics, w1: np.ndarray, w2: np.ndarray, point, spec: OutageSpec
) -> bool:
    """Does the fixed pair meet the outage constraints at this rate point?"""
    validate_beamformer(np.asarray(w1, dtype=complex), "w1")
    validate_beamformer(np.asarray(w2, dtype=complex), "w2")
    pi1, pi2 = pair_success(stats, w1, w2, point)
    return bool(_meets(spec, pi1, pi2, pi1 * pi2))


def _meets(spec: OutageSpec, pi1, pi2, joint):
    """Outage constraints on per-link success pi1, pi2 and joint success."""
    if spec.mode == "common":
        return joint >= 1.0 - spec.epsilon
    return (pi1 >= 1.0 - spec.epsilon1) & (pi2 >= 1.0 - spec.epsilon2)


@dataclass
class StatMcResult:
    """Monte-Carlo membership estimate for general-rank transmit covariances."""

    member: bool
    success1: float
    success2: float
    success_joint: float
    n_samples: int

    def as_dict(self) -> dict:
        return {
            "member": self.member,
            "success1": self.success1,
            "success2": self.success2,
            "success_joint": self.success_joint,
            "n_samples": self.n_samples,
        }


def _quad_batch(h: np.ndarray, Psi: np.ndarray) -> np.ndarray:
    return np.einsum("ni,ij,nj->n", np.conj(h), Psi, h).real


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
    r1, r2 = float(point[0]), float(point[1])
    arrs = source.arrays()
    sinr1 = _quad_batch(arrs["h11"], Psi1) / (
        _quad_batch(arrs["h21"], Psi2) + stats.sigma1_sq
    )
    sinr2 = _quad_batch(arrs["h22"], Psi2) / (
        _quad_batch(arrs["h12"], Psi1) + stats.sigma2_sq
    )
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


# ---------------------------------------------------------------------------
# Beamformer search
# ---------------------------------------------------------------------------


def draw_beamformer_pairs(
    n: int, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm pairs, uniform on the complex sphere, one RNG per index.

    Pair i depends only on (seed, i), so enlarging count extends the sequence
    without disturbing earlier draws.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    W1 = np.empty((count, n), dtype=complex)
    W2 = np.empty((count, n), dtype=complex)
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), i]))
        z = rng.standard_normal((2, n, 2))
        pair = z[..., 0] + 1j * z[..., 1]
        W1[i] = pair[0] / np.linalg.norm(pair[0])
        W2[i] = pair[1] / np.linalg.norm(pair[1])
    return W1, W2


@dataclass
class StatSearchConfig:
    n_pairs: int
    seed: int = 0
    curve_points: int = 65

    def __post_init__(self):
        if self.n_pairs < 1:
            raise ValueError(f"n_pairs must be >= 1, got {self.n_pairs}")
        if self.curve_points < 2:
            raise ValueError(f"curve_points must be >= 2, got {self.curve_points}")


class StatRegionSearch:
    """Rate-region evaluation over a fixed set of candidate beamformer pairs.

    The candidate set is drawn once from the config seed; all queries
    (membership, column heights, the traced boundary) reuse it, so common- and
    individual-outage answers refer to the same searched region.
    """

    def __init__(self, stats: ChannelStatistics, config: StatSearchConfig):
        self.stats = stats
        self.config = config
        self.W1, self.W2 = draw_beamformer_pairs(stats.n, config.n_pairs, config.seed)
        self.s1 = np.array([quad_form(stats.Q11, w) for w in self.W1])
        self.t1 = np.array([quad_form(stats.Q21, w) for w in self.W2])
        self.s2 = np.array([quad_form(stats.Q22, w) for w in self.W2])
        self.t2 = np.array([quad_form(stats.Q12, w) for w in self.W1])

    def pair_success_all(self, r1: float, r2: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-pair closed-form success probabilities at one rate point."""
        pi1 = success_probability(
            gamma_from_rate(r1), self.s1, self.t1, self.stats.sigma1_sq
        )
        pi2 = success_probability(
            gamma_from_rate(r2), self.s2, self.t2, self.stats.sigma2_sq
        )
        return pi1, pi2

    def member_any(self, r1: float, r2: float, spec: OutageSpec) -> bool:
        """True when some candidate pair meets the constraints at (r1, r2)."""
        pi1, pi2 = self.pair_success_all(r1, r2)
        return bool(np.any(_meets(spec, pi1, pi2, pi1 * pi2)))

    def _link2_at(self, r1, spec: OutageSpec):
        """(pi1, feasible, gamma2) per pair (rows) and r1 value (columns).

        pi1 is the success of link 1, feasible marks where it allows
        membership, and gamma2 is the largest link-2 SINR that then meets spec.
        """
        s1, t1, s2, t2 = (x[:, None] for x in (self.s1, self.t1, self.s2, self.t2))
        pi1 = success_probability(gamma_from_rate(r1), s1, t1, self.stats.sigma1_sq)
        if spec.mode == "individual":
            feasible = pi1 >= 1.0 - spec.epsilon1
            targets = np.full(pi1.shape, 1.0 - spec.epsilon2)
        else:
            floor = 1.0 - spec.epsilon
            feasible = pi1 >= floor
            targets = np.minimum(floor / np.maximum(pi1, floor), 1.0)
        return pi1, feasible, _invert_success(s2, t2, self.stats.sigma2_sq, targets)

    def column_height(self, r1: float, spec: OutageSpec) -> float:
        """Largest member r2 at abscissa r1 over all pairs (-inf when none)."""
        _, feasible, g2 = self._link2_at(r1, spec)
        if not feasible.any():
            return -math.inf
        return float(rate_from_sinr(g2)[feasible].max())

    def boundary(self, spec: OutageSpec) -> RegionBoundary:
        """Non-dominated frontier of the rate points every pair supports.

        Individual outage gives each pair one corner point, each link at its
        own tolerance. Common outage gives each pair a curve: r1 on a grid up
        to its largest rate at success 1 - eps, r2 the largest rate keeping
        the success product at 1 - eps. Arrays hold one row per pair.
        """
        sigma1_sq, sigma2_sq = self.stats.sigma1_sq, self.stats.sigma2_sq
        shape = self.s1.shape
        if spec.mode == "individual":
            r1 = _rates_for_success(
                self.s1, self.t1, sigma1_sq, np.full(shape, 1.0 - spec.epsilon1)
            )
            r2 = _rates_for_success(
                self.s2, self.t2, sigma2_sq, np.full(shape, 1.0 - spec.epsilon2)
            )
            pi1, pi2 = self.pair_success_all(r1, r2)
            rows = [x[:, None] for x in (r1, r2, pi1, pi2)]
        else:
            floor = 1.0 - spec.epsilon
            edge = _rates_for_success(self.s1, self.t1, sigma1_sq, np.full(shape, floor))[:, None]
            # Per-row linspace(0, edge, K): an array endpoint would make
            # np.linspace switch every row to its zero-step rounding as soon
            # as one row has edge == 0.
            k = self.config.curve_points
            r1 = np.arange(k) * (edge / (k - 1))
            r1[:, -1:] = edge
            pi1, _, g2 = self._link2_at(r1, spec)
            pi2 = success_probability(g2, self.s2[:, None], self.t2[:, None], sigma2_sq)
            rows = [r1, rate_from_sinr(g2), pi1, pi2]
        points = [
            BoundaryPoint(
                float(r1), float(r2), {"pair_index": i, "pi1": float(p1), "pi2": float(p2)}
            )
            for i, pair_rows in enumerate(zip(*rows))
            for r1, r2, p1, p2 in zip(*pair_rows)
        ]
        kept = non_dominated_points(points)
        metadata = {
            "scenario_mode": spec.mode,
            "n_pairs": self.config.n_pairs,
            "seed": self.config.seed,
            "curve_points": self.config.curve_points,
        }
        return RegionBoundary(points=kept, warnings=[], metadata=metadata)


def search_stat_boundary(
    stats: ChannelStatistics, spec: OutageSpec, config: StatSearchConfig
) -> RegionBoundary:
    """Non-dominated frontier over seeded random beamformer pairs."""
    return StatRegionSearch(stats, config).boundary(spec)
