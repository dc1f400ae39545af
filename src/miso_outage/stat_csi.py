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

StatRegionSearch is the one evaluator of these formulas. It takes explicit
candidate pairs as the rows of W1 and W2 and evaluates all of them at once:
success probabilities, membership, column heights and the region boundary,
which is the non-dominated frontier of the rate points every pair supports.
Everything is array-valued: the means are four batched quadratic forms, the
rate inversion bisects only the elements whose bracket still moves, and the
boundary is one Pareto filter over the (r1, r2) rows of all pairs, with
BoundaryPoint objects built only for the rows it keeps.
A single pair is an evaluator with one row. draw_beamformer_pairs supplies
seeded random pairs (uniform on the complex unit sphere, one draw per pair
index).
"""

from __future__ import annotations

import functools
import math
import numpy as np

from .channel import ChannelStatistics
from .rate_core import (
    LN2,
    NORM_TOL,
    as_rate_point,
    gamma_from_rate,
    quad_form,
    rate_from_sinr,
)
from .regions import BoundaryPoint, OutageSpec, RegionBoundary, non_dominated_points

STAT_CSV_COLUMNS = ("r1", "r2", "pi1", "pi2", "pair_index")


def success_probability(gamma, s_bar, t_bar, sigma_sq) -> np.ndarray:
    """Pr{SINR >= gamma} for exponential signal/interference, vectorized.

    gamma <= 0 gives 1; zero mean signal gives 0 for gamma > 0. The result is
    an array of the broadcast shape of gamma, s_bar and t_bar. When the noise
    dwarfs the signal the exponent overflows to -inf, which gives the right
    success 0; floating-point overflow is reported or not as the caller's
    numpy error state says (see _overflow_gives_zero).
    """
    gamma = np.asarray(gamma, dtype=float)
    s = np.asarray(s_bar, dtype=float)
    t = np.asarray(t_bar, dtype=float)
    safe_s = np.where(s > 0.0, s, 1.0)
    safe_g = np.where(gamma > 0.0, gamma, 0.0)
    pi = np.exp(-safe_g * sigma_sq / safe_s) * safe_s / (safe_s + safe_g * t)
    pi = np.where(s > 0.0, pi, 0.0)
    return np.where(gamma <= 0.0, 1.0, pi)


def _overflow_gives_zero(func):
    """func run with floating-point overflow ignored.

    success_probability's exponent overflows when the noise power dwarfs the
    mean signal, and exp(-inf) = 0 is then the exact success. The callers of
    success_probability in this module set the error state once per call
    instead of once per evaluation: an inversion evaluates about a hundred
    times.
    """

    @functools.wraps(func)
    def quiet(*args, **kwargs):
        with np.errstate(over="ignore"):
            return func(*args, **kwargs)

    return quiet


@_overflow_gives_zero
def _invert_success(s_bar, t_bar, sigma_sq, targets) -> np.ndarray:
    """Largest gamma with success >= target, elementwise (targets in (0, 1]).

    Each element doubles hi from 1 while its target is still met, then takes
    100 bisection steps on [0, hi]. An element's (lo, hi) evolves from its own
    state alone, so once a step leaves both ends unchanged every later step
    repeats it: the element leaves the working set with the bits it would
    have had after 100 steps. A target still met where doubling would pass
    the float range raises ValueError.
    """
    targets = np.asarray(targets, dtype=float)
    s = np.broadcast_to(np.asarray(s_bar, dtype=float), targets.shape).ravel()
    t = np.broadcast_to(np.asarray(t_bar, dtype=float), targets.shape).ravel()
    target = targets.ravel()
    alive = np.flatnonzero((s > 0.0) & (target < 1.0))
    s, t, target = s[alive], t[alive], target[alive]
    hi = np.ones(alive.size)
    growing = np.arange(alive.size)
    while growing.size:
        below = success_probability(hi[growing], s[growing], t[growing], sigma_sq)
        growing = growing[below >= target[growing]]
        if np.any(hi[growing] > np.finfo(float).max / 2.0):
            raise ValueError(
                f"success target still met at SINR 2^1023 with noise power {sigma_sq!r}: "
                "the noise is too small for the rate to be a finite float"
            )
        hi[growing] *= 2.0
    lo = np.zeros(alive.size)
    gamma = np.zeros(alive.size)
    pos = np.arange(alive.size)
    for _ in range(100):
        if not pos.size:
            break
        mid = 0.5 * (lo + hi)
        ok = success_probability(mid, s, t, sigma_sq) >= target
        new_lo = np.where(ok, mid, lo)
        new_hi = np.where(ok, hi, mid)
        moving = (new_lo != lo) | (new_hi != hi)
        lo, hi = new_lo, new_hi
        if not moving.all():
            gamma[pos[~moving]] = lo[~moving]
            pos, lo, hi, s, t, target = (x[moving] for x in (pos, lo, hi, s, t, target))
    gamma[pos] = lo
    out = np.zeros(targets.size)
    out[alive] = gamma
    return out.reshape(targets.shape)


def _rates_for_success(s_bar, t_bar, sigma_sq, targets) -> np.ndarray:
    """Largest rates whose success reaches targets, elementwise (targets in (0, 1]).

    log1p is libm's, one element at a time. numpy's vectorized log1p can round
    the last bit differently, and the end point of a common-outage curve sits
    exactly on the success floor, where that bit decides whether the other
    link's success target is 1 or just below it.
    """
    gamma = _invert_success(s_bar, t_bar, sigma_sq, targets)
    return np.array([math.log1p(g) for g in gamma]) / LN2


def _meets(spec: OutageSpec, pi1, pi2, joint):
    """Outage constraints on per-link success pi1, pi2 and joint success."""
    if spec.mode == "common":
        return joint >= 1.0 - spec.epsilon
    return (pi1 >= 1.0 - spec.epsilon1) & (pi2 >= 1.0 - spec.epsilon2)


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


class StatRegionSearch:
    """Closed-form evaluation over explicit candidate beamformer pairs.

    Row i of W1 and W2 is pair i. Every query (membership, column heights,
    the boundary) reuses the same pairs, so common- and individual-outage
    answers refer to the same searched region.
    """

    def __init__(self, stats: ChannelStatistics, W1, W2, curve_points: int = 65):
        W1 = np.asarray(W1, dtype=complex)
        W2 = np.asarray(W2, dtype=complex)
        if W1.ndim != 2 or W1.shape != W2.shape or W1.shape[1] != stats.n:
            raise ValueError(
                f"W1 and W2 must both have shape (count, {stats.n}), "
                f"got {W1.shape} and {W2.shape}"
            )
        for name, W in (("W1", W1), ("W2", W2)):
            norms = np.linalg.norm(W, axis=1)
            bad = ~(norms <= 1.0 + NORM_TOL)
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"{name}[{i}]: norm {norms[i]} exceeds unit power budget")
        if curve_points < 2:
            raise ValueError(f"curve_points must be >= 2, got {curve_points}")
        self.stats = stats
        self.W1, self.W2 = W1, W2
        self.curve_points = curve_points
        self.s1 = quad_form(stats.Q11, W1)
        self.t1 = quad_form(stats.Q21, W2)
        self.s2 = quad_form(stats.Q22, W2)
        self.t2 = quad_form(stats.Q12, W1)

    @_overflow_gives_zero
    def pair_success_all(self, r1, r2) -> tuple[np.ndarray, np.ndarray]:
        """Per-pair closed-form success probabilities at one rate point; r1 and
        r2 may also be arrays of rates, one per pair. Every rate must be
        finite and nonnegative."""
        for r in (r1, r2):
            r = np.asarray(r, dtype=float)
            if not (np.all(np.isfinite(r)) and np.all(r >= 0.0)):
                raise ValueError(f"rates must be finite and nonnegative, got {r1!r}, {r2!r}")
        pi1 = success_probability(
            gamma_from_rate(r1), self.s1, self.t1, self.stats.sigma1_sq
        )
        pi2 = success_probability(
            gamma_from_rate(r2), self.s2, self.t2, self.stats.sigma2_sq
        )
        return pi1, pi2

    def member_any(self, r1: float, r2: float, spec: OutageSpec) -> bool:
        """True when some candidate pair meets the constraints at (r1, r2)."""
        r1, r2 = as_rate_point((r1, r2))
        pi1, pi2 = self.pair_success_all(r1, r2)
        return bool(np.any(_meets(spec, pi1, pi2, pi1 * pi2)))

    @_overflow_gives_zero
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
        r1, _ = as_rate_point((r1, 0.0))
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
            k = self.curve_points
            r1 = np.arange(k) * (edge / (k - 1))
            r1[:, -1:] = edge
            pi1, _, g2 = self._link2_at(r1, spec)
            pi2 = success_probability(g2, self.s2[:, None], self.t2[:, None], sigma2_sq)
            rows = [r1, rate_from_sinr(g2), pi1, pi2]
        width = rows[0].shape[1]
        r1, r2, pi1, pi2 = (x.ravel() for x in rows)
        kept = [
            BoundaryPoint(
                float(r1[j]), float(r2[j]),
                {"pair_index": j // width, "pi1": float(pi1[j]), "pi2": float(pi2[j])},
            )
            for j in non_dominated_points(np.column_stack([r1, r2])).tolist()
        ]
        metadata = {
            "scenario_mode": spec.mode,
            "n_pairs": len(self.s1),
            "curve_points": self.curve_points,
        }
        return RegionBoundary(points=kept, warnings=[], metadata=metadata)
