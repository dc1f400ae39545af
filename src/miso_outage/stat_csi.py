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
boundary is one Pareto filter over the pairs' (r1, r2) rows, with
BoundaryPoint objects built only for the rows it keeps. A single pair is an
evaluator with one row. draw_beamformer_pairs supplies seeded random pairs
(uniform on the complex unit sphere, one draw per pair index).

A common-outage boundary bisects to the last bit only the curve points that
can still reach that filter's front. After bisection steps 6, 12 and 24 each
point's final link-2 SINR is bracketed in [lo, hi]; a point p is dropped
when some point q with r1(q) >= r1(p) has rate(lo_q) above rate(hi_p) by a
relative 1e-12. q's final r2 is then strictly above p's, so the filter
drops p, and it drops every point that p dominates because q, or a point
above q, dominates it too: the filter keeps the same rows from the
survivors as from all points. Each element's bisection reads only its own
state, so the survivors' bits are those of the full bisection, and the
boundary is the one of every point inverted, bit for bit.

A process holds one search: cli's RunConfig.stat_search keys it by the
exact bytes of n, the covariances, both noise powers, the pair count, the
search seed and the curve points (regions' keep-the-last rule, LastValue).
Commands on the same statistics and search block, such as a common-outage
region, then an individual-outage one, then a point sweep, draw the pairs
and form the means once; cli.clear_config_cache drops the search.
"""

from __future__ import annotations

import functools
import math
import numpy as np

from .channel import ChannelStatistics, check_integer
from .outage_mc import read_only
from .rate_core import (
    LN2,
    as_rate_point,
    check_power_budget,
    gamma_from_rate,
    quad_form,
    rate_from_sinr,
)
from .regions import BoundaryPoint, OutageSpec, RegionBoundary, non_dominated_points

STAT_CSV_COLUMNS = ("r1", "r2", "pi1", "pi2", "pair_index")
# r1 grid points per pair on a common-outage curve, unless a search says otherwise.
CURVE_POINTS = 65


def _success(gamma, s_bar, t_bar, sigma_sq):
    """The closed-form success where every gamma and every s_bar is
    positive, with no guard: what each step of _invert_success evaluates."""
    return np.exp(-gamma * sigma_sq / s_bar) * s_bar / (s_bar + gamma * t_bar)


def success_probability(gamma, s_bar, t_bar, sigma_sq) -> np.ndarray:
    """Pr{SINR >= gamma} for exponential signal/interference, vectorized.

    gamma <= 0 gives 1; zero mean signal gives 0 for gamma > 0. The result is
    an array of the broadcast shape of gamma, s_bar, t_bar and sigma_sq. When
    the noise dwarfs the signal the exponent overflows to -inf, which gives
    the right success 0; floating-point overflow is reported or not as the
    caller's numpy error state says (see _overflow_gives_zero). Where every
    gamma and every s_bar is positive the guards select nothing and are
    skipped: _success on the same values, so the same bits.
    """
    gamma = np.asarray(gamma, dtype=float)
    s = np.asarray(s_bar, dtype=float)
    t = np.asarray(t_bar, dtype=float)
    if gamma.min(initial=np.inf) > 0.0 and s.min(initial=np.inf) > 0.0:
        return _success(gamma, s, t, sigma_sq)
    safe_s = np.where(s > 0.0, s, 1.0)
    safe_g = np.where(gamma > 0.0, gamma, 0.0)
    pi = np.where(s > 0.0, _success(safe_g, safe_s, t, sigma_sq), 0.0)
    return np.where(gamma <= 0.0, 1.0, pi)


def _overflow_gives_zero(func):
    """func run with floating-point overflow ignored.

    The success formula's exponent overflows when the noise power dwarfs the
    mean signal, and exp(-inf) = 0 is then the exact success. Its callers in
    this module set the error state once per call instead of once per
    evaluation: an inversion evaluates about a hundred times.
    """

    @functools.wraps(func)
    def quiet(*args, **kwargs):
        with np.errstate(over="ignore"):
            return func(*args, **kwargs)

    return quiet


def _subset(which, *arrays) -> list:
    """Each array indexed by which; a 0-d array, a noise power that every
    element shares, stays as it is."""
    return [x[which] if x.ndim else x for x in arrays]


# Bisection steps of _invert_success after which a pruning callback sees the
# live brackets: step 6 already narrows each bracket to 1/64 of its width,
# and the later ones catch what a coarse bracket could not decide.
PRUNE_STEPS = (6, 12, 24)


@_overflow_gives_zero
def _invert_success(s_bar, t_bar, sigma_sq, targets, prune=None) -> np.ndarray:
    """Largest gamma with success >= target, elementwise (targets in (0, 1]).

    The means and the noise power sigma_sq broadcast against targets, so
    each element may have its own noise. Each element doubles hi from 1
    while its target is still met, then takes 100 bisection steps on
    [0, hi]. An element's (lo, hi) evolves from its own state alone, so once
    a step leaves both ends unchanged every later step repeats it: the
    element leaves the working set with the bits it would have had after
    100 steps. A target still met where doubling would pass the float range
    raises ValueError, naming the noise power of the first such element.
    Every element evaluated has s_bar > 0 and gamma > 0 (a doubling step's
    hi is at least 1, and 100 halvings leave mid at least 2^-100), so each
    step calls _success, with no guard.

    prune(index, lo, hi), when given, is called after each of PRUNE_STEPS
    with the flat indices (into targets) of the elements still bisecting and
    their brackets, whose final gamma lies in [lo, hi]; it returns a mask of
    the elements to drop, which come back as NaN. For the same reason as
    above, dropping elements changes no bit of the others.
    """
    targets = np.asarray(targets, dtype=float)
    s, t = (np.broadcast_to(np.asarray(x, dtype=float), targets.shape) for x in (s_bar, t_bar))
    # The flat indices of the elements still bisecting, and their state.
    pos = np.flatnonzero((s > 0.0) & (targets < 1.0))
    s, t, target = (x.flat[pos] for x in (s, t, targets))
    sigma = np.asarray(sigma_sq, dtype=float)
    if sigma.ndim:
        sigma = np.broadcast_to(sigma, targets.shape).flat[pos]
    hi = np.ones(pos.size)
    growing = np.arange(pos.size)
    while growing.size:
        below = _success(*_subset(growing, hi, s, t, sigma))
        growing = growing[below >= target[growing]]
        # Every growing element has the same hi, the same power of 2.
        if growing.size and hi[growing[0]] > np.finfo(float).max / 2.0:
            noise = sigma[growing[0]] if sigma.ndim else sigma
            raise ValueError(
                f"success target still met at SINR 2^1023 with noise power {float(noise)!r}: "
                "the noise is too small for the rate to be a finite float"
            )
        hi[growing] *= 2.0
    lo = np.zeros(pos.size)
    gamma = np.zeros(targets.size)
    for step in range(100):
        if prune is not None and step in PRUNE_STEPS and pos.size:
            keep = ~prune(pos, lo, hi)
            gamma[pos[~keep]] = np.nan
            pos, lo, hi, s, t, sigma, target = _subset(keep, pos, lo, hi, s, t, sigma, target)
        if not pos.size:
            break
        mid = 0.5 * (lo + hi)
        ok = _success(mid, s, t, sigma) >= target
        new_lo = np.where(ok, mid, lo)
        new_hi = np.where(ok, hi, mid)
        moving = (new_lo != lo) | (new_hi != hi)
        lo, hi = new_lo, new_hi
        if not moving.all():
            gamma[pos[~moving]] = lo[~moving]
            pos, lo, hi, s, t, sigma, target = _subset(moving, pos, lo, hi, s, t, sigma, target)
    gamma[pos] = lo
    return gamma.reshape(targets.shape)


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


# Margin, relative to max(1, |rate|), by which a curve point's sure r2 must
# pass another's largest possible r2 before the pruner drops the other: far
# above any rounding of the rate conversion, so the order is certain.
PRUNE_MARGIN = 1e-12


def _front_pruner(r1: np.ndarray):
    """prune(index, lo, hi) for _invert_success over the curve points r1,
    by flat index: the mask of the points that cannot reach the Pareto front.

    Point p (rate r1[p], link-2 SINR still bracketed in [lo[p], hi[p]]) is
    beaten when some point q with r1[q] >= r1[p] has rate(lo[q]) above
    rate(hi[p]) by PRUNE_MARGIN: q's final r2 is then strictly above p's, so
    non_dominated_points drops p. Each point's rank among the distinct r1
    values is found here, once. A call takes the largest rate(lo) at each
    rank, then a running maximum over decreasing ranks, which gives every
    point its best such q.
    """
    distinct, rank = np.unique(r1, return_inverse=True)
    # As long as the whole curve grid: held in the least integer type.
    n_ranks, rank = distinct.size, rank.ravel().astype(np.min_scalar_type(distinct.size))

    def beaten(index, lo, hi) -> np.ndarray:
        at = rank[index]
        sure = np.full(n_ranks, -np.inf)
        np.maximum.at(sure, at, rate_from_sinr(lo))
        sure = np.maximum.accumulate(sure[::-1])[::-1]
        top = rate_from_sinr(hi)
        return sure[at] > top + PRUNE_MARGIN * np.maximum(1.0, np.abs(top))

    return beaten


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
    answers refer to the same searched region. The search keeps its own
    copies of the pairs, and they and the four means are read-only: a
    search that serves several commands (cli holds one per process) gives
    each the answers of a new one.
    """

    MIN_CURVE_POINTS = 2  # the curve's ends

    def __init__(self, stats: ChannelStatistics, W1, W2, curve_points: int = CURVE_POINTS):
        W1 = np.array(W1, dtype=complex)
        W2 = np.array(W2, dtype=complex)
        if W1.ndim != 2 or W1.shape != W2.shape or W1.shape[1] != stats.n:
            raise ValueError(
                f"W1 and W2 must both have shape (count, {stats.n}), "
                f"got {W1.shape} and {W2.shape}"
            )
        check_power_budget(W1, "W1")
        check_power_budget(W2, "W2")
        self.stats = stats
        self.W1, self.W2 = W1, W2
        self.curve_points = check_integer(curve_points, "curve_points", self.MIN_CURVE_POINTS)
        self.s1 = quad_form(stats.Q11, W1)
        self.t1 = quad_form(stats.Q21, W2)
        self.s2 = quad_form(stats.Q22, W2)
        self.t2 = quad_form(stats.Q12, W1)
        for array in (W1, W2, self.s1, self.t1, self.s2, self.t2):
            read_only(array)

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
    def _link2_at(self, r1, spec: OutageSpec, prune=None):
        """(pi1, feasible, gamma2) per pair (rows) and r1 value (columns).

        pi1 is the success of link 1, feasible marks where it allows
        membership, and gamma2 is the largest link-2 SINR that then meets
        spec; prune goes to _invert_success, which returns NaN where it drops.
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
        return pi1, feasible, _invert_success(s2, t2, self.stats.sigma2_sq, targets, prune)

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
        own tolerance; both links are inverted in one call, each element with
        its link's noise power. Common outage gives each pair a curve: r1 on
        a grid up to its largest rate at success 1 - eps, r2 the largest rate
        keeping the success product at 1 - eps. Its link-2 inversion drops the
        curve points that _front_pruner shows off the frontier, and r2, pi2
        and the Pareto filter see only the rest, which changes no bit of the
        result (see the module docstring).
        """
        sigma1_sq, sigma2_sq = self.stats.sigma1_sq, self.stats.sigma2_sq
        m = len(self.s1)
        if spec.mode == "individual":
            rates = _rates_for_success(
                np.concatenate([self.s1, self.s2]),
                np.concatenate([self.t1, self.t2]),
                np.repeat([sigma1_sq, sigma2_sq], m),
                np.repeat([1.0 - spec.epsilon1, 1.0 - spec.epsilon2], m),
            )
            r1, r2 = rates[:m], rates[m:]
            pi1, pi2 = self.pair_success_all(r1, r2)
            pair = np.arange(m)
        else:
            floor = 1.0 - spec.epsilon
            edge = _rates_for_success(self.s1, self.t1, sigma1_sq, np.full(m, floor))[:, None]
            # Per-row linspace(0, edge, K): an array endpoint would make
            # np.linspace switch every row to its zero-step rounding as soon
            # as one row has edge == 0.
            k = self.curve_points
            grid = np.arange(k) * (edge / (k - 1))
            grid[:, -1:] = edge
            pi1, _, g2 = self._link2_at(grid, spec, _front_pruner(grid))
            survivors = np.flatnonzero(~np.isnan(g2))
            pair = survivors // k
            r1, pi1, g2 = (x.flat[survivors] for x in (grid, pi1, g2))
            r2 = rate_from_sinr(g2)
            pi2 = success_probability(g2, self.s2[pair], self.t2[pair], sigma2_sq)
        kept = [
            BoundaryPoint(
                float(r1[j]), float(r2[j]),
                {"pair_index": int(pair[j]), "pi1": float(pi1[j]), "pi2": float(pi2[j])},
            )
            for j in non_dominated_points(np.column_stack([r1, r2])).tolist()
        ]
        metadata = {
            "scenario_mode": spec.mode,
            "n_pairs": m,
            "curve_points": self.curve_points,
        }
        return RegionBoundary(points=kept, warnings=[], metadata=metadata)
