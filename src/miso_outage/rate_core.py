r"""Rates, beamformers, per-transmitter power frontiers and the achievability oracle.

Link rates treat interference as noise:

    R_i = log2(1 + |h_ii^H w_i|^2 / (|h_ji^H w_j|^2 + sigma_i^2)),

with per-transmitter power ||w_i|| <= 1. Rank-one transmission is optimal for
every channel realization, so the achievable region of a realization is fully
described by two scalar trade-off curves, one per transmitter: with a the own
channel and b the cross channel of a transmitter, the frontier

    p(q) = max { |a^H w|^2 : ||w|| <= 1, |b^H w|^2 <= q }
         = (c*sqrt(x) + d*sqrt(1-x))^2,   x = q/||b||^2 clamped to [0, q_mrt/||b||^2],

where c = |b^H a|/||b|| and d is the norm of the component of a orthogonal to b,
is the maximum useful signal power deliverable while causing at most q
interference. It rises concavely from the zero-forcing point (q=0, p=d^2) to
the matched-filter point (q = q_mrt = |b^H a|^2/||a||^2, p = ||a||^2) and is
constant beyond. A rate pair (r1, r2) is achievable for a realization iff

    g(q1) = p1(q1) - gamma1 * (q2min(q1) + sigma1^2)

is nonnegative for some q1, where gamma_i = 2^{r_i} - 1,
q2min(q1) = qmin_2(gamma2 * (q1 + sigma2^2)) is the least interference
transmitter 2 must cause to hand link 2 its target SINR, and qmin is the
frontier inverse. g is concave, so a fixed-count golden-section search decides
feasibility; the maximizer yields explicit witness beamformers.

The *_batch kernels take stacked (N, n) channel arrays and hold the only
implementation of each formula. Scalar calls (power_frontier and its methods,
frontier_qmin, su_rate, is_achievable) run them on a batch of one, so scalar
and batch results agree exactly. frontier_point stays a separate geometric
construction: the witness beamformer that tests check the closed form with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)

# Golden-section constants and iteration count; 80 iterations shrink the
# bracket by ~4.6e17, well past double precision.
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0
GOLDEN_ITERS = 80

# Non-strict feasibility: achievable iff max g >= -FEASIBILITY_SLACK (power
# units). Rate comparisons get the same absolute slack in bits.
FEASIBILITY_SLACK = 1e-9
RATE_SLACK = 1e-9

# ||b||^2 below this is treated as a vanished cross channel (frontier
# degenerates to p == ||a||^2, q == 0).
DEGENERATE_B_TOL = 1e-30

NORM_TOL = 1e-9
QUAD_FORM_TOL = 1e-9


def gamma_from_rate(r) -> np.ndarray | float:
    """SINR threshold 2^r - 1 for a rate target r in bits."""
    return np.expm1(np.asarray(r, dtype=float) * LN2)


def rate_from_sinr(s) -> np.ndarray | float:
    return np.log1p(np.asarray(s, dtype=float)) / LN2


def as_rate_point(point) -> tuple[float, float]:
    r1, r2 = float(point[0]), float(point[1])
    if not (math.isfinite(r1) and math.isfinite(r2)) or r1 < 0.0 or r2 < 0.0:
        raise ValueError(f"rate point must be finite and nonnegative, got ({r1}, {r2})")
    return r1, r2


def quad_form(Q: np.ndarray, w: np.ndarray) -> float:
    """w^H Q w, real and clamped at zero (Q is PSD up to rounding)."""
    value = complex(np.conj(w) @ Q @ w)
    if value.real < -QUAD_FORM_TOL * max(1.0, float(np.trace(Q).real)):
        raise ValueError(f"quadratic form is negative: {value.real}")
    return max(value.real, 0.0)


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


def validate_beamformer(w: np.ndarray, name: str = "w") -> np.ndarray:
    w = np.asarray(w, dtype=np.complex128)
    if w.ndim != 1:
        raise ValueError(f"{name}: expected a vector, got shape {w.shape}")
    nrm = float(np.linalg.norm(w))
    if nrm > 1.0 + NORM_TOL:
        raise ValueError(f"{name}: norm {nrm} exceeds unit power budget")
    return w


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


def rate_bf(h, w1, w2, link: int, sigma_sq: float) -> float:
    """Rate of one link under beamformers (w1, w2); rank-one case of rate_cov."""
    if link not in (1, 2):
        raise ValueError(f"link must be 1 or 2, got {link}")
    w1 = validate_beamformer(w1, "w1")
    w2 = validate_beamformer(w2, "w2")
    own_h = h.h11 if link == 1 else h.h22
    cross_h = h.h21 if link == 1 else h.h12
    own_w, cross_w = (w1, w2) if link == 1 else (w2, w1)
    signal = abs(np.vdot(own_h, own_w)) ** 2
    interference = abs(np.vdot(cross_h, cross_w)) ** 2
    return float(rate_from_sinr(signal / (interference + float(sigma_sq))))


def su_rate(h, link: int, sigma_sq: float) -> float:
    """Single-user rate log2(1 + ||h_ii||^2 / sigma_i^2), the per-link ceiling."""
    if link not in (1, 2):
        raise ValueError(f"link must be 1 or 2, got {link}")
    own = h.h11 if link == 1 else h.h22
    return float(su_rate_batch(own[None, :], sigma_sq)[0])


def mrt(h_vec) -> np.ndarray:
    """Matched-filter beamformer h/||h|| (zero vector stays zero)."""
    v = np.asarray(h_vec, dtype=np.complex128)
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        return np.zeros_like(v)
    return v / nrm


def zf(own, cross) -> np.ndarray:
    """Zero-forcing beamformer: normalized component of own orthogonal to cross.

    The frontier point at zero caused interference.
    """
    return frontier_point(power_frontier(own, cross), 0.0)


# ---------------------------------------------------------------------------
# Power frontier
# ---------------------------------------------------------------------------


@dataclass
class FrontierBatch:
    """Signal-vs-caused-interference trade-offs, one per realization.

    Flat (N,) arrays: c = |b^H a| / ||b||, d = distance of a from span(b),
    p_max = ||a||^2, q_mrt = |b^H a|^2 / ||a||^2. degenerate marks a vanished
    cross channel (p == p_max at zero caused interference).
    """

    c: np.ndarray
    d: np.ndarray
    b_norm_sq: np.ndarray
    p_max: np.ndarray
    q_mrt: np.ndarray
    degenerate: np.ndarray


@dataclass
class PowerFrontier(FrontierBatch):
    """Frontier of one transmitter: a batch of one with Python scalar fields.

    The own/cross vectors are kept for witness-beamformer reconstruction.
    """

    own: np.ndarray
    cross: np.ndarray

    def signal_power(self, q):
        """Max own-signal power with caused interference at most q (array ok)."""
        p = frontier_signal_batch(self, np.asarray(q, dtype=float))
        return p if p.ndim else float(p)


def power_frontier(own, cross) -> PowerFrontier:
    """Frontier of one transmitter: row 0 of frontier_batch on a batch of one."""
    a = np.asarray(own, dtype=np.complex128)
    b = np.asarray(cross, dtype=np.complex128)
    F = frontier_batch(a[None, :], b[None, :])
    # Python scalars, not numpy ones: the frontier dump serializes these fields.
    return PowerFrontier(
        float(F.c[0]), float(F.d[0]), float(F.b_norm_sq[0]), float(F.p_max[0]),
        float(F.q_mrt[0]), bool(F.degenerate[0]), a, b,
    )


def frontier_qmin(frontier: PowerFrontier, p_target: float) -> float:
    """Least caused interference at which p(q) reaches p_target.

    frontier_qmin_batch on one frontier; a demand above p_max (beyond its
    1e-12 relative grace) raises instead of returning +inf.
    """
    q = float(frontier_qmin_batch(frontier, float(p_target)))
    if q == math.inf:
        raise ValueError(
            f"signal demand {p_target} exceeds maximum deliverable power {frontier.p_max}"
        )
    return q


def frontier_point(frontier: PowerFrontier, q: float) -> np.ndarray:
    """Unit-ball beamformer achieving (signal, interference) = (p(q), <= q).

    Phases of the along-b and orthogonal components are aligned so their
    signal contributions add coherently.
    """
    a, b = frontier.own, frontier.cross
    if frontier.p_max == 0.0:
        return np.zeros_like(a)
    if frontier.degenerate:
        return mrt(a)
    q = min(max(float(q), 0.0), frontier.q_mrt)
    bsq = frontier.b_norm_sq
    bhat = b / math.sqrt(bsq)
    alpha = complex(np.vdot(bhat, a))
    phase = alpha / abs(alpha) if abs(alpha) > 0.0 else 1.0
    x = math.sqrt(q / bsq)
    resid = a - alpha * bhat
    d = float(np.linalg.norm(resid))
    if d == 0.0:
        return x * phase * bhat
    y = math.sqrt(max(1.0 - q / bsq, 0.0))
    return x * phase * bhat + y * (resid / d)


# ---------------------------------------------------------------------------
# Batched frontiers
# ---------------------------------------------------------------------------


def frontier_batch(own: np.ndarray, cross: np.ndarray) -> FrontierBatch:
    """Frontier parameters for stacked (N, n) own/cross channel arrays."""
    A = np.asarray(own, dtype=np.complex128)
    B = np.asarray(cross, dtype=np.complex128)
    asq = np.sum(np.abs(A) ** 2, axis=1)
    bsq = np.sum(np.abs(B) ** 2, axis=1)
    inner = np.sum(B.conj() * A, axis=1)
    degenerate = bsq <= DEGENERATE_B_TOL
    safe_bsq = np.where(degenerate, 1.0, bsq)
    c = np.where(degenerate, 0.0, np.abs(inner) / np.sqrt(safe_bsq))
    resid = A - (inner / safe_bsq)[:, None] * B
    d = np.where(degenerate, np.sqrt(asq), np.linalg.norm(resid, axis=1))
    safe_asq = np.where(asq > 0.0, asq, 1.0)
    q_mrt = np.where(degenerate | (asq == 0.0), 0.0, np.abs(inner) ** 2 / safe_asq)
    return FrontierBatch(c, d, bsq, asq, q_mrt, degenerate)


def frontier_signal_batch(F: FrontierBatch, q: np.ndarray) -> np.ndarray:
    safe_bsq = np.where(F.degenerate, 1.0, F.b_norm_sq)
    x = np.clip(np.minimum(q, F.q_mrt) / safe_bsq, 0.0, 1.0)
    amp = F.c * np.sqrt(x) + F.d * np.sqrt(1.0 - x)
    # amp * amp, not amp ** 2: numpy raises a scalar to a power with pow(),
    # which can differ in the last bit from the elementwise square of an array.
    return np.where(F.degenerate, F.p_max, amp * amp)


def frontier_qmin_batch(F: FrontierBatch, t: np.ndarray) -> np.ndarray:
    """Frontier inverse; +inf where the demand exceeds p_max.

    Exact inversion of the concave frontier: with s = sqrt(t), solving
    c*sqrt(x) + d*sqrt(1-x) = s gives u = sqrt(x) = (s c - d sqrt(p_max - s^2))
    / p_max and q = u^2 ||b||^2. Demands up to the zero-forcing power d^2 cost
    nothing; demands above p_max beyond a 1e-12 relative grace are infeasible.
    """
    t = np.asarray(t, dtype=float)
    infeasible = t > F.p_max * (1.0 + 1e-12) + 1e-300
    free = (t <= F.d * F.d) | F.degenerate
    safe_pmax = np.where(F.p_max > 0.0, F.p_max, 1.0)
    s = np.sqrt(np.clip(t, 0.0, F.p_max))
    u = (s * F.c - F.d * np.sqrt(np.clip(F.p_max - s * s, 0.0, None))) / safe_pmax
    q = np.clip(u * u * F.b_norm_sq, 0.0, F.q_mrt)
    q = np.where(free, 0.0, q)
    return np.where(infeasible, np.inf, q)


def golden_max(f, lo: np.ndarray, hi: np.ndarray, iters: int = GOLDEN_ITERS):
    """Elementwise maximizer of a vectorized unimodal f over [lo, hi].

    Returns (x_best, f_best); endpoints are always evaluated, so monotone f is
    handled exactly up to bracket width.
    """
    a = np.array(lo, dtype=float, copy=True)
    b = np.array(hi, dtype=float, copy=True)
    x1 = a + INV_PHI_SQ * (b - a)
    x2 = a + INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    best_x = np.where(f1 >= f2, x1, x2)
    best_f = np.maximum(f1, f2)
    for _ in range(iters):
        keep_left = f1 >= f2
        b = np.where(keep_left, x2, b)
        a = np.where(keep_left, a, x1)
        x_new = np.where(keep_left, a + INV_PHI_SQ * (b - a), a + INV_PHI * (b - a))
        f_new = f(x_new)
        x1, f1, x2, f2 = (
            np.where(keep_left, x_new, x2),
            np.where(keep_left, f_new, f2),
            np.where(keep_left, x1, x_new),
            np.where(keep_left, f1, f_new),
        )
        improved = f_new > best_f
        best_x = np.where(improved, x_new, best_x)
        best_f = np.maximum(best_f, f_new)
    for x_end in (np.array(lo, dtype=float), np.array(hi, dtype=float)):
        f_end = f(x_end)
        improved = f_end > best_f
        best_x = np.where(improved, x_end, best_x)
        best_f = np.maximum(best_f, f_end)
    return best_x, best_f


def _interference_bracket(
    F_own: FrontierBatch, F_other: FrontierBatch, gamma_other, sigma_other_sq: float
):
    """Range [lo, hi] of the interference one transmitter may cause.

    At most its matched-filter interference, and little enough that the other
    link can still reach gamma_other at full power. empty marks realizations
    where even zero interference is too much; their bracket is [0, 0].
    """
    g = gamma_other
    with np.errstate(divide="ignore", invalid="ignore"):
        ub = np.where(g > 0.0, F_other.p_max / np.where(g > 0.0, g, 1.0) - sigma_other_sq, np.inf)
    hi = np.minimum(F_own.q_mrt, ub)
    return hi < 0.0, np.zeros_like(hi), np.maximum(hi, 0.0)


def achievability_slack_batch(
    F1: FrontierBatch,
    F2: FrontierBatch,
    gamma1,
    gamma2,
    noise: tuple[float, float],
):
    """Max of g(q1) = p1(q1) - gamma1 (q2min(q1) + sigma1^2) per realization.

    Returns (g_max, q1_star, q2_star). g_max = -inf marks realizations where
    link 2's demand is infeasible even with transmitter 1 silent. gamma1 and
    gamma2 may be scalars or per-realization arrays.
    """
    sigma1_sq, sigma2_sq = float(noise[0]), float(noise[1])
    g1 = np.broadcast_to(np.asarray(gamma1, dtype=float), F1.c.shape)
    g2 = np.broadcast_to(np.asarray(gamma2, dtype=float), F1.c.shape)
    empty, lo, hi = _interference_bracket(F1, F2, g2, sigma2_sq)

    def g(q1):
        q2min = frontier_qmin_batch(F2, g2 * (q1 + sigma2_sq))
        return frontier_signal_batch(F1, q1) - g1 * (q2min + sigma1_sq)

    # Empty-bracket realizations (clamped to q1 = 0) can probe an infinite
    # q2min; their g values are masked below, so silence the 0 * inf noise.
    with np.errstate(invalid="ignore"):
        q1_star, g_max = golden_max(g, lo, hi)
        q2_star = frontier_qmin_batch(F2, g2 * (q1_star + sigma2_sq))
    g_max = np.where(empty, -np.inf, g_max)
    q2_star = np.where(empty, 0.0, np.where(np.isfinite(q2_star), q2_star, 0.0))
    q1_star = np.where(empty, 0.0, q1_star)
    return g_max, q1_star, q2_star


def max_r2_batch(
    F1: FrontierBatch,
    F2: FrontierBatch,
    gamma1,
    noise: tuple[float, float],
) -> np.ndarray:
    """Largest achievable r2 per realization at fixed r1 (gamma1).

    Direct form of the trade-off: maximize the quasi-concave ratio
    phi(q2) = p2(q2) / (q1min(gamma1 (q2 + sigma1^2)) + sigma2^2) over the
    interference transmitter 2 may cause. Realizations with r1 above the
    single-user ceiling get -inf.
    """
    sigma1_sq, sigma2_sq = float(noise[0]), float(noise[1])
    g1 = np.broadcast_to(np.asarray(gamma1, dtype=float), F1.c.shape)
    infeasible, lo, hi = _interference_bracket(F2, F1, g1, sigma1_sq)

    def phi(q2):
        q1min = frontier_qmin_batch(F1, g1 * (q2 + sigma1_sq))
        return frontier_signal_batch(F2, q2) / (q1min + sigma2_sq)

    _, phi_max = golden_max(phi, lo, hi)
    r2 = rate_from_sinr(phi_max)
    return np.where(infeasible, -np.inf, r2)


def su_rate_batch(H: np.ndarray, sigma_sq: float) -> np.ndarray:
    """Single-user rates for a stacked (N, n) own-channel array."""
    return rate_from_sinr(np.sum(np.abs(np.asarray(H)) ** 2, axis=1) / float(sigma_sq))


def witness_rates_batch(
    F1: FrontierBatch,
    F2: FrontierBatch,
    q1: np.ndarray,
    q2: np.ndarray,
    noise: tuple[float, float],
):
    """Rates achieved when each transmitter operates its frontier at (q1, q2)."""
    sigma1_sq, sigma2_sq = float(noise[0]), float(noise[1])
    r1 = rate_from_sinr(frontier_signal_batch(F1, q1) / (q2 + sigma1_sq))
    r2 = rate_from_sinr(frontier_signal_batch(F2, q2) / (q1 + sigma2_sq))
    return r1, r2


# ---------------------------------------------------------------------------
# Achievability oracle (scalar)
# ---------------------------------------------------------------------------


@dataclass
class FeasibilityWitness:
    """Decision of the achievability oracle plus a constructive certificate.

    power_slack is the maximized g in power units (-inf when the target of
    link 2 is infeasible outright); margin is min_i (achieved rate_i - r_i)
    evaluated on the witness beamformers.
    """

    achievable: bool
    w1: np.ndarray
    w2: np.ndarray
    r1_achieved: float
    r2_achieved: float
    margin: float
    power_slack: float


def is_achievable(h, point, noise: tuple[float, float]) -> FeasibilityWitness:
    """Decide whether the rate pair lies in the realization's achievable region.

    Non-strict convention: the region is treated as comprehensive (rates may
    be reduced), and feasibility tolerates FEASIBILITY_SLACK in power units.
    """
    r1, r2 = as_rate_point(point)
    gamma1 = float(gamma_from_rate(r1))
    gamma2 = float(gamma_from_rate(r2))
    g_max, q1_star, q2_star = achievability_slack_batch(
        frontier_batch(h.h11[None, :], h.h12[None, :]),
        frontier_batch(h.h22[None, :], h.h21[None, :]),
        gamma1,
        gamma2,
        noise,
    )
    g_max = float(g_max[0])
    if not np.isfinite(g_max):
        w1 = np.zeros(h.n, dtype=np.complex128)
        w2 = np.zeros(h.n, dtype=np.complex128)
    else:
        w1 = frontier_point(power_frontier(h.h11, h.h12), float(q1_star[0]))
        w2 = frontier_point(power_frontier(h.h22, h.h21), float(q2_star[0]))
    r1_ach = rate_bf(h, w1, w2, 1, noise[0])
    r2_ach = rate_bf(h, w1, w2, 2, noise[1])
    return FeasibilityWitness(
        achievable=bool(g_max >= -FEASIBILITY_SLACK),
        w1=w1,
        w2=w2,
        r1_achieved=r1_ach,
        r2_achieved=r2_ach,
        margin=min(r1_ach - r1, r2_ach - r2),
        power_slack=g_max,
    )


def max_r2_given_r1(
    h, r1: float, noise: tuple[float, float], tol: float = 1e-9
) -> float:
    """Largest r2 with (r1, r2) achievable, by bisection over the oracle.

    Raises when r1 itself is infeasible (above the link-1 single-user rate
    beyond the oracle's slack). With r1 = 0 returns the link-2 single-user
    rate exactly.
    """
    r1 = float(r1)
    if not is_achievable(h, (r1, 0.0), noise).achievable:
        raise ValueError(f"r1 = {r1} is infeasible for this realization")
    return bisect_largest(
        lambda r2: is_achievable(h, (r1, r2), noise).achievable,
        su_rate(h, 2, noise[1]),
        tol,
    )


def bisect_largest(member, hi: float, tol: float) -> float:
    """Largest x in [0, hi] with member(x), for member true below a threshold.

    The caller has checked member(0). Returns hi when member(hi) holds, else
    the member end of a bisection bracket no wider than tol.
    """
    hi = float(hi)
    if member(hi):
        return hi
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if member(mid):
            lo = mid
        else:
            hi = mid
    return lo
