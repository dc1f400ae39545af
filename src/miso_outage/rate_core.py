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
feasibility; the maximizer yields is_achievable's witness beamformers.

Case B is classified by the column search instead (column_search_batch,
below): the largest r2 at fixed r1, the maximum of the quasi-concave ratio
phi(q2) = p2(q2) / (q1min(gamma1 (q2 + sigma1^2)) + sigma2^2). It answers two
kinds of rows without searching: empty brackets (r1 above the single-user
ceiling) and rows where transmitter 1 zero-forces across the whole bracket
(its demand at the bracket top is at most d1^2, the lambda = 0 end of its
Pareto parametrization), whose phi is then nondecreasing and peaks at the
bracket top. On the other rows phi is smooth inside the bracket, and its
maximizer is the one sign change of phi'. A safeguarded regula falsi
(Illinois) on a rescaled phi' finds it in 14 steps where golden-section
search needed 46, because it converges superlinearly rather than by a fixed
0.618 per step (column_root_search).

Accuracy contract: the maxima of max_r2_batch (bits) and
achievability_slack_batch (power units) lie within 1e-12 * max(1, |value|)
(GOLDEN_VALUE_TOL) of a golden-section search over the whole bracket run for
GOLDEN_ITERS = 80 iterations, at least 1000x inside the 1e-9 feasibility and
rate slacks. The column kernel meets it with 14 root-search iterations (16
objective evaluations on the rows it searches), the slack kernel with 54
golden-section iterations. Where rounding noise in phi exceeds a tenth of the
bound (brackets a few ulps of demand wide, at r1 next to the single-user
ceiling), the column kernel runs the reference's golden-section search. The
derivation is at GOLDEN_VALUE_TOL.

The *_batch kernels take stacked (N, n) channel arrays and hold the only
implementation of each formula. Scalar calls (power_frontier and its methods,
frontier_qmin, su_rate, is_achievable, max_r2_given_r1) run them on a batch
of one, so scalar and batch results agree exactly. frontier_point stays a
separate geometric construction: the witness beamformer that tests check the
closed form with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)

# Golden-section constants. GOLDEN_ITERS is golden_max's default and the
# reference of the accuracy contract below: 80 iterations shrink the bracket by
# ~4.6e17, but beyond about 40 the comparisons on the flat top of the
# objective are decided by rounding, so the extra iterations only move the
# value at the rounding floor.
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0
GOLDEN_ITERS = 80

# Accuracy contract of max_r2_batch and achievability_slack_batch: the
# returned maximum lies within GOLDEN_VALUE_TOL * max(1, |value|) of a
# golden-section search over the whole bracket run for GOLDEN_ITERS (bits for
# the column kernel, power units for the slack kernel), at least 1000x below
# FEASIBILITY_SLACK and RATE_SLACK. Each count below is the first even count
# whose worst error stays at least 1.5x inside the bound on the inputs of
# TestAccuracyContract.test_random_channels (n = 1..8, random and rank-1
# channels, steep points at log-spaced distances 1e-9..1e-1 from the bracket
# top), for the column kernel also of TestColumnSearch, and on further
# seeded sets of the same kind.
#
# Slack kernel (golden-section search): where the objective is smooth at its
# maximizer the error falls about 10x per two iterations down to a rounding
# floor (~5e-14, reached by 44 iterations). The worst cases sit just below the
# bracket top, where link 2's frontier inverse has a square-root singularity
# (its demand reaches p_max): r1 just above zero with a large r2, maximizer
# within 1e-8 of p_max2/gamma2 - sigma2^2. There the error only shrinks with
# the bracket width, 0.618x per iteration: 52 iterations leave 9.5e-13, 54
# leave 4.1e-13.
#
# Column kernel (root search on the sign of phi', column_root_search): the
# Illinois steps converge superlinearly, so the error drops from 1e-6 to the
# floor within six iterations. Over 8 seeded sets of 2.5e5 rows each, plus
# transmitter-1-aligned channels (d1 = 0), the worst error is 1.1e-6 after 8
# iterations, 7.6e-10 after 10, 6.3e-12 after 12, 1.0e-12 after 13 and
# 1.3e-13 after 14, which stays there through 20. 14 iterations plus the two
# bracket ends make 16 objective evaluations per searched row.
#
# The floor is rounding noise in phi itself. Next to the column's bracket top
# link 1's frontier inverse magnifies the rounding of its demand, and phi
# there carries relative noise of about eps b1 u d1 / (w D), up to 1e-8 on
# brackets a few ulps of demand wide (r1 at the single-user ceiling). Two
# searches agree only as closely as that unless they evaluate the same
# points: on the rows above, with the golden fallback below switched off,
# the error stayed within 1.5x of the noise estimate. Rows whose estimate
# exceeds PHI_NOISE_TOL are therefore searched by golden_max like the
# reference: 3 of the 652,716 searched rows of the demo region (seeds 1, 5
# and 42, 50 columns).
GOLDEN_VALUE_TOL = 1e-12
COLUMN_ROOT_ITERS = 14
PHI_NOISE_TOL = GOLDEN_VALUE_TOL / 10.0
SLACK_GOLDEN_ITERS = 54

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

    def __post_init__(self):
        # Invariants of the two frontier kernels, computed once per frontier
        # instead of on every optimizer evaluation. t_max is the largest
        # feasible demand: p_max plus its 1e-12 relative grace.
        self.safe_bsq = np.where(self.degenerate, 1.0, self.b_norm_sq)
        self.safe_pmax = np.where(self.p_max > 0.0, self.p_max, 1.0)
        self.d_sq = self.d * self.d
        self.t_max = self.p_max * (1.0 + 1e-12) + 1e-300

    def take(self, index: np.ndarray) -> FrontierBatch:
        """The frontiers of the given rows, as a compact batch."""
        return FrontierBatch(
            self.c[index], self.d[index], self.b_norm_sq[index], self.p_max[index],
            self.q_mrt[index], self.degenerate[index],
        )


@dataclass
class PowerFrontier(FrontierBatch):
    """Frontier of one transmitter: a batch of one with Python scalar fields.

    The own/cross vectors are kept for witness-beamformer reconstruction.
    """

    own: np.ndarray
    cross: np.ndarray

    def signal_power(self, q):
        """Max own-signal power with caused interference at most q (array ok)."""
        q = np.asarray(q, dtype=float)
        p = frontier_signal_batch(self, q.reshape(-1)).reshape(q.shape)
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
    q = float(frontier_qmin_batch(frontier, np.array([float(p_target)]))[0])
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
    """Frontier p(q) for a q array shaped like the frontier's fields.

    Both frontier kernels run on every optimizer evaluation, so they update
    their own temporaries in place; q and t must therefore be arrays, not
    scalars (the scalar calls pass a batch of one).
    """
    x = np.minimum(q, F.q_mrt)
    x /= F.safe_bsq
    np.maximum(x, 0.0, out=x)
    np.minimum(x, 1.0, out=x)
    orth = np.subtract(1.0, x)
    np.sqrt(orth, out=orth)
    orth *= F.d
    amp = np.sqrt(x, out=x)
    amp *= F.c
    amp += orth
    # amp * amp, not amp ** 2: numpy raises a scalar to a power with pow(),
    # which can differ in the last bit from the elementwise square of an array.
    amp *= amp
    np.copyto(amp, F.p_max, where=F.degenerate)
    return amp


def frontier_qmin_batch(F: FrontierBatch, t: np.ndarray) -> np.ndarray:
    """Frontier inverse; +inf where the demand exceeds p_max.

    Exact inversion of the concave frontier: with s = sqrt(t), solving
    c*sqrt(x) + d*sqrt(1-x) = s gives u = sqrt(x) = (s c - d sqrt(p_max - s^2))
    / p_max and q = u^2 ||b||^2. Demands up to the zero-forcing power d^2 cost
    nothing; demands above p_max beyond a 1e-12 relative grace are infeasible.
    t is an array shaped like the frontier's fields.
    """
    t = np.asarray(t, dtype=float)
    s = np.maximum(t, 0.0)
    np.minimum(s, F.p_max, out=s)
    np.sqrt(s, out=s)
    orth = s * s
    np.subtract(F.p_max, orth, out=orth)
    np.maximum(orth, 0.0, out=orth)
    np.sqrt(orth, out=orth)
    orth *= F.d
    # s becomes u = (s c - d sqrt(p_max - s^2)) / p_max, then q = u^2 ||b||^2.
    s *= F.c
    s -= orth
    s /= F.safe_pmax
    q = np.multiply(s, s, out=s)
    q *= F.b_norm_sq
    np.maximum(q, 0.0, out=q)
    np.minimum(q, F.q_mrt, out=q)
    q[(t <= F.d_sq) | F.degenerate] = 0.0
    q[t > F.t_max] = np.inf
    return q


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
    # A subnormal gamma_other overflows p_max / g to inf: no cap, as at g = 0.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
    gamma2 may be scalars or per-realization arrays. The search runs
    SLACK_GOLDEN_ITERS iterations (accuracy contract at GOLDEN_VALUE_TOL).
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
        q1_star, g_max = golden_max(g, lo, hi, SLACK_GOLDEN_ITERS)
        q2_star = frontier_qmin_batch(F2, g2 * (q1_star + sigma2_sq))
    g_max = np.where(empty, -np.inf, g_max)
    q2_star = np.where(empty, 0.0, np.where(np.isfinite(q2_star), q2_star, 0.0))
    q1_star = np.where(empty, 0.0, q1_star)
    return g_max, q1_star, q2_star


def column_root_search(F1, F2, gamma1, hi, rows, noise):
    """Maximum of phi and its maximizer on the given rows of the column search.

    Each row is searched over [L, H], H = hi and L = clip(d1^2 / gamma1 -
    sigma1^2, 0, H): below L transmitter 1's demand t = gamma1 (q + sigma1^2)
    is at most its zero-forcing power d1^2, so it zero-forces and phi is the
    nondecreasing p2(q) / sigma2^2 (the argument of the closed form in
    column_search_batch). With x = q / b2, s = sqrt(t), w = sqrt(p1 - t),
    u = sqrt(q1min / b1), D = q1min + sigma2^2 and g2 = sqrt(p2),

        psi = [s w (c2 sqrt(1-x) - d2 sqrt(x))
               - k g2 sqrt(x (1-x)) u (c1 w + d1 s) / D] / (w + d1)

    (k = gamma1 b1 b2 / p1) is phi'/phi times b2 g2 sqrt(x (1-x)) s w /
    (w + d1), which is positive inside the bracket. The factor cancels the
    square-root singularities of phi'/phi (x = 0, and w = 0 where d1 > 0)
    without vanishing where phi'/phi stays finite (w = 0 with d1 = 0). Where
    psi(L) <= 0 phi falls from L, which is the maximizer. Elsewhere
    COLUMN_ROOT_ITERS Illinois steps find the sign change of psi: regula falsi
    between the latest iterate and the last one of opposite sign, halving the
    retained value when the sign does not change. psi(H) is replaced by
    -psi(L) where it is not negative (it is 0 at w = 0 when d1 = 0). The
    steps run in y, q = L + (H - L) y^2 (3 - 2 y), which turns a square-root
    end of psi into a smooth one. The best phi among L, H and the iterates
    is returned.

    Next to the top of the bracket the frontier inverse magnifies the
    rounding of t: phi carries relative noise of about eps b1 u d1 / (w D)
    there, and no search comes closer to the reference than that. Rows where
    it exceeds PHI_NOISE_TOL at the last iterate, which include every bracket
    only a few ulps of demand wide (r1 at the single-user ceiling), are
    searched by golden_max over [0, H] instead, like the reference.
    """
    sigma1_sq, sigma2_sq = float(noise[0]), float(noise[1])
    # The only frontier fields the search reads, gathered once.
    c1, d1, b1, p1 = F1.c[rows], F1.d[rows], F1.b_norm_sq[rows], F1.p_max[rows]
    c2, d2, b2 = F2.c[rows], F2.d[rows], F2.safe_bsq[rows]
    g1 = gamma1[rows]
    inv_p1 = 1.0 / p1
    k = g1 * b1
    k *= b2
    k *= inv_p1

    def link1(q):
        # s, w, u and D at q.
        t = q + sigma1_sq
        t *= g1
        np.minimum(t, p1, out=t)
        w = np.subtract(p1, t)
        np.sqrt(w, out=w)
        s = np.sqrt(t, out=t)
        u = s * c1
        u -= d1 * w
        u *= inv_p1
        np.maximum(u, 0.0, out=u)
        den = u * u
        den *= b1
        den += sigma2_sq
        return s, w, u, den

    def evaluate(q):
        # (phi, psi) at q, updating temporaries in place.
        s, w, u, den = link1(q)
        x = q / b2
        np.minimum(x, 1.0, out=x)
        ry = np.subtract(1.0, x)
        np.sqrt(ry, out=ry)
        rx = np.sqrt(x, out=x)
        g2 = c2 * rx
        g2 += d2 * ry
        phi = g2 * g2
        phi /= den
        psi = c2 * ry
        psi -= d2 * rx
        psi *= s
        psi *= w
        scale = w + d1
        fall = np.multiply(c1, w, out=w)
        s *= d1
        fall += s
        fall *= u
        fall *= rx
        fall *= ry
        fall *= g2
        fall *= k
        fall /= den
        psi -= fall
        np.divide(psi, scale, out=psi, where=scale > 0.0)
        return phi, psi

    top = hi[rows]
    # (d1^2 - gamma1 sigma1^2) / gamma1 < H on these rows: no overflow.
    lo = g1 * sigma1_sq
    np.subtract(d1 * d1, lo, out=lo)
    lo /= g1
    np.clip(lo, 0.0, top, out=lo)
    best, f0 = evaluate(lo)
    phi, f1 = evaluate(top)
    best_q = np.where(phi > best, top, lo)
    np.maximum(best, phi, out=best)
    width = top - lo
    # y stays 0 where phi falls from L; psi(H) >= 0 gives way to -psi(L).
    rises = f0 > 0.0
    y0 = np.zeros_like(lo)
    y1 = rises.astype(float)
    f0 = np.where(rises, f0, 1.0)
    f1 = np.where(rises & (f1 < 0.0), f1, -f0)
    for _ in range(COLUMN_ROOT_ITERS):
        y = y1 - y0
        y *= f1
        y /= f1 - f0
        np.subtract(y1, y, out=y)
        q = y * y
        q *= 3.0 - 2.0 * y
        q *= width
        q += lo
        phi, fy = evaluate(q)
        best_q = np.where(phi > best, q, best_q)
        np.maximum(best, phi, out=best)
        flip = fy * f1 < 0.0
        y0 = np.where(flip, y1, y0)
        f0 = np.where(flip, f1, 0.5 * f0)
        y1, f1 = y, fy
    # Rows whose noise estimate at the last iterate exceeds PHI_NOISE_TOL.
    _, w, u, den = link1(q)
    noisy = np.flatnonzero(np.finfo(float).eps * b1 * u * d1 > PHI_NOISE_TOL * w * den)
    if noisy.size:
        sub = rows[noisy]
        F1_sub, F2_sub, g1_sub = F1.take(sub), F2.take(sub), gamma1[sub]

        def phi_ref(q2):
            q1min = frontier_qmin_batch(F1_sub, g1_sub * (q2 + sigma1_sq))
            return frontier_signal_batch(F2_sub, q2) / (q1min + sigma2_sq)

        best_q[noisy], best[noisy] = golden_max(phi_ref, np.zeros(sub.size), hi[sub])
    return best_q, best


def column_search_batch(
    F1: FrontierBatch,
    F2: FrontierBatch,
    gamma1,
    noise: tuple[float, float],
):
    """Largest achievable r2 per realization at fixed r1 (gamma1), and its maximizer.

    Direct form of the trade-off: maximize the quasi-concave ratio
    phi(q2) = p2(q2) / (q1min(gamma1 (q2 + sigma1^2)) + sigma2^2) over the
    interference q2 transmitter 2 may cause; returns (r2_max, q2_star).
    Realizations whose bracket is empty (r1 above the single-user ceiling)
    get -inf and q2 = 0.

    Zero-forcing realizations are answered in closed form: where link 1's
    demand at the bracket top, gamma1 (hi + sigma1^2), is at most the
    zero-forcing power d1^2 (the t <= d^2 test of frontier_qmin_batch),
    transmitter 1 reaches r1 at q1min = 0 everywhere in the bracket, because
    the demand is monotone in q2 in floating point too. phi is then the
    nondecreasing p2(q2) / sigma2^2, so its maximum is the bracket-top value,
    with q2 = hi. Only the remaining rows are searched, by column_root_search
    (contract: GOLDEN_VALUE_TOL).
    """
    sigma1_sq, sigma2_sq = float(noise[0]), float(noise[1])
    g1 = np.broadcast_to(np.asarray(gamma1, dtype=float), F1.c.shape)
    infeasible, lo, hi = _interference_bracket(F2, F1, g1, sigma1_sq)
    zero_forcing = g1 * (hi + sigma1_sq) <= F1.d_sq
    # Closed-form rows keep q2* = hi (0 on empty brackets); searched rows are
    # overwritten below.
    q2_star = hi
    phi_max = frontier_signal_batch(F2, hi) / sigma2_sq
    rows = np.flatnonzero(~(infeasible | zero_forcing))
    if rows.size:
        q2_star[rows], phi_max[rows] = column_root_search(F1, F2, g1, hi, rows, noise)
    r2 = rate_from_sinr(phi_max)
    r2[infeasible] = -np.inf
    return r2, q2_star


def max_r2_batch(
    F1: FrontierBatch, F2: FrontierBatch, gamma1, noise: tuple[float, float]
) -> np.ndarray:
    """Largest achievable r2 per realization at fixed r1: the column search's value."""
    return column_search_batch(F1, F2, gamma1, noise)[0]


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


def max_r2_given_r1(h, r1: float, noise: tuple[float, float]) -> float:
    """Largest r2 with (r1, r2) achievable: max_r2_batch on a batch of one.

    Raises when r1 itself is infeasible (above the link-1 single-user rate,
    where the column is -inf). With r1 = 0 returns the link-2 single-user
    rate.
    """
    r1, _ = as_rate_point((r1, 0.0))
    r2 = float(max_r2_batch(
        frontier_batch(h.h11[None, :], h.h12[None, :]),
        frontier_batch(h.h22[None, :], h.h21[None, :]),
        float(gamma_from_rate(r1)),
        noise,
    )[0])
    if r2 == -math.inf:
        raise ValueError(f"r1 = {r1} is infeasible for this realization")
    return r2


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
