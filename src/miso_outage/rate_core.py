r"""Rates, beamformers, per-transmitter power frontiers and the column kernel.

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
constant beyond. The realization's Pareto boundary is the column: at fixed
r1, the largest achievable r2 (Jorswieck, Larsson and Danev, IEEE Trans.
Signal Process. 2008, parametrize the same boundary).

The column kernel (max_r2_batch, below) finds it: the maximum of the
quasi-concave ratio phi(q2) = p2(q2) / (q1min(gamma1 (q2 + sigma1^2)) +
sigma2^2), gamma_i = 2^{r_i} - 1, over the interference q2 transmitter 2 may
cause, and its maximizer q2*, which is case B's operating point; q1min is
the frontier inverse. Which rows are empty (r1 above the single-user rate)
is its caller's decision, made on rates, and the kernel marks exactly those
rows -inf. It answers a second kind of row without searching: rows where
transmitter 1 zero-forces across the whole bracket (its demand at the
bracket top is at most d1^2, the lambda = 0 end of its Pareto
parametrization), whose phi is then nondecreasing and peaks at the bracket
top. On the other rows phi is smooth inside the bracket, and its maximizer
is the one sign change of phi'. A safeguarded regula falsi (Illinois) on a
rescaled phi' finds it in 12 steps where golden-section search needed 46,
because it converges superlinearly rather than by a fixed 0.618 per step.

The search runs in two stages. max_r2_batch runs the bracket stage, which
evaluates phi and phi' at both ends of every searched row's bracket, and
returns it as ColumnBounds. Its refine runs the Illinois stage on any subset
of those rows, and a row's result does not depend on the subset. With no row
refined the column is a lower bound of each column value (the better bracket
end, which the full search can only improve on), with every searched row
refined (refined(True)) the exact column, and in between the column that a
query needs (regions.Column). upper bounds the values from above (p2 at the
bracket top over sigma2^2, plus UPPER_MARGIN). Both bounds are exact on the
rows answered in closed form.

Both searches, and every frontier inverse, take the power slack
p_max - gamma (q + sigma^2) of a demand from one formula (_demand_slack). Its
error stays a few ulps of the slack itself, also next to full power, where
the frontier inverse magnifies it.

Accuracy contract: the maxima of max_r2_batch (bits) lie within
1e-12 * max(1, |value|) (GOLDEN_VALUE_TOL) of the exact maximum of phi, with
the float inputs (frontier fields, gamma1, noise) taken as exact, at least
1000x inside the 1e-9 feasibility and rate slacks. The inputs are the right
reference: gamma1 = 2^r1 - 1 is itself rounded, and at r1 = su1 the column
is infinitely steep in r1, so no kernel can be accurate against r1 itself
there. The column kernel meets the contract with 12 root-search iterations
(14 objective evaluations on the rows it searches) and no other search path;
the derivation is at GOLDEN_VALUE_TOL.

The slack oracle, achievability_slack_batch, is an independent route to the
same boundary: the maximum over q1 of the power slack
g(q1) = p1(q1) - gamma1 (q2min(q1) + sigma1^2), with
q2min(q1) = qmin_2(gamma2 (q1 + sigma2^2)) the least interference
transmitter 2 must cause to hand link 2 its target SINR. g is concave, so
golden-section search over the whole bracket (golden_max) finds it, and the
pair is achievable iff g >= -FEASIBILITY_SLACK. It is on no API path: tests
check the column kernel against it.

The *_batch kernels take stacked (N, n) channel arrays and hold the only
implementation of each formula. The scalar call power_frontier, with its
signal_power, runs them on a batch of one, so scalar and batch results agree
exactly; one frontier inverse or one column value is the batch kernel called
on a batch of one. frontier_point stays a separate geometric construction:
the witness beamformer that outage_mc.is_achievable builds and that rate_bf
rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

LN2 = math.log(2.0)

# Golden-section constants. GOLDEN_ITERS is golden_max's iteration count: 80
# iterations shrink the bracket by ~4.6e17, but beyond about 40 the
# comparisons on the flat top of the objective are decided by rounding, so the
# extra iterations only move the value at the rounding floor.
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0
GOLDEN_ITERS = 80

# Accuracy contract of max_r2_batch: the returned maximum (bits) lies within
# GOLDEN_VALUE_TOL * max(1, |value|) of the exact maximum of phi over the
# column's bracket, the float inputs taken as exact; at least 1000x below
# FEASIBILITY_SLACK and RATE_SLACK. COLUMN_ROOT_ITERS is the first even count
# whose worst error stays at least 1.5x inside the bound on the inputs of
# TestAccuracyContract.test_random_channels (n = 1..8, random and rank-1
# channels, steep points at log-spaced distances 1e-9..1e-1 from the bracket
# top) and TestColumnSearch, and on further seeded sets of the same kind.
#
# The reference is column_oracle in the tests: golden_max over the whole
# bracket of phi, which _demand_slack makes accurate to a few ulps
# (TestIndependentOracle checks it against a 60-digit evaluation), so the
# oracle is within about 1e-15 of the exact maximum. Column kernel (root
# search on the sign of phi', max_r2_batch): the Illinois steps
# converge superlinearly. Over 8 seeds x n = 1, 2, 4, 8 x five channel
# families (random, rank-1, zero-cross, aligned, orthogonal) of 3000 rows,
# each at 16 columns (r1 uniform in [0, 1.2] su1, log-uniform 1e-15..1e-1
# below su1, at 1e-3, 0.3, 1 and 1 - 1e-15 times su1, and about the
# zero-forcing knee), the worst error is 3.6e-7 after 8 iterations, 7.5e-10
# after 10, 5.9e-11 after 11 and 1.7e-15 after 12, which stays there through
# 14: the rounding floor. 12 iterations plus the two bracket ends make 14
# objective evaluations per searched row.
#
# The direct slack p1 - fl(t) would put rounding noise of up to 1e-8
# (relative) into phi next to the bracket top at r1 = su1, and no search
# could then be held to the exact maximum there. With _demand_slack no row
# needs a second search.
GOLDEN_VALUE_TOL = 1e-12
COLUMN_ROOT_ITERS = 12

# Non-strict feasibility: the slack oracle says achievable iff
# max g >= -FEASIBILITY_SLACK (power units). The case-B decision
# (regions._jointly_achievable) gets the same absolute slack in bits.
FEASIBILITY_SLACK = 1e-9
RATE_SLACK = 1e-9

NORM_TOL = 1e-9
QUAD_FORM_TOL = 1e-9


def gamma_from_rate(r) -> np.ndarray | float:
    """SINR threshold 2^r - 1 for a rate target r in bits; inf, without a
    RuntimeWarning, from r = 1024 on, where 2^r - 1 overflows."""
    with np.errstate(over="ignore"):
        return np.expm1(np.asarray(r, dtype=float) * LN2)


def rate_from_sinr(s) -> np.ndarray | float:
    return np.log1p(np.asarray(s, dtype=float)) / LN2


def as_rate_point(point) -> tuple[float, float]:
    r1, r2 = float(point[0]), float(point[1])
    if not (math.isfinite(r1) and math.isfinite(r2)) or r1 < 0.0 or r2 < 0.0:
        raise ValueError(f"rate point must be finite and nonnegative, got ({r1}, {r2})")
    return r1, r2


def as_noise(noise) -> tuple[float, float]:
    sigma1_sq, sigma2_sq = float(noise[0]), float(noise[1])
    if not all(math.isfinite(x) and x > 0.0 for x in (sigma1_sq, sigma2_sq)):
        raise ValueError(
            f"noise powers must be finite and positive, got ({sigma1_sq}, {sigma2_sq})"
        )
    return sigma1_sq, sigma2_sq


def quad_form(Q: np.ndarray, W: np.ndarray) -> np.ndarray | float:
    """w^H Q w for each row w of W, real and clamped at zero (Q is PSD up to
    rounding). A 1-D W is a batch of one and gives a float.

    The stacked matmul rounds each row exactly as np.conj(w) @ Q @ w does;
    einsum and a row sum of (W.conj() @ Q) * W do not.
    """
    W = np.asarray(W)
    rows = np.atleast_2d(W)
    value = (rows.conj()[:, None, :] @ Q @ rows[:, :, None])[:, 0, 0].real
    negative = value < -QUAD_FORM_TOL * max(1.0, float(np.trace(Q).real))
    if negative.any():
        raise ValueError(f"quadratic form is negative: {value[np.argmax(negative)]}")
    value = np.maximum(value, 0.0)
    return float(value[0]) if W.ndim == 1 else value


def check_power_budget(W: np.ndarray, name: str) -> None:
    """Raises ValueError unless every row of W has norm at most 1 + NORM_TOL
    (a NaN norm fails). A vector is a batch of one, named name; row i of a
    matrix is name[i]."""
    norms = np.linalg.norm(np.atleast_2d(W), axis=1)
    bad = ~(norms <= 1.0 + NORM_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        row = name if W.ndim == 1 else f"{name}[{i}]"
        raise ValueError(f"{row}: norm {norms[i]} exceeds unit power budget")


def validate_beamformer(w: np.ndarray, name: str = "w") -> np.ndarray:
    w = np.asarray(w, dtype=np.complex128)
    if w.ndim != 1:
        raise ValueError(f"{name}: expected a vector, got shape {w.shape}")
    check_power_budget(w, name)
    return w


def rate_bf(h, w1, w2, link: int, sigma_sq: float) -> float:
    """Rate of one link under beamformers (w1, w2), interference treated as noise."""
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


def mrt(h_vec) -> np.ndarray:
    """Matched-filter beamformer h/||h|| (zero vector stays zero)."""
    v = np.asarray(h_vec, dtype=np.complex128)
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        return np.zeros_like(v)
    return v / nrm


# ---------------------------------------------------------------------------
# Power frontier
# ---------------------------------------------------------------------------


@dataclass
class FrontierBatch:
    """Signal-vs-caused-interference trade-offs, one per realization.

    Flat (N,) arrays: c = |b^H a| / ||b||, d = distance of a from span(b),
    p_max = ||a||^2, q_mrt = |b^H a|^2 / ||a||^2. degenerate marks a vanished
    cross channel, ||b||^2 == 0 exactly (p == p_max at zero caused
    interference); any other b, however weak, keeps its frontier, so channels
    scaled by a power of two, short of underflow, scale their frontiers
    exactly.
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

    def take(self, rows) -> "FrontierBatch":
        """The frontiers of the given rows, as a batch of their own."""
        return FrontierBatch(self.c[rows], self.d[rows], self.b_norm_sq[rows], self.p_max[rows],
                             self.q_mrt[rows], self.degenerate[rows])


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
    # The subtraction leaves rounding of a's size along b, which dominates
    # resid where a is (nearly) parallel to b, as it always is at n = 1; its
    # direction is then no longer orthogonal to b, and w's norm could reach
    # sqrt(2). A second projection removes that part. Where it takes half of
    # resid or more, a's true orthogonal part is below rounding (it adds
    # O(eps) to p(q)) and w stays along b.
    resid -= np.vdot(bhat, resid) * bhat
    d_perp = float(np.linalg.norm(resid))
    if d_perp <= 0.5 * d:
        return x * phase * bhat
    y = math.sqrt(max(1.0 - q / bsq, 0.0))
    return x * phase * bhat + y * (resid / d_perp)


# ---------------------------------------------------------------------------
# Batched frontiers
# ---------------------------------------------------------------------------


def rowsum(X: np.ndarray) -> np.ndarray:
    """Sums of the rows of an (N, n) array, adding its columns left to right.

    One vector add per antenna: over rows only n long this is far cheaper than
    a reduction along axis 1, and the order is the same at every n. (numpy's
    reduction pairs terms once a row holds 8 floats: from n = 8 for real rows
    and from n = 4 for complex ones.)
    """
    total = X[:, 0].copy()
    for j in range(1, X.shape[1]):
        total += X[:, j]
    return total


def frontier_batch(own: np.ndarray, cross: np.ndarray) -> FrontierBatch:
    """Frontier parameters for stacked (N, n) own/cross channel arrays."""
    A = np.asarray(own, dtype=np.complex128)
    B = np.asarray(cross, dtype=np.complex128)
    asq = rowsum(np.abs(A) ** 2)
    bsq = rowsum(np.abs(B) ** 2)
    inner = rowsum(B.conj() * A)
    degenerate = bsq == 0.0
    safe_bsq = np.where(degenerate, 1.0, bsq)
    c = np.where(degenerate, 0.0, np.abs(inner) / np.sqrt(safe_bsq))
    resid = A - (inner / safe_bsq)[:, None] * B
    # ||resid|| as np.linalg.norm forms it: the root of the summed (x* x).real.
    d = np.where(degenerate, np.sqrt(asq), np.sqrt(rowsum((resid.conj() * resid).real)))
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


# Dekker's splitting constant 2^27 + 1: it cuts a 53-bit significand into two
# halves whose products are exact.
_SPLIT = 2.0**27 + 1.0


def _two_product(a, b):
    """(high, low) with high = fl(a b) and high + low = a b exactly: Dekker's
    two-product (Numer. Math. 18, 1971), elementwise.

    Dekker's split multiplies a factor by 2^27 + 1, which overflows past about
    2^996. Here the factors are split at their significands, which np.frexp
    puts in [0.5, 1), and np.ldexp restores the exponent sum, so nothing
    overflows before a b does. high + low is exact wherever a b is finite and
    at least 2^-969 (below that, low can lose bits to underflow). Where a b
    overflows, or a factor is infinite, high is fl(a b) and low is 0, with no
    RuntimeWarning.
    """

    def split(m):
        # m = head + tail, each with at most 26 significant bits.
        c = _SPLIT * m
        head = c - (c - m)
        return head, m - head

    with np.errstate(over="ignore", invalid="ignore"):
        ma, ea = np.frexp(a)
        mb, eb = np.frexp(b)
        high = ma * mb
        a1, a2 = split(ma)
        b1, b2 = split(mb)
        # ((a1 b1 - high) + a1 b2 + a2 b1) + a2 b2, each step exact.
        low = a1 * b1
        low -= high
        low += a1 * b2
        low += a2 * b1
        low += a2 * b2
        e = ea + eb
        high = np.ldexp(high, e)
        low = np.ldexp(low, e)
    return high, np.where(np.isfinite(high), low, 0.0)


def _demand_slack(p_max, gamma, sigma_sq: float):
    """The power slack p_max - t of the demand t = gamma (q + sigma^2), as a
    function of q (an array), clamped at 0.

    The direct p_max - fl(t) cancels near full power and keeps the rounding
    of t, up to eps p_max, which the frontier inverse then magnifies (by
    p_max over the slack's root). Instead the slack is
    gamma (q_full - q) + rest, anchored at q_full = fl(v - sigma^2), the
    interference at which the demand reaches full power, v = fl(p_max /
    gamma). rest holds what those two roundings left, p_max - gamma v from
    _two_product and delta = v - sigma^2 - q_full, which Fast2Sum gets
    exactly where v >= sigma^2 (elsewhere the slack is negative for every
    q >= 0). All of it is set up once per call, outside the caller's loop
    over q. Next to q_full the difference q_full - q is exact, so the slack
    keeps its relative accuracy all the way down to 0. Where p_max / gamma is
    not finite (gamma 0, or so small that it overflows) v is taken as 0,
    which leaves (p_max - gamma sigma^2) - gamma q. Where v is 0, as where
    gamma is infinite (r >= 1024 bits), rest is p_max exactly: no inf * 0.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        v = np.divide(p_max, gamma)
    v = np.where(np.isfinite(v), v, 0.0)
    g = np.where(v > 0.0, gamma, 0.0)
    high, low = _two_product(g, v)
    rest = p_max - high
    rest -= low
    q_full = v - sigma_sq
    rest += g * ((v - q_full) - sigma_sq)

    def slack(q):
        e = np.subtract(q_full, q)
        e *= gamma
        e += rest
        return np.maximum(e, 0.0, out=e)

    return slack


def frontier_qmin_batch(F: FrontierBatch, gamma, q: np.ndarray, sigma_sq: float) -> np.ndarray:
    """Frontier inverse at the demand t = gamma (q + sigma^2); +inf where t
    exceeds p_max.

    Exact inversion of the concave frontier: with s = sqrt(t), solving
    c*sqrt(x) + d*sqrt(1-x) = s gives u = sqrt(x) = (s c - d sqrt(p_max - t))
    / p_max and q = u^2 ||b||^2, with p_max - t from _demand_slack. Demands up
    to the zero-forcing power d^2 cost nothing; demands above p_max beyond a
    1e-12 relative grace are infeasible. q is an array shaped like the
    frontier's fields, and gamma a scalar or such an array.
    """
    t = np.add(q, sigma_sq)
    t *= gamma
    s = np.maximum(t, 0.0)
    np.minimum(s, F.p_max, out=s)
    np.sqrt(s, out=s)
    orth = _demand_slack(F.p_max, gamma, sigma_sq)(q)
    np.sqrt(orth, out=orth)
    orth *= F.d
    # s becomes u = (s c - d sqrt(p_max - t)) / p_max, then q = u^2 ||b||^2.
    s *= F.c
    s -= orth
    s /= F.safe_pmax
    # u < 0 only by rounding, where the demand passes d^2 by an ulp or so and
    # the test t <= d^2 below fails: its square would be the mirror root, an
    # interference of u^2 ||b||^2 where zero-forcing costs nothing. The
    # column kernel's evaluate clamps u at 0 the same way.
    np.maximum(s, 0.0, out=s)
    qmin = np.multiply(s, s, out=s)
    qmin *= F.b_norm_sq
    np.minimum(qmin, F.q_mrt, out=qmin)
    qmin[(t <= F.d_sq) | F.degenerate] = 0.0
    qmin[t > F.t_max] = np.inf
    return qmin


def golden_max(f, lo: np.ndarray, hi: np.ndarray):
    """Elementwise maximizer of a vectorized unimodal f over [lo, hi].

    Runs GOLDEN_ITERS iterations: the search of the slack oracle
    achievability_slack_batch, and of the tests' column oracle. Returns
    (x_best, f_best); endpoints are always evaluated, so monotone f is
    handled exactly up to bracket width.
    """
    a = np.array(lo, dtype=float, copy=True)
    b = np.array(hi, dtype=float, copy=True)
    x1 = a + INV_PHI_SQ * (b - a)
    x2 = a + INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    best_x = np.where(f1 >= f2, x1, x2)
    best_f = np.maximum(f1, f2)
    for _ in range(GOLDEN_ITERS):
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
) -> np.ndarray:
    """Top of the range [0, top] of the interference one transmitter may cause.

    At most its matched-filter interference, and little enough that the other
    link can still reach gamma_other at full power. top is negative where even
    zero interference is too much: that power test is the slack oracle's
    empty bracket. The column kernel takes its empty rows from its caller and
    clamps top at 0.
    """
    g = gamma_other
    # A subnormal gamma_other overflows p_max / g to inf: no cap, as at g = 0.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ub = np.where(g > 0.0, F_other.p_max / np.where(g > 0.0, g, 1.0) - sigma_other_sq, np.inf)
    return np.minimum(F_own.q_mrt, ub)


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
    gamma2 may be scalars or per-realization arrays. This is the slack
    oracle, golden_max over the whole bracket, not a contracted kernel: it
    is on no API path, and tests check the column kernel against it.
    """
    sigma1_sq, sigma2_sq = float(noise[0]), float(noise[1])
    g1 = np.broadcast_to(np.asarray(gamma1, dtype=float), F1.c.shape)
    g2 = np.broadcast_to(np.asarray(gamma2, dtype=float), F1.c.shape)
    top = _interference_bracket(F1, F2, g2, sigma2_sq)
    empty, lo, hi = top < 0.0, np.zeros_like(top), np.maximum(top, 0.0)

    def g(q1):
        q2min = frontier_qmin_batch(F2, g2, q1, sigma2_sq)
        return frontier_signal_batch(F1, q1) - g1 * (q2min + sigma1_sq)

    # Empty-bracket realizations (clamped to q1 = 0) can probe an infinite
    # q2min; their g values are masked below, so silence the 0 * inf noise.
    with np.errstate(invalid="ignore"):
        q1_star, g_max = golden_max(g, lo, hi)
        q2_star = frontier_qmin_batch(F2, g2, q1_star, sigma2_sq)
    g_max = np.where(empty, -np.inf, g_max)
    q2_star = np.where(empty, 0.0, np.where(np.isfinite(q2_star), q2_star, 0.0))
    q1_star = np.where(empty, 0.0, q1_star)
    return g_max, q1_star, q2_star


def _phi_evaluator(F1, F2, gamma1, rows, noise):
    """evaluate(q) -> (phi, psi) on the given rows of the column search (see
    max_r2_batch), with the only frontier fields it reads gathered once and
    link 1's power slack set up once. Every step is elementwise, so a row's
    values do not depend on the other rows gathered with it."""
    sigma1_sq, sigma2_sq = float(noise[0]), float(noise[1])
    c1, d1, b1, p1 = F1.c[rows], F1.d[rows], F1.b_norm_sq[rows], F1.p_max[rows]
    d1_sq = F1.d_sq[rows]
    c2, d2, b2 = F2.c[rows], F2.d[rows], F2.safe_bsq[rows]
    g1 = gamma1[rows]
    slack1 = _demand_slack(p1, g1, sigma1_sq)
    inv_p1 = 1.0 / p1
    with np.errstate(over="ignore"):
        k = g1 * b1
        k *= b2
        k *= inv_p1
    # psi's first term reads c2 and d2 as c2_psi and d2_psi. Where k
    # overflows (tiny noise: gamma1 near p1 / sigma1^2), k is taken as
    # 2^-shift k, about 2^1000, from the significands, and c2_psi, d2_psi as
    # 2^-shift c2, 2^-shift d2: psi is then 2^-shift psi, its sign unchanged,
    # and a power-of-two scale of psi leaves every Illinois step as it is.
    # Elsewhere nothing changes, not a bit.
    c2_psi, d2_psi = c2, d2
    over = np.flatnonzero(np.isinf(k))
    if over.size:
        (mg, eg), (mb1, eb1), (mb2, eb2), (mp1, ep1) = (np.frexp(x[over]) for x in (g1, b1, b2, p1))
        k[over] = np.ldexp(mg * mb1 * mb2 / mp1, 1000)
        shift = eg + eb1 + eb2 - ep1 - 1000
        c2_psi, d2_psi = c2.copy(), d2.copy()
        c2_psi[over], d2_psi[over] = np.ldexp(c2[over], -shift), np.ldexp(d2[over], -shift)

    def evaluate(q):
        # (phi, psi) at q, updating temporaries in place. Link 1 first:
        # s, w, u and D.
        t = q + sigma1_sq
        t *= g1
        zero_forcing = t <= d1_sq
        np.minimum(t, p1, out=t)
        w = slack1(q)
        np.sqrt(w, out=w)
        s = np.sqrt(t, out=t)
        u = s * c1
        u -= d1 * w
        u *= inv_p1
        np.maximum(u, 0.0, out=u)
        u[zero_forcing] = 0.0
        den = u * u
        den *= b1
        den += sigma2_sq
        x = q / b2
        np.minimum(x, 1.0, out=x)
        ry = np.subtract(1.0, x)
        np.sqrt(ry, out=ry)
        rx = np.sqrt(x, out=x)
        g2 = c2 * rx
        g2 += d2 * ry
        phi = g2 * g2
        phi /= den
        psi = c2_psi * ry
        psi -= d2_psi * rx
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

    return evaluate


# Margin of ColumnBounds.upper above the closed form p2(H) / sigma2^2 on the
# searched rows, in bits, relative to max(1, |bound|). In exact arithmetic
# phi(q) <= p2(H) / sigma2^2 on [L, H]: p2 is nondecreasing up to q_mrt2 >= H
# and the denominator q1min + sigma2^2 is at least sigma2^2, also in floating
# point (a nonnegative term added to sigma2^2). The rounding left is that of
# phi's numerator: evaluate's g2 = c2 sqrt(x) + d2 sqrt(1 - x) and the
# frontier's amplitude at H each carry a few ulps (the sqrt(1 - x) term
# loses relative accuracy only where x is near 1, and there its share of g2
# is at most sqrt(eps) of the whole, so 4 ulps bound each amplitude
# relative to the exact one; a vanished cross channel reads p_max against
# fl(sqrt(p_max))^2, 3 ulps). Squared on both sides, with the two quotient
# roundings, an iterate's phi exceeds the bound by at most about 20 ulps
# relative; log1p(s) / ln 2 turns that into 20 eps / ln 2 < 29 eps bits,
# and the two rounded logarithms add 2 ulps of the rate each. 32 eps of
# max(1, rate) covers the lot. Measured over the channel families of the
# bound checks in tests/test_rate_core.py (n = 1..8, random, rank-1 and
# degenerate channels, noise 1e-300..1e6, steep and knee columns), the
# search's value passes the bare closed form by at most 2.9 eps of
# max(1, rate), on random and rank-1 channels; those checks hold the bound
# with the margin bit for bit and fail without it.
UPPER_MARGIN = 32.0 * float(np.finfo(float).eps)


@dataclass
class ColumnBounds:
    """The column kernel at one r1 after its bracket stage (max_r2_batch).

    top holds p2(hi) / sigma2^2 per realization: the SINR of the column value
    on the rows answered in closed form, where q2 holds its maximizer hi,
    except on the caller's empty rows (exceed1), whose value is -inf (q2 = 0).
    The other rows, searched, hold the bracket stage: each row's interval
    [lo, lo + width], the better of phi at its two ends (best, with q2
    holding where) and the start of the Illinois steps (y1, f0, f1). The
    stage's evaluator is not kept: each refine gathers its own rows.

    refine(rows) runs the Illinois stage on the given searched rows, and a
    row gets the same bits whichever rows are refined with it. refined(which)
    is the whole column with the searched rows that which selects refined and
    the others at their better bracket end: lower (which is False, no row)
    and the exact column (which is True, every searched row). lower and
    upper bound every column value in bits, bit for bit, and are computed on
    first use. Both are exact on the closed-form rows. On the searched rows
    lower is the better bracket end, through the search's own evaluate, so
    it never exceeds the searched value (the best of those ends and the
    iterates), and upper is the closed form plus UPPER_MARGIN. A
    regions.Column that refines on demand takes the bounds over: it writes
    each refined row's exact value into lower and upper, and its maximizer
    into q2. They stay bounds, and a later refine of such a row gives the
    same bits, since the row's search starts from the bracket stage.
    """

    F1: FrontierBatch
    F2: FrontierBatch
    gamma1: np.ndarray
    noise: tuple
    top: np.ndarray
    exceed1: np.ndarray
    q2: np.ndarray
    searched: np.ndarray
    lo: np.ndarray
    width: np.ndarray
    best: np.ndarray
    y1: np.ndarray
    f0: np.ndarray
    f1: np.ndarray

    @cached_property
    def lower(self) -> np.ndarray:
        sinr = self.top.copy()
        sinr[self.searched] = self.best
        values = rate_from_sinr(sinr)
        values[self.exceed1] = -np.inf
        return values

    @cached_property
    def upper(self) -> np.ndarray:
        upper = self.lower.copy()
        top = rate_from_sinr(self.top[self.searched])
        upper[self.searched] = top + UPPER_MARGIN * np.maximum(1.0, np.abs(top))
        return upper

    def refine(self, rows: np.ndarray) -> tuple:
        """(values, q2*) of the column on rows, indices of searched rows in
        increasing order: the Illinois stage on those rows alone, with an
        evaluate over them, bit for bit what a search over every searched
        row gives them."""
        which = np.searchsorted(self.searched, rows)
        q_rows, phi_rows = self._illinois(which, rows)
        return rate_from_sinr(phi_rows), q_rows

    def refined(self, which) -> tuple:
        """(values, q2*) of the whole column with the searched rows which
        selects (a mask over searched, or True for all and False for none)
        refined and the others equal to lower and q2; an empty selection
        runs no evaluation."""
        values, q2 = self.lower.copy(), self.q2.copy()
        rows = self.searched[np.full(self.searched.shape, which)]
        if rows.size:
            values[rows], q2[rows] = self.refine(rows)
        return values, q2

    def _illinois(self, which: np.ndarray, rows: np.ndarray) -> tuple:
        """(q*, phi*) on rows, the searched rows which selects (a mask or
        positions over searched): COLUMN_ROOT_ITERS Illinois steps from the
        bracket stage, the best phi among the two ends and the iterates.
        Every step is elementwise, so each row gets the same bits whichever
        rows are selected with it."""
        evaluate = _phi_evaluator(self.F1, self.F2, self.gamma1, rows, self.noise)
        lo, width = self.lo[which], self.width[which]
        best, best_q = self.best[which].copy(), self.q2[rows]
        y1, f0, f1 = self.y1[which], self.f0[which], self.f1[which]
        y0 = np.zeros_like(lo)
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
            # fy * f1 < 0 without the product, which can overflow: strictly
            # opposite signs flip, a zero never does.
            flip = ((fy < 0.0) & (f1 > 0.0)) | ((fy > 0.0) & (f1 < 0.0))
            y0 = np.where(flip, y1, y0)
            f0 = np.where(flip, f1, 0.5 * f0)
            y1, f1 = y, fy
        return best_q, best


def max_r2_batch(
    F1: FrontierBatch,
    F2: FrontierBatch,
    gamma1,
    noise: tuple[float, float],
    exceed1: np.ndarray,
) -> ColumnBounds:
    """The column kernel: the largest achievable r2 per realization at fixed
    r1 (gamma1), and its maximizer, as ColumnBounds after the bracket stage.

    Direct form of the trade-off: maximize the quasi-concave ratio
    phi(q2) = p2(q2) / (q1min(gamma1 (q2 + sigma1^2)) + sigma2^2) over the
    interference q2 transmitter 2 may cause; ColumnBounds.refined(True),
    every searched row refined, returns (r2_max, q2_star).

    exceed1 marks the empty rows, where r1 exceeds link 1's single-user
    rate (as on every row where gamma1 is infinite): the caller decides
    them on rates, and exactly those rows get -inf and q2 = 0. On every
    other row the bracket top is clamped at 0, so a row at r1 = su1 whose
    rounded gamma1 asks for an ulp more than full power gets the bracket
    [0, 0] and a value >= 0, never -inf.

    Zero-forcing realizations are answered in closed form: where link 1's
    demand at the bracket top, gamma1 (hi + sigma1^2), is at most the
    zero-forcing power d1^2 (the t <= d^2 test of frontier_qmin_batch),
    transmitter 1 reaches r1 at q1min = 0 everywhere in the bracket, because
    the demand is monotone in q2 in floating point too. phi is then the
    nondecreasing p2(q2) / sigma2^2, so its maximum is the bracket-top value,
    with q2 = hi. A column with no other row returns here, with no
    evaluation.

    The remaining rows are root-searched (contract: GOLDEN_VALUE_TOL of the
    exact maximum). This call runs the bracket stage, and
    ColumnBounds.refine the Illinois stage on the rows a caller selects.
    Each row is searched over [L, H], H = hi and L within a few ulps below
    the largest q at which transmitter 1's demand t = gamma1 (q + sigma1^2)
    is at most its zero-forcing power d1^2: up to there it zero-forces and
    phi is the nondecreasing p2(q) / sigma2^2. With x = q / b2, s = sqrt(t),
    w = sqrt(p1 - t), u = sqrt(q1min / b1), D = q1min + sigma2^2 and
    g2 = sqrt(p2),

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
    is the searched value.

    phi is evaluated as frontier_qmin_batch defines q1min: w^2 = p1 - t comes
    from the same _demand_slack, set up once per evaluate, and u = 0 wherever
    t passes the zero-forcing test t <= d1^2. L is chosen so that its rounded
    demand passes that test: where sigma2^2 is tiny, q1min just above the
    test is rounding of order eps^2 b1 and still far above sigma2^2, so phi
    drops there by orders of magnitude. Next to H the frontier inverse
    magnifies any error of w^2, which the slack keeps at a few ulps of
    itself. So every row takes this one search, brackets a few ulps of demand
    wide included, and its value is within GOLDEN_VALUE_TOL of the exact
    maximum of phi.
    """
    sigma1_sq, sigma2_sq = float(noise[0]), float(noise[1])
    g1 = np.broadcast_to(np.asarray(gamma1, dtype=float), F1.c.shape)
    hi = np.where(exceed1, 0.0, np.maximum(_interference_bracket(F2, F1, g1, sigma1_sq), 0.0))
    zero_forcing = g1 * (hi + sigma1_sq) <= F1.d_sq
    top = frontier_signal_batch(F2, hi) / sigma2_sq
    rows = np.flatnonzero(~(exceed1 | zero_forcing))
    if not rows.size:
        return ColumnBounds(F1, F2, g1, noise, top, exceed1, hi, rows, *[np.empty(0)] * 6)
    evaluate = _phi_evaluator(F1, F2, g1, rows, noise)
    g1_rows, d1_sq, end = g1[rows], F1.d_sq[rows], hi[rows]
    # L: v = L + sigma1^2 steps down from d1^2 / gamma1 (below H + sigma1^2
    # on these rows: no overflow) until fl(gamma1 v) <= d1^2, a few ulps at
    # most, and L = v - sigma1^2 steps down once more where that subtraction
    # rounded up. The demand at L then passes the zero-forcing test as
    # evaluate and frontier_qmin_batch round it.
    v = d1_sq / g1_rows
    while (over := np.flatnonzero(g1_rows * v > d1_sq)).size:
        v[over] = np.nextafter(v[over], 0.0)
    lo = v - sigma1_sq
    up = np.flatnonzero(lo + sigma1_sq > v)
    lo[up] = np.nextafter(lo[up], -np.inf)
    np.maximum(lo, 0.0, out=lo)
    best, f0 = evaluate(lo)
    phi, f1 = evaluate(end)
    # q2: hi on the closed-form rows (0 on the empty ones), the better
    # bracket end on the searched ones.
    hi[rows] = np.where(phi > best, end, lo)
    np.maximum(best, phi, out=best)
    # y stays 0 where phi falls from L; psi(H) >= 0 gives way to -psi(L).
    rises = f0 > 0.0
    f0 = np.where(rises, f0, 1.0)
    f1 = np.where(rises & (f1 < 0.0), f1, -f0)
    return ColumnBounds(F1, F2, g1, noise, top, exceed1, hi, rows, lo, end - lo, best,
                        rises.astype(float), f0, f1)


# Witness contract, in bits relative to max(1, |rate|). At case B's
# operating point, transmitter 2 at the column maximizer q2* and transmitter
# 1 at q1 = frontier_qmin_batch of its demand gamma1 (q2* + sigma1^2), the
# rates of witness_rates_batch satisfy:
# - link 2's rate lies within WITNESS_MARGIN of the column value. Both are
#   p2(q2*) over q1 + sigma2^2, and the kernel's evaluate forms u = sqrt(q1 /
#   b1) from the same demand slack, products and clamps as the inverse (it
#   multiplies by 1 / p1 where the inverse divides by p1); what is left is a
#   few roundings of the SINR, which the logarithm turns into a few eps of
#   bits;
# - link 1's rate is at least r1 - WITNESS_MARGIN * max(1, r1): the frontier
#   at its own inverse gives the demand back up to a few roundings.
# WITNESS_MARGIN * max(1, r) stays below RATE_SLACK for every r < 1024, and
# no case-B row exists from r1 = 1024 on (gamma_from_rate is inf there). So
# on a case-B row link 1 always meets its target, and link 2 meets it
# wherever the column value passes r2 - RATE_SLACK by the margin;
# outage_mc.split_policy computes the witness only on the other case-B rows.
# Measured over the families of tests/test_witness_contract.py (n = 1..8,
# random, rank-1, zero-cross and aligned channels, noise 1e-300..1e6) and
# its near-zero-forcing stream, link 2 is off the column by at most 2.5 eps
# and link 1 short of r1 by at most 6.7 eps, both relative: 64 eps leaves a
# factor of 9. Both rest on frontier_qmin_batch clamping u at 0 as evaluate
# does; its mirror root put link 2 up to 562 bits off the column there.
WITNESS_MARGIN = 64.0 * float(np.finfo(float).eps)


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


def bisect_largest(member, hi: float, tol: float) -> float:
    """Largest x in [0, hi] with member(x), for member true below a threshold.

    The caller has checked member(0). Returns hi when member(hi) holds, else
    the member end of a bisection bracket no wider than tol, or of adjacent
    floats when tol is below their spacing.
    """
    hi = float(hi)
    if member(hi):
        return hi
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if member(mid):
            lo = mid
        else:
            hi = mid
    return lo
