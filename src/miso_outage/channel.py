"""Channel model and Monte-Carlo sampling for the two-user MISO interference channel.

Two transmitter-receiver pairs, n antennas per transmitter, single-antenna
receivers. h_ij is the n-vector channel from transmitter i to receiver j, drawn
circularly-symmetric complex Gaussian h_ij ~ CN(0, Q_ij), independent across the
four (i, j) pairs. The entry convention is E|z_k|^2 = 1 for Q = I.

Every outage quantity depends on the statistics only through Q_ij / sigma_i^2,
so scaling the four covariances and both noise powers by one factor changes
no region. factor_covariance is the one decision of what is a covariance
(validation and the sampler both call it), and its tolerances are relative
to the matrix's own scale, so powers in watts (~1e-12) validate and sample
as unit powers do.

Sampling is counter-based (numpy Philox): realization k of a seeded stream is a
pure function of (seed, k), never of how the stream is split into batches, so
parallel workers can generate disjoint index ranges and byte-identical runs are
reproducible at any worker count. A long range is itself filled by threads
across the usable CPUs, one contiguous block each, and the result does not
depend on how it is split.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np


class ValidationError(ValueError):
    """Raised when channel statistics or realizations fail validation."""


CHANNEL_KEYS = ("h11", "h12", "h21", "h22")
COVARIANCE_KEYS = ("Q11", "Q12", "Q21", "Q22")

# Covariance tolerances, each a multiple of the matrix's own scale
# s = max_k |Q_kk|: COVARIANCE_TOL bounds the Hermitian asymmetry and the
# eigenvalues taken as zero (rank cut-off) or as rounding of zero (PSD floor);
# FACTOR_RECONSTRUCTION_TOL bounds the residual of the factorization.
COVARIANCE_TOL = 1e-10
FACTOR_RECONSTRUCTION_TOL = 1e-9


def check_integer(value, name: str, minimum: int | None = None) -> int:
    """value as an int: an integer, numpy's too but never a bool, of at
    least minimum if one is given."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _as_complex_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim != 1:
        raise ValidationError(f"{name}: expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise ValidationError(f"{name}: non-finite entries")
    return v


@dataclass
class ChannelRealization:
    """One draw of the four channel vectors (h11, h12, h21, h22)."""

    h11: np.ndarray
    h12: np.ndarray
    h21: np.ndarray
    h22: np.ndarray

    def __post_init__(self):
        vs = {}
        for key in CHANNEL_KEYS:
            vs[key] = _as_complex_vector(getattr(self, key), key)
        n = vs["h11"].shape[0]
        for key in CHANNEL_KEYS:
            if vs[key].shape[0] != n:
                raise ValidationError(
                    f"{key}: length {vs[key].shape[0]} does not match h11 length {n}"
                )
            setattr(self, key, vs[key])

    @property
    def n(self) -> int:
        return self.h11.shape[0]


@dataclass
class ChannelStatistics:
    """Second-order channel statistics: four n x n covariances and noise powers."""

    n: int
    Q11: np.ndarray
    Q12: np.ndarray
    Q21: np.ndarray
    Q22: np.ndarray
    sigma1_sq: float
    sigma2_sq: float

    def __post_init__(self):
        self.n = int(self.n)
        for key in COVARIANCE_KEYS:
            setattr(self, key, np.asarray(getattr(self, key), dtype=np.complex128))
        self.sigma1_sq = float(self.sigma1_sq)
        self.sigma2_sq = float(self.sigma2_sq)

    def covariance(self, key: str) -> np.ndarray:
        return getattr(self, "Q" + key[1:])


def validate_statistics(stats: ChannelStatistics) -> ChannelStatistics:
    """Check shapes, finite entries, the covariances and the noise powers.

    Returns the input unchanged when every invariant holds; raises
    ValidationError naming the offending field otherwise. A covariance is
    valid when factor_covariance factors it, so the statistics that validate
    are the ones the sampler can draw from, at any power scale
    (rank-deficient covariances are legal).
    """
    if stats.n < 1:
        raise ValidationError(f"n: must be >= 1, got {stats.n}")
    for key in COVARIANCE_KEYS:
        Q = getattr(stats, key)
        if Q.shape != (stats.n, stats.n):
            raise ValidationError(
                f"{key}: expected shape ({stats.n}, {stats.n}), got {Q.shape}"
            )
        if not np.all(np.isfinite(Q.real)) or not np.all(np.isfinite(Q.imag)):
            raise ValidationError(f"{key}: non-finite entries")
        try:
            factor_covariance(Q)
        except ValidationError as exc:
            raise ValidationError(f"{key}: {exc}") from None
    for key in ("sigma1_sq", "sigma2_sq"):
        s = getattr(stats, key)
        if not np.isfinite(s) or s <= 0.0:
            raise ValidationError(f"{key}: must be a finite positive number, got {s}")
    return stats


def factor_covariance(Q: np.ndarray) -> np.ndarray:
    """A factor L with L L^H = Q, tolerating rank-deficient Q.

    This is the one test of whether Q is a covariance. Every tolerance is a
    multiple of Q's scale s = max_k |Q_kk|, so Q and 4^k Q pass or fail
    together and factor to L and 2^k L, bit for bit, while no entry under- or
    overflows:
    - the Hermitian asymmetry max |Q - Q^H| is at most COVARIANCE_TOL s;
    - no eigenvalue of the Hermitian part H lies below -COVARIANCE_TOL s
      (otherwise Q is indefinite);
    - L is H's lower-triangular Cholesky factor when every eigenvalue exceeds
      COVARIANCE_TOL s, and otherwise V diag(sqrt(lambda)) from the
      eigendecomposition with the eigenvalues up to COVARIANCE_TOL s set to
      zero, so samples L z stay in the range of Q and a zero covariance
      samples exact zeros. Cholesky itself is no test of rank: rounding lets
      it succeed on some rank-one matrices, with a pivot ~1e-8 sqrt(s) that
      leaks out of the range;
    - the residual max |L L^H - Q| is at most FACTOR_RECONSTRUCTION_TOL s.
    A failed check raises ValidationError.
    """
    Q = np.asarray(Q, dtype=np.complex128)
    s = float(np.max(np.abs(np.diag(Q)), initial=0.0))
    tol = COVARIANCE_TOL * s
    limit = f"{COVARIANCE_TOL:.0e} x scale {s:.3e}"
    asymmetry = float(np.max(np.abs(Q - Q.conj().T), initial=0.0))
    if asymmetry > tol:
        raise ValidationError(f"not Hermitian (max asymmetry {asymmetry:.3e} > {limit})")
    H = 0.5 * (Q + Q.conj().T)
    lam, V = np.linalg.eigh(H)
    lam_min = float(lam.min(initial=np.inf))
    if lam_min < -tol:
        raise ValidationError(
            f"not positive semidefinite (indefinite: min eigenvalue {lam_min:.3e} < -{limit})"
        )
    if lam_min > tol:
        L = np.linalg.cholesky(H)
    else:
        lam[lam <= tol] = 0.0
        L = V * np.sqrt(lam)
    err = float(np.max(np.abs(L @ L.conj().T - Q), initial=0.0))
    if err > FACTOR_RECONSTRUCTION_TOL * s:
        raise ValidationError(f"factorization residual {err:.3e} exceeds "
                              f"{FACTOR_RECONSTRUCTION_TOL:.0e} x scale {s:.3e}")
    return L


# ---------------------------------------------------------------------------
# Counter-based sampling
# ---------------------------------------------------------------------------

# Each realization consumes 8n uniforms: 4 channels x n entries x 2 uniforms
# (complex Box-Muller). 8n uniforms = 2n Philox blocks of 4 doubles, so sample
# k starts exactly at Philox counter 2nk.
_UNIFORMS_PER_ENTRY = 2
# Rows below this many per thread are not worth a thread of their own. On a
# two-CPU host a second thread is no faster up to about 5·10^4 rows and 35-40 %
# faster at 10^5, so the demo stream (2·10^4 rows) is drawn on one thread.
_MIN_ROWS_PER_THREAD = 2**15


def _blocks_per_sample(n: int) -> int:
    return 2 * n


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def gaussian_sample_arrays(
    stats: ChannelStatistics, seed: int, start: int, stop: int
) -> dict[str, np.ndarray]:
    r"""Realizations start..stop-1 of the seeded stream, as (count, n) arrays per channel.

    The return value depends only on (stats, seed) and the absolute indices, so
    any partition of [0, N) into ranges concatenates to the same stream. Each
    CN(0, 1) entry is z = sqrt(-ln(1-u1)) e^{2\pi i u2} from a pair of uniforms,
    and channel h_ij is z L^T with L L^H = Q_ij.

    The rows are split into contiguous ranges, one per usable CPU (at most one
    per _MIN_ROWS_PER_THREAD rows); the caller fills the first and
    short-lived threads fill the rest, all joined before return. Every buffer
    is allocated here, so the threads allocate no arrays, and each range
    seeds its own Philox at its first row's counter: the output is the same
    at any thread count.
    """
    if start < 0 or stop < start:
        raise ValueError(f"invalid index range [{start}, {stop})")
    n = stats.n
    count = stop - start
    # numpy multiplies a one-row matrix by L^T through another BLAS routine,
    # which rounds differently: a single realization is drawn as the first of
    # two, so that it equals its row in any longer range.
    rows = 2 if count == 1 else count
    factors = [factor_covariance(stats.covariance(key)).T for key in CHANNEL_KEYS]
    u = np.empty((rows, 4, n, _UNIFORMS_PER_ENTRY))
    amp = np.empty((rows, 4, n))
    out = {key: np.empty((rows, n), dtype=np.complex128) for key in CHANNEL_KEYS}

    def fill(lo: int, hi: int) -> None:
        bg = np.random.Philox(key=seed, counter=_blocks_per_sample(n) * (start + lo))
        uniforms = u[lo:hi]
        np.random.Generator(bg).random(out=uniforms)
        a = amp[lo:hi]
        np.negative(uniforms[..., 0], out=a)
        np.log1p(a, out=a)
        np.negative(a, out=a)
        np.sqrt(a, out=a)
        phase = uniforms[..., 1]
        phase *= 2.0 * np.pi
        # The entries overlay the uniforms: each (u1, u2) pair is one complex
        # slot, whose real part (u1, already in amp) takes cos(phase) and
        # whose imaginary part takes sin(phase) in place over the phase.
        # Scaled in place, they give the bits of amp * exp(1j * phase).
        entries = uniforms.view(np.complex128)[..., 0]
        np.cos(phase, out=entries.real)
        np.sin(phase, out=phase)
        entries *= a
        for idx, key in enumerate(CHANNEL_KEYS):
            np.matmul(entries[:, idx, :], factors[idx], out=out[key][lo:hi])

    k = max(1, min(_usable_cpus(), rows // _MIN_ROWS_PER_THREAD))
    bounds = [rows * i // k for i in range(k + 1)]
    errors = []

    def fill_range(lo: int, hi: int) -> None:
        try:
            fill(lo, hi)
        except Exception as exc:  # re-raised by the caller after the join
            errors.append(exc)

    helpers = [
        threading.Thread(target=fill_range, args=bounds[i:i + 2]) for i in range(1, k)
    ]
    for t in helpers:
        t.start()
    try:
        fill(bounds[0], bounds[1])
    finally:
        for t in helpers:
            t.join()
    if errors:
        raise errors[0]
    if rows > count:
        out = {key: v[:count] for key, v in out.items()}
    return out


@dataclass(frozen=True)
class SampleSource:
    """A reproducible stream of channel realizations.

    Either a seeded Gaussian stream defined by ChannelStatistics (stats mode) or
    an explicit tuple of realizations (fixture mode, for deterministic tests of
    every Monte-Carlo consumer). Both modes expose the same array interface.
    The fields cannot be assigned.
    """

    stats: ChannelStatistics | None = None
    seed: int | None = None
    count: int = 0
    realizations: tuple[ChannelRealization, ...] | None = field(default=None, repr=False)

    @classmethod
    def gaussian(cls, stats: ChannelStatistics, seed: int, count: int) -> "SampleSource":
        """The seeded stream: seed is a Philox key in [0, 2^128), count >= 0.
        Both must be integers (numpy ones included), not bools or floats."""
        validate_statistics(stats)
        seed = check_integer(seed, "seed")
        if not 0 <= seed < 2**128:
            raise ValueError(f"seed must lie in [0, 2**128), got {seed}")
        count = check_integer(count, "count", 0)
        return cls(stats=stats, seed=seed, count=count)

    @classmethod
    def explicit(cls, realizations) -> "SampleSource":
        rs = tuple(realizations)
        if not rs:
            raise ValueError("explicit source needs at least one realization")
        n = rs[0].n
        for k, r in enumerate(rs):
            if r.n != n:
                raise ValidationError(f"realization {k}: n={r.n} does not match n={n}")
        return cls(count=len(rs), realizations=rs)

    @property
    def n(self) -> int:
        if self.realizations is not None:
            return self.realizations[0].n
        return self.stats.n

    def arrays(self, start: int = 0, stop: int | None = None) -> dict[str, np.ndarray]:
        """Channels of realizations start..stop-1 stacked as (count, n) arrays."""
        if stop is None:
            stop = self.count
        if not (0 <= start <= stop <= self.count):
            raise ValueError(f"range [{start}, {stop}) outside stream of {self.count}")
        if self.realizations is not None:
            rs = self.realizations[start:stop]
            return {
                key: np.array([getattr(r, key) for r in rs], dtype=np.complex128)
                for key in CHANNEL_KEYS
            }
        return gaussian_sample_arrays(self.stats, self.seed, start, stop)

