"""Channel model and Monte-Carlo sampling for the two-user MISO interference channel.

Two transmitter-receiver pairs, n antennas per transmitter, single-antenna
receivers. h_ij is the n-vector channel from transmitter i to receiver j, drawn
circularly-symmetric complex Gaussian h_ij ~ CN(0, Q_ij), independent across the
four (i, j) pairs. The entry convention is E|z_k|^2 = 1 for Q = I.

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

# Hermitian / positive-semidefinite tolerances for covariance validation and the
# maximum allowed reconstruction error of the factorization.
HERMITIAN_TOL = 1e-10
EIGENVALUE_TOL = 1e-10
FACTOR_RECONSTRUCTION_TOL = 1e-9


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
    """Check shapes, Hermitian symmetry, positive semidefiniteness and noise powers.

    Returns the input unchanged when every invariant holds; raises
    ValidationError naming the offending field otherwise. Eigenvalues down to
    -1e-10 are tolerated as semidefinite (rank-deficient covariances are legal).
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
        herm_err = np.max(np.abs(Q - Q.conj().T)) if stats.n else 0.0
        if herm_err > HERMITIAN_TOL:
            raise ValidationError(
                f"{key}: not Hermitian (max asymmetry {herm_err:.3e} > {HERMITIAN_TOL:.0e})"
            )
        lam_min = float(np.linalg.eigvalsh(0.5 * (Q + Q.conj().T)).min())
        if lam_min < -EIGENVALUE_TOL:
            raise ValidationError(
                f"{key}: not positive semidefinite (min eigenvalue {lam_min:.3e})"
            )
    for key in ("sigma1_sq", "sigma2_sq"):
        s = getattr(stats, key)
        if not np.isfinite(s) or s <= 0.0:
            raise ValidationError(f"{key}: must be a finite positive number, got {s}")
    return stats


def factor_covariance(Q: np.ndarray) -> np.ndarray:
    """A factor L with L L^H = Q, tolerating rank-deficient Q.

    Lower-triangular Cholesky when every eigenvalue of Q exceeds the 1e-10
    validation tolerance (relative to the diagonal scale when that exceeds 1).
    Otherwise L = V diag(sqrt(lambda)) from the eigendecomposition, with the
    eigenvalues within that tolerance of zero set to zero, so samples L z stay
    in the range of Q and a zero covariance samples exact zeros. Cholesky
    itself is no test of rank: rounding lets it succeed on some rank-one
    matrices, with a ~1e-8 pivot that leaks out of the range. Indefinite
    input (an eigenvalue below minus the tolerance) raises.
    """
    Q = np.asarray(Q, dtype=np.complex128)
    H = 0.5 * (Q + Q.conj().T)
    lam, V = np.linalg.eigh(H)
    lam_min = float(lam.min(initial=np.inf))
    tol = EIGENVALUE_TOL * max(1.0, float(np.max(np.abs(np.diag(H)).real, initial=0.0)))
    if lam_min < -tol:
        raise ValidationError(f"covariance is indefinite (min eigenvalue {lam_min:.3e})")
    if lam_min > tol:
        L = np.linalg.cholesky(H)
    else:
        lam[lam <= tol] = 0.0
        L = V * np.sqrt(lam)
    err = float(np.max(np.abs(L @ L.conj().T - Q))) if Q.size else 0.0
    if err > FACTOR_RECONSTRUCTION_TOL:
        raise ValidationError(f"factorization residual {err:.3e} exceeds tolerance")
    return L


# ---------------------------------------------------------------------------
# Counter-based sampling
# ---------------------------------------------------------------------------

# Each realization consumes 8n uniforms: 4 channels x n entries x 2 uniforms
# (complex Box-Muller). 8n uniforms = 2n Philox blocks of 4 doubles, so sample
# k starts exactly at Philox counter 2nk.
_UNIFORMS_PER_ENTRY = 2
# Rows below this many per thread are not worth a thread of their own.
_MIN_ROWS_PER_THREAD = 4096


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
    per 4096 rows); the caller fills the first and short-lived threads fill
    the rest, all joined before return. Every buffer is allocated here, so the
    threads allocate no arrays, and each range seeds its own Philox at its
    first row's counter: the output is the same at any thread count.
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
        for name, value in (("seed", seed), ("count", count)):
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        seed, count = int(seed), int(count)
        if not 0 <= seed < 2**128:
            raise ValueError(f"seed must lie in [0, 2**128), got {seed}")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
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

