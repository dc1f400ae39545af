"""Channel model and Monte-Carlo sampling for the two-user MISO interference channel.

Two transmitter-receiver pairs, n antennas per transmitter, single-antenna
receivers. h_ij is the n-vector channel from transmitter i to receiver j, drawn
circularly-symmetric complex Gaussian h_ij ~ CN(0, Q_ij), independent across the
four (i, j) pairs. The entry convention is E|z_k|^2 = 1 for Q = I.

Sampling is counter-based (numpy Philox): realization k of a seeded stream is a
pure function of (seed, k), never of how the stream is split into batches, so
parallel workers can generate disjoint index ranges and byte-identical runs are
reproducible at any worker count.
"""

from __future__ import annotations

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

    def noise(self) -> tuple[float, float]:
        return (self.sigma1_sq, self.sigma2_sq)


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
    """Lower-triangular L with L L^H = Q, tolerating rank-deficient Q.

    Plain Cholesky when Q is positive definite. Otherwise the smallest diagonal
    shift that makes Cholesky succeed is applied: max(0, -lambda_min) plus a
    1e-11-scale ridge, keeping the reconstruction error below 1e-9 for the
    O(1)-scale covariances in scope. Indefinite input (eigenvalue below the
    -1e-10 validation tolerance) raises.
    """
    Q = np.asarray(Q, dtype=np.complex128)
    H = 0.5 * (Q + Q.conj().T)
    try:
        L = np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        lam_min = float(np.linalg.eigvalsh(H).min())
        scale = max(1.0, float(np.max(np.abs(np.diag(H)).real)) if H.size else 1.0)
        if lam_min < -EIGENVALUE_TOL * scale:
            raise ValidationError(
                f"covariance is indefinite (min eigenvalue {lam_min:.3e})"
            )
        ridge = max(0.0, -lam_min) + 1e-11 * scale
        L = np.linalg.cholesky(H + ridge * np.eye(H.shape[0]))
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


def _blocks_per_sample(n: int) -> int:
    return 2 * n


def _standard_complex_from_uniforms(u: np.ndarray) -> np.ndarray:
    r"""Map uniform pairs to CN(0, 1) entries: z = sqrt(-ln(1-u1)) e^{2\pi i u2}."""
    amp = np.sqrt(-np.log1p(-u[..., 0]))
    phase = 2.0 * np.pi * u[..., 1]
    return amp * np.exp(1j * phase)


def gaussian_sample_arrays(
    stats: ChannelStatistics, seed: int, start: int, stop: int
) -> dict[str, np.ndarray]:
    """Realizations start..stop-1 of the seeded stream, as (count, n) arrays per channel.

    The return value depends only on (stats, seed) and the absolute indices, so
    any partition of [0, N) into ranges concatenates to the same stream.
    """
    if start < 0 or stop < start:
        raise ValueError(f"invalid index range [{start}, {stop})")
    n = stats.n
    count = stop - start
    bg = np.random.Philox(key=seed, counter=_blocks_per_sample(n) * start)
    u = np.random.Generator(bg).random((count, 4, n, _UNIFORMS_PER_ENTRY))
    z = _standard_complex_from_uniforms(u)
    out = {}
    for idx, key in enumerate(CHANNEL_KEYS):
        L = factor_covariance(stats.covariance(key))
        out[key] = z[:, idx, :] @ L.T
    return out


@dataclass
class SampleSource:
    """A reproducible stream of channel realizations.

    Either a seeded Gaussian stream defined by ChannelStatistics (stats mode) or
    an explicit list of realizations (fixture mode, for deterministic tests of
    every Monte-Carlo consumer). Both modes expose the same array interface.
    """

    stats: ChannelStatistics | None = None
    seed: int | None = None
    count: int = 0
    realizations: list[ChannelRealization] | None = field(default=None, repr=False)

    @classmethod
    def gaussian(cls, stats: ChannelStatistics, seed: int, count: int) -> "SampleSource":
        validate_statistics(stats)
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return cls(stats=stats, seed=int(seed), count=int(count))

    @classmethod
    def explicit(cls, realizations) -> "SampleSource":
        rs = list(realizations)
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


def sample_batch(source: SampleSource, start: int = 0, stop: int | None = None):
    """Realizations start..stop-1 of the stream as ChannelRealization objects."""
    arrs = source.arrays(start, stop)
    count = arrs["h11"].shape[0]
    return [
        ChannelRealization(*(arrs[key][k] for key in CHANNEL_KEYS))
        for k in range(count)
    ]
