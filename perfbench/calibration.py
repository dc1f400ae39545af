"""Fixed calibration kernels: the host's current speed, timed next to every operation.

The benchmark runs on a few vCPUs of a shared host whose speed changes by
tens of percent, in phases of seconds and in drifts over minutes. A kernel
that never changes, timed right before and after an operation, slows down
with it; the operation's time divided by the kernel's time ("cal") cancels
most of that. Each kernel imitates the instruction mix of one kind of work in
the package without calling it, so that a change to the package cannot change
the kernel:

- ``vector``: golden-section search on 20 000-element float arrays, the mix
  of the instantaneous-CSI path (``rate_core`` objectives over the sample
  stream);
- ``scalar``: bisection over 17-element arrays with a closed-form
  exponential success probability, one small numpy call after another, the
  mix of the statistical-CSI search (``stat_csi``).

Each takes 30 to 50 ms on a 2-vCPU VM.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20110628)
_VEC = {name: _rng.uniform(0.1, 2.0, 20_000) for name in ("a", "b", "c")}
_SMALL = {name: _rng.uniform(0.1, 2.0, 17) for name in ("s", "t")}
_TARGETS = _rng.uniform(0.5, 0.99, 17)
_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def _objective(x: np.ndarray) -> np.ndarray:
    a, b, c = _VEC["a"], _VEC["b"], _VEC["c"]
    return np.minimum(np.log2(1.0 + a * x / (1.0 + b * (1.0 - x))),
                      np.log2(1.0 + c * (1.0 - x) / (1.0 + b * x)))


def _golden() -> float:
    lo, hi = np.zeros(20_000), np.ones(20_000)
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = _objective(x1), _objective(x2)
    for _ in range(18):
        left = f1 >= f2
        hi = np.where(left, x2, hi)
        lo = np.where(left, lo, x1)
        x_new = np.where(left, hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo))
        f_new = _objective(x_new)
        x1, f1, x2, f2 = (np.where(left, x_new, x1), np.where(left, f_new, f1),
                          np.where(left, x1, x_new), np.where(left, f1, f_new))
        x1, x2 = np.minimum(x1, x2), np.maximum(x1, x2)
    return float(np.maximum(f1, f2).sum())


def vector_kernel() -> float:
    return sum(_golden() for _ in range(3))


def _success(gamma, s, t, sigma_sq):
    safe_g = np.where(gamma > 0.0, gamma, 0.0)
    return np.exp(-safe_g * sigma_sq / s) * s / (s + safe_g * t)


def scalar_kernel() -> float:
    s, t = _SMALL["s"], _SMALL["t"]
    total = 0.0
    for k in range(64):
        lo, hi = np.zeros(17), np.full(17, 64.0)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            ok = _success(mid, s, t, 0.5 + 0.005 * k) >= _TARGETS
            lo = np.where(ok, mid, lo)
            hi = np.where(ok, hi, mid)
        total += float(lo.sum())
    return total


KERNELS = {"vector": vector_kernel, "scalar": scalar_kernel}


def timed(kernel: str) -> float:
    """Seconds one run of the named kernel takes now."""
    start = time.perf_counter()
    KERNELS[kernel]()
    return time.perf_counter() - start
