"""Demo channel statistics and ready-made run configurations.

The demo scenario uses n = 2 antennas, noise variance 0.5 on both links and
outage tolerance 0.1 (common and per-link). The covariance matrices are
chosen, not fitted: direct links are strong and anisotropic with misaligned
dominant eigenvectors (so beamformer choice matters and the two links prefer
different directions), while cross links carry roughly a third of the direct
power (enough interference that joint service sometimes fails, which is what
makes the time-sharing cases interesting, but not so much that the region
collapses). With these numbers the individual-outage region is a rectangle
with a rounded corner, the common-outage region curves well inside it, and
the statistical-CSI regions are non-trivial but clearly nested within the
instantaneous ones.
"""

from __future__ import annotations

import numpy as np

from .channel import COVARIANCE_KEYS, ChannelStatistics
from .cli import _matrix_doc

DEMO_EPSILON = 0.1
DEMO_NOISE = (0.5, 0.5)
DEMO_MC_SAMPLES = 20000
DEMO_SEED = 42


def demo_statistics() -> ChannelStatistics:
    """The documented demo scenario (2 antennas, Rayleigh fading)."""
    phase1 = np.exp(1j * np.pi / 5)
    phase2 = np.exp(-1j * np.pi / 3)
    Q11 = np.array([[3.6, 1.8 * phase1], [1.8 * np.conj(phase1), 2.0]])
    Q22 = np.array([[2.0, 1.4 * phase2], [1.4 * np.conj(phase2), 3.2]])
    Q21 = np.array([[0.63, 0.21j], [-0.21j, 0.35]])
    Q12 = np.array([[0.42, -0.175], [-0.175, 0.56]])
    return ChannelStatistics(
        n=2,
        Q11=Q11,
        Q12=Q12,
        Q21=Q21,
        Q22=Q22,
        sigma1_sq=DEMO_NOISE[0],
        sigma2_sq=DEMO_NOISE[1],
    )


def demo_config(
    scenario: str,
    mc_samples: int = DEMO_MC_SAMPLES,
    seed: int = DEMO_SEED,
    n_grid: int = 50,
    n_pairs: int = 64,
    basename: str | None = None,
) -> dict:
    """A run-config document for the demo scenario, ready to serialize."""
    stats = demo_statistics()
    doc = {
        "scenario": scenario,
        "n": 2,
        "covariances": {key: _matrix_doc(getattr(stats, key)) for key in COVARIANCE_KEYS},
        "noise": [stats.sigma1_sq, stats.sigma2_sq],
        "mc_samples": mc_samples,
        "seed": seed,
    }
    if scenario.startswith("common"):
        doc["epsilon"] = DEMO_EPSILON
    else:
        doc["epsilon"] = [DEMO_EPSILON, DEMO_EPSILON]
    if scenario.endswith("stat"):
        doc["search"] = {"n_pairs": n_pairs, "seed": 9}
    else:
        doc["grid"] = {"n_points": n_grid}
    if basename is not None:
        doc["output"] = {"basename": basename}
    return doc


def aligned_point_mass_config() -> dict:
    """Degenerate fixture: every channel vector equals [1, 0].

    All four links share one direction, so caused interference always equals
    delivered signal power. With noise 0.5 the symmetric joint boundary sits
    at log2(5/3) per link; past it (e.g. at rates (1, 1)) only one link can be
    served at a time and the case distribution is a point mass on the
    coin-flip case.
    """
    h = [[1.0, 0.0], [0.0, 0.0]]
    return {
        "scenario": "individual-inst",
        "n": 2,
        "channels": [{"h11": h, "h12": h, "h21": h, "h22": h}],
        "noise": [0.5, 0.5],
        "epsilon": [0.6, 0.5],
    }
