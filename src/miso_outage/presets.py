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
from .cli import SCENARIOS, _matrix_doc
from .regions import GridConfig

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
    n_grid: int = GridConfig.n_points,
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
    # An unknown scenario gets an individual-inst document, which parse_config
    # then rejects on its scenario field.
    mode, variants = SCENARIOS.get(scenario, SCENARIOS["individual-inst"])
    if mode == "common":
        doc["epsilon"] = DEMO_EPSILON
    else:
        doc["epsilon"] = [DEMO_EPSILON, DEMO_EPSILON]
    if variants is None:
        doc["search"] = {"n_pairs": n_pairs, "seed": 9}
    else:
        doc["grid"] = {"n_points": n_grid}
    if basename is not None:
        doc["output"] = {"basename": basename}
    return doc

