import math

import numpy as np
import pytest

from miso_outage.channel import ChannelStatistics, SampleSource
from miso_outage.presets import demo_statistics


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def demo_stats():
    return demo_statistics()


@pytest.fixture(scope="session")
def demo_source(demo_stats):
    """Moderate shared stream of the demo scenario for cross-module tests."""
    return SampleSource.gaussian(demo_stats, seed=7, count=4000)


def random_psd(rng, n: int, rank: int | None = None) -> np.ndarray:
    """Random PSD matrix, optionally rank-deficient."""
    r = n if rank is None else rank
    A = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    return A @ A.conj().T


def random_statistics(rng, n: int = 2) -> ChannelStatistics:
    return ChannelStatistics(
        n=n,
        Q11=random_psd(rng, n),
        Q12=random_psd(rng, n),
        Q21=random_psd(rng, n),
        Q22=random_psd(rng, n),
        sigma1_sq=float(rng.uniform(0.2, 1.5)),
        sigma2_sq=float(rng.uniform(0.2, 1.5)),
    )


def random_channel_vectors(rng, count: int, n: int) -> np.ndarray:
    return rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))


# Each invalid noise power on each link, the other link valid.
BAD_NOISES = [
    pair
    for bad in (0.0, -0.5, math.nan, math.inf)
    for pair in ((bad, 0.5), (0.5, bad))
]
