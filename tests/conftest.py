import math

import numpy as np
import pytest

from miso_outage.channel import CHANNEL_KEYS, ChannelRealization, ChannelStatistics, SampleSource
from miso_outage.cli import clear_config_cache
from miso_outage.presets import demo_statistics
from miso_outage.regions import clear_stream_cache


@pytest.fixture(autouse=True)
def empty_caches():
    """Every test starts, and leaves, with no sampled stream and no run-config
    cached, so no test reads another test's stream or config."""
    clear_stream_cache()
    clear_config_cache()
    yield
    clear_stream_cache()
    clear_config_cache()


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


def realizations(source: SampleSource, start: int, stop: int) -> list[ChannelRealization]:
    """Realizations start..stop-1 of a stream, for an explicit source or classify."""
    arrs = source.arrays(start, stop)
    return [ChannelRealization(*(arrs[key][k] for key in CHANNEL_KEYS))
            for k in range(stop - start)]


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
