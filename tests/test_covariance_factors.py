"""The covariance factors a process holds (`channel.covariance_factors`).

Validation and the sampler take the factors of Q11..Q22 from one holder,
keyed by n and the covariances' exact bytes, so a process factors a set of
statistics once (a session of stat and instantaneous commands is counted in
`test_stat_search_cache.py`). The held factors are `factor_covariance`'s,
read-only. A covariance one ulp away is another key and is factored again;
a covariance that fails is rejected with the message a fresh process
gives, and nothing is held after it.
"""

import json

import numpy as np
import pytest

from miso_outage import channel, cli
from miso_outage.channel import COVARIANCE_KEYS, ChannelStatistics, validate_statistics
from miso_outage.presets import demo_config

from conftest import count_factorizations


def test_held_factors_are_the_factors(demo_stats):
    held = channel.covariance_factors(demo_stats)
    assert held.shape == (4, 2, 2) and not held.flags.writeable
    for L, key in zip(held, COVARIANCE_KEYS):
        assert L.tobytes() == channel.factor_covariance(demo_stats.covariance(key)).tobytes()
    assert channel.factor_covariance(demo_stats.Q11).flags.writeable


def test_one_ulp_factors_again(demo_stats, monkeypatch):
    """One ulp on one diagonal entry of Q22 is another key: the four
    covariances are factored again, and the held factors are theirs. The
    demo statistics then factor again too, since only the last are held."""
    Q = {key: demo_stats.covariance(key) for key in COVARIANCE_KEYS}
    Q["Q22"] = Q["Q22"].copy()
    Q["Q22"][1, 1] = np.nextafter(Q["Q22"][1, 1].real, np.inf)
    moved = ChannelStatistics(demo_stats.n, **Q, sigma1_sq=demo_stats.sigma1_sq,
                              sigma2_sq=demo_stats.sigma2_sq)
    validate_statistics(demo_stats)
    calls = count_factorizations(monkeypatch)
    validate_statistics(demo_stats)
    assert calls == []
    held = channel.covariance_factors(validate_statistics(moved))
    assert len(calls) == 4 and calls[3].tobytes() == Q["Q22"].tobytes()
    assert held[3].tobytes() == channel.factor_covariance(Q["Q22"]).tobytes()
    validate_statistics(demo_stats)
    assert len(calls) == 4 + 1 + 4


def test_indefinite_covariance_after_a_valid_one(monkeypatch):
    """A config whose Q21 is indefinite, parsed after a valid config on the
    other covariances, is rejected with a fresh process's message, and holds
    nothing: the valid statistics are factored again after it."""
    bad = demo_config("common-stat")
    bad["covariances"]["Q21"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]
    with pytest.raises(cli.ConfigError) as cold:
        cli.parse_config(json.dumps(bad))
    assert str(cold.value).startswith(
        "covariances: Q21: not positive semidefinite (indefinite: min eigenvalue -5.000e-01")
    stats = cli.parse_config(json.dumps(demo_config("common-stat"))).source.stats
    calls = count_factorizations(monkeypatch)
    with pytest.raises(cli.ConfigError) as warm:
        cli.parse_config(json.dumps(bad))
    assert str(warm.value) == str(cold.value)
    assert len(calls) == 3
    validate_statistics(stats)
    assert len(calls) == 3 + 4
