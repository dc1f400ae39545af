"""The keep-the-last rule of `regions.LastValue` on each of its four uses:
the sampled stream (keyed by `_stream_key`), the run-config (keyed by the
file's text), the statistical-CSI search (keyed by its statistics and search
block) and the policy split (keyed by r2 and the coin seed, on the Column at
r1).

An equal key returns the held value without building it again. Another key
drops the held value before its build runs, so two values are never held at
once. A build that raises leaves nothing held, so the next call builds
again, on the old key too.
"""

import json
import weakref
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable

import pytest

from miso_outage import cli, regions
from miso_outage.channel import SampleSource
from miso_outage.presets import demo_config
from miso_outage.regions import InstantaneousRegionPipeline

NOISE = (0.5, 0.5)


@dataclass
class Use:
    owner: object  # the module whose build function is wrapped
    build: str  # that function's name
    get: Callable  # key -> the value the process holds for it
    keys: tuple  # two keys whose builds succeed, then one whose build raises
    error: type


def stream_use(demo_stats, tmp_path) -> Use:
    def get(key):
        seed, noise = key
        source = SampleSource.gaussian(demo_stats, seed=seed, count=300)
        return InstantaneousRegionPipeline(source, noise)._stream

    # Noise 5e-324 overflows the single-user SINR: the stream build raises.
    keys = ((1, NOISE), (2, NOISE), (1, (5e-324, 5e-324)))
    return Use(regions, "_sample_stream", get, keys, ValueError)


def config_use(demo_stats, tmp_path) -> Use:
    path = tmp_path / "config.json"

    def get(text):
        path.write_text(text)
        return cli.load_config(str(path))

    texts = [json.dumps(demo_config("individual-inst", mc_samples=300, seed=seed))
             for seed in (1, 2)]
    return Use(cli, "parse_config", get, (*texts, "{not json"), cli.ConfigError)


def search_use(demo_stats, tmp_path) -> Use:
    config = cli.parse_config(json.dumps(demo_config("common-stat", mc_samples=300)))

    def get(key):
        n_pairs, seed = key
        search = {"n_pairs": n_pairs, "seed": seed, "curve_points": 65}
        return replace(config, search=MappingProxyType(search)).stat_search()

    # No pair to draw: the draw raises.
    return Use(cli, "draw_beamformer_pairs", get, ((8, 1), (8, 2), (0, 1)), ValueError)


def policy_split_use(demo_stats, tmp_path) -> Use:
    pipeline = InstantaneousRegionPipeline(SampleSource.gaussian(demo_stats, seed=3, count=500),
                                           NOISE)

    def get(coin_seed):
        return pipeline.policy_split(0.6, 0.6, coin_seed)

    # numpy takes no negative seed: the split's coin draw raises.
    return Use(regions, "split_policy", get, (1, 2, -1), ValueError)


@pytest.fixture(params=[stream_use, config_use, search_use, policy_split_use],
                ids=["stream", "config", "search", "policy split"])
def use(request, demo_stats, tmp_path):
    return request.param(demo_stats, tmp_path)


def log_builds(use: Use, monkeypatch, held=None) -> list:
    """Log of the builds run from now on: at each, whether held (a weakref)
    still reached its value, or None without one."""
    builds = []
    build = getattr(use.owner, use.build)

    def logged(*args):
        builds.append(None if held is None else held() is not None)
        return build(*args)

    monkeypatch.setattr(use.owner, use.build, logged)
    return builds


def test_equal_key_returns_the_held_value_without_a_build(use, monkeypatch):
    first = use.get(use.keys[0])
    builds = log_builds(use, monkeypatch)
    assert use.get(use.keys[0]) is first
    assert builds == []


def test_new_key_builds_with_the_old_value_gone(use, monkeypatch):
    old = weakref.ref(use.get(use.keys[0]))
    builds = log_builds(use, monkeypatch, held=old)
    new = use.get(use.keys[1])
    assert builds == [False]
    assert use.get(use.keys[1]) is new and builds == [False]


def test_failed_build_leaves_nothing_held(use, monkeypatch):
    old = weakref.ref(use.get(use.keys[0]))
    builds = log_builds(use, monkeypatch, held=old)
    with pytest.raises(use.error):
        use.get(use.keys[2])
    assert builds == [False]
    assert old() is None
    again = use.get(use.keys[0])
    assert builds == [False, False]
    assert use.get(use.keys[0]) is again and len(builds) == 2
