"""`region` at the benchmark's reference configurations reproduces the stored
artifacts in perfbench/reference/ byte for byte (CSVs and manifests).

The configurations are the ones perfbench/workloads.py builds at its
reference size and seed 42: individual-inst with N = 2e4, a 10-column grid
and 2 pool workers; common-stat and individual-stat with 64 candidate pairs
drawn from search seed 42. The stored files are only read here.
"""

import json
from pathlib import Path

import pytest

from miso_outage.cli import main
from miso_outage.presets import demo_config

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
SEED = 42


def _run_region(tmp_path, doc, extra=()):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc, indent=2))
    out = tmp_path / "out"
    assert main(["region", str(config), "--out", str(out), *extra]) == 0
    return out


def _assert_identical(out: Path, refdir: Path, scenario: str):
    expected = sorted(p.name for p in refdir.iterdir() if p.name.startswith(scenario + "_"))
    assert expected, f"no reference files for {scenario} in {refdir}"
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        assert (out / name).read_bytes() == (refdir / name).read_bytes(), name


def test_inst_region_matches_reference(tmp_path):
    doc = demo_config("individual-inst", mc_samples=20_000, seed=SEED, n_grid=10)
    out = _run_region(tmp_path, doc, ("--workers", "2"))
    _assert_identical(out, REFERENCE / "inst-region", "individual-inst")


@pytest.mark.parametrize("scenario", ["common-stat", "individual-stat"])
def test_stat_region_matches_reference(tmp_path, scenario):
    doc = demo_config(scenario, seed=SEED, n_pairs=64)
    doc["search"]["seed"] = SEED
    out = _run_region(tmp_path, doc)
    _assert_identical(out, REFERENCE / "stat-region", scenario)
