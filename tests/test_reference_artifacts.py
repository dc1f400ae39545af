"""The benchmark's reference-size runs reproduce the stored artifacts in
perfbench/reference/ byte for byte: `region` CSVs and manifests, and the
stdout of the `point` and `simulate` queries.

The configurations are the ones perfbench/workloads.py builds at its
reference size and seed 42: individual-inst with N = 2e4, a 10-column grid
and 2 pool workers; common-stat and individual-stat with 64 candidate pairs
drawn from search seed 42; and for the queries individual-inst with N = 2e4,
two rate points, and per point `simulate` with coin seed 42 at the lo, mid
and hi of its bias interval. The stored files are only read here.
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


# perfbench/workloads.py draws these from seed 42, rounded to 6 decimals.
QUERY_POINTS = ((1.315725, 0.746093), (1.459616, 1.185526))


def test_inst_queries_match_reference(tmp_path, capsys):
    refdir = REFERENCE / "inst-queries"
    config = tmp_path / "inst.json"
    config.write_text(json.dumps(demo_config("individual-inst", mc_samples=20_000, seed=SEED)))

    def stdout_of(argv):
        capsys.readouterr()
        assert main(argv) == 0
        return capsys.readouterr().out

    written = set()
    for k, (r1, r2) in enumerate(QUERY_POINTS):
        point = stdout_of(["point", str(config), repr(r1), repr(r2)])
        assert point.encode() == (refdir / f"point-{k}.json").read_bytes(), f"point-{k}"
        written.add(f"point-{k}.json")
        interval = json.loads(point)["bias_interval"]
        lo, hi = (interval["lo"], interval["hi"]) if interval["nonempty"] else (0.5, 0.5)
        for label, bias in (("lo", lo), ("mid", 0.5 * (lo + hi)), ("hi", hi)):
            name = f"simulate-{k}-{label}.json"
            out = stdout_of(["simulate", str(config), repr(r1), repr(r2), repr(bias),
                             "--coin-seed", str(SEED)])
            assert out.encode() == (refdir / name).read_bytes(), name
            written.add(name)
    assert written == {p.name for p in refdir.iterdir()}
