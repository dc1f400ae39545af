"""Row permutation of an explicit source, a metamorphic oracle.

Every count the package makes is a count over the realizations, so
permuting the rows of an explicit source changes none of `region`'s CSVs,
no field of its manifest outside `config.channels` (which lists the rows in
their order) and no `point` report, on one process or two. `simulate` is
left out: its case-D coins are drawn by row position, so a permutation
hands the rows other coins and may change its counts.
"""

import contextlib
import io
import json
from dataclasses import replace

import numpy as np
import pytest

from miso_outage import cli
from miso_outage.channel import SampleSource
from miso_outage.presets import demo_config

from conftest import realizations

ROWS = 1500
# From deep inside the regions to well outside them: at the last five, 56 to
# 82 % of the rows are jointly achievable, so a count that depended on which
# rows come first or last would show.
POINTS = [(0.3, 0.3), (0.5, 3.0), (1.5, 2.5), (2.0, 1.0), (2.5, 2.0), (3.0, 0.5)]


def explicit_doc(scenario: str, order) -> dict:
    """The demo config's first ROWS realizations (seed 11) as an explicit
    channel list, in the given order, on an 8-column grid."""
    config = cli.parse_config(json.dumps(demo_config(scenario, mc_samples=ROWS, seed=11,
                                                     n_grid=8)))
    rows = realizations(config.source, 0, ROWS)
    return replace(config, source=SampleSource.explicit([rows[i] for i in order])).to_document()


def outputs(doc: dict, tmp_path, name: str, workers: int) -> tuple:
    """The region files, the manifest without config.channels, and the
    point reports' text, of doc run through cli.main."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / f"{name}-out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["region", str(path), "--out", str(out), "--workers", str(workers)]) == 0
    manifest = json.loads((out / f"{doc['scenario']}_manifest.json").read_text())
    del manifest["config"]["channels"]
    csvs = {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}
    reports = []
    for r1, r2 in POINTS:
        with contextlib.redirect_stdout(io.StringIO()) as text:
            assert cli.main(["point", str(path), repr(r1), repr(r2)]) == 0
        reports.append(text.getvalue())
    return csvs, manifest, reports


@pytest.mark.parametrize("scenario", ["individual-inst", "common-inst"])
def test_permuted_rows_give_the_same_region_and_point_bytes(scenario, tmp_path):
    """The rows reversed and randomly permuted: the same bytes as in their
    sampled order, at --workers 1 and 2."""
    expected = outputs(explicit_doc(scenario, range(ROWS)), tmp_path, "sampled", 1)
    csvs, manifest, reports = expected
    assert len(csvs) == (3 if scenario == "individual-inst" else 1)
    assert all(boundary["n_points"] for boundary in manifest["boundaries"].values())
    orders = {"reversed": range(ROWS)[::-1],
              "permuted": np.random.default_rng(3).permutation(ROWS)}
    for name, order in orders.items():
        doc = explicit_doc(scenario, order)
        for workers in (1, 2):
            assert outputs(doc, tmp_path, f"{name}-{workers}", workers) == expected, (name, workers)
