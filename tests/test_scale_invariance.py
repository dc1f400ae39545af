"""Power-scale invariance of every command.

Every outage quantity depends on the statistics only through the SINRs,
that is through Q_ij / sigma_i^2. Scaling the four covariances and both
noise powers by 4^k is exact in binary, so a run-config scaled that way must
print and write the bytes of the unscaled one: the same `point` and
`simulate` reports, the same region CSVs, and a manifest that differs only in
its `config` echo. A covariance test with an absolute tolerance breaks this:
at 4^-20 (powers in watts, ~1e-12) it took every eigenvalue for zero and
sampled zero channels, and at 4^14 it rejected the factorization residual.
"""

import json

import numpy as np
import pytest

from miso_outage.cli import main
from miso_outage.presets import demo_config

SCALES = (-40, -20, -5, 5, 14, 40)
POINT = ["0.9", "0.8"]


def scaled(doc: dict, k: int) -> dict:
    """doc with its covariances and noise powers multiplied by 4^k."""
    c = 4.0**k
    doc = dict(doc)
    doc["covariances"] = {
        key: [[[c * x for x in z] for z in row] for row in Q]
        for key, Q in doc["covariances"].items()
    }
    doc["noise"] = [c * x for x in doc["noise"]]
    return doc


def run(argv, capsys) -> str:
    assert main(argv) == 0, (argv, capsys.readouterr().err)
    return capsys.readouterr().out


def outputs(tmp_path, capsys, doc: dict, k: int) -> dict:
    """stdout of point (and simulate), the region's files and its manifest
    without the config echo, for doc scaled by 4^k."""
    doc_k = scaled(doc, k)
    path = tmp_path / f"config{k}.json"
    path.write_text(json.dumps(doc_k))
    out = tmp_path / f"out{k}"
    result = {"point": run(["point", str(path), *POINT], capsys)}
    if "grid" in doc:
        for bias in ("0", "0.5"):
            result[f"simulate {bias}"] = run(["simulate", str(path), *POINT, bias], capsys)
    run(["region", str(path), "--out", str(out)], capsys)
    for f in sorted(out.iterdir()):
        if f.name.endswith("_manifest.json"):
            manifest = json.loads(f.read_text())
            config = manifest.pop("config")
            assert (config["covariances"], config["noise"]) == (
                doc_k["covariances"], doc_k["noise"])
            result[f.name] = manifest
        else:
            result[f.name] = f.read_bytes()
    return result


@pytest.mark.parametrize("scenario, options", [
    ("individual-inst", {"mc_samples": 2000, "n_grid": 8}),
    ("common-stat", {"n_pairs": 16}),
    ("individual-stat", {"n_pairs": 16}),
])
def test_outputs_are_power_scale_free(tmp_path, capsys, scenario, options):
    doc = demo_config(scenario, **options)
    reference = outputs(tmp_path, capsys, doc, 0)
    if scenario == "individual-inst":
        assert {"individual-inst_fixed1.csv", "individual-inst_fixed2.csv"} <= set(reference)
        assert json.loads(reference["point"])["case_probabilities"]["counts"]["b"] > 0
    for k in SCALES:
        assert outputs(tmp_path, capsys, doc, k) == reference, k


@pytest.mark.parametrize("case", ["demo x 4^14", "rank-1 x 1e6"])
def test_a_valid_config_is_one_the_sampler_can_factor(tmp_path, capsys, case):
    """validate, point and region go through one covariance decision: a
    config that validates raises no covariance error in point or region."""
    doc = demo_config("individual-inst", mc_samples=1000, n_grid=6)
    if case == "demo x 4^14":
        doc = scaled(doc, 14)
    else:
        rng = np.random.default_rng(23)
        for key in doc["covariances"]:
            u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            Q = 1e6 * np.outer(u, u.conj())
            doc["covariances"][key] = [[[z.real, z.imag] for z in row] for row in Q]
        doc["noise"] = [5e5, 5e5]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert json.loads(run(["validate", str(path)], capsys))["ok"]
    run(["point", str(path), *POINT], capsys)
    run(["region", str(path), "--out", str(tmp_path / "out")], capsys)
