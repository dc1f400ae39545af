"""Power-scale invariance of every command.

Every outage quantity depends on the statistics only through the SINRs,
that is through Q_ij / sigma_i^2. Scaling the four covariances and both
noise powers by 4^k is exact in binary, so a run-config scaled that way must
print and write the bytes of the unscaled one: the same `point` and
`simulate` reports, the same region CSVs, and a manifest that differs only in
its `config` echo. A covariance test with an absolute tolerance breaks this:
at 4^-20 (powers in watts, ~1e-12) it took every eigenvalue for zero and
sampled zero channels, and at 4^14 it rejected the factorization residual.
So did a vanished-cross-channel test with an absolute threshold: from 4^-48
it dropped weak cross channels, and their interference with them.

Far enough up, products of powers overflow floating point. A command there
must exit 1 with an error that names the power scale, never print counts
other than the unscaled ones.
"""

import json
import warnings

import numpy as np
import pytest

from miso_outage.cli import main
from miso_outage.presets import demo_config

SCALES = (-150, -60, -40, -20, -5, 5, 14, 40)
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


# What a command prints when it refuses an overflowing power scale.
REFUSAL = ("at this power scale", "Q_ij / sigma_i^2")


def run(argv, capsys, may_refuse: bool = False) -> str | None:
    """stdout of a command that exits 0, or, with may_refuse, None for one
    that exits 1 naming the power scale."""
    code = main(argv)
    captured = capsys.readouterr()
    if may_refuse and code == 1:
        assert all(part in captured.err for part in REFUSAL), captured.err
        return None
    assert code == 0, (argv, captured.err)
    return captured.out


def outputs(tmp_path, capsys, doc: dict, k: int, may_refuse: bool = False) -> dict:
    """stdout of point (and simulate), the region's files and its manifest
    without the config echo, for doc scaled by 4^k. With may_refuse, a
    command that refuses the scale gives None, and a refused region no
    files."""
    doc_k = scaled(doc, k)
    path = tmp_path / f"config{k}.json"
    path.write_text(json.dumps(doc_k))
    out = tmp_path / f"out{k}"
    result = {"point": run(["point", str(path), *POINT], capsys, may_refuse)}
    if "grid" in doc:
        for bias in ("0", "0.5"):
            result[f"simulate {bias}"] = run(["simulate", str(path), *POINT, bias], capsys,
                                             may_refuse)
    if run(["region", str(path), "--out", str(out)], capsys, may_refuse) is None:
        assert not out.exists()
        return result
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


@pytest.mark.parametrize("k", [205, 300])
def test_overflowing_power_scales_are_exact_or_refused(tmp_path, capsys, k):
    """At 4^205 the column search's derivative overflowed and point counted
    B 1886 of 1931, at 4^300 the frontiers' |b^H a|^2 did and it counted
    B 0, both with exit 0. Each command prints the unscaled bytes or exits 1
    naming the power scale."""
    doc = demo_config("individual-inst", mc_samples=2000, n_grid=8)
    reference = outputs(tmp_path, capsys, doc, 0)
    got = outputs(tmp_path, capsys, doc, k, may_refuse=True)
    for name, value in got.items():
        assert value is None or value == reference[name], (name, k)


def frontier_dump(tmp_path, capsys, doc: dict, k: int) -> int | dict:
    """The frontier dump for doc scaled by 4^k, or the exit code of a
    command that fails, with every warning it raised recorded."""
    path = tmp_path / f"frontier{k}.json"
    path.write_text(json.dumps(scaled(doc, k)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["frontier", str(path)])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught
    captured = capsys.readouterr()
    if code != 0:
        assert all(part in captured.err for part in REFUSAL), captured.err
        return code
    return json.loads(captured.out)


def test_frontier_dump_scales_with_the_powers(tmp_path, capsys):
    """frontier prints powers and amplitudes, not SINRs: scaled by 4^k,
    p_max, q_mrt and the curve are 4^k times the unit ones and the
    amplitudes 2^k times, bit for bit."""
    doc = demo_config("individual-inst", mc_samples=2000, n_grid=8)
    unit = frontier_dump(tmp_path, capsys, doc, 0)
    for k in (*SCALES, 204):
        power, amplitude = 4.0**k, 2.0**k
        expect = dict(unit)
        for tx in ("tx1", "tx2"):
            dump = unit[tx]
            expect[tx] = {
                "p_max": power * dump["p_max"],
                "q_mrt": power * dump["q_mrt"],
                "aligned_amplitude": amplitude * dump["aligned_amplitude"],
                "orthogonal_amplitude": amplitude * dump["orthogonal_amplitude"],
                "degenerate": dump["degenerate"],
                "curve": [[power * q, power * p] for q, p in dump["curve"]],
            }
        assert frontier_dump(tmp_path, capsys, doc, k) == expect, k


def test_frontier_refuses_an_overflowing_power_scale(tmp_path, capsys):
    """At 4^300 the frontiers' |b^H a|^2 overflowed: frontier printed
    RuntimeWarnings and failed on a NaN in the JSON dump. It exits 1
    naming the power scale, with no warning."""
    doc = demo_config("individual-inst", mc_samples=2000, n_grid=8)
    assert frontier_dump(tmp_path, capsys, doc, 300) == 1


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
