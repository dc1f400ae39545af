import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import miso_outage
from miso_outage.cli import (
    ConfigError,
    main,
    parse_config,
    run_point,
    run_region,
    run_validate,
)
from miso_outage.presets import demo_config
from miso_outage.rate_core import power_frontier

from conftest import aligned_point_mass_config

STAT_HEADER = "r1,r2,pi1,pi2,pair_index"


def parse_doc(doc):
    return parse_config(json.dumps(doc))


def small_inst_config(scenario="individual-inst", **overrides):
    doc = demo_config(scenario, mc_samples=1500, seed=4, n_grid=8)
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def error_path(doc) -> str:
    with pytest.raises(ConfigError) as err:
        parse_doc(doc)
    return err.value.path


class TestParseErrors:
    def test_invalid_json(self):
        with pytest.raises(ConfigError) as err:
            parse_config("{not json")
        assert err.value.path == "<document>"

    def test_unknown_top_level_field(self):
        doc = small_inst_config()
        doc["extra"] = 1
        assert error_path(doc) == "extra"

    def test_bad_scenario(self):
        assert error_path(small_inst_config(scenario="both-inst")) == "scenario"

    def test_missing_epsilon(self):
        doc = small_inst_config()
        del doc["epsilon"]
        assert error_path(doc) == "epsilon"

    def test_epsilon_shape_by_scenario(self):
        assert error_path(small_inst_config(epsilon=0.1)) == "epsilon"
        doc = demo_config("common-inst", mc_samples=100, seed=0)
        doc["epsilon"] = [0.1, 0.1]
        assert error_path(doc) == "epsilon"

    def test_epsilon_range(self):
        assert error_path(small_inst_config(epsilon=[0.0, 0.5])) == "epsilon[0]"
        assert error_path(small_inst_config(epsilon=[0.5, 1.0])) == "epsilon[1]"

    def test_noise_validation(self):
        assert error_path(small_inst_config(noise=[0.5])) == "noise"
        assert error_path(small_inst_config(noise=[-1.0, 0.5])) == "noise[0]"

    def test_mc_samples_validation(self):
        assert error_path(small_inst_config(mc_samples=0)) == "mc_samples"
        assert error_path(small_inst_config(mc_samples=2.5)) == "mc_samples"
        doc = small_inst_config()
        del doc["mc_samples"]
        assert error_path(doc) == "mc_samples"

    def test_seed_rejects_bool(self):
        assert error_path(small_inst_config(seed=True)) == "seed"

    def test_both_sources_rejected(self):
        doc = small_inst_config()
        doc["channels"] = aligned_point_mass_config()["channels"]
        assert error_path(doc) == "covariances"

    def test_neither_source_rejected(self):
        doc = small_inst_config()
        del doc["covariances"]
        assert error_path(doc) == "covariances"

    def test_channels_forbidden_for_stat(self):
        doc = aligned_point_mass_config()
        doc["scenario"] = "individual-stat"
        doc["search"] = {"n_pairs": 4}
        assert error_path(doc) == "channels"

    def test_mc_samples_forbidden_with_channels(self):
        doc = aligned_point_mass_config()
        doc["mc_samples"] = 100
        assert error_path(doc) == "mc_samples"

    def test_channel_vector_length(self):
        doc = aligned_point_mass_config()
        doc["channels"][0]["h12"] = [[1.0, 0.0]]
        assert error_path(doc) == "channels[0].h12"

    def test_bad_complex_entry(self):
        doc = small_inst_config()
        doc["covariances"]["Q11"][0][1] = [1.0]
        assert error_path(doc) == "covariances.Q11[0][1]"

    def test_non_hermitian_covariance(self):
        doc = small_inst_config()
        doc["covariances"]["Q11"][0][1] = [9.0, 0.0]
        assert error_path(doc) == "covariances"

    def test_grid_forbidden_for_stat(self):
        doc = demo_config("common-stat", n_pairs=4)
        doc["grid"] = {"n_points": 10}
        assert error_path(doc) == "grid"

    def test_search_required_for_stat(self):
        doc = demo_config("common-stat", n_pairs=4)
        del doc["search"]
        assert error_path(doc) == "search"

    def test_search_forbidden_for_inst(self):
        doc = small_inst_config()
        doc["search"] = {"n_pairs": 4}
        assert error_path(doc) == "search"

    def test_search_unknown_field(self):
        doc = demo_config("common-stat", n_pairs=4)
        doc["search"]["budget"] = 3
        assert error_path(doc) == "search.budget"

    def test_output_basename(self):
        doc = small_inst_config(output={"basename": ""})
        assert error_path(doc) == "output.basename"


class TestRoundTrip:
    @pytest.mark.parametrize(
        "scenario", ["common-inst", "individual-inst", "common-stat", "individual-stat"]
    )
    def test_document_is_canonical(self, scenario):
        doc = demo_config(scenario, mc_samples=500, seed=1, n_grid=6, n_pairs=4)
        config = parse_doc(doc)
        echoed = config.to_document()
        expected = {**doc, "output": {"basename": scenario}}
        if "search" in expected:
            expected["search"] = {**expected["search"], "curve_points": 65}
        assert echoed == expected
        assert parse_doc(echoed).to_document() == echoed

    def test_explicit_channels_round_trip(self):
        doc = aligned_point_mass_config()
        echoed = parse_doc(doc).to_document()
        assert echoed["channels"] == doc["channels"]
        assert "mc_samples" not in echoed


class TestPointReport:
    def test_aligned_point_mass(self):
        """One aligned realization at rates past the joint boundary: serving
        either link alone works, serving both does not, so everything is case
        D and only the coin matters. With eps = (0.6, 0.5) biases in
        [0.4, 0.5] work."""
        config = parse_doc(aligned_point_mass_config())
        report = run_point(config, 1.0, 1.0)
        est = report["case_probabilities"]["estimates"]
        assert est["p_d"] == 1.0
        assert est["p_b"] == 0.0
        verdict = report["memberships"]["individual-inst"]
        assert verdict["member"] is True
        assert verdict["margin3"] == pytest.approx(0.1)
        assert report["bias_interval"] == {
            "lo": pytest.approx(0.4),
            "hi": pytest.approx(0.5),
            "nonempty": True,
        }
        assert report["memberships"]["individual-inst-fixed1"]["member"] is False
        assert report["memberships"]["individual-inst-fixed2"]["member"] is False
        assert "common-inst" not in report["memberships"]  # unequal tolerances

    def test_common_membership_present_for_equal_eps(self):
        config = parse_doc(small_inst_config())
        report = run_point(config, 0.2, 0.2)
        assert "common-inst" in report["memberships"]
        assert "stat_memberships" not in report

    def test_stat_memberships_for_stat_scenario(self):
        # equal per-link tolerances, so the common verdict applies as well
        for scenario in ("individual-stat", "common-stat"):
            config = parse_doc(demo_config(scenario, n_pairs=6))
            report = run_point(config, 0.2, 0.2)
            assert set(report["stat_memberships"]) == {
                "individual-stat",
                "common-stat",
            }


class TestMain:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, small_inst_config())
        assert main(["validate", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["count"] == 1500

    def test_validate_reports_source_kind(self):
        assert run_validate(parse_doc(aligned_point_mass_config()))["source"] == "explicit"

    def test_config_error_exit_code(self, tmp_path, capsys):
        doc = small_inst_config()
        doc["bad"] = 1
        path = write_config(tmp_path, doc)
        assert main(["validate", path]) == 2
        assert "config error: bad" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [[], ["0.9", "0.8"], ["0.9", "0.8", "0.5"]],
                             ids=["validate", "point", "simulate"])
    def test_warm_command_validates_statistics_once(self, tmp_path, capsys, monkeypatch, args):
        """A command run again in one process (its stream already sampled)
        checks the four covariances once: four eigvalsh calls."""
        command = {0: "validate", 2: "point", 3: "simulate"}[len(args)]
        argv = [command, write_config(tmp_path, small_inst_config()), *args]
        assert main(argv) == 0
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *rest, **kwargs):
            calls.append(1)
            return eigvalsh(a, *rest, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert main(argv) == 0
        assert len(calls) == 4
        capsys.readouterr()

    def test_bad_statistics_and_seed_keep_their_messages(self, tmp_path, capsys):
        """An indefinite covariance is a config error (exit 2); a seed of
        2**128 is an error of the stream (exit 1)."""
        doc = small_inst_config()
        doc["covariances"]["Q11"][0][0] = [-1.0, 0.0]
        assert main(["validate", write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: covariances: Q11: not positive semidefinite")
        path = write_config(tmp_path, small_inst_config(seed=2**128))
        assert main(["point", path, "0.9", "0.8"]) == 1
        assert capsys.readouterr().err == (
            f"error: seed must lie in [0, 2**128), got {2**128}\n")

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_point_output_is_json(self, tmp_path, capsys):
        path = write_config(tmp_path, small_inst_config())
        assert main(["point", path, "0.3", "0.3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["point"] == [0.3, 0.3]
        total = sum(report["case_probabilities"]["counts"].values())
        assert total == 1500

    def test_simulate(self, tmp_path, capsys):
        path = write_config(tmp_path, small_inst_config())
        assert main(["simulate", path, "0.4", "0.4", "0.5", "--coin-seed", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_samples"] == 1500
        assert report["coin_seed"] == 3
        usage = report["case_usage"]
        assert sum(usage.values()) == 1500

    def test_frontier(self, tmp_path, capsys):
        path = write_config(tmp_path, small_inst_config())
        assert main(["frontier", path, "--index", "2", "--points", "9"]) == 0
        report = json.loads(capsys.readouterr().out)
        for tx in ("tx1", "tx2"):
            curve = report[tx]["curve"]
            assert len(curve) == 9
            p = [pt[1] for pt in curve]
            assert all(b >= a - 1e-12 for a, b in zip(p, p[1:]))
            assert p[-1] == pytest.approx(report[tx]["p_max"], abs=1e-9)

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_region_rejects_worker_count_below_one(self, tmp_path, capsys, workers):
        path = write_config(tmp_path, small_inst_config())
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["region", path, "--out", str(out), "--workers", workers])
        assert exc.value.code != 0
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        """The parser is built once per process; a rejected command line
        leaves it as it was for the next call, defaults included."""
        from miso_outage import cli

        path = write_config(tmp_path, small_inst_config())
        assert cli._parser() is cli._parser()
        with pytest.raises(SystemExit) as exc:
            main(["simulate", path, "0.4", "0.4", "0.5", "--coin-seed", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        for extra, seed in ((["--coin-seed", "3"], 3), ([], 0)):
            assert main(["simulate", path, "0.4", "0.4", "0.5", *extra]) == 0
            assert json.loads(capsys.readouterr().out)["coin_seed"] == seed
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == miso_outage.__version__

    def test_region_rejects_rate_caps_that_overflow(self, tmp_path, capsys):
        """Noise so small that the single-user rate caps pass 1024 bits, where
        2^r - 1 overflows: an error naming the cap and the noise, no artifact."""
        path = write_config(tmp_path, small_inst_config(noise=[1e-300, 1e-300]))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["region", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "r1_cap" in err and "1024 bits" in err and "[1e-300, 1e-300]" in err
        assert not out.exists()

    def test_region_at_tiny_noise_below_the_cap_limit(self, tmp_path):
        """Noise 1e-300 with r1_cap = r2_cap = 1000 bits: gamma1 reaches about
        2^1000, past where Dekker's split overflows, and the column search's
        derivative values overflow their product. region exits 0 with no
        RuntimeWarning, and where both transmitters zero-force the region
        holds (857, 992) bits."""
        doc = small_inst_config(noise=[1e-300, 1e-300])
        doc["grid"] = {"n_points": 8, "r1_cap": 1000.0, "r2_cap": 1000.0}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["region", write_config(tmp_path, doc), "--out", str(out)]) == 0
        lines = (out / "individual-inst_boundary.csv").read_text().splitlines()[1:]
        points = [tuple(float(v) for v in line.split(",")[:2]) for line in lines]
        assert any(r1 > 850.0 and r2 > 990.0 for r1, r2 in points), points

    @pytest.mark.parametrize("scenario", ["individual-stat", "common-stat"])
    def test_stat_region_at_tiny_noise(self, tmp_path, capsys, scenario):
        """Without interference the statistical rates are
        log2(1 - s_bar ln 0.9 / sigma^2): 994-995 bits at noise 1e-300, not
        the 200 bits of a capped bracket. At noise 5e-324 they pass the float
        range: an error naming the noise, exit 1, no artifact."""
        doc = demo_config(scenario, n_pairs=4)
        doc["covariances"]["Q12"] = doc["covariances"]["Q21"] = [[[0.0, 0.0]] * 2] * 2
        doc["noise"] = [1e-300, 1e-300]
        out = tmp_path / "out"
        assert main(["region", write_config(tmp_path, doc), "--out", str(out)]) == 0
        (csv,) = out.glob("*_boundary.csv")
        rows = [[float(v) for v in line.split(",")] for line in csv.read_text().splitlines()[1:]]
        assert rows
        for col in (0, 1):
            assert 994.0 < max(row[col] for row in rows) < 996.0
        if scenario == "individual-stat":
            assert all(994.0 < row[col] < 996.0 for row in rows for col in (0, 1))
        capsys.readouterr()
        doc["noise"] = [5e-324, 5e-324]
        out = tmp_path / "out-tiny"
        assert main(["region", write_config(tmp_path, doc), "--out", str(out)]) == 1
        assert "noise power 5e-324" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["region", "--out"], ["point", "0.5", "0.5"],
                                         ["simulate", "0.5", "0.5", "0.5"]])
    def test_inst_commands_at_subnormal_noise(self, tmp_path, capsys, command):
        """Noise 5e-324: ||h11||^2 / sigma1^2 overflows, so every single-user
        rate is infinite. One error names the noise and the infinite rates,
        with no RuntimeWarning and no artifact."""
        path = write_config(tmp_path, small_inst_config(noise=[5e-324, 5e-324]))
        out = tmp_path / "out"
        argv = [command[0], path, *command[1:]] + ([str(out)] if command[0] == "region" else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "noise [5e-324, 5e-324]" in err
        assert "single-user rate is infinite in 1500 of 1500 realizations" in err
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["individual-stat", "common-stat"])
    def test_stat_commands_when_noise_dwarfs_the_signal(self, tmp_path, capsys, scenario):
        """Noise 1e300 over the demo covariances scaled by 1e-10: the success
        exponent overflows to -inf, which is the exact success 0. region and
        point exit 0 without a RuntimeWarning, which this suite raises."""
        doc = demo_config(scenario)
        doc["noise"] = [1e300, 1e300]
        doc["covariances"] = {
            key: [[[x * 1e-10 for x in z] for z in row] for row in Q]
            for key, Q in doc["covariances"].items()
        }
        path = write_config(tmp_path, doc)
        assert main(["region", path, "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert main(["point", path, "0.5", "0.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert not any(report["stat_memberships"].values())

    @pytest.mark.parametrize("link", [1, 2])
    def test_region_rejects_a_zero_signal_link(self, tmp_path, capsys, link):
        """A zero direct-channel covariance makes that link's single-user rate
        quantile, and so its rate cap, 0: an error naming both, no artifact."""
        doc = small_inst_config()
        doc["covariances"][f"Q{link}{link}"] = [[[0.0, 0.0]] * 2] * 2
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["region", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"r{link}_cap = 0 bits" in err
        assert f"0.1-quantile of link {link}'s single-user rate is 0" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["frontier", "--points", "0"],
            ["frontier", "--points", "-3"],
            ["simulate", "0.4", "0.4", "0.5", "--coin-seed", "-1"],
        ],
    )
    def test_integer_flags_below_their_minimum_are_rejected(self, tmp_path, capsys, args):
        path = write_config(tmp_path, small_inst_config())
        with pytest.raises(SystemExit) as exc:
            main([args[0], path, *args[1:]])
        assert exc.value.code == 2
        flag = next(a for a in args if a.startswith("--"))
        assert flag in capsys.readouterr().err

    def test_frontier_reads_row_k_of_the_full_stream(self, tmp_path, capsys):
        """frontier --index k samples only realization k; its dump equals the
        one built from row k of the whole stream (long enough to be filled by
        several threads)."""
        doc = small_inst_config(mc_samples=9000)
        path = write_config(tmp_path, doc)
        assert main(["frontier", path, "--index", "8765", "--points", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        arrs = parse_doc(doc).source.arrays()
        assert report["n_samples"] == len(arrs["h11"])
        for tx, own, cross in (("tx1", "h11", "h12"), ("tx2", "h22", "h21")):
            fr = power_frontier(arrs[own][8765], arrs[cross][8765])
            got = report[tx]
            assert (got["p_max"], got["q_mrt"]) == (fr.p_max, fr.q_mrt)
            assert (got["aligned_amplitude"], got["orthogonal_amplitude"]) == (fr.c, fr.d)
            q = np.linspace(0.0, fr.q_mrt, 5)
            assert got["curve"] == [[float(a), float(b)] for a, b in zip(q, fr.signal_power(q))]

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda doc: doc.update(grid={"tol": math.inf}), "grid.tol"),
            (lambda doc: doc.update(grid={"r1_cap": math.nan}), "grid.r1_cap"),
            (lambda doc: doc.update(noise=[math.inf, 0.5]), "noise[0]"),
        ],
    )
    def test_non_finite_config_numbers_are_rejected(self, tmp_path, capsys, edit, field):
        """JSON Infinity and NaN are config errors naming the field; the
        noise case uses explicit channels, which skip the statistics check."""
        doc = aligned_point_mass_config() if field.startswith("noise") else small_inst_config()
        edit(doc)
        path = write_config(tmp_path, doc)
        for command in (["validate", path], ["region", path, "--out", str(tmp_path / "out")]):
            assert main(command) == 2
            assert f"config error: {field}: must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_channel_entry_is_a_config_error(self, tmp_path, capsys):
        doc = aligned_point_mass_config()
        doc["channels"][0]["h12"] = [[1.0, 0.0], [0.0, math.nan]]
        path = write_config(tmp_path, doc)
        assert main(["validate", path]) == 2
        assert "channels[0].h12[1][1]: must be a finite number" in capsys.readouterr().err

    def test_frontier_bad_index(self, tmp_path, capsys):
        path = write_config(tmp_path, aligned_point_mass_config())
        assert main(["frontier", path, "--index", "5"]) == 1
        assert "out of range" in capsys.readouterr().err


class TestRegionCommand:
    def test_individual_inst_outputs(self, tmp_path):
        config = parse_doc(small_inst_config(output={"basename": "demo"}))
        manifest = run_region(config, str(tmp_path / "out"))
        assert set(manifest["outputs"]) == {"boundary", "fixed1", "fixed2"}
        for filename in manifest["outputs"].values():
            text = (tmp_path / "out" / filename).read_text()
            assert text.splitlines()[0].startswith("r1,r2,p_a")
        written = json.loads((tmp_path / "out" / "demo_manifest.json").read_text())
        assert written == manifest
        assert written["config"] == config.to_document()
        assert written["csv_columns"][0] == "r1"

    def test_stat_outputs(self, tmp_path):
        config = parse_doc(demo_config("common-stat", n_pairs=6, basename="stat"))
        manifest = run_region(config, str(tmp_path))
        assert list(manifest["outputs"]) == ["boundary"]
        text = (tmp_path / "stat_boundary.csv").read_text()
        assert text.splitlines()[0] == STAT_HEADER
        assert manifest["boundaries"]["boundary"]["n_points"] > 0

    def test_reruns_byte_identical(self, tmp_path):
        doc = small_inst_config(output={"basename": "rep"})
        run_region(parse_doc(doc), str(tmp_path / "a"))
        run_region(parse_doc(doc), str(tmp_path / "b"))
        for name in ("rep_boundary.csv", "rep_fixed1.csv", "rep_fixed2.csv",
                     "rep_manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_workers_do_not_change_output(self, tmp_path):
        doc = demo_config("common-inst", mc_samples=800, seed=2, n_grid=6,
                          basename="w")
        run_region(parse_doc(doc), str(tmp_path / "serial"), workers=1)
        run_region(parse_doc(doc), str(tmp_path / "pool"), workers=2)
        for name in ("w_boundary.csv", "w_manifest.json"):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "pool" / name
            ).read_bytes(), name

    def test_region_via_main(self, tmp_path, capsys):
        path = write_config(tmp_path, demo_config(
            "individual-inst-fixed2", mc_samples=600, seed=1, n_grid=5,
            basename="fx"))
        out = tmp_path / "out"
        assert main(["region", path, "--out", str(out)]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["scenario"] == "individual-inst-fixed2"
        assert (out / "fx_boundary.csv").exists()
        assert (out / "fx_manifest.json").exists()

    def test_tolerance_below_float_spacing_terminates(self, tmp_path):
        """grid.tol 1e-20 is below the float spacing at the boundary, where
        bisection can no longer halve its bracket. In a subprocess with a
        timeout, so a bisection that never ends fails the test instead of
        hanging the suite."""
        doc = small_inst_config(mc_samples=300, output={"basename": "tiny"})
        doc["grid"]["tol"] = 1e-20
        path = write_config(tmp_path, doc)
        env = dict(os.environ)
        src = str(Path(miso_outage.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "miso_outage.cli", "region", path,
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        manifest = json.loads(done.stdout)
        assert manifest["boundaries"]["boundary"]["n_points"] > 0
