"""The process-wide stream cache of `regions`.

Pipelines on one Gaussian stream share one sampled stream, whose column
store holds the Column of the last r1 read, so `simulate` at that r1 reuses
its search. Neither may change an output: `region`, `point` and `simulate`
interleaved in one process give the bytes of fresh processes. A change of
any input the stream depends on samples it again, only one stream is held,
and the cached arrays are read-only.
"""

import json
import os
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest

from miso_outage import channel, cli, regions
from miso_outage.channel import COVARIANCE_KEYS, ChannelStatistics, SampleSource
from miso_outage.cli import SCENARIOS
from miso_outage.outage_mc import estimate_case_probs, simulate_policy
from miso_outage.presets import demo_config
from miso_outage.regions import GridConfig, InstantaneousRegionPipeline, OutageSpec

from conftest import realizations
from oracles import exact_column

ROOT = Path(__file__).resolve().parents[1]
NOISE = (0.5, 0.5)
INST_SCENARIOS = [name for name, (_, variants) in SCENARIOS.items() if variants is not None]
SEEDS = (0, 7, 42)
WORKERS = (1, 2)
# The queries of each seed: a point, simulate at its r1 (the column search is
# reused) and at another r1 (it is not).
QUERIES = (
    ("point", "0.9", "0.8"),
    ("simulate", "0.9", "0.8", "0.3"),
    ("simulate", "1.2", "0.4", "0.7", "--coin-seed", "5"),
    ("simulate", "0.9", "0.8", "0.95"),
)

# Runs each command in a forked child of a process that has only imported the
# package: every command starts, as a fresh CLI process does, with no stream.
COLD_RUNNER = textwrap.dedent("""
    import json, os, sys
    from miso_outage import cli

    for argv, stdout_path in json.loads(sys.argv[1]):
        pid = os.fork()
        if pid == 0:
            rc = 1
            try:
                fd = os.open(stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
                os.dup2(fd, 1)
                os.dup2(os.open(os.devnull, os.O_WRONLY), 2)
                rc = cli.main(argv)
                sys.stdout.flush()
            finally:
                os._exit(rc)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status != 0:
            sys.exit(f"{argv} exited {status}")
""")


def config_path(root: Path, scenario: str, seed: int) -> str:
    path = root / f"{scenario}-{seed}.json"
    if not path.exists():
        path.write_text(json.dumps(demo_config(scenario, mc_samples=1000, seed=seed, n_grid=6)))
    return str(path)


def region_argv(config: str, out: Path, workers: int) -> list:
    return ["region", config, "--out", str(out), "--workers", str(workers)]


def outputs(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """Fresh-process stdout (and region files) of every command, by
    (scenario, seed, command)."""
    root = tmp_path_factory.mktemp("cold")
    jobs, results = [], {}
    for scenario in INST_SCENARIOS:
        for seed in SEEDS:
            config = config_path(root, scenario, seed)
            commands = [(f"region{w}", region_argv(config, root / f"{scenario}-{seed}-{w}", w))
                        for w in WORKERS]
            commands += [(" ".join(q), [q[0], config, *q[1:]]) for q in QUERIES]
            for name, argv in commands:
                stdout = root / f"{scenario}-{seed}-{len(jobs)}.out"
                jobs.append((argv, str(stdout)))
                results[scenario, seed, name] = (stdout, argv)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", COLD_RUNNER, json.dumps(jobs)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return {
        key: (stdout.read_text(),
              outputs(Path(argv[3])) if argv[0] == "region" else None)
        for key, (stdout, argv) in results.items()
    }


@pytest.mark.parametrize("scenario", INST_SCENARIOS)
def test_warm_runs_equal_fresh_processes(cold, tmp_path, capsys, scenario):
    """region at 1 and 2 workers, point and simulate, interleaved over three
    seeds in this process (each seed's stream is sampled twice, the second
    time after the other seeds replaced it), give the fresh-process bytes."""
    for workers in WORKERS:
        for seed in SEEDS:
            config = config_path(tmp_path, scenario, seed)
            for i, query in enumerate(QUERIES):
                assert cli.main([query[0], config, *query[1:]]) == 0
                assert capsys.readouterr().out == cold[scenario, seed, " ".join(query)][0]
                if i == 1:
                    out = tmp_path / f"region-{seed}-{workers}"
                    assert cli.main(region_argv(config, out, workers)) == 0
                    stdout, files = cold[scenario, seed, f"region{workers}"]
                    assert capsys.readouterr().out == stdout
                    assert outputs(out) == files


def count_samples(monkeypatch) -> list:
    """Log of the (seed, start, stop) of every Gaussian sampling call."""
    calls = []
    sample = channel.gaussian_sample_arrays

    def logged(stats, seed, start, stop):
        calls.append((seed, start, stop))
        return sample(stats, seed, start, stop)

    monkeypatch.setattr(channel, "gaussian_sample_arrays", logged)
    return calls


def with_entry(stats: ChannelStatistics, key: str, i: int, j: int) -> ChannelStatistics:
    """stats with entry (i, j) of covariance key one ulp larger (and its
    mirror, so it stays Hermitian)."""
    Q = stats.covariance(key).copy()
    Q[i, j] = np.nextafter(Q[i, j].real, np.inf) + 1j * Q[i, j].imag
    Q[j, i] = np.conj(Q[i, j])
    fields = {k: stats.covariance(k) for k in COVARIANCE_KEYS}
    fields[key] = Q
    return ChannelStatistics(stats.n, **fields, sigma1_sq=stats.sigma1_sq,
                             sigma2_sq=stats.sigma2_sq)


def test_changed_input_samples_the_stream_again(demo_stats, monkeypatch):
    calls = count_samples(monkeypatch)
    base = SampleSource.gaussian(demo_stats, seed=7, count=500)
    first = InstantaneousRegionPipeline(base, NOISE)
    same = InstantaneousRegionPipeline(SampleSource.gaussian(demo_stats, seed=7, count=500),
                                       NOISE)
    assert len(calls) == 1
    assert same.F1 is first.F1 and same.su2 is first.su2

    changed = {
        "seed": (SampleSource.gaussian(demo_stats, seed=8, count=500), NOISE),
        "count": (SampleSource.gaussian(demo_stats, seed=7, count=501), NOISE),
        "covariance entry": (
            SampleSource.gaussian(with_entry(demo_stats, "Q12", 0, 1), seed=7, count=500), NOISE),
        "noise": (base, (0.5, np.nextafter(0.5, 1.0))),
    }
    for name, (source, noise) in changed.items():
        held = InstantaneousRegionPipeline(base, NOISE)  # the cached stream is base's
        before = len(calls)
        pipeline = InstantaneousRegionPipeline(source, noise)
        assert len(calls) == before + 1, name
        fresh = regions._sample_stream(source, regions.as_noise(noise))
        for got, want in ((pipeline.F1, fresh.F1), (pipeline.F2, fresh.F2)):
            for field, array in vars(want).items():
                np.testing.assert_array_equal(getattr(got, field), array, err_msg=name)
        np.testing.assert_array_equal(pipeline.su1, fresh.su1, err_msg=name)
        np.testing.assert_array_equal(pipeline.su2, fresh.su2, err_msg=name)
        # base's stream was replaced, not kept beside the new one.
        assert InstantaneousRegionPipeline(base, NOISE).F1 is not held.F1, name


def test_only_one_stream_is_held(demo_stats, monkeypatch):
    """Once its pipelines are gone, a replaced stream is freed, and it is
    let go before the new stream is sampled."""
    first = InstantaneousRegionPipeline(SampleSource.gaussian(demo_stats, seed=1, count=300),
                                        NOISE)
    stream = weakref.ref(first._stream)
    del first
    assert stream() is not None
    held_while_sampling = []
    sample = channel.gaussian_sample_arrays

    def logged(*args):
        held_while_sampling.append(stream() is not None)
        return sample(*args)

    monkeypatch.setattr(channel, "gaussian_sample_arrays", logged)
    second = weakref.ref(InstantaneousRegionPipeline(
        SampleSource.gaussian(demo_stats, seed=2, count=300), NOISE)._stream)
    assert held_while_sampling == [False]
    assert stream() is None
    assert second() is not None
    regions.clear_stream_cache()
    assert second() is None


def test_explicit_sources_are_not_cached(demo_source, monkeypatch):
    source = SampleSource.explicit(realizations(demo_source, 0, 50))
    built = []
    arrays = SampleSource.arrays

    def logged(self, *args):
        built.append(self)
        return arrays(self, *args)

    monkeypatch.setattr(SampleSource, "arrays", logged)
    first = InstantaneousRegionPipeline(source, NOISE)
    second = InstantaneousRegionPipeline(source, NOISE)
    assert len(built) == 2
    assert first.F1 is not second.F1
    streams = [weakref.ref(first._stream), weakref.ref(second._stream)]
    del first, second
    assert [stream() for stream in streams] == [None, None]


def held_stream(source: SampleSource) -> regions._Stream:
    """The stream the process holds for source, read as a pipeline reads it."""
    return InstantaneousRegionPipeline(source, NOISE)._stream


def test_simulate_reuses_the_column_search_of_point(demo_source, monkeypatch):
    """One search and one witness computation for a point and three simulate
    calls at its r1; the held column is let go before the next search runs,
    and the store holds one column after each call."""
    searches, witnesses = [], []
    search, qmin, rates = (regions.max_r2_batch, regions.frontier_qmin_batch,
                           regions.witness_rates_batch)

    def logged_search(F1, F2, gamma1, noise, exceed1):
        searches.append(held_stream(demo_source).columns._entry)
        return search(F1, F2, gamma1, noise, exceed1)

    def logged_qmin(*args):
        witnesses.append("q1")
        return qmin(*args)

    def logged_rates(*args):
        witnesses.append("rates")
        return rates(*args)

    monkeypatch.setattr(regions, "max_r2_batch", logged_search)
    monkeypatch.setattr(regions, "frontier_qmin_batch", logged_qmin)
    monkeypatch.setattr(regions, "witness_rates_batch", logged_rates)
    estimate_case_probs(demo_source, (0.9, 0.8), NOISE)
    for bias in (0.2, 0.5, 0.8):
        simulate_policy(demo_source, (0.9, 0.8), bias, NOISE)
    assert len(searches) == 1
    assert witnesses == ["q1", "rates"]
    simulate_policy(demo_source, (1.1, 0.8), 0.5, NOISE)
    simulate_policy(demo_source, (0.9, 0.8), 0.5, NOISE)
    assert searches == [None] * 3
    assert witnesses == ["q1", "rates"] * 3
    assert held_stream(demo_source).columns._entry[0] == 0.9


def test_precomputed_columns_are_the_exact_columns(demo_source):
    """precompute_columns is column over its list: every r1's exact column,
    in order and repeats included, bit for bit oracles.exact_column's values,
    and the held Column's maximizers q2 are exact_column's too; the store
    then holds the last r1's Column, whose values column returns.
    trace_variants empties the store."""
    pipeline = InstantaneousRegionPipeline(demo_source, NOISE)
    r1_values = [0.6, 1.2, 0.6, 0.3]
    columns = pipeline.precompute_columns(r1_values)
    store = pipeline._stream.columns
    assert store._entry[0] == 0.3 and pipeline.column(0.3) is columns[-1]
    for r1, column in zip(r1_values, columns):
        exact = exact_column(pipeline, r1)
        assert column.tobytes() == exact.values.tobytes()
        assert pipeline.column(r1) is store._entry[1].values
        assert store._entry[1].q2.tobytes() == exact.q2.tobytes()
    grid = GridConfig(r1_cap=1.0, r2_cap=1.0, n_points=3)
    pipeline.trace_variants(OutageSpec.individual(0.1, 0.1), grid, ("plain", "fixed1"))
    assert store._entry is None


def test_traced_precompute_records_its_span():
    """perfbench/tracer.py's record of precompute_columns reads its r1_values
    and workers arguments, so a traced call returns and leaves one
    regions.precompute span with the count requested. Run in a subprocess to
    keep the tracer's patches out of this process."""
    code = textwrap.dedent("""
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        from miso_outage.channel import SampleSource
        from miso_outage.presets import demo_statistics
        from miso_outage.regions import InstantaneousRegionPipeline
        source = SampleSource.gaussian(demo_statistics(), seed=7, count=300)
        InstantaneousRegionPipeline(source, (0.5, 0.5)).precompute_columns([0.3, 0.6])
        (span,) = [s for s in tracer.spans if s["name"] == "regions.precompute"]
        print(span["attrs"]["requested"])
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["2"]


def test_cached_arrays_are_read_only(demo_source):
    pipeline = InstantaneousRegionPipeline(demo_source, NOISE)
    values = pipeline.column(0.7)
    r1, column = pipeline._stream.columns._entry
    assert r1 == 0.7 and values is column.values
    arrays = [*vars(pipeline.F1).values(), *vars(pipeline.F2).values(),
              pipeline.su1, pipeline.su2, column.values, column.q2, column.exceed1]
    assert len(arrays) == 25
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]
        with pytest.raises(ValueError, match="read-only"):
            np.negative(array, out=array)
