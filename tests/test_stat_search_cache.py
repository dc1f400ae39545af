"""The statistical-CSI search a process holds (`cli.RunConfig.stat_search`).

Commands on one set of statistics and one search block share one search:
its pairs are drawn and its means formed once, and every output equals the
cold run's. A change of any input the search depends on builds it again,
and its arrays are read-only. The swapped-users oracle runs through the
same cache, with two search keys alternating in it.
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from miso_outage import cli, regions
from miso_outage.presets import demo_config
from miso_outage.stat_csi import StatRegionSearch, draw_beamformer_pairs

STAT_SCENARIOS = ("common-stat", "individual-stat")


def count_draws(monkeypatch) -> list:
    """Log of the (n, count, seed) of every pair draw the cli makes."""
    calls = []
    draw = cli.draw_beamformer_pairs

    def logged(n, count, seed):
        calls.append((n, count, seed))
        return draw(n, count, seed)

    monkeypatch.setattr(cli, "draw_beamformer_pairs", logged)
    return calls


def write_config(root: Path, name: str, doc: dict) -> str:
    path = root / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def outputs(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def run(argv: list, capsys) -> tuple:
    """stdout of cli.main(argv), with the files a region writes."""
    assert cli.main(argv) == 0, argv
    files = outputs(Path(argv[3])) if argv[0] == "region" else None
    return capsys.readouterr().out, files


def test_one_draw_for_a_stat_session(tmp_path, capsys, monkeypatch):
    """common-stat region, individual-stat region, a stat point and the
    common-stat region again draw the pairs once and print and write the
    bytes of cold runs, each of which starts with nothing held."""
    configs = {s: write_config(tmp_path, s, demo_config(s, mc_samples=1000))
               for s in STAT_SCENARIOS}
    session = [
        ["region", configs["common-stat"], "--out", "common-1"],
        ["region", configs["individual-stat"], "--out", "individual"],
        ["point", configs["common-stat"], "0.5", "0.5"],
        ["region", configs["common-stat"], "--out", "common-2"],
    ]
    session = [[*argv[:3], str(tmp_path / argv[3])] if argv[0] == "region" else argv
               for argv in session]
    cold = []
    for argv in session:
        cli.clear_config_cache()
        regions.clear_stream_cache()
        cold.append(run(argv, capsys))
    cli.clear_config_cache()
    regions.clear_stream_cache()
    draws = count_draws(monkeypatch)
    for argv, want in zip(session, cold):
        assert run(argv, capsys) == want, argv
    assert draws == [(2, 64, 9)]


def search_doc(**search) -> dict:
    doc = demo_config("common-stat", mc_samples=300)
    doc["search"].update(search)
    return doc


def one_ulp_up(x: float) -> float:
    return float(np.nextafter(x, np.inf))


def changed_docs() -> dict:
    """One document per input of the search, each differing from
    search_doc() in that input alone."""
    docs = {}
    doc = search_doc()
    # Entry (0, 1) of Q12 and its mirror are real: one ulp up stays Hermitian.
    for i, j in ((0, 1), (1, 0)):
        doc["covariances"]["Q12"][i][j][0] = one_ulp_up(doc["covariances"]["Q12"][i][j][0])
    docs["covariance entry"] = doc
    doc = search_doc()
    doc["noise"][1] = one_ulp_up(doc["noise"][1])
    docs["noise power"] = doc
    docs["n_pairs"] = search_doc(n_pairs=65)
    docs["seed"] = search_doc(seed=10)
    docs["curve_points"] = search_doc(curve_points=66)
    return docs


def test_changed_input_builds_the_search_again(monkeypatch):
    draws = count_draws(monkeypatch)
    base = cli.parse_config(json.dumps(search_doc()))
    held = base.stat_search()
    assert len(draws) == 1
    # Scenario, tolerances, sampling and basename are no input of the search.
    same = search_doc()
    same.update(scenario="individual-stat", epsilon=[0.2, 0.3], mc_samples=500, seed=3,
                output={"basename": "other"})
    assert cli.parse_config(json.dumps(same)).stat_search() is held
    assert len(draws) == 1
    for name, doc in changed_docs().items():
        before = len(draws)
        config = cli.parse_config(json.dumps(doc))
        search = config.stat_search()
        assert len(draws) == before + 1, name
        assert search is not held, name
        fresh = StatRegionSearch(
            config.source.stats,
            *draw_beamformer_pairs(config.n, config.search["n_pairs"], config.search["seed"]),
            config.search["curve_points"],
        )
        assert search.curve_points == fresh.curve_points, name
        for field in ("W1", "W2", "s1", "t1", "s2", "t2"):
            np.testing.assert_array_equal(getattr(search, field), getattr(fresh, field),
                                          err_msg=f"{name}: {field}")
        held = base.stat_search()


def test_held_arrays_are_read_only():
    search = cli.parse_config(json.dumps(search_doc())).stat_search()
    arrays = [search.W1, search.W2, search.s1, search.t1, search.s2, search.t2]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]
        with pytest.raises(ValueError, match="read-only"):
            np.negative(array, out=array)


def test_search_copies_the_callers_pairs():
    """The caller's arrays stay writable, and a write into them changes no
    answer of the search built on them."""
    stats = cli.parse_config(json.dumps(search_doc())).source.stats
    W1, W2 = draw_beamformer_pairs(2, 8, 4)
    search = StatRegionSearch(stats, W1, W2)
    W1[:] = W2
    fresh = StatRegionSearch(stats, *draw_beamformer_pairs(2, 8, 4))
    np.testing.assert_array_equal(search.W1, fresh.W1)
    np.testing.assert_array_equal(search.s1, fresh.s1)


# The swapped-users oracle: the original config's search seed, and the seed
# under which the swapped config's draw gives the original pairs, swapped.
SEED, SWAPPED_SEED = 9, 10
GRID = 41


def swapped(doc: dict) -> dict:
    """doc with the users swapped: (Q11, Q12, Q21, Q22, noise, epsilons) ->
    (Q22, Q21, Q12, Q11, reversed noise, reversed epsilons); the pairs are
    swapped by the draw under SWAPPED_SEED."""
    doc = copy.deepcopy(doc)
    cov = doc["covariances"]
    doc["covariances"] = {"Q11": cov["Q22"], "Q12": cov["Q21"], "Q21": cov["Q12"],
                          "Q22": cov["Q11"]}
    doc["noise"] = doc["noise"][::-1]
    if isinstance(doc["epsilon"], list):
        doc["epsilon"] = doc["epsilon"][::-1]
    doc["search"]["seed"] = SWAPPED_SEED
    return doc


def mirrored_csv(text: str) -> list:
    """A stat boundary CSV's rows with r1 <-> r2 and pi1 <-> pi2, by
    increasing mirrored r1."""
    header, *rows = text.splitlines()
    assert header == "r1,r2,pi1,pi2,pair_index"
    return [[r2, r1, pi2, pi1, pair] for r1, r2, pi1, pi2, pair in
            (row.split(",") for row in reversed(rows))]


def test_swapped_users_mirror_the_stat_regions(tmp_path, capsys, monkeypatch):
    """member_any at (r1, r2) equals the swapped search's answer at (r2, r1)
    on a 41 x 41 grid, for individual outage (0.1, 0.2) and common outage
    0.1, and the individual-outage boundary mirrors bit for bit. The noise
    powers differ, so the swap moves them too. The regions and the point
    reports run through cli.main and the grid through the search
    load_config's RunConfig holds, all in this process, alternating between
    the original and the swapped config: their two search keys replace each
    other in the cache."""
    draw = cli.draw_beamformer_pairs

    def drawn(n, count, seed):
        if seed == SWAPPED_SEED:
            W1, W2 = draw(n, count, SEED)
            return W2, W1
        return draw(n, count, seed)

    monkeypatch.setattr(cli, "draw_beamformer_pairs", drawn)
    cases = {}
    for scenario, eps in (("individual-stat", [0.1, 0.2]), ("common-stat", 0.1)):
        doc = demo_config(scenario, mc_samples=50)
        doc.update(noise=[0.4, 0.7], epsilon=eps)
        assert doc["search"]["seed"] == SEED
        cases[scenario] = [write_config(tmp_path, f"{scenario}-{name}", d)
                           for name, d in (("original", doc), ("swapped", swapped(doc)))]

    texts = []
    for path in cases["individual-stat"]:
        out = tmp_path / f"region-{Path(path).stem}"
        run(["region", path, "--out", str(out)], capsys)
        texts.append((out / "individual-stat_boundary.csv").read_text())
    original, mirror = texts
    assert len(original.splitlines()) > 1
    assert original.splitlines()[1:] == [",".join(row) for row in mirrored_csv(mirror)]
    # The CSV rounds; the boundaries of the held searches are compared exactly.
    exact = [
        [(p.r1, p.r2, p.payload["pi1"], p.payload["pi2"], p.payload["pair_index"])
         for p in cli.load_config(path).stat_search().boundary(
             cli.load_config(path).spec("individual")).points]
        for path in cases["individual-stat"]
    ]
    assert exact[0] == [(r2, r1, pi2, pi1, pair) for r1, r2, pi1, pi2, pair in exact[1][::-1]]
    rates = [float(x) for line in original.splitlines()[1:] for x in line.split(",")[:2]]
    grid = np.linspace(0.0, 1.25 * max(rates), GRID).tolist()

    for scenario, (path, swapped_path) in cases.items():
        spec = cli.load_config(path).spec(scenario.split("-")[0])
        swapped_spec = cli.load_config(swapped_path).spec(spec.mode)
        member = np.zeros((GRID, GRID), dtype=bool)
        mirror = np.zeros((GRID, GRID), dtype=bool)
        for i, r1 in enumerate(grid):
            search = cli.load_config(path).stat_search()
            member[i] = [search.member_any(r1, r2, spec) for r2 in grid]
            search = cli.load_config(swapped_path).stat_search()
            mirror[i] = [search.member_any(r2, r1, swapped_spec) for r2 in grid]
            if i % 10 == 0:
                # The point report's stat verdict at (r1, r2) and at (r2, r1).
                r2 = grid[(3 * i + 7) % GRID]
                verdicts = [json.loads(run(["point", p, *map(repr, at)], capsys)[0])
                            ["stat_memberships"][scenario]
                            for p, at in ((path, (r1, r2)), (swapped_path, (r2, r1)))]
                assert verdicts[0] == verdicts[1] == member[i, grid.index(r2)], (r1, r2)
        np.testing.assert_array_equal(member, mirror, err_msg=scenario)
        assert member.any() and not member.all(), scenario
