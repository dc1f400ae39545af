"""Self-tests of the benchmark. Run from the checkout root:

    python3 perfbench/selftest.py

1. The correctness checks accept the stored reference artifacts as they are
   and reject a boundary shifted by more than its tolerance and a case-count
   vector that does not sum to N.
2. Smoke mode: every workload at a tiny size, untraced and traced, passes its
   checks and emits exactly the metrics BENCHMARK.json names, with their units.
3. Without the package source next to it, run.py exits non-zero and prints
   no result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF = HERE / "reference"


def expect(ok: bool, what: str, failures: list):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def region_case():
    ref = REF / "inst-region"
    manifest = json.loads((ref / "individual-inst_manifest.json").read_text())
    texts = {key: (ref / name).read_text() for key, name in manifest["outputs"].items()}
    return manifest, texts


def with_row(text: str, index: int, change) -> str:
    """CSV text with data row `index` replaced by change(row dict)."""
    lines = text.splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1 + index].split(",")))
    change(row)
    lines[1 + index] = ",".join(row[c] for c in header)
    return "\n".join(lines) + "\n"


def check_the_checks(failures: list):
    manifest, texts = region_case()
    n = manifest["boundaries"]["boundary"]["metadata"]["n_samples"]
    tol = manifest["boundaries"]["boundary"]["metadata"]["bisection_tol"]
    expect(checks.check_inst_region(manifest, texts, n) == [],
           "reference region passes the invariant checks", failures)
    expect(checks.check_inst_region_reference(manifest, texts, texts) == [],
           "reference region matches itself", failures)

    for factor, rejected in ((1.5, True), (0.5, False)):
        shifted = dict(texts)

        def shift(row):
            row["r2"] = repr(float(row["r2"]) - factor * tol)

        shifted["fixed1"] = with_row(texts["fixed1"], 2, shift)
        found = checks.check_inst_region_reference(manifest, shifted, texts)
        expect(bool(found) == rejected,
               f"boundary shifted by {factor} x tolerance is {'rejected' if rejected else 'accepted'}",
               failures)

    def add_one_to_d(row):
        row["p_d"] = repr(float(row["p_d"]) + 1.0 / n)

    broken = dict(texts, boundary=with_row(texts["boundary"], 0, add_one_to_d))
    expect(any("sum to" in f for f in checks.check_inst_region(manifest, broken, n)),
           "region row whose case counts sum to N + 1 is rejected", failures)

    point = json.loads((REF / "inst-queries" / "point-0.json").read_text())
    n_point = point["case_probabilities"]["n_samples"]
    expect(checks.check_point(point, n_point) == [], "reference point passes", failures)
    bad = copy.deepcopy(point)
    bad["case_probabilities"]["counts"]["d"] += 1
    expect(any("sum to" in f for f in checks.check_point(bad, n_point)),
           "point whose case counts sum to N + 1 is rejected", failures)
    expect(checks.check_point_reference(bad, point) != [],
           "point counts different from the reference are rejected", failures)

    sim = json.loads((REF / "inst-queries" / "simulate-0-mid.json").read_text())
    expect(checks.check_simulate(sim, point, sim["bias"], (0.1, 0.1), n_point) == [],
           "reference simulation passes", failures)
    bad_sim = copy.deepcopy(sim)
    bad_sim["success"]["link1"] -= 1
    expect(checks.check_simulate(bad_sim, point, sim["bias"], (0.1, 0.1), n_point) == []
           and checks.check_simulate_reference(bad_sim, sim) != [],
           "simulation one success short of the reference is rejected by the reference only", failures)

    stat = checks.read_csv((REF / "stat-region" / "common-stat_boundary.csv").read_text(),
                           checks.STAT_COLUMNS, "common-stat", failures)
    moved = copy.deepcopy(stat)
    moved[3]["r2"] += 3 * checks.STAT_REF_TOL
    expect(checks.compare_stat_boundary(stat, stat, "stat") == []
           and checks.compare_stat_boundary(moved, stat, "stat") != [],
           "statistical boundary moved by more than its tolerance is rejected", failures)


def run_bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def smoke(failures: list):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run_bench(["--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", str(trace), "--smoke"], ROOT)
            what = f"smoke {workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what}: exit {proc.returncode} {proc.stderr[-500:]}", failures)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            numeric = all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["attempted"] >= 1
                   and got == wanted[trace] and numeric,
                   f"{what}: correct, every named metric with its unit", failures)


def without_source(failures: list):
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(["--workload", "inst-region", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], bare)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without the package source: non-zero exit, no result", failures)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures: list[str] = []
    check_the_checks(failures)
    without_source(failures)
    smoke(failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
