"""tools/bench_record.py, the writer of the BENCH_<pr>.json trajectory files."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_writer_records_a_smoke_run(tmp_path):
    """At smoke size, on one workload, with the large regions (N = 2000 and
    4000 here): the file holds the host's numpy SIMD path and OpenBLAS core
    (None without OpenBLAS), the run's summary and its correct result line,
    and one fresh-process region per size and worker count whose artifacts
    hash the same at 1 and 2 workers."""
    out = tmp_path / "BENCH.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_record.py"), "--smoke", "--seconds", "1",
         "--workload", "inst-queries", "--large", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text())
    assert record["host"]["simd"]["baseline"]
    assert "openblas_core" in record["host"]
    assert list(record["checkouts"]) == ["change"]
    (run,) = record["workloads"]["inst-queries"]
    assert run["checkout"] == "change" and run["summary"]["workload"] == "inst-queries"
    assert run["result"]["correct"] and "wall_cal" in run["result"]["metrics"]
    large = record["large"]
    assert [(r["n"], r["workers"]) for r in large] == [(2000, 1), (2000, 2), (4000, 1), (4000, 2)]
    for one, two in zip(large[::2], large[1::2]):
        assert one["sha256"] == two["sha256"]
        assert len(one["sha256"]) == 5  # the report, three boundary CSVs and the manifest
    assert all(r["wall_s"] > 0.0 and r["peak_rss_mb"] > 0.0 and r["calibration_s"] > 0.0
               for r in large)
