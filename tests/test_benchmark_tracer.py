import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package():
    """perfbench/tracer.py wraps package functions by the names they are looked
    up under, so renaming or dropping one of them breaks `--trace 1`. The
    install runs in a subprocess to keep its patches out of this process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    result = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer; Tracer().install()"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_traced_queries_count_every_column_search():
    """Every column search goes through `regions.max_r2_batch`, which the
    tracer sees: a traced inst-queries run (seed 3) computes one column for
    each of its 8 `point` calls, which count through
    `InstantaneousRegionPipeline.case_probs`, and none for the three
    `simulate` calls after each, which find it held. No query asks for the
    exact column (`InstantaneousRegionPipeline.column`, which the tracer
    counts as a column request): point and simulate refine only the rows
    their answer depends on."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "inst-queries",
         "--seed", "3", "--seconds", "2", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert result.returncode == 0, result.stderr
    metrics = json.loads(result.stdout.splitlines()[-1])["metrics"]
    assert metrics["rate_core.column_calls"]["value"] == 8
    assert metrics["regions.columns_computed"]["value"] == 8
    assert metrics["regions.case_probs_calls"]["value"] == 8
    assert metrics["regions.columns_requested"]["value"] == 0
