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
