"""Performance trajectory writer: one BENCH_<pr>.json per change.

    python tools/bench_record.py --out BENCH_<pr>.json [--seconds 30] [--seed 42]
        [--pairs K] [--baseline DIR] [--workload NAME ...] [--large] [--smoke]

Runs ``perfbench/run.py --trace 0`` once per workload in this checkout (K
times with ``--pairs K``). With ``--baseline DIR``, another checkout (the
parent commit, say), each run of this checkout is paired with one of DIR,
and the two alternate which goes first. The file holds every run's result
line and its summary (environment, repetitions, calibration), the commit of
each checkout and whether its working tree differs from it, and the host:
Python, numpy, numpy's SIMD path (baseline, dispatch targets and the ones
this CPU runs) and the OpenBLAS core (``OPENBLAS_VERBOSE=2``).

``--large`` adds the individual-inst ``region`` at N = 10^5 and 10^6 with 1
and 2 workers, in each checkout in turn, one fresh process each, with
OpenBLAS on one thread as in the benchmark: its wall time, its peak
RSS, the time of perfbench's vector calibration kernel just before it, and
the sha256 of its report and of every artifact it writes. The hashes are
the same across worker counts and between checkouts that leave the
artifacts byte-identical.

``--smoke`` runs the workloads at perfbench's smoke size and the large
regions at N = 2000 and 4000, for tests of this writer.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("inst-region", "inst-queries", "stat-region")
LARGE_SIZES = {"full": (100_000, 1_000_000), "smoke": (2_000, 4_000)}
LARGE_WORKERS = (1, 2)
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

HOST_PROBE = """
import json, platform
import numpy as np
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
print(json.dumps({
    "python": platform.python_version(),
    "numpy": np.__version__,
    "simd": {"baseline": list(__cpu_baseline__), "dispatch": list(__cpu_dispatch__),
             "runs": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]},
}))
"""


def host() -> dict:
    """This interpreter's numpy build and SIMD path and the OpenBLAS core
    it picks, from a fresh process (OpenBLAS reports its core at load)."""
    done = subprocess.run([sys.executable, "-c", HOST_PROBE], capture_output=True, text=True,
                          env=dict(os.environ, OPENBLAS_VERBOSE="2"), check=True)
    info = json.loads(done.stdout)
    cores = [line.split(":", 1)[1].strip() for line in done.stderr.splitlines()
             if line.startswith("Core:")]
    info["openblas_core"] = cores[0] if cores else None
    info["nproc"] = len(os.sched_getaffinity(0))
    return info


def checkout(tree: Path) -> dict:
    """The commit a checkout is at and whether its tracked files differ
    from it; both None outside a git repository."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return {"commit": None, "modified": None}
    return {"commit": head.stdout.strip(),
            "modified": git("diff", "--quiet", "HEAD").returncode != 0}


def benchmark(tree: Path, workload: str, args) -> dict:
    """One ``perfbench/run.py --trace 0`` run in tree: its summary and result."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", "0", *(["--smoke"] if args.smoke else [])]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} in {tree.name}: exit {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    return {"summary": json.loads(lines[-2])["summary"], "result": json.loads(lines[-1])}


def calibration_s() -> float:
    """One run of perfbench's vector calibration kernel, in seconds."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import calibration
    finally:
        sys.path.pop(0)
    return calibration.timed("vector")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def large_region(tree: Path, n: int, workers: int, seed: int, scratch: Path) -> dict:
    """The individual-inst region of the demo statistics at N = n in one fresh
    process of tree's package: wall time, peak RSS and hashes."""
    config = scratch / f"large-{n}.json"
    if not config.exists():
        sys.path.insert(0, str(ROOT / "src"))
        try:
            from miso_outage.presets import demo_config
        finally:
            sys.path.pop(0)
        config.write_text(json.dumps(demo_config("individual-inst", mc_samples=n, seed=seed)))
    out = Path(tempfile.mkdtemp(dir=scratch))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **ONE_THREAD)
    cal_s = calibration_s()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "miso_outage.cli", "region", str(config),
                             "--out", str(out / "region"), "--workers", str(workers)],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    report = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"region at N = {n}, {workers} workers in {tree.name}: "
                           f"exit {proc.returncode}")
    files = sorted((out / "region").iterdir())
    return {
        "n": n, "workers": workers, "wall_s": wall_s, "calibration_s": cal_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "sha256": {"report": sha256(report), **{p.name: sha256(p.read_bytes()) for p in files}},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--pairs", type=int, default=1)
    parser.add_argument("--baseline", type=Path, help="another checkout to pair each run with")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--large", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    trees = {"change": ROOT}
    if args.baseline is not None:
        trees["baseline"] = args.baseline.resolve()
    names = list(trees)
    record = {
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "host": host(),
        "checkouts": {name: checkout(tree) for name, tree in trees.items()},
        "settings": {"seconds": args.seconds, "seed": args.seed, "pairs": args.pairs,
                     "smoke": args.smoke},
        "workloads": {},
    }
    for workload in args.workload or WORKLOADS:
        runs = record["workloads"][workload] = []
        for pair in range(args.pairs):
            # The checkouts take turns going first, so drift favours neither.
            for name in names[pair % 2:] + names[:pair % 2]:
                runs.append({"pair": pair, "checkout": name,
                             **benchmark(trees[name], workload, args)})
    if args.large:
        record["large"] = []
        with tempfile.TemporaryDirectory() as scratch:
            for n in LARGE_SIZES["smoke" if args.smoke else "full"]:
                for workers in LARGE_WORKERS:
                    for name in names:
                        record["large"].append({"checkout": name, **large_region(
                            trees[name], n, workers, args.seed, Path(scratch))})
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
