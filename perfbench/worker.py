"""One fresh benchmark process: set up, run repetitions, check, report.

Started by run.py; prints one JSON object as its last stdout line. Modes:

- ``setup``: import the package and write the configs, then stop;
- ``timed``: repeat the workload's operations untraced until ``--seconds``
  have passed (at least once), timing each operation; between repetitions,
  time ``--setup-samples`` fresh ``setup`` processes spread over the run;
- ``traced``: the same with the tracer installed, reporting per-layer metrics
  for every repetition;
- ``reference``: run the reference-size operations once at REF_SEED and
  compare them with the stored artifacts (``--update-reference`` rewrites
  those).

Every repetition runs the same inputs and is checked; its outputs are
removed before the next one starts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import platform
import resource
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import calibration
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Largest peak RSS of this process or any waited-for descendant (Linux KiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "start_method": multiprocessing.get_start_method(),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def make_caller(cli, tracer, kernel: str = ""):
    """call(kind, argv) runs one operation. With a calibration kernel, the
    kernel is timed before and after every operation (one kernel run between
    two operations serves both) and op.cal_s is the mean of the two times."""
    from workloads import OpResult

    last_cal = []

    def call(kind: str, argv: list[str]) -> OpResult:
        if kernel and not last_cal:
            last_cal.append(calibration.timed(kernel))
        op = run_op(kind, argv)
        if kernel:
            after = calibration.timed(kernel)
            op.cal_s = 0.5 * (last_cal[0] + after)
            last_cal[0] = after
        return op

    def run_op(kind: str, argv: list[str]) -> OpResult:
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        span = tracer.span("cli.op") if tracer is not None else contextlib.nullcontext()
        cpu0 = _cpu_s()
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # an operation failure, not a harness one
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        cpu_s = _cpu_s() - cpu0
        if rc not in (0, None) and error is None:
            error = f"exit code {rc}: {err.getvalue().strip()}"
        return OpResult(kind=kind, argv=argv, seconds=seconds, cpu_s=cpu_s, rc=rc,
                        stdout=out.getvalue(), error=error)

    return call


def setup_time(args, workdir: Path) -> float:
    """Seconds from starting a fresh ``setup`` process to its end of set-up."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--mode", "setup", "--size", args.size, "--workdir", str(workdir)]
    # perf_counter and monotonic share CLOCK_MONOTONIC on Linux
    start = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])["ready"] - start


def run_repetition(workload, call, tracer, refdir: Path | None, update: bool) -> dict:
    """Run the workload's operations once, check them (against refdir, if
    given) and remove their outputs."""
    ops = workload.run(call)
    if tracer is not None:
        tracer.enabled = False
    reference = refdir is not None
    if reference and update:
        refdir.mkdir(parents=True, exist_ok=True)
        for op in ops:
            for name, data in workload.artifacts(op).items():
                (refdir / name).write_bytes(data)
    failures = workload.check(ops, refdir)
    rep = {
        "op_seconds": [op.seconds for op in ops],
        "op_cpu_s": [op.cpu_s for op in ops],
        "op_cal_s": [op.cal_s for op in ops],
        "attempted": len(ops),
        "failed": sum(1 for f in failures if f),
        "failures": [f"{op.kind} {' '.join(op.argv[1:])}: {msg}"
                     for op, fails in zip(ops, failures) for msg in fails],
    }
    if reference:
        names = identical = 0
        for op in ops:
            if op.ok():
                for name, data in workload.artifacts(op).items():
                    names += 1
                    path = refdir / name
                    identical += path.is_file() and path.read_bytes() == data
        rep["artifact_identical"] = identical / names if names else 0.0
    if tracer is not None:
        from miso_outage.rate_core import RATE_SLACK

        spans, counters = tracer.collect()
        layers = tracing.layer_metrics(spans, counters, workload.n_samples, os.getpid())
        layers["regions.boundary_err_max"] = tracing.bisection_error_max(tracer.traces, RATE_SLACK)
        layers["cli.artifact_bytes"] = sum(
            len(data) for op in ops if op.out_dir is not None and op.out_dir.is_dir()
            for data in workload.artifacts(op).values())
        rep["layers"] = layers
        shutil.rmtree(tracer.spill_dir, ignore_errors=True)
    for op in ops:
        if op.out_dir is not None:
            shutil.rmtree(op.out_dir, ignore_errors=True)
    return rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced", "reference"), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="repeat until the next repetition would end after this")
    parser.add_argument("--setup-samples", type=int, default=0,
                        help="timed mode: set-up times to take between repetitions")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)

    import miso_outage.cli as cli

    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"miso_outage imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    from workloads import REF_SEED, REFERENCE_DIR, WORKLOADS

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    reference = args.mode == "reference"
    workload = WORKLOADS[args.workload](
        REF_SEED if reference else args.seed, "reference" if reference else args.size, workdir)
    workload.write_configs()
    ready = time.perf_counter()
    report = {"ready": ready}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    call = make_caller(cli, tracer, "" if reference else workload.calibration)
    refdir = REFERENCE_DIR / workload.name if reference else None

    reps, setups = [], []
    while True:
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.restart(workdir / f"spill-{len(reps)}")
            tracer.enabled = True
        reps.append(run_repetition(workload, call, tracer, refdir, args.update_reference))
        if args.setup_samples:
            # set-up samples spread evenly over the run see the host's different phases
            due = math.ceil(args.setup_samples * (time.perf_counter() - ready) / args.seconds)
            while len(setups) < min(due, args.setup_samples):
                setups.append(setup_time(args, workdir / f"setup-{len(setups)}"))
        now = time.perf_counter()
        if reference or now - ready + (now - t0) > args.seconds:
            break

    report["reps"] = reps
    report["setup_samples"] = setups
    report["calibration"] = workload.calibration
    report["peak_rss_mb"] = _peak_rss_mb()
    if reference:
        report["env"] = environment()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
