"""Benchmark entry point: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. One fresh process (perfbench/worker.py)
repeats the workload's operations, on the same inputs, until the next
repetition would end after --seconds; at least one runs. Children run with
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1, so the only parallelism is the
program's own process pool. Between repetitions the timed process
starts fresh processes that only set up, for setup_s. Every run also executes
the workload's reference-size operations at the reference seed and compares
them with the stored artifacts.

A fixed calibration kernel (calibration.py) is timed next to every
operation; times are reported per operation as the median over the
repetitions of wall (or CPU) time divided by that kernel time, in "cal", so
that most of the shared host's changing speed cancels out (see NOTES.md).

--trace 0 prints the end-to-end metrics; --trace 1 spends the first half of
--seconds untraced and the second half traced, and prints the per-layer
metrics (medians over the traced repetitions) and the tracing overhead. The
last stdout line is the result object; the line before it records the
environment, the operation counts and any check failures. --smoke runs every
workload at a tiny size (see selftest.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("inst-region", "inst-queries", "stat-region")
DEFAULT_SEED = 42  # equal to workloads.REF_SEED, the seed of the stored references
SETUP_SAMPLES = 12
# A run must end within 180 s; children get what is left of this budget.
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("wall_cal", "cal"),
    ("op_p50_cal", "cal"),
    ("setup_s", "s"),
    ("cpu_cal", "cal"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "ratio"),
)


class HarnessError(RuntimeError):
    pass


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


class Runner:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.children = 0
        self.env = dict(os.environ,
                        PYTHONPATH=str(ROOT / "src"),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def spawn(self, mode: str, seconds: float = 0.0, setup_samples: int = 0) -> dict:
        """Run one worker process; return its report plus setup_s."""
        self.children += 1
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--mode", mode, "--size", "smoke" if self.args.smoke else "full",
               "--seconds", repr(seconds), "--setup-samples", str(setup_samples),
               "--workdir", str(self.workdir / f"child-{self.children}")]
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, cwd=ROOT, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise HarnessError(f"{mode} repetition exceeded the run budget")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise HarnessError(f"{mode} worker exited with {proc.returncode}: {err.strip()[-2000:]}")
        report = json.loads(lines[-1])
        # perf_counter and monotonic share CLOCK_MONOTONIC on Linux
        report["setup_s"] = report["ready"] - start
        return report


def per_op(reps: list[dict], key: str, calibrated: bool = True) -> list[float]:
    """Per operation, the median over the repetitions of `key`, divided by
    the operation's calibration time unless calibrated is False."""
    columns = zip(*([v / c if calibrated else v for v, c in zip(r[key], r["op_cal_s"])]
                    for r in reps))
    return [statistics.median(values) for values in columns]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "miso_outage" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'miso_outage'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args, workdir)
    try:
        if args.trace:
            timed = runner.spawn("timed", args.seconds / 2)
            traced = runner.spawn("traced", args.seconds / 2)
        else:
            timed = runner.spawn("timed", args.seconds, setup_samples=SETUP_SAMPLES)
            traced = None
        reference = runner.spawn("reference")
        setups = [timed["setup_s"], reference["setup_s"]] + timed["setup_samples"]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(runner.spawn("setup")["setup_s"])
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    reps = [r for w in (timed, traced, reference) if w is not None for r in w["reps"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    failures = [msg for r in reps for msg in r["failures"]]
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)

    wall = per_op(timed["reps"], "op_seconds")
    cal_s = statistics.median(c for r in timed["reps"] for c in r["op_cal_s"])
    if args.trace:
        layers = {name: statistics.median([r["layers"][name] for r in traced["reps"]])
                  for name in traced["reps"][0]["layers"]}
        layers["cli.artifact_identical"] = reference["reps"][0]["artifact_identical"]
        # in calibration units, converted back with the run's median kernel time
        layers["trace.overhead_s"] = (sum(per_op(traced["reps"], "op_seconds"))
                                      - sum(wall)) * cal_s
        import tracer

        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracer.LAYER_METRICS}
    else:
        values = {
            "wall_cal": sum(wall),
            "op_p50_cal": statistics.median(wall),
            "setup_s": statistics.median(setups),
            "cpu_cal": sum(per_op(timed["reps"], "op_cpu_s")),
            "peak_rss_mb": timed["peak_rss_mb"],
            "ops_ok_frac": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "repetitions": len(timed["reps"]),
        "traced_repetitions": len(traced["reps"]) if traced else 0,
        "ops_per_repetition": timed["reps"][0]["attempted"],
        "calibration": {"kernel": timed["calibration"], "median_s": cal_s},
        "wall_s": sum(per_op(timed["reps"], "op_seconds", calibrated=False)),
        "cpu_s": sum(per_op(timed["reps"], "op_cpu_s", calibrated=False)),
        "ops_failed_frac": failed / attempted,
        "setup_samples": len(setups),
        "failures": failures[:20],
        "env": dict(reference["env"], nproc=len(os.sched_getaffinity(0)),
                    platform=platform.platform(), commit=git_commit()),
    }
    print(json.dumps({"summary": summary}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
