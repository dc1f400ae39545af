"""The benchmark's workloads: inputs built from the seed, operations, checks.

Every operation is one in-process ``miso_outage.cli.main(argv)`` call, so
config parsing, JSON output and artifact writing are part of what is timed.
Inputs come from ``presets.demo_config`` (demo covariances, noise 0.5,
epsilon 0.1); the seed sets the config's ``seed``, ``search.seed`` and the
query points.

Each workload has three sizes: ``full`` (what the benchmark measures),
``smoke`` (tiny, for the benchmark's self-test) and ``reference`` (small, run
at REF_SEED every run and compared with the artifacts stored under
perfbench/reference/).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from miso_outage.presets import DEMO_EPSILON, demo_config

import checks

REF_SEED = 42
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
EPS = (DEMO_EPSILON, DEMO_EPSILON)
# Bounding box of the demo individual-outage region: its axis intercepts are
# the 0.1-quantiles of the single-user rates, about 1.71 and 1.74 bits.
QUERY_BOX = (1.7, 1.7)
REGION_WORKERS = 2


@dataclass
class OpResult:
    kind: str
    argv: list[str]
    seconds: float
    cpu_s: float
    rc: int | None
    stdout: str
    error: str | None = None
    cal_s: float = 0.0
    out_dir: Path | None = None
    meta: dict = field(default_factory=dict)

    def ok(self) -> bool:
        return self.rc == 0 and self.error is None


class Workload:
    """Base: writes configs into workdir, runs operations through call(argv)."""

    name = ""
    calibration = ""  # the calibration.py kernel timed around each operation
    sizes: dict = {}

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = int(seed)
        self.params = self.sizes[size]
        self.workdir = Path(workdir)
        self.configs: dict[str, Path] = {}

    def write_config(self, key: str, doc: dict) -> Path:
        path = self.workdir / f"{key}.json"
        path.write_text(json.dumps(doc, indent=2))
        self.configs[key] = path
        return path

    @property
    def n_samples(self) -> int:
        return self.params.get("n", 0)

    def check(self, ops: list[OpResult], refdir: Path | None = None) -> list[list[str]]:
        """Failures per operation: the invariants (any seed) and, given the
        reference directory, the comparison with the stored artifacts."""
        return [self.check_one(op, ops, refdir) for op in ops]

    def check_one(self, op: OpResult, ops: list[OpResult], refdir: Path | None) -> list[str]:
        if not op.ok():
            return [self.describe_error(op)]
        try:
            failures = self.check_op(op, ops)
            if refdir is not None:
                failures += self.reference_failures(op, refdir)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            failures = [f"malformed output: {exc!r}"]
        return failures

    @staticmethod
    def describe_error(op: OpResult) -> str:
        return f"{' '.join(op.argv[:1])}: " + (op.error or f"exit code {op.rc}")

    def read_region_outputs(self, op: OpResult, failures: list) -> tuple[dict | None, dict]:
        manifest = checks.parse_json(op.stdout, "region report", failures)
        texts = {}
        if manifest is not None:
            for key, filename in manifest.get("outputs", {}).items():
                path = op.out_dir / filename
                if not path.is_file():
                    failures.append(f"{filename}: not written")
                    continue
                texts[key] = path.read_text()
            on_disk = op.out_dir / f"{manifest.get('scenario')}_manifest.json"
            if not on_disk.is_file() or json.loads(on_disk.read_text()) != manifest:
                failures.append("manifest file missing or different from the printed report")
        return manifest, texts

    def artifacts(self, op: OpResult) -> dict[str, bytes]:
        """Output files of a region operation, by name."""
        return {p.name: p.read_bytes() for p in sorted(op.out_dir.iterdir())}


class InstRegion(Workload):
    """individual-inst region with both fixed-choice boundaries, one column cache."""

    name = "inst-region"
    calibration = "vector"
    sizes = {
        "full": {"n": 20_000, "grid": 8},
        "smoke": {"n": 2_000, "grid": 8},
        "reference": {"n": 20_000, "grid": 10},
    }

    def write_configs(self):
        self.write_config("region", demo_config(
            "individual-inst", mc_samples=self.params["n"], seed=self.seed,
            n_grid=self.params["grid"]))

    def run(self, call) -> list[OpResult]:
        out = self.workdir / "out-region"
        op = call("region", ["region", str(self.configs["region"]), "--out", str(out),
                             "--workers", str(REGION_WORKERS)])
        op.out_dir = out
        return [op]

    def check_op(self, op, ops):
        failures = []
        manifest, texts = self.read_region_outputs(op, failures)
        if manifest is not None and not failures:
            failures.extend(checks.check_inst_region(manifest, texts, self.n_samples))
        return failures

    def reference_failures(self, op, refdir: Path) -> list[str]:
        manifest, texts = self.read_region_outputs(op, [])
        if manifest is None:
            return []
        ref = {key: (refdir / filename).read_text()
               for key, filename in manifest["outputs"].items() if (refdir / filename).is_file()}
        return checks.check_inst_region_reference(manifest, texts, ref)


class InstQueries(Workload):
    """Closed loop, one caller: per rate point one `point`, then three
    `simulate` calls at the lo, mid and hi of the bias interval (0.5 each
    when the interval is empty)."""

    name = "inst-queries"
    calibration = "vector"
    sizes = {
        "full": {"n": 20_000, "points": 8},
        "smoke": {"n": 2_000, "points": 1},
        "reference": {"n": 20_000, "points": 2},
    }

    def query_points(self) -> list[tuple[float, float]]:
        rng = np.random.default_rng(self.seed)
        xy = rng.uniform(0.0, 1.0, size=(self.params["points"], 2)) * QUERY_BOX
        return [(round(float(x), 6), round(float(y), 6)) for x, y in xy]

    def write_configs(self):
        self.write_config("inst", demo_config(
            "individual-inst", mc_samples=self.params["n"], seed=self.seed))

    def run(self, call) -> list[OpResult]:
        cfg = str(self.configs["inst"])
        ops = []
        for k, (r1, r2) in enumerate(self.query_points()):
            point = call("point", ["point", cfg, repr(r1), repr(r2)])
            point.meta = {"index": k, "r1": r1, "r2": r2}
            ops.append(point)
            biases = [0.5] * 3
            if point.ok():
                interval = json.loads(point.stdout)["bias_interval"]
                if interval["nonempty"]:
                    lo, hi = interval["lo"], interval["hi"]
                    biases = [lo, 0.5 * (lo + hi), hi]
            for label, bias in zip(("lo", "mid", "hi"), biases):
                sim = call("simulate", ["simulate", cfg, repr(r1), repr(r2), repr(bias),
                                        "--coin-seed", str(self.seed)])
                sim.meta = {"index": k, "bias": bias, "label": label, "point": point}
                ops.append(sim)
        return ops

    def check_op(self, op, ops):
        failures = []
        report = checks.parse_json(op.stdout, f"{op.kind} report", failures)
        if report is None:
            return failures
        if op.kind == "point":
            return checks.check_point(report, self.n_samples)
        point = op.meta["point"]
        if not point.ok():
            return ["simulate: its point query failed"]
        return checks.check_simulate(report, json.loads(point.stdout), op.meta["bias"],
                                     EPS, self.n_samples)

    @staticmethod
    def artifact_name(op: OpResult) -> str:
        suffix = f"-{op.meta['label']}" if op.kind == "simulate" else ""
        return f"{op.kind}-{op.meta['index']}{suffix}.json"

    def artifacts(self, op):
        return {self.artifact_name(op): op.stdout.encode()}

    def reference_failures(self, op, refdir: Path) -> list[str]:
        report = checks.parse_json(op.stdout, f"{op.kind} report", [])
        ref_path = refdir / self.artifact_name(op)
        if report is None:
            return []
        if not ref_path.is_file():
            return [f"{ref_path.name}: no reference"]
        ref = json.loads(ref_path.read_text())
        if op.kind == "point":
            return checks.check_point_reference(report, ref)
        return checks.check_simulate_reference(report, ref)


class StatRegion(Workload):
    """common-stat then individual-stat region over one candidate-pair budget."""

    name = "stat-region"
    calibration = "scalar"
    sizes = {
        "full": {"n_pairs": 64},
        "smoke": {"n_pairs": 16},
        "reference": {"n_pairs": 64},
    }
    scenarios = ("common-stat", "individual-stat")

    def write_configs(self):
        for scenario in self.scenarios:
            doc = demo_config(scenario, seed=self.seed, n_pairs=self.params["n_pairs"])
            doc["search"]["seed"] = self.seed
            self.write_config(scenario, doc)

    def run(self, call) -> list[OpResult]:
        ops = []
        for scenario in self.scenarios:
            out = self.workdir / f"out-{scenario}"
            op = call("region", ["region", str(self.configs[scenario]), "--out", str(out)])
            op.out_dir = out
            op.meta = {"scenario": scenario}
            ops.append(op)
        return ops

    def boundary_rows(self, op: OpResult, failures: list) -> list[dict] | None:
        manifest, texts = self.read_region_outputs(op, failures)
        if manifest is None or "boundary" not in texts:
            return None
        return checks.read_csv(texts["boundary"], checks.STAT_COLUMNS,
                               op.meta["scenario"], failures)

    def check_op(self, op, ops):
        failures = []
        rows = self.boundary_rows(op, failures)
        if rows is None:
            return failures
        scenario = op.meta["scenario"]
        mode = scenario.split("-")[0]
        failures.extend(checks.check_stat_boundary(
            rows, mode, EPS[0] if mode == "common" else EPS, scenario))
        individual = next((o for o in ops if o.ok()
                           and o.meta["scenario"] == "individual-stat"), None)
        if scenario == "common-stat" and individual is not None:
            other = self.boundary_rows(individual, [])
            if other:
                failures.extend(checks.check_stat_nesting(rows, other))
        return failures

    def reference_failures(self, op, refdir: Path) -> list[str]:
        rows = self.boundary_rows(op, [])
        ref_path = refdir / f"{op.meta['scenario']}_boundary.csv"
        if rows is None:
            return []
        if not ref_path.is_file():
            return [f"{ref_path.name}: no reference"]
        failures = []
        ref = checks.read_csv(ref_path.read_text(), checks.STAT_COLUMNS, ref_path.name, failures)
        if ref is None:
            return failures
        return checks.compare_stat_boundary(rows, ref, op.meta["scenario"])


WORKLOADS = {w.name: w for w in (InstRegion, InstQueries, StatRegion)}
