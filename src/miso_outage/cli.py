"""Batch command-line front-end.

One JSON run-config per invocation describes the scenario (outage mode x CSI
mode), the channel model and the sampling budget; subcommands dispatch the
computations and write plot-ready CSV boundaries plus a JSON manifest that
echoes the full config, so every output file is reproducible from its
manifest alone. All randomness is seeded from the config; timing goes to
stderr to keep the written files byte-stable across runs and worker counts.

Complex matrices serialize as nested arrays of [re, im] pairs. The schema is
strict: unknown fields, missing fields, or fields that do not apply to the
chosen scenario are rejected with the offending path in the message.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .channel import (
    CHANNEL_KEYS,
    COVARIANCE_KEYS,
    ChannelRealization,
    ChannelStatistics,
    SampleSource,
    ValidationError,
    validate_statistics,
)
from .outage_mc import estimate_case_probs, simulate_policy
from .rate_core import power_frontier
from .regions import (
    CSV_COLUMNS,
    GridConfig,
    InstantaneousRegionPipeline,
    OutageSpec,
    bias_interval,
    common_inst_member,
    fixed_choice_member,
    individual_inst_member,
    write_boundary_csv,
)
from .stat_csi import (
    STAT_CSV_COLUMNS,
    StatRegionSearch,
    StatSearchConfig,
)

SCENARIOS = (
    "common-inst",
    "individual-inst",
    "individual-inst-fixed1",
    "individual-inst-fixed2",
    "common-stat",
    "individual-stat",
)


class ConfigError(ValueError):
    """Schema violation, carrying the path of the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _reject_unknown(doc: dict, allowed, path: str):
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{path}{key}", "unknown field")


def _get(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}{key}", "missing required field")
    return doc[key]


def _as_int(value, path: str, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    return float(value)


def _as_positive(value, path: str) -> float:
    x = _as_number(value, path)
    if not x > 0.0:
        raise ConfigError(path, f"must be positive, got {x}")
    return x


def _as_eps(value, path: str) -> float:
    x = _as_number(value, path)
    if not 0.0 < x < 1.0:
        raise ConfigError(path, f"must lie strictly between 0 and 1, got {x}")
    return x


def _parse_complex_entry(node, path: str) -> complex:
    if (
        not isinstance(node, list)
        or len(node) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in node)
    ):
        raise ConfigError(path, f"expected an [re, im] pair, got {node!r}")
    return complex(node[0], node[1])


def _parse_vector(node, n: int, path: str) -> np.ndarray:
    if not isinstance(node, list) or len(node) != n:
        raise ConfigError(path, f"expected a list of {n} [re, im] pairs")
    return np.array(
        [_parse_complex_entry(v, f"{path}[{i}]") for i, v in enumerate(node)]
    )


def _parse_matrix(node, n: int, path: str) -> np.ndarray:
    if not isinstance(node, list) or len(node) != n:
        raise ConfigError(path, f"expected a {n}x{n} matrix")
    return np.array(
        [_parse_vector(row, n, f"{path}[{i}]") for i, row in enumerate(node)]
    )


def _matrix_doc(Q: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(Q)]


def _vector_doc(h: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(h)]


@dataclass
class RunConfig:
    scenario: str
    n: int
    stats: ChannelStatistics | None
    channels: list[ChannelRealization] | None
    noise: tuple[float, float]
    epsilon_raw: object
    mc_samples: int | None
    seed: int | None
    grid: dict | None
    search: StatSearchConfig | None
    basename: str

    def source(self) -> SampleSource:
        if self.channels is not None:
            return SampleSource.explicit(self.channels)
        return SampleSource.gaussian(self.stats, seed=self.seed, count=self.mc_samples)

    def individual_spec(self) -> OutageSpec:
        if isinstance(self.epsilon_raw, list):
            return OutageSpec.individual(*self.epsilon_raw)
        return OutageSpec.individual(self.epsilon_raw, self.epsilon_raw)

    def common_spec(self) -> OutageSpec | None:
        if isinstance(self.epsilon_raw, list):
            e1, e2 = self.epsilon_raw
            return OutageSpec.common(e1) if e1 == e2 else None
        return OutageSpec.common(self.epsilon_raw)

    def scenario_spec(self) -> OutageSpec:
        if self.scenario.startswith("common"):
            return OutageSpec.common(self.epsilon_raw)
        return OutageSpec.individual(*self.epsilon_raw)

    def to_document(self) -> dict:
        doc = {"scenario": self.scenario, "n": self.n}
        if self.stats is not None:
            doc["covariances"] = {
                key: _matrix_doc(self.stats.covariance(key))
                for key in COVARIANCE_KEYS
            }
        else:
            doc["channels"] = [
                {key: _vector_doc(getattr(r, key)) for key in CHANNEL_KEYS}
                for r in self.channels
            ]
        doc["noise"] = [self.noise[0], self.noise[1]]
        doc["epsilon"] = self.epsilon_raw
        if self.mc_samples is not None:
            doc["mc_samples"] = self.mc_samples
            doc["seed"] = self.seed
        if self.grid is not None:
            doc["grid"] = dict(self.grid)
        if self.search is not None:
            doc["search"] = {
                "n_pairs": self.search.n_pairs,
                "seed": self.search.seed,
                "curve_points": self.search.curve_points,
            }
        doc["output"] = {"basename": self.basename}
        return doc


def parse_config(text: str) -> RunConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError("<document>", "top level must be an object")
    _reject_unknown(
        doc,
        {
            "scenario", "n", "covariances", "channels", "noise", "epsilon",
            "mc_samples", "seed", "grid", "search", "output",
        },
        "",
    )

    scenario = _get(doc, "scenario", "")
    if scenario not in SCENARIOS:
        raise ConfigError(
            "scenario", f"must be one of {', '.join(SCENARIOS)}; got {scenario!r}"
        )
    is_stat = scenario.endswith("stat")
    n = _as_int(_get(doc, "n", ""), "n", minimum=1)

    noise_node = _get(doc, "noise", "")
    if not isinstance(noise_node, list) or len(noise_node) != 2:
        raise ConfigError("noise", "expected [sigma1_sq, sigma2_sq]")
    noise = (
        _as_positive(noise_node[0], "noise[0]"),
        _as_positive(noise_node[1], "noise[1]"),
    )

    eps_node = _get(doc, "epsilon", "")
    if scenario.startswith("common"):
        epsilon_raw = _as_eps(eps_node, "epsilon")
    else:
        if not isinstance(eps_node, list) or len(eps_node) != 2:
            raise ConfigError(
                "epsilon", "individual scenarios take [epsilon1, epsilon2]"
            )
        epsilon_raw = [
            _as_eps(eps_node[0], "epsilon[0]"),
            _as_eps(eps_node[1], "epsilon[1]"),
        ]

    has_cov = "covariances" in doc
    has_chan = "channels" in doc
    if has_cov == has_chan:
        raise ConfigError(
            "covariances", "provide exactly one of 'covariances' or 'channels'"
        )
    if is_stat and has_chan:
        raise ConfigError(
            "channels", "statistical-CSI scenarios require 'covariances'"
        )

    stats = None
    channels = None
    mc_samples = None
    seed = None
    if has_cov:
        cov_node = doc["covariances"]
        if not isinstance(cov_node, dict):
            raise ConfigError("covariances", "expected an object with Q11..Q22")
        _reject_unknown(cov_node, COVARIANCE_KEYS, "covariances.")
        mats = {
            key: _parse_matrix(
                _get(cov_node, key, "covariances."), n, f"covariances.{key}"
            )
            for key in COVARIANCE_KEYS
        }
        try:
            stats = validate_statistics(
                ChannelStatistics(
                    n=n,
                    Q11=mats["Q11"],
                    Q12=mats["Q12"],
                    Q21=mats["Q21"],
                    Q22=mats["Q22"],
                    sigma1_sq=noise[0],
                    sigma2_sq=noise[1],
                )
            )
        except ValidationError as exc:
            raise ConfigError("covariances", str(exc)) from exc
        mc_samples = _as_int(_get(doc, "mc_samples", ""), "mc_samples", minimum=1)
        seed = _as_int(_get(doc, "seed", ""), "seed", minimum=0)
    else:
        for key in ("mc_samples", "seed"):
            if key in doc:
                raise ConfigError(
                    key, "not used with explicit 'channels' (the list is the sample set)"
                )
        chan_node = doc["channels"]
        if not isinstance(chan_node, list) or not chan_node:
            raise ConfigError("channels", "expected a nonempty list of realizations")
        channels = []
        for i, entry in enumerate(chan_node):
            if not isinstance(entry, dict):
                raise ConfigError(f"channels[{i}]", "expected an object with h11..h22")
            _reject_unknown(entry, CHANNEL_KEYS, f"channels[{i}].")
            vectors = {
                key: _parse_vector(
                    _get(entry, key, f"channels[{i}]."), n, f"channels[{i}].{key}"
                )
                for key in CHANNEL_KEYS
            }
            try:
                channels.append(ChannelRealization(**vectors))
            except ValidationError as exc:
                raise ConfigError(f"channels[{i}]", str(exc)) from exc

    grid = None
    if "grid" in doc:
        if is_stat:
            raise ConfigError(
                "grid", "not used by statistical-CSI scenarios (see 'search')"
            )
        grid_node = doc["grid"]
        if not isinstance(grid_node, dict):
            raise ConfigError("grid", "expected an object")
        _reject_unknown(grid_node, ("n_points", "r1_cap", "r2_cap", "tol"), "grid.")
        grid = {}
        if "n_points" in grid_node:
            grid["n_points"] = _as_int(grid_node["n_points"], "grid.n_points", 2)
        for key in ("r1_cap", "r2_cap", "tol"):
            if key in grid_node:
                grid[key] = _as_positive(grid_node[key], f"grid.{key}")

    search = None
    if is_stat:
        search_node = _get(doc, "search", "")
        if not isinstance(search_node, dict):
            raise ConfigError("search", "expected an object")
        _reject_unknown(search_node, ("n_pairs", "seed", "curve_points"), "search.")
        search = StatSearchConfig(
            n_pairs=_as_int(_get(search_node, "n_pairs", "search."),
                            "search.n_pairs", 1),
            seed=_as_int(search_node.get("seed", 0), "search.seed", 0),
            curve_points=_as_int(search_node.get("curve_points", 65),
                                 "search.curve_points", 2),
        )
    elif "search" in doc:
        raise ConfigError("search", "only statistical-CSI scenarios take a search budget")

    basename = scenario
    if "output" in doc:
        out_node = doc["output"]
        if not isinstance(out_node, dict):
            raise ConfigError("output", "expected an object")
        _reject_unknown(out_node, ("basename",), "output.")
        name = _get(out_node, "basename", "output.")
        if not isinstance(name, str) or not name:
            raise ConfigError("output.basename", "expected a nonempty string")
        basename = name

    return RunConfig(
        scenario=scenario,
        n=n,
        stats=stats,
        channels=channels,
        noise=noise,
        epsilon_raw=epsilon_raw,
        mc_samples=mc_samples,
        seed=seed,
        grid=grid,
        search=search,
        basename=basename,
    )


def load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("<document>", f"cannot read {path}: {exc}") from exc
    return parse_config(text)


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def run_validate(config: RunConfig) -> dict:
    return {
        "ok": True,
        "scenario": config.scenario,
        "n": config.n,
        "source": "explicit" if config.channels is not None else "gaussian",
        "count": config.source().count,
    }


def run_point(config: RunConfig, r1: float, r2: float) -> dict:
    """Case probabilities and every applicable membership verdict at (r1, r2)."""
    probs = estimate_case_probs(config.source(), (r1, r2), config.noise)
    ind = config.individual_spec()
    com = config.common_spec()
    memberships = {}
    if com is not None:
        verdict = common_inst_member(probs, com.epsilon)
        memberships["common-inst"] = {
            "member": verdict.member,
            "margin": verdict.margin,
        }
    verdict = individual_inst_member(probs, ind.epsilon1, ind.epsilon2)
    memberships["individual-inst"] = {"member": verdict.member, **verdict.margins()}
    for choice in (1, 2):
        fixed = fixed_choice_member(probs, ind.epsilon1, ind.epsilon2, choice)
        memberships[f"individual-inst-fixed{choice}"] = {
            "member": fixed.member,
            "margin_served": fixed.margin_served,
            "margin_other": fixed.margin_other,
        }
    report = {
        "point": [r1, r2],
        "case_probabilities": probs.as_dict(),
        "memberships": memberships,
        "bias_interval": bias_interval(probs, ind.epsilon1, ind.epsilon2).as_dict(),
    }
    if config.search is not None and config.stats is not None:
        search = StatRegionSearch(config.stats, config.search)
        stat = {"individual-stat": search.member_any(r1, r2, ind)}
        if com is not None:
            stat["common-stat"] = search.member_any(r1, r2, com)
        report["stat_memberships"] = stat
    return report


def run_simulate(
    config: RunConfig, r1: float, r2: float, bias: float, coin_seed: int
) -> dict:
    outcome = simulate_policy(
        config.source(), (r1, r2), bias, config.noise, coin_seed=coin_seed
    )
    return outcome.as_dict()


def run_frontier(config: RunConfig, index: int, points: int) -> dict:
    """Power-frontier dump for one realization: p(q) per transmitter."""
    arrs = config.source().arrays()
    count = len(arrs["h11"])
    if not 0 <= index < count:
        raise ValueError(f"realization index {index} out of range [0, {count})")
    report = {"index": index, "n_samples": count}
    for tx, own_key, cross_key in ((1, "h11", "h12"), (2, "h22", "h21")):
        frontier = power_frontier(arrs[own_key][index], arrs[cross_key][index])
        q_grid = np.linspace(0.0, frontier.q_mrt, points)
        p_grid = frontier.signal_power(q_grid)
        report[f"tx{tx}"] = {
            "p_max": frontier.p_max,
            "q_mrt": frontier.q_mrt,
            "aligned_amplitude": frontier.c,
            "orthogonal_amplitude": frontier.d,
            "degenerate": frontier.degenerate,
            "curve": [[float(q), float(p)] for q, p in zip(q_grid, p_grid)],
        }
    return report


def _resolved_grid(config: RunConfig, pipeline, spec: OutageSpec) -> GridConfig:
    opts = dict(config.grid or {})
    if spec.mode == "common":
        eps1 = eps2 = spec.epsilon
    else:
        eps1, eps2 = spec.epsilon1, spec.epsilon2
    caps = pipeline.su_caps(eps1, eps2)
    return GridConfig(
        r1_cap=opts.get("r1_cap", caps[0]),
        r2_cap=opts.get("r2_cap", caps[1]),
        n_points=opts.get("n_points", 50),
        tol=opts.get("tol"),
    )


def run_region(config: RunConfig, out_dir: str, workers: int = 1) -> dict:
    """Trace the configured region and write CSV boundary files + manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = config.scenario_spec()
    boundaries = {}
    columns = CSV_COLUMNS
    if config.scenario.endswith("stat"):
        search = StatRegionSearch(config.stats, config.search)
        boundaries["boundary"] = search.boundary(spec)
        columns = STAT_CSV_COLUMNS
    else:
        pipeline = InstantaneousRegionPipeline(config.source(), config.noise)
        grid = _resolved_grid(config, pipeline, spec)
        pipeline.precompute_columns(grid.r1_values, workers=workers)
        if config.scenario == "common-inst":
            boundaries["boundary"] = pipeline.trace(spec, grid)
        elif config.scenario == "individual-inst":
            boundaries["boundary"] = pipeline.trace(spec, grid)
            boundaries["fixed1"] = pipeline.trace(spec, grid, variant="fixed1")
            boundaries["fixed2"] = pipeline.trace(spec, grid, variant="fixed2")
        else:
            variant = "fixed1" if config.scenario.endswith("fixed1") else "fixed2"
            boundaries["boundary"] = pipeline.trace(spec, grid, variant=variant)

    outputs = {}
    summary = {}
    for key, boundary in boundaries.items():
        filename = f"{config.basename}_{key}.csv"
        write_boundary_csv(boundary, out / filename, columns=columns)
        outputs[key] = filename
        summary[key] = {
            "n_points": len(boundary.points),
            "warnings": boundary.warnings,
            "metadata": boundary.metadata,
        }
    manifest = {
        "tool": "miso-outage",
        "version": __version__,
        "subcommand": "region",
        "scenario": config.scenario,
        "config": config.to_document(),
        "outputs": outputs,
        "boundaries": summary,
        "csv_columns": list(columns),
    }
    manifest_path = out / f"{config.basename}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _worker_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miso-outage",
        description="Achievable outage rate regions of the two-user MISO "
        "interference channel.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a run-config file")
    p.add_argument("config")

    p = sub.add_parser("point", help="case probabilities and memberships at one rate point")
    p.add_argument("config")
    p.add_argument("r1", type=float)
    p.add_argument("r2", type=float)

    p = sub.add_parser("simulate", help="transmission-policy simulation with an explicit bias")
    p.add_argument("config")
    p.add_argument("r1", type=float)
    p.add_argument("r2", type=float)
    p.add_argument("bias", type=float)
    p.add_argument("--coin-seed", type=int, default=0)

    p = sub.add_parser("frontier", help="per-TX power frontier dump for one realization")
    p.add_argument("config")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--points", type=int, default=33)

    p = sub.add_parser("region", help="trace the configured region to CSV + manifest")
    p.add_argument("config")
    p.add_argument("--out", default=".")
    p.add_argument("--workers", type=_worker_count, default=1)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        config = load_config(args.config)
        if args.command == "validate":
            report = run_validate(config)
        elif args.command == "point":
            report = run_point(config, args.r1, args.r2)
        elif args.command == "simulate":
            report = run_simulate(config, args.r1, args.r2, args.bias, args.coin_seed)
        elif args.command == "frontier":
            report = run_frontier(config, args.index, args.points)
        else:
            report = run_region(config, args.out, workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2, sort_keys=True))
    print(
        f"{args.command} finished in {time.perf_counter() - started:.2f}s",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
