"""Batch command-line front-end.

One JSON run-config per invocation describes the scenario (outage mode x CSI
mode), the channel model and the sampling budget; subcommands dispatch the
computations and write plot-ready CSV boundaries plus a JSON manifest that
echoes the full config, so every output file is reproducible from its
manifest alone. All randomness is seeded from the config; timing goes to
stderr to keep the written files byte-stable across runs and worker counts.
A process that runs several commands parses each run-config once: load_config
holds the last one parsed, keyed by the file's exact text, by the package's
keep-the-last rule (channel.LastValue). By the same rule RunConfig.stat_search
holds the last statistical-CSI search, keyed by the exact bytes of everything
it depends on (n, covariances, noise powers, pair count, search seed and
curve points), so configs that differ only in scenario, tolerances or
sampling share its pairs and means, and channel holds the factors of the
last covariances validated, so such configs validate without factoring
them again. clear_config_cache drops all three.

Complex matrices serialize as nested arrays of [re, im] pairs. The schema is
strict: unknown fields, missing fields, fields that do not apply to the
chosen scenario, or a key given twice in one JSON object are rejected with
the offending path or key in the message. One reader checks each kind of
node: _object a JSON object and its keys, _items a list of fixed length
(noise, the individual epsilon pair, an [re, im] pair, a channel vector, a
covariance matrix), and the _as_* readers a scalar; only the top-level
document has its own check. An optional field a config leaves out takes the
library's default (GridConfig's n_points and tol, stat_csi.CURVE_POINTS),
and an integer field's minimum is the library's too (GridConfig.MIN_N_POINTS,
StatRegionSearch.MIN_CURVE_POINTS), each stated there alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import __version__
from .channel import (
    CHANNEL_KEYS,
    COVARIANCE_KEYS,
    ChannelRealization,
    ChannelStatistics,
    LastValue,
    SampleSource,
    ValidationError,
    _factors,
    statistics_key,
)
from .outage_mc import estimate_case_probs, read_only, simulate_policy
from .rate_core import RATE_SLACK, gamma_from_rate, power_frontier
from .regions import (
    CSV_COLUMNS,
    GridConfig,
    InstantaneousRegionPipeline,
    OutageSpec,
    bias_interval,
    power_scale_checked,
    verdict,
    write_boundary_csv,
)
from .stat_csi import CURVE_POINTS, STAT_CSV_COLUMNS, StatRegionSearch, draw_beamformer_pairs

# Scenario -> (outage mode, traced case-D variants); statistical CSI has no
# variants (None). region writes the first variant's boundary as "boundary".
SCENARIOS = {
    "common-inst": ("common", ("plain",)),
    "individual-inst": ("individual", ("plain", "fixed1", "fixed2")),
    "individual-inst-fixed1": ("individual", ("fixed1",)),
    "individual-inst-fixed2": ("individual", ("fixed2",)),
    "common-stat": ("common", None),
    "individual-stat": ("individual", None),
}


_DOCUMENT_KEYS = (
    "scenario", "n", "covariances", "channels", "noise", "epsilon",
    "mc_samples", "seed", "grid", "search", "output",
)


class ConfigError(ValueError):
    """Schema violation, carrying the path of the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _get(node: dict, path: str):
    """The required field at path; its key is the last dotted component."""
    key = path.rpartition(".")[2]
    if key not in node:
        raise ConfigError(path, "missing required field")
    return node[key]


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict, rejecting a key given twice (which
    json.loads would otherwise take the last value of)."""
    node = {}
    for key, value in pairs:
        if key in node:
            raise ConfigError("<document>", f"key {key!r} given twice in one object")
        node[key] = value
    return node


def _object(node, path: str, allowed, what: str = "an object") -> dict:
    """node, checked to be a JSON object with no key outside allowed."""
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected {what}")
    for key in node:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown field")
    return node


def _items(node, path: str, count: int, message: str, read) -> list:
    """node, checked to be a list of count items, each read as
    read(item, item_path). message, formatted with count and node only
    when the check fails, is the error's text."""
    if not isinstance(node, list) or len(node) != count:
        raise ConfigError(path, message.format(count=count, node=node))
    return [read(item, f"{path}[{i}]") for i, item in enumerate(node)]


def _as_int(value, path: str, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(path, f"must be a finite number, got {value}")
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
    return complex(*_items(node, path, 2, "expected an [re, im] pair, got {node!r}", _as_number))


def _parse_vector(node, path: str, n: int) -> np.ndarray:
    return np.array(_items(node, path, n, "expected a list of {count} [re, im] pairs",
                           _parse_complex_entry))


def _parse_matrix(node, path: str, n: int) -> np.ndarray:
    return np.array(_items(node, path, n, "expected a {count}x{count} matrix",
                           functools.partial(_parse_vector, n=n)))


def _matrix_doc(Q: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(Q)]


def _vector_doc(h: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(h)]


# The statistical-CSI search of the last key RunConfig.stat_search asked for.
_searches = LastValue()


@dataclass(frozen=True)
class RunConfig:
    """A parsed run-config. source, built and validated once by parse_config,
    is the seeded Gaussian stream of the covariances or the explicit channel
    list. The fields, and the source's, cannot be assigned, the covariance
    and channel arrays are read-only, and grid and search are read-only
    mappings, so a config load_config hands out again is the one it parsed."""

    scenario: str
    n: int
    source: SampleSource
    noise: tuple[float, float]
    epsilons: tuple[float, float]
    grid: Mapping | None
    search: Mapping | None
    basename: str

    def stat_search(self) -> StatRegionSearch:
        """The evaluator over the search block's seeded random beamformer
        pairs: the one held in _searches when its key is this config's."""
        stats, search = self.source.stats, self.search
        key = (*statistics_key(stats), search["n_pairs"], search["seed"], search["curve_points"])

        def build() -> StatRegionSearch:
            W1, W2 = draw_beamformer_pairs(self.n, search["n_pairs"], search["seed"])
            return StatRegionSearch(stats, W1, W2, search["curve_points"])

        return _searches.get(key, build)

    def spec(self, mode: str) -> OutageSpec | None:
        """The tolerances as an outage spec of the given mode; None for
        common outage when the two tolerances differ."""
        e1, e2 = self.epsilons
        if mode == "individual":
            return OutageSpec.individual(e1, e2)
        return OutageSpec.common(e1) if e1 == e2 else None

    def to_document(self) -> dict:
        doc = {"scenario": self.scenario, "n": self.n}
        source = self.source
        if source.realizations is None:
            doc["covariances"] = {
                key: _matrix_doc(source.stats.covariance(key))
                for key in COVARIANCE_KEYS
            }
        else:
            doc["channels"] = [
                {key: _vector_doc(getattr(r, key)) for key in CHANNEL_KEYS}
                for r in source.realizations
            ]
        doc["noise"] = [self.noise[0], self.noise[1]]
        common = SCENARIOS[self.scenario][0] == "common"
        doc["epsilon"] = self.epsilons[0] if common else list(self.epsilons)
        if source.realizations is None:
            doc["mc_samples"] = source.count
            doc["seed"] = source.seed
        if self.grid is not None:
            doc["grid"] = dict(self.grid)
        if self.search is not None:
            doc["search"] = dict(self.search)
        doc["output"] = {"basename": self.basename}
        return doc


def parse_config(text: str) -> RunConfig:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError("<document>", "top level must be an object")
    for key in doc:
        if key not in _DOCUMENT_KEYS:
            raise ConfigError(key, "unknown field")

    scenario = _get(doc, "scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(
            "scenario", f"must be one of {', '.join(SCENARIOS)}; got {scenario!r}"
        )
    mode, variants = SCENARIOS[scenario]
    is_stat = variants is None
    n = _as_int(_get(doc, "n"), "n", minimum=1)
    noise = tuple(_items(_get(doc, "noise"), "noise", 2, "expected [sigma1_sq, sigma2_sq]",
                         _as_positive))
    eps_node = _get(doc, "epsilon")
    if mode == "common":
        epsilons = (_as_eps(eps_node, "epsilon"),) * 2
    else:
        epsilons = tuple(_items(eps_node, "epsilon", 2,
                                "individual scenarios take [epsilon1, epsilon2]", _as_eps))

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

    if has_cov:
        cov_node = _object(doc["covariances"], "covariances", COVARIANCE_KEYS,
                           "an object with Q11..Q22")
        mats = {
            key: _parse_matrix(_get(cov_node, f"covariances.{key}"), f"covariances.{key}", n)
            for key in COVARIANCE_KEYS
        }
        mc_samples = _as_int(_get(doc, "mc_samples"), "mc_samples", minimum=1)
        seed = _as_int(_get(doc, "seed"), "seed", minimum=0)
        stats = ChannelStatistics(n=n, **mats, sigma1_sq=noise[0], sigma2_sq=noise[1])
        for key in COVARIANCE_KEYS:
            read_only(stats.covariance(key))
        # The one validation of the statistics; a seed of 2**128 or more
        # raises its own ValueError here.
        try:
            source = SampleSource.gaussian(stats, seed=seed, count=mc_samples)
        except ValidationError as exc:
            raise ConfigError("covariances", str(exc)) from exc
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
            path = f"channels[{i}]"
            entry = _object(entry, path, CHANNEL_KEYS, "an object with h11..h22")
            vectors = {
                key: _parse_vector(_get(entry, f"{path}.{key}"), f"{path}.{key}", n)
                for key in CHANNEL_KEYS
            }
            try:
                channels.append(ChannelRealization(**vectors))
            except ValidationError as exc:
                raise ConfigError(path, str(exc)) from exc
            for key in CHANNEL_KEYS:
                read_only(getattr(channels[-1], key))
        source = SampleSource.explicit(channels)

    grid = None
    if "grid" in doc:
        if is_stat:
            raise ConfigError(
                "grid", "not used by statistical-CSI scenarios (see 'search')"
            )
        grid_node = _object(doc["grid"], "grid", ("n_points", "r1_cap", "r2_cap", "tol"))
        grid = {}
        if "n_points" in grid_node:
            grid["n_points"] = _as_int(grid_node["n_points"], "grid.n_points",
                                       GridConfig.MIN_N_POINTS)
        for key in ("r1_cap", "r2_cap", "tol"):
            if key in grid_node:
                grid[key] = _as_positive(grid_node[key], f"grid.{key}")

    search = None
    if is_stat:
        search_node = _object(_get(doc, "search"), "search", ("n_pairs", "seed", "curve_points"))
        search = {
            "n_pairs": _as_int(_get(search_node, "search.n_pairs"), "search.n_pairs", 1),
            "seed": _as_int(search_node.get("seed", 0), "search.seed", 0),
            "curve_points": _as_int(search_node.get("curve_points", CURVE_POINTS),
                                    "search.curve_points", StatRegionSearch.MIN_CURVE_POINTS),
        }
    elif "search" in doc:
        raise ConfigError("search", "only statistical-CSI scenarios take a search budget")

    basename = scenario
    if "output" in doc:
        basename = _get(_object(doc["output"], "output", ("basename",)), "output.basename")
        if not isinstance(basename, str) or not basename:
            raise ConfigError("output.basename", "expected a nonempty string")

    return RunConfig(
        scenario=scenario,
        n=n,
        source=source,
        noise=noise,
        epsilons=epsilons,
        grid=None if grid is None else MappingProxyType(grid),
        search=None if search is None else MappingProxyType(search),
        basename=basename,
    )


# The run-config of the last text parsed, keyed by that text.
_configs = LastValue()


def clear_config_cache() -> None:
    """Forget the cached run-config, statistical-CSI search and covariance
    factors, so the next load_config parses and factors again and the next
    stat_search draws its pairs again."""
    _configs.clear()
    _searches.clear()
    _factors.clear()


def load_config(path: str) -> RunConfig:
    """The run-config in the file at path. The file is read every time; a
    text equal to the last one parsed in this process returns that
    RunConfig again (parsed and validated once), any other text is parsed
    and replaces it. A text that fails to parse is never held."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("<document>", f"cannot read {path}: {exc}") from exc
    return _configs.get(text, functools.partial(parse_config, text))


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def run_validate(config: RunConfig) -> dict:
    return {
        "ok": True,
        "scenario": config.scenario,
        "n": config.n,
        "source": "explicit" if config.source.realizations is not None else "gaussian",
        "count": config.source.count,
    }


def run_point(config: RunConfig, r1: float, r2: float) -> dict:
    """Case probabilities and every applicable membership verdict at (r1, r2).

    Instantaneous scenarios report their first variant's membership record;
    common-outage scenarios appear only when the two tolerances are equal.
    """
    probs = estimate_case_probs(config.source, (r1, r2), config.noise)
    search = config.stat_search() if config.search is not None else None
    memberships = {}
    stat = {}
    for scenario, (mode, variants) in SCENARIOS.items():
        spec = config.spec(mode)
        if spec is None:
            continue
        if variants is not None:
            memberships[scenario] = asdict(verdict(probs, spec, variants[0]))
        elif search is not None:
            stat[scenario] = search.member_any(r1, r2, spec)
    report = {
        "point": [r1, r2],
        "case_probabilities": probs.as_dict(),
        "memberships": memberships,
        "bias_interval": bias_interval(probs, *config.epsilons).as_dict(),
    }
    if search is not None:
        report["stat_memberships"] = stat
    return report


def run_simulate(
    config: RunConfig, r1: float, r2: float, bias: float, coin_seed: int
) -> dict:
    outcome = simulate_policy(
        config.source, (r1, r2), bias, config.noise, coin_seed=coin_seed
    )
    return outcome.as_dict()


def run_frontier(config: RunConfig, index: int, points: int) -> dict:
    """Power-frontier dump for one realization: p(q) per transmitter."""
    source = config.source
    count = source.count
    if not 0 <= index < count:
        raise ValueError(f"realization index {index} out of range [0, {count})")
    report = {"index": index, "n_samples": count}
    with power_scale_checked(config):
        # Realization k is the same in any slice of the stream: sample only it.
        arrs = source.arrays(index, index + 1)
        for tx, own_key, cross_key in ((1, "h11", "h12"), (2, "h22", "h21")):
            frontier = power_frontier(arrs[own_key][0], arrs[cross_key][0])
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


def _resolved_grid(config: RunConfig, pipeline) -> GridConfig:
    opts = dict(config.grid or {})
    caps = pipeline.su_caps(*config.epsilons)
    for link, (eps, cap) in enumerate(zip(config.epsilons, caps), start=1):
        if f"r{link}_cap" not in opts and not cap > 0.0:
            raise ValueError(
                f"rate cap r{link}_cap = {cap:.6g} bits: the {eps:g}-quantile of link "
                f"{link}'s single-user rate is 0 (its direct channel h{link}{link} is "
                "zero in at least that fraction of realizations), so the region is empty"
            )
    r1_cap, r2_cap = opts.get("r1_cap", caps[0]), opts.get("r2_cap", caps[1])
    narrow = [
        f"rate cap {name} = {cap:.6g} bits is at or below the rate slack "
        f"RATE_SLACK = {RATE_SLACK:g} bits{why}"
        for name, cap, why in (
            ("r1_cap", r1_cap, ", so the region is at most RATE_SLACK wide in r1"),
            ("r2_cap", r2_cap, ": below the slack every case-B test column >= r2 - RATE_SLACK "
                               "passes, so the region has zero width in r2"),
        )
        if cap <= RATE_SLACK
    ]
    if narrow:
        raise ValueError("; ".join(narrow))
    for name, cap in (("r1_cap", r1_cap), ("r2_cap", r2_cap)):
        if not np.isfinite(gamma_from_rate(cap)):
            raise ValueError(
                f"rate cap {name} = {cap:.6g} bits overflows the SINR threshold "
                f"2^r - 1 (finite only below 1024 bits); noise {list(config.noise)} "
                "is too small for these channel powers"
            )
    return GridConfig(**{**opts, "r1_cap": r1_cap, "r2_cap": r2_cap})


def _report_text(report: dict) -> str:
    """A command's report as the JSON text it prints."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)


def run_region(config: RunConfig, out_dir: str, workers: int = 1) -> tuple[dict, str]:
    """Trace the configured region and write CSV boundary files + manifest.

    Returns the manifest and its JSON text, which the manifest file holds
    with a final newline and the command prints."""
    mode, variants = SCENARIOS[config.scenario]
    spec = config.spec(mode)
    if variants is None:
        boundary = config.stat_search().boundary(spec)
        boundary.metadata["seed"] = config.search["seed"]
        boundaries = {"boundary": boundary}
        columns = STAT_CSV_COLUMNS
    else:
        pipeline = InstantaneousRegionPipeline(config.source, config.noise)
        grid = _resolved_grid(config, pipeline)
        traced = pipeline.trace_variants(spec, grid, variants, workers=workers)
        boundaries = {
            "boundary" if i == 0 else variant: boundary
            for i, (variant, boundary) in enumerate(zip(variants, traced))
        }
        columns = CSV_COLUMNS

    # Created only now, so a run that fails above leaves no directory behind.
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    text = _report_text(manifest)
    (out / f"{config.basename}_manifest.json").write_text(text + "\n")
    return manifest, text


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _at_least(minimum: int):
    """argparse type: an integer no smaller than minimum."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return integer


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged."""
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
    p.add_argument("--coin-seed", type=_at_least(0), default=0)

    p = sub.add_parser("frontier", help="per-TX power frontier dump for one realization")
    p.add_argument("config")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--points", type=_at_least(1), default=33)

    p = sub.add_parser("region", help="trace the configured region to CSV + manifest")
    p.add_argument("config")
    p.add_argument("--out", default=".")
    p.add_argument("--workers", type=_at_least(1), default=1)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        config = load_config(args.config)
        if args.command == "validate":
            text = _report_text(run_validate(config))
        elif args.command == "point":
            text = _report_text(run_point(config, args.r1, args.r2))
        elif args.command == "simulate":
            text = _report_text(
                run_simulate(config, args.r1, args.r2, args.bias, args.coin_seed)
            )
        elif args.command == "frontier":
            text = _report_text(run_frontier(config, args.index, args.points))
        else:
            _, text = run_region(config, args.out, workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text)
    print(
        f"{args.command} finished in {time.perf_counter() - started:.2f}s",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
