"""Correctness checks for the outputs of benchmark operations.

Every check returns a list of failure messages; an empty list means the output
passed. Invariant checks hold at any seed. Reference checks compare against the
artifacts stored under perfbench/reference/, which were produced at the
reference seed.
"""

from __future__ import annotations

import csv
import io
import json
import math

# CSV cells carry 10 significant digits, so a probability p printed there
# reproduces p * N to within about 1e-5 at N <= 1e6.
COUNT_ROUNDING = 1e-3
# Margins and success probabilities read back from 10-digit CSV cells.
CSV_SLACK = 1e-9
# Statistical-CSI boundaries come from 100-step bisection inversions, exact to
# far below the CSV precision; reference values must agree to this absolute
# tolerance in both coordinates.
STAT_REF_TOL = 1e-8
# Policy simulation at a member point: the coin flips in case D make the
# outage frequency a binomial estimate; allow this many standard errors.
POLICY_SE_MULT = 5.0

INST_COLUMNS = ("r1", "r2", "p_a", "p_b", "p_c1", "p_c2", "p_d",
                "margin1", "margin2", "margin3")
STAT_COLUMNS = ("r1", "r2", "pi1", "pi2", "pair_index")
CASES = ("a", "b", "c1", "c2", "d")


def parse_json(text: str, what: str, failures: list) -> dict | None:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        failures.append(f"{what}: not valid JSON ({exc})")
        return None
    if not isinstance(doc, dict):
        failures.append(f"{what}: top level is not an object")
        return None
    return doc


def read_csv(text: str, columns, what: str, failures: list) -> list[dict] | None:
    """Rows of a boundary CSV as dicts of floats (empty cells become None)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != tuple(columns):
        failures.append(f"{what}: header {header} != {list(columns)}")
        return None
    rows = []
    for lineno, cells in enumerate(reader, start=2):
        if len(cells) != len(columns):
            failures.append(f"{what}:{lineno}: {len(cells)} cells, expected {len(columns)}")
            return None
        try:
            rows.append({c: (float(v) if v != "" else None) for c, v in zip(columns, cells)})
        except ValueError as exc:
            failures.append(f"{what}:{lineno}: {exc}")
            return None
    return rows


def counts_from_probabilities(row: dict, n: int) -> dict | None:
    """Integer case counts behind a CSV row's probabilities, or None if they
    are not within rounding of integers."""
    counts = {}
    for case in CASES:
        x = row[f"p_{case}"] * n
        k = round(x)
        if abs(x - k) > COUNT_ROUNDING:
            return None
        counts[case] = k
    return counts


def check_counts(counts: dict, n: int, what: str) -> list[str]:
    """Case counts are nonnegative integers summing to N."""
    failures = []
    if any(not isinstance(counts.get(c), int) or counts[c] < 0 for c in CASES):
        failures.append(f"{what}: case counts {counts} are not nonnegative integers")
    elif sum(counts[c] for c in CASES) != n:
        failures.append(f"{what}: case counts {counts} sum to "
                        f"{sum(counts[c] for c in CASES)}, not N = {n}")
    return failures


def pareto_order(rows: list[dict], what: str) -> list[str]:
    """r1 strictly increasing and r2 strictly decreasing along a boundary."""
    failures = []
    for prev, cur in zip(rows, rows[1:]):
        if not (cur["r1"] > prev["r1"] and cur["r2"] < prev["r2"]):
            failures.append(f"{what}: points ({prev['r1']}, {prev['r2']}) and "
                            f"({cur['r1']}, {cur['r2']}) are not a Pareto staircase")
            break
    return failures


def dominated_by(point: tuple[float, float], rows: list[dict], slack: float = 0.0) -> bool:
    """Some row is at least as large as the point in both coordinates."""
    r1, r2 = point
    return any(row["r1"] >= r1 - slack and row["r2"] >= r2 - slack for row in rows)


# ---------------------------------------------------------------------------
# Instantaneous-CSI region
# ---------------------------------------------------------------------------


def check_inst_boundary(rows: list[dict], n: int, r2_cap: float, variant: str,
                        what: str) -> list[str]:
    failures = pareto_order(rows, what)
    margins = ("margin1", "margin2", "margin3") if variant == "plain" else ("margin1", "margin2")
    for i, row in enumerate(rows):
        where = f"{what} row {i}"
        if not 0.0 <= row["r2"] <= r2_cap * (1.0 + CSV_SLACK):
            failures.append(f"{where}: r2 = {row['r2']} outside [0, {r2_cap}]")
        counts = counts_from_probabilities(row, n)
        if counts is None:
            failures.append(f"{where}: probabilities are not counts out of N = {n}")
        else:
            failures.extend(check_counts(counts, n, where))
        for m in margins:
            if row[m] is None or row[m] < -CSV_SLACK:
                failures.append(f"{where}: {m} = {row[m]} but the point is reported as a member")
    return failures


def check_fixed_within_individual(fixed: list[dict], plain: list[dict], what: str) -> list[str]:
    """Every fixed-choice boundary point lies inside the individual region.

    Both boundaries bisect the same cached columns and fixed-choice membership
    implies individual membership, so the individual staircase dominates each
    fixed-choice point exactly.
    """
    for row in fixed:
        if not dominated_by((row["r1"], row["r2"]), plain):
            return [f"{what}: fixed-choice point ({row['r1']}, {row['r2']}) lies "
                    "outside the individual-outage boundary"]
    return []


def check_inst_region(manifest: dict, csv_texts: dict, n: int) -> list[str]:
    """Invariants of an individual-inst region run (plain + both fixed choices)."""
    failures = []
    outputs = manifest.get("outputs", {})
    if set(outputs) != {"boundary", "fixed1", "fixed2"}:
        return [f"manifest outputs {sorted(outputs)} != boundary, fixed1, fixed2"]
    rows = {}
    for key in outputs:
        meta = manifest["boundaries"][key]["metadata"]
        if meta.get("n_samples") != n:
            failures.append(f"{key}: n_samples {meta.get('n_samples')} != {n}")
        parsed = read_csv(csv_texts.get(key, ""), INST_COLUMNS, key, failures)
        if parsed is None:
            continue
        if not parsed:
            failures.append(f"{key}: empty boundary")
        variant = "plain" if key == "boundary" else key
        failures.extend(check_inst_boundary(parsed, n, meta["r2_cap"], variant, key))
        rows[key] = parsed
    if "boundary" in rows:
        for key in ("fixed1", "fixed2"):
            if key in rows:
                failures.extend(check_fixed_within_individual(rows[key], rows["boundary"], key))
    return failures


def check_inst_region_reference(manifest: dict, csv_texts: dict, ref_texts: dict) -> list[str]:
    """Boundary r2 within the bisection tolerance of the stored reference.

    Columns must match exactly; where a point's r2 equals the reference its
    case probabilities (hence counts) must equal the reference too.
    """
    failures = []
    for key, text in csv_texts.items():
        tol = manifest["boundaries"][key]["metadata"]["bisection_tol"]
        got = read_csv(text, INST_COLUMNS, key, failures)
        ref = read_csv(ref_texts.get(key, ""), INST_COLUMNS, f"reference {key}", failures)
        if got is None or ref is None:
            continue
        failures.extend(compare_inst_boundary(got, ref, tol, key))
    return failures


def compare_inst_boundary(got: list[dict], ref: list[dict], tol: float, what: str) -> list[str]:
    if [row["r1"] for row in got] != [row["r1"] for row in ref]:
        return [f"{what}: boundary columns differ from the reference"]
    for row, ref_row in zip(got, ref):
        if abs(row["r2"] - ref_row["r2"]) > tol:
            return [f"{what}: r2 = {row['r2']} at r1 = {row['r1']} is more than "
                    f"{tol:.3g} from the reference {ref_row['r2']}"]
        if row["r2"] == ref_row["r2"] and any(
            row[f"p_{c}"] != ref_row[f"p_{c}"] for c in CASES
        ):
            return [f"{what}: case probabilities at ({row['r1']}, {row['r2']}) "
                    "differ from the reference"]
    return []


# ---------------------------------------------------------------------------
# Point queries and policy simulation
# ---------------------------------------------------------------------------


def check_point(report: dict, n: int) -> list[str]:
    probs = report["case_probabilities"]
    failures = []
    if probs["n_samples"] != n:
        failures.append(f"point: n_samples {probs['n_samples']} != {n}")
    failures.extend(check_counts(probs["counts"], n, "point"))
    ind = report["memberships"]["individual-inst"]
    interval = report["bias_interval"]
    if ind["member"] != interval["nonempty"]:
        failures.append(f"point: individual member {ind['member']} but bias interval "
                        f"nonempty {interval['nonempty']}")
    all_ok = all(ind[m] >= 0.0 for m in ("margin1", "margin2", "margin3"))
    if ind["member"] != all_ok:
        failures.append(f"point: member {ind['member']} disagrees with margins {ind}")
    if interval["nonempty"] and not 0.0 <= interval["lo"] <= interval["hi"] <= 1.0:
        failures.append(f"point: nonempty bias interval {interval} outside [0, 1]")
    for choice in (1, 2):
        fixed = report["memberships"][f"individual-inst-fixed{choice}"]
        if fixed["member"] and not ind["member"]:
            failures.append(f"point: fixed choice {choice} member but not individual member")
    return failures


def check_simulate(outcome: dict, point_report: dict, bias: float, eps: tuple, n: int) -> list[str]:
    """Policy outcome consistent with the case counts of the same rate point.

    Both calls classify the same stream at the same point, so the counts of
    cases A, B, C1 and C2 must match exactly and the coin only splits case D.
    Link i cannot succeed outside B, Ci and its D share, and always succeeds
    in Ci and its D share. At a member point with a bias inside the feasible
    interval each outage frequency stays within eps_i plus POLICY_SE_MULT
    binomial standard errors.
    """
    failures = []
    counts = point_report["case_probabilities"]["counts"]
    use = outcome["case_usage"]
    if outcome["n_samples"] != n:
        failures.append(f"simulate: n_samples {outcome['n_samples']} != {n}")
    if sum(use.values()) != n:
        failures.append(f"simulate: case usage {use} does not sum to N = {n}")
    for case in ("a", "b", "c1", "c2"):
        if use[case] != counts[case]:
            failures.append(f"simulate: count {case} = {use[case]} but point reported {counts[case]}")
    if use["d_serve1"] + use["d_serve2"] != counts["d"]:
        failures.append(f"simulate: case D split {use['d_serve1']} + {use['d_serve2']} "
                        f"!= point count {counts['d']}")
    s1, s2 = outcome["success"]["link1"], outcome["success"]["link2"]
    if not use["c1"] + use["d_serve1"] <= s1 <= use["b"] + use["c1"] + use["d_serve1"]:
        failures.append(f"simulate: link-1 successes {s1} outside the policy's cases {use}")
    if not use["c2"] + use["d_serve2"] <= s2 <= use["b"] + use["c2"] + use["d_serve2"]:
        failures.append(f"simulate: link-2 successes {s2} outside the policy's cases {use}")
    interval = point_report["bias_interval"]
    if interval["nonempty"] and interval["lo"] <= bias <= interval["hi"]:
        for link, e in ((1, eps[0]), (2, eps[1])):
            freq = outcome["outage_freq"][f"link{link}"]
            se = math.sqrt(e * (1.0 - e) / n)
            if freq > e + POLICY_SE_MULT * se:
                failures.append(f"simulate: link-{link} outage {freq:.6f} exceeds "
                                f"{e} + {POLICY_SE_MULT} SE at a feasible bias {bias}")
    return failures


def check_point_reference(report: dict, ref: dict) -> list[str]:
    if report["case_probabilities"]["counts"] != ref["case_probabilities"]["counts"]:
        return [f"point {report['point']}: counts {report['case_probabilities']['counts']} "
                f"!= reference {ref['case_probabilities']['counts']}"]
    return []


def check_simulate_reference(outcome: dict, ref: dict) -> list[str]:
    keys = ("success", "case_usage")
    if any(outcome[k] != ref[k] for k in keys):
        return [f"simulate: success/case usage {[outcome[k] for k in keys]} "
                f"!= reference {[ref[k] for k in keys]}"]
    return []


# ---------------------------------------------------------------------------
# Statistical-CSI regions
# ---------------------------------------------------------------------------


def check_stat_boundary(rows: list[dict], mode: str, eps, what: str) -> list[str]:
    failures = pareto_order(rows, what)
    if not rows:
        failures.append(f"{what}: empty boundary")
    for i, row in enumerate(rows):
        pi1, pi2 = row["pi1"], row["pi2"]
        if not (0.0 <= pi1 <= 1.0 and 0.0 <= pi2 <= 1.0):
            failures.append(f"{what} row {i}: success probabilities ({pi1}, {pi2}) outside [0, 1]")
            continue
        if mode == "common":
            ok = pi1 * pi2 >= 1.0 - eps - CSV_SLACK
        else:
            ok = pi1 >= 1.0 - eps[0] - CSV_SLACK and pi2 >= 1.0 - eps[1] - CSV_SLACK
        if not ok:
            failures.append(f"{what} row {i}: ({pi1}, {pi2}) violates the {mode} "
                            f"outage constraint {eps}")
    return failures


def check_stat_nesting(common: list[dict], individual: list[dict]) -> list[str]:
    """Common outage eps implies per-link outage eps over the same candidate
    pairs, so the individual staircase dominates every common point."""
    for row in common:
        if not dominated_by((row["r1"], row["r2"]), individual, slack=CSV_SLACK):
            return [f"common-stat point ({row['r1']}, {row['r2']}) lies outside "
                    "the individual-stat boundary"]
    return []


def compare_stat_boundary(got: list[dict], ref: list[dict], what: str) -> list[str]:
    if len(got) != len(ref):
        return [f"{what}: {len(got)} boundary points, reference has {len(ref)}"]
    for row, ref_row in zip(got, ref):
        if (abs(row["r1"] - ref_row["r1"]) > STAT_REF_TOL
                or abs(row["r2"] - ref_row["r2"]) > STAT_REF_TOL):
            return [f"{what}: point ({row['r1']}, {row['r2']}) is more than "
                    f"{STAT_REF_TOL} from the reference ({ref_row['r1']}, {ref_row['r2']})"]
    return []
