"""Correctness check of sweep CSVs against reference.json.

reference.json was recorded from the seed commit by record_reference.py. It
holds, per parameter variant, the params digest and, per (scheme, rate):

* for analytic rows, the closed-form throughput; a row must match it to
  ANALYTIC_RTOL relative;
* for Monte Carlo rows, the mean throughput, per-trial standard deviation
  and trial count of a large reference run. A row's mean must lie within
  Z_LIMIT combined standard errors of the reference mean, where the
  combined error is std * sqrt(1/trials + 1/reference_trials). The check is
  statistical, so an engine that maps seeds to numbers differently still
  passes when it samples the same model.

A point fails when its row is missing, duplicated, malformed, or outside
these limits.
"""

from __future__ import annotations

import json
import math
import os

HEADER = "scheme,lambda,trials,mean_throughput_pps,ci95_halfwidth,seed,params_digest"
ANALYTIC_RTOL = 1e-9
Z_LIMIT = 6.0
LAMBDA_RTOL = 1e-9

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def _same_rate(a: float, b: float) -> bool:
    return abs(a - b) <= LAMBDA_RTOL * max(abs(a), abs(b), 1.0)


class Reference:
    def __init__(self, path: str = REFERENCE_PATH):
        with open(path) as handle:
            data = json.load(handle)
        self.digests = data["digests"]
        self.entries = {}
        for entry in data["points"]:
            self.entries.setdefault((entry["variant"], entry["tag"]), []).append(entry)

    def entry(self, point):
        for entry in self.entries.get((point.variant, point.tag), ()):
            if _same_rate(entry["lambda"], point.lam):
                return entry
        raise KeyError(f"no reference for {point}")


def _judge(fields: list[str], point, entry: dict, digest: str, seed: int) -> str | None:
    """Why one CSV row is wrong for its point, or None if it is right."""
    try:
        trials, mean, halfwidth = int(fields[2]), float(fields[3]), float(fields[4])
        row_seed = int(fields[5])
    except ValueError as exc:
        return f"malformed row: {exc}"
    if trials != point.trials:
        return f"trials {trials} != {point.trials}"
    if row_seed != seed:
        return f"seed {row_seed} != {seed}"
    if fields[6] != digest:
        return f"params digest {fields[6]} != {digest}"
    if not (math.isfinite(mean) and math.isfinite(halfwidth) and halfwidth >= 0):
        return f"non-finite or negative value in {fields}"
    if point.analytic:
        want = entry["value_pps"]
        if abs(mean - want) > ANALYTIC_RTOL * abs(want) or halfwidth != 0.0:
            return f"analytic {mean!r} (ci {halfwidth!r}) != reference {want!r}"
        return None
    error = entry["std_pps"] * math.sqrt(1.0 / trials + 1.0 / entry["trials"])
    gap = abs(mean - entry["mean_pps"])
    if gap > Z_LIMIT * error and gap > ANALYTIC_RTOL * abs(entry["mean_pps"]):
        return (f"mean {mean!r} is {gap / error if error else math.inf:.1f} "
                f"standard errors from reference {entry['mean_pps']!r}")
    return None


def check_csv(text: str | None, points: list, reference: Reference,
              seed: int) -> tuple[dict, dict]:
    """Check one call's CSV text (None if it was not written).

    Returns (failures, rows): failure reason per failed point, and the raw
    row line per point found, for comparing passes with each other.
    """
    if text is None:
        return {point: "no CSV written" for point in points}, {}
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        return {point: "bad CSV header" for point in points}, {}
    found: dict = {}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 7:
            continue
        try:
            lam = float(fields[1])
        except ValueError:
            continue
        for point in points:
            if fields[0] == point.tag and _same_rate(lam, point.lam):
                found.setdefault(point, []).append((line, fields))
    failures, rows = {}, {}
    for point in points:
        matches = found.get(point, [])
        if len(matches) != 1:
            failures[point] = "missing row" if not matches else "duplicate rows"
            continue
        line, fields = matches[0]
        rows[point] = line
        reason = _judge(fields, point, reference.entry(point),
                        reference.digests[point.variant], seed)
        if reason:
            failures[point] = reason
    return failures, rows
