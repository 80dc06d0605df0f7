"""Compare two result files: ``python benchmarks/bench/compare.py A.json B.json``.

One row per (metric, workload): the base value (A), the new value (B), their
ratio, the metric's bound and a verdict.

* ``better`` / ``worse`` — B's median differs from A's by more than the bound,
  in the metric's good or bad direction;
* ``same`` — within the bound;
* ``unresolved`` — the repeats of either side spread wider than the bound and
  the two sides' ranges overlap: the difference cannot be told from noise
  (a side whose every repeat beats every repeat of the other is still
  ``better`` or ``worse``).

Exit status is 1 when any row is ``worse`` or a workload's ``failed_ratio``
rose, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any

import metrics


def spread(values: list[float]) -> float:
    """Quartile spread over the median (range over the median below 4 repeats)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def verdict(name: str, base: list[float], new: list[float]) -> tuple[float, float, str]:
    """(base median, new median, verdict) for one metric of one workload."""
    _unit, better, bound, _reported_by = metrics.E2E[name]
    a, b = statistics.median(base), statistics.median(new)
    if name == "failed_ratio":
        return a, b, "worse" if b > a else "same"
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b - a) / abs(a)
    overlap = min(base) <= max(new) and min(new) <= max(base)
    if overlap and max(spread(base), spread(new)) > bound:
        return a, b, "unresolved"
    if change > bound:
        return a, b, "worse"
    if change < -bound:
        return a, b, "better"
    return a, b, "same"


def compare(base: dict[str, Any], new: dict[str, Any]) -> list[tuple]:
    rows = []
    for workload in metrics.WORKLOADS:
        left = base["workloads"].get(workload)
        right = new["workloads"].get(workload)
        if left is None or right is None:
            continue
        for name, (unit, _better, bound, _reported_by) in metrics.E2E.items():
            a, b = left["e2e"].get(name), right["e2e"].get(name)
            if a is None or b is None:
                continue
            rows.append((workload, name, unit, bound, *verdict(name, a["repeats"], b["repeats"])))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, new = (json.loads(open(path).read()) for path in argv)
    for side, result in (("base", base), ("new", new)):
        env = result["env"]
        print(f"{side}: commit {env['git_commit']} dirty={env['git_dirty']} seed={env['seed']} "
              f"seconds={env['seconds']} python={env['python']} cpus={env['cpu_count']}")
    print(
        f"{'workload':<17} {'metric':<18} {'base':>12} {'new':>12} {'new/base':>9} {'bound':>6}"
        "  verdict"
    )
    status = 0
    for workload, name, unit, bound, a, b, word in compare(base, new):
        ratio = f"{b / a:9.3f}" if a else "        -"
        print(
            f"{workload:<17} {name:<18} {a:>12.5g} {b:>12.5g} {ratio} {bound:>6.2f}"
            f"  {word} [{unit}]"
        )
        if word == "worse":
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
