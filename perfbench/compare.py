"""Compare two sets of benchmark results, metric by metric.

Usage:

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds results files written by run.py (its
.bench_build/perfbench/results/).  For every workload and metric this prints
each side's median and quartiles over the runs found, the change of the
median as a share of the "before" median, and whether it exceeds the bound
in BENCHMARK.json.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory: str) -> dict:
    """(workload, metric) -> values over the results files in ``directory``."""
    values = defaultdict(list)
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        for name, metric in record["metrics"].items():
            values[(record["workload"], name)].append(metric["value"])
    return values


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g} (1 run)"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}] ({len(values)} runs)"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    rules = {m["name"]: m for m in spec["end_to_end"]}
    before, after = load(argv[0]), load(argv[1])
    for key in sorted(set(before) & set(after)):
        workload, name = key
        old, new = statistics.median(before[key]), statistics.median(after[key])
        change = (new - old) / abs(old) if old else 0.0
        verdict = ""
        rule = rules.get(name)
        if rule is not None:
            worse = -change if rule["better"] == "higher" else change
            verdict = "WORSE than bound" if worse > rule["bound"] else "within bound"
        print(f"{workload:14s} {name:44s} {summary(before[key]):36s} -> "
              f"{summary(after[key]):36s} {change:+.1%} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
