#!/usr/bin/env python3
"""Compare two sets of benchmark records, one row per workload x metric.

usage: python3 benchmark/compare.py A B

A and B are result files: a records.jsonl that benchmark/run.sh appends
to (one JSON record per line), or a JSON file holding {"records": [...]}
such as benchmark/baseline.json. Only end-to-end records are compared
(quick and traced records are skipped). Each row gives both sides'
median and quartile spread (Q3 - Q1 as a share of the median) and a
verdict, using the bounds and directions in BENCHMARK.json:

  worse       B's median is worse than A's by more than the bound
  better      B's median is better than A's by more than A's spread
  same        neither of the above
  unresolved  either side spreads wider than the bound, unless every
              run of B reads better than every run of A (then better)

Exit status: 1 when any row is worse, 0 otherwise.
"""

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(path):
    text = pathlib.Path(path).read_text()
    try:
        doc = json.loads(text)
        records = doc["records"] if isinstance(doc, dict) else doc
    except json.JSONDecodeError:
        records = [json.loads(line) for line in text.splitlines()
                   if line.strip()]
    return [r for r in records if not r.get("trace") and not r.get("quick")]


def collect(records):
    values = {}
    for record in records:
        for name, metric in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(
                metric["value"])
    return values


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def verdict(a, b, bound, lower_is_better):
    """Verdict plus B's change against A as a signed share (+ = worse)."""
    sign = 1.0 if lower_is_better else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    worse_by = sign * (mb - ma) / abs(ma) if ma else sign * (mb - ma)
    if max(spread(a), spread(b)) > bound:
        all_better = all(sign * (y - x) < 0 for y in b for x in a)
        return ("better" if all_better else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    if -worse_by > spread(a) and worse_by < 0:
        return "better", worse_by
    return "same", worse_by


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    a, b = collect(load(argv[1])), collect(load(argv[2]))
    header = ("workload", "metric", "A median", "A iqr", "B median",
              "B iqr", "change", "bound", "verdict")
    print("%-13s %-20s %12s %7s %12s %7s %8s %6s  %s" % header)
    any_worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        for name, meta in metrics.items():
            key = (workload, name)
            if key not in a or key not in b:
                continue
            result, change = verdict(a[key], b[key], meta["bound"],
                                     meta["better"] == "lower")
            any_worse = any_worse or result == "worse"
            print("%-13s %-20s %12.5g %6.1f%% %12.5g %6.1f%% %+7.1f%% "
                  "%5.0f%%  %s" % (
                      workload, name, statistics.median(a[key]),
                      100 * spread(a[key]), statistics.median(b[key]),
                      100 * spread(b[key]), 100 * change,
                      100 * meta["bound"], result))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
