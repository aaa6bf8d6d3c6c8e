#!/usr/bin/env python3
"""Compare two sets of provbench runs under the BENCHMARK.json bounds.

    python3 bench/provbench/compare.py A/*.json -- B/*.json [--per-layer]

Each file holds the stdout of one invocation (run.py or the provbench
binary). Runs are grouped by workload. For every end-to-end metric the
table shows each side's median, first and third quartile and sample count,
the change of B's median against A's, and a verdict:

  unchanged   medians within the metric's bound (identical: bit-equal)
  worse       B's median is worse than A's by more than the bound
  better      B's median is better than A's by more than the bound
  unresolved  a side's quartile spread exceeds the bound and the runs
              overlap, so the bound cannot be resolved

When the spread exceeds the bound but every run of one side beats every
run of the other, the verdict follows that separation. --per-layer adds
the per-layer metrics (no bounds: identical or moved). The exit code is 1
when any end-to-end verdict is worse.
"""
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load(paths):
    """workload -> section -> metric -> [values], from each file's detail line."""
    runs = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    for path in paths:
        detail = None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line.startswith("{") and '"provbench"' in line:
                    detail = json.loads(line)["provbench"]
        if detail is None:
            sys.exit("compare: no provbench detail line in %s" % path)
        for section in ("end_to_end", "per_layer"):
            for name, metric in detail[section].items():
                runs[detail["workload"]][section][name].append(metric["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, bound, lower_is_better):
    """(verdict, relative change of B's median against A's)."""
    _, ma, _ = quartiles(a)
    _, mb, _ = quartiles(b)
    if sorted(a) == sorted(b) and len(set(a)) == 1:
        return "identical", 0.0
    if ma == 0:
        return ("unchanged" if mb == 0 else "unresolved"), 0.0
    change = (mb - ma) / abs(ma)
    worse = change if lower_is_better else -change
    spread = 0.0
    for side, median in ((a, ma), (b, mb)):
        q1, _, q3 = quartiles(side)
        if median != 0:
            spread = max(spread, (q3 - q1) / abs(median))
    b_beats_all = (max(b) < min(a)) if lower_is_better else (min(b) > max(a))
    a_beats_all = (max(a) < min(b)) if lower_is_better else (min(a) > max(b))
    if spread > bound:
        if b_beats_all and -worse > bound:
            return "better", change
        if a_beats_all and worse > bound:
            return "worse", change
        return "unresolved", change
    if worse > bound:
        return "worse", change
    if -worse > bound:
        return "better", change
    return "unchanged", change


def fmt(values):
    q1, med, q3 = quartiles(values)
    return "%12.6g [%11.6g %11.6g] n=%-2d" % (med, q1, q3, len(values))


def main(argv):
    per_layer = "--per-layer" in argv
    argv = [a for a in argv if a != "--per-layer"]
    if "--" not in argv:
        sys.exit(__doc__)
    split = argv.index("--")
    side_a, side_b = load(argv[:split]), load(argv[split + 1:])
    with open(BENCHMARK) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}

    any_worse = False
    print("%-16s %-34s %-42s %-42s %8s  %s" %
          ("workload", "metric", "A median [q1 q3]", "B median [q1 q3]",
           "change", "verdict"))
    for workload in sorted(set(side_a) | set(side_b)):
        if workload not in side_a or workload not in side_b:
            print("%-16s only on one side" % workload)
            continue
        rows = [("end_to_end", e2e)]
        if per_layer:
            rows.append(("per_layer", layers))
        for section, metrics in rows:
            for name, m in metrics.items():
                a = side_a[workload][section].get(name)
                b = side_b[workload][section].get(name)
                if not a or not b:
                    print("%-16s %-34s missing" % (workload, name))
                    continue
                lower = m["better"] == "lower"
                if section == "end_to_end":
                    v, change = verdict(a, b, m["bound"], lower)
                    any_worse = any_worse or v == "worse"
                else:
                    v, change = verdict(a, b, 0.0, lower)
                    v = "identical" if v == "identical" else "moved"
                print("%-16s %-34s %s %s %+7.2f%%  %s" %
                      (workload, name, fmt(a), fmt(b), 100.0 * change, v))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
