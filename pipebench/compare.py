"""Compare two sets of pipebench result records, metric by metric.

    python3 pipebench/compare.py BASE_DIR NEW_DIR

Each directory holds ``<workload>-seed<n>-trace<t>.json`` records as
``run.py`` writes them to ``pipebench/out/results`` (copy that directory
aside before measuring the other commit).  Prints, per workload and metric,
the median and quartiles of each side and the change of the medians; an
end-to-end metric whose median got worse by more than its bound in
BENCHMARK.json is marked REGRESSED.  Where the base runs spread (quartile
distance over median) wider than the bound, the metric is marked
UNRESOLVED instead, unless every new run reads better than every base
run.  Alternate base and new runs, so that both sets see the same host.
Records made with different kernels
are not comparable: the script refuses them and exits with code 2.

Each workload also gets a ``host`` line: the median calibration time, a
fixed loop that is the same on every commit.  If it moved, the host ran
at another speed during one set; ``wall_s`` and ``cpu_s`` are adjusted
for host speed job by job, the per-layer self times are not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> list:
    records = []
    for path in sorted(directory.glob("*-seed*-trace*.json")):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def summary(values: list) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def spread(values: list) -> float:
    """Quartile distance over the median; 0 for a single run."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("both directories need result records", file=sys.stderr)
        return 1
    tags = {r["kernel_tag"] for r in base + new}
    if len(tags) != 1:
        print(f"results come from different kernels {sorted(tags)}; "
              "refusing to compare", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    keys = sorted({(r["workload"], r["trace"]) for r in base + new})
    for workload, trace in keys:
        side = [[r for r in recs if (r["workload"], r["trace"]) == (workload, trace)]
                for recs in (base, new)]
        if not all(side):
            continue
        print(f"{workload} (trace {trace}; runs {len(side[0])} vs {len(side[1])})")
        b, n = ([r["host"]["calibration_s"] for r in s] for s in side)
        mb, mn = statistics.median(b), statistics.median(n)
        print(f"  {'host calibration_s':34s} {summary(b):>32s} -> {summary(n):>32s}"
              f"  {(mn - mb) / mb:+.1%}")
        for name in side[0][0]["metrics"]:
            b, n = ([r["metrics"][name]["value"] for r in s] for s in side)
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else 0.0
            worse = change if better.get(name) == "lower" else -change
            flag = ""
            if name in bounds:
                bound = bounds[name]["bound"]
                lower = better[name] == "lower"
                all_better = max(n) < min(b) if lower else min(n) > max(b)
                if spread(b) > bound and not all_better:
                    flag = f"  UNRESOLVED (base spread {spread(b):.2f} > {bound})"
                elif worse > bound:
                    flag = "  REGRESSED"
            print(f"  {name:34s} {summary(b):>32s} -> {summary(n):>32s}"
                  f"  {change:+.1%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
