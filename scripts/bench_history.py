#!/usr/bin/env python3
"""The trajectory of the committed benchmark runs.

    python scripts/bench_history.py [DIR]

Reads every `BENCH_pr*.json` in DIR (default: the repository root) in PR
order, and prints, for each workload and each end-to-end metric that
`BENCHMARK.json` declares, the median and the interquartile range of the
parent's runs and of the change's, and the change's median against the
parent's.  A file whose parent `src_tree` is the previous file's change
`src_tree` measured the same code twice, at two times; it is flagged, with
the drift of each median between the two measurements, which is how far
medians move on this host with no change to the code.  A PR without a file
and a run without a metric are skipped.
"""

import json
import re
import sys
from pathlib import Path
from statistics import median, quantiles


def pr_number(path: Path) -> int:
    return int(re.fullmatch(r"BENCH_pr(\d+)\.json", path.name).group(1))


def medians(runs, side, metrics):
    """{(workload, metric): (median, IQR)} of one side's runs."""
    values = {}
    for run in runs:
        if run["side"] != side:
            continue
        measured = run.get("summary", {}).get("metrics", {})
        for metric in metrics:
            if metric in measured:
                values.setdefault((run["workload"], metric), []).append(measured[metric]["value"])
    stats = {}
    for key, xs in values.items():
        q1, _, q3 = quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
        stats[key] = (median(xs), q3 - q1)
    return stats


def number(x: float) -> str:
    for scale, suffix in ((1e6, "M"), (1e3, "k")):
        if abs(x) >= scale:
            return f"{x / scale:.3g}{suffix}"
    return f"{x:.3g}"


def relative(new: float, old: float) -> str:
    return f"{(new / old - 1) * 100:+.1f}%" if old else "n/a"


def main(root: Path) -> None:
    metrics = [m["name"] for m in json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]]
    previous = None  # (file name, change src_tree, change stats)
    for path in sorted(root.glob("BENCH_pr*.json"), key=pr_number):
        bench = json.loads(path.read_text())
        parent = medians(bench["runs"], "parent", metrics)
        change = medians(bench["runs"], "change", metrics)
        print(path.name)
        for key in sorted(parent.keys() & change.keys()):
            (p, p_iqr), (c, c_iqr) = parent[key], change[key]
            print(f"  {key[0]:<11} {key[1]:<12} parent {number(p):>6} (IQR {number(p_iqr):>6})"
                  f"  change {number(c):>6} (IQR {number(c_iqr):>6})  {relative(c, p)}")
        if previous and bench["parent"]["src_tree"] == previous[1]:
            print(f"  same src tree as the change side of {previous[0]}; drift of its medians:")
            for key in sorted(parent.keys() & previous[2].keys()):
                before, after = previous[2][key][0], parent[key][0]
                print(f"    {key[0]:<11} {key[1]:<12} {number(before):>6} -> {number(after):>6}"
                      f"  {relative(after, before)}")
        previous = (path.name, bench["change"]["src_tree"], change)


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
