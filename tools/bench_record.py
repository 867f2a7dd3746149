"""Fold the benchmark reports of alternating parent/change runs into one
BENCH file.

    python3 tools/bench_record.py PARENT_DIR CHANGE_DIR --out BENCH_<number>.json \\
        --parent-rev REV --change-rev REV --seconds S

PARENT_DIR and CHANGE_DIR are source checkouts of the two commits, each
with the reports that ``perfbench/run.py`` wrote to its ``.perfbench-out/``
(``<workload>-seed<N>-trace<T>.json``). An untraced run of one workload
and seed on each side is one pair; the runs of a pair are made one after
the other, alternating which side goes first. ``--seconds`` records the
``--seconds`` the runs were made with.

Tier 1 gives, per workload and side, the median and quartiles of each
end-to-end metric over the seeds, every run's value, and the number of
pairs the change won (all three metrics are better when lower). Tier 2
gives, per traced workload and side, the median over the traced runs of
each per-layer metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from collections import defaultdict
from pathlib import Path

TIER1 = ("setup_s", "wall_s", "peak_rss_mb")
SIDES = ("parent", "change")


def load_reports(checkout: Path) -> dict[tuple[str, int, int], dict]:
    """(workload, seed, trace) -> metric name -> value, for every report."""
    out = {}
    for path in sorted((checkout / ".perfbench-out").glob("*-seed*-trace*.json")):
        report = json.loads(path.read_text())
        if report.get("problems"):
            sys.exit(f"{path.name}: the run reported problems: {report['problems']}")
        key = (report["workload"], int(report["seed"]), int(report["trace"]))
        out[key] = {name: m["value"] for name, m in report["metrics"].items()}
    return out


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def fold(parent: dict, change: dict) -> dict:
    tier1: dict = defaultdict(dict)
    for workload in sorted({w for w, _, t in parent if t == 0}):
        seeds = sorted(s for w, s, t in parent
                       if w == workload and t == 0 and (w, s, 0) in change)
        if len(seeds) < 2:
            continue
        for metric in TIER1:
            runs = {side: [reports[(workload, s, 0)][metric] for s in seeds]
                    for side, reports in zip(SIDES, (parent, change))}
            tier1[workload][metric] = {
                "seeds": seeds,
                **{side: spread(runs[side]) for side in SIDES},
                "change_wins": sum(c < p for p, c in zip(runs["parent"], runs["change"])),
            }
    tier2: dict = defaultdict(dict)
    for side, reports in zip(SIDES, (parent, change)):
        traced: dict = defaultdict(lambda: defaultdict(list))
        runs: dict = defaultdict(int)
        for (workload, _, trace), metrics in reports.items():
            if trace == 1:
                runs[workload] += 1
                for name, value in metrics.items():
                    traced[workload][name].append(value)
        for workload, metrics in traced.items():
            tier2[workload][side] = {
                "traced_runs": runs[workload],
                "metrics": {name: statistics.median(values) for name, values in metrics.items()},
            }
    return {"tier1": dict(tier1), "tier2": dict(tier2)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent-rev", required=True)
    parser.add_argument("--change-rev", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    folded = fold(load_reports(args.parent_dir), load_reports(args.change_dir))
    record = {
        "parent": args.parent_rev,
        "change": args.change_rev,
        "run_seconds": args.seconds,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        **folded,
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
