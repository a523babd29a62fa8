"""Summarise run records: median, quartiles and spread of every metric.

    python3 clibench/aggregate.py clibench/out/BENCH_*_trace0.json [-o summary.json]

Records are grouped by workload and trace setting.  The spread is the
distance between the first and third quartile (``statistics.quantiles``
with n=4) as a share of the median, the figure a metric's bound in
BENCHMARK.json is compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path


def summarise(paths: list[Path]) -> dict:
    groups = defaultdict(list)
    for path in paths:
        rec = json.loads(path.read_text())
        s = rec["settings"]
        groups[f"{s['workload']} trace={s['trace']}"].append(rec)
    out = {}
    for key, recs in sorted(groups.items()):
        metrics = {}
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in recs if name in r["metrics"]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            metrics[name] = {
                "unit": recs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0, "runs": len(values),
            }
        out[key] = {
            "machine": recs[0]["machine"],
            "seeds": sorted(r["settings"]["seed"] for r in recs),
            "settings": {k: v for k, v in recs[0]["settings"].items() if k not in ("seed", "rounds")},
            "rounds": [r["settings"]["rounds"] for r in recs],
            "attempted": [r["attempted"] for r in recs],
            "failed": [r["failed"] for r in recs],
            "correct": all(r["correct"] for r in recs),
            "metrics": metrics,
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="+", type=Path)
    parser.add_argument("-o", "--output", type=Path)
    args = parser.parse_args()
    summary = summarise(args.records)
    for key, group in summary.items():
        shares = sorted({f"{f}/{a}" for f, a in zip(group["failed"], group["attempted"])})
        print(f"{key}: {len(group['seeds'])} runs, correct={group['correct']}, failed/attempted {', '.join(shares)}")
        for name, m in group["metrics"].items():
            print(f"  {name:36s} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} "
                  f"spread {m['spread']:.3f}  {m['unit']}")
    if args.output:
        args.output.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
