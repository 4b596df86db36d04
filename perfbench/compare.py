"""Compare two sets of benchmark reports, metric by metric.

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are directories of untraced report files (the ``.json``
files ``run.py`` writes to ``perfbench/out/``), for example one per
seed for the parent and for the change.  For each workload and
end-to-end metric it prints both medians, the quartile spread of each
side and the change.  When every report on both sides has the same
host fingerprint, a change worse than the metric's bound in
BENCHMARK.json is a regression and the exit code is 1.  Across
different hosts the numbers are printed but never gated.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402


def load(directory: str) -> "list[dict]":
    reports = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        if not report.get("trace"):
            reports.append(report)
    return reports


def spread(values: "list[float]") -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: "list[str]") -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = load(argv[0]), load(argv[1])
    if not base or not head:
        print("compare: no untraced reports found", file=sys.stderr)
        return 2
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    hosts = {harness.host_key(r["fingerprint"]) for r in base + head}
    gate = len(hosts) == 1
    if not gate:
        print("host fingerprints differ; reporting only, no verdict:")
        for host in sorted(hosts):
            print(f"  {host}")
    regressions = 0
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in head}):
        print(f"\n{workload}  (base n={sum(r['workload'] == workload for r in base)}, "
              f"head n={sum(r['workload'] == workload for r in head)})")
        for metric in metrics:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in base if r["workload"] == workload]
            b = [r["metrics"][name]["value"] for r in head if r["workload"] == workload]
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            worse = change if metric["better"] == "lower" else -change
            verdict = ""
            if gate and worse > metric["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            print(f"  {name:18} {ma:12.5g} -> {mb:12.5g} {metric['unit']:9} "
                  f"{100 * change:+7.2f}%  spread {100 * spread(a):5.1f}% / "
                  f"{100 * spread(b):5.1f}%  bound {100 * metric['bound']:.0f}%  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
