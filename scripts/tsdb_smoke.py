#!/usr/bin/env python
"""Telemetry store smoke: rollups agree with raw, appends hold the floor.

Two checks on the durable TSDB (``repro.obs.tsdb``):

* **Rollups exact.** For every ``drift_error_pct`` and
  ``live_total_power_watts:mean`` series in ``--store``, each 10 s
  rollup cell's count, min, max and mean (within 1e-9) equal those of
  the raw points in its window, and the cells cover every raw point.
* **Append floor.** 8 series x 5000 appends plus a flush into a fresh
  store, best of 5 rounds, sustain at least 200k samples/s.

The store under test is what a monitored run persisted, e.g.::

    repro-power monitor --workload gcc --duration 120 --refresh 30 \\
        --port 0 --store tsdb-store
    python scripts/tsdb_smoke.py --store tsdb-store

Exits non-zero on the first failed check.  Used by the ``tsdb-smoke``
CI job.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.obs.tsdb import TSDB  # noqa: E402

#: Series whose 10 s rollups are checked against their raw points.
ROLLUP_SERIES = ("drift_error_pct", "live_total_power_watts:mean")
#: Minimum sustained append rate (samples/s).
APPEND_FLOOR = 200_000


def check(ok: bool, what: str) -> None:
    print(f"  {'ok' if ok else 'FAIL'}: {what}")
    if not ok:
        sys.exit(1)


def check_rollups(store: str) -> None:
    db = TSDB(store)
    checked = 0
    for name in ROLLUP_SERIES:
        for series in db.select(name):
            raw = series["points"]
            (cells,) = db.select_cells(name, series["labels"], tier="10s")
            check(
                sum(c[4] for c in cells["cells"]) == len(raw),
                f"{name}: 10s cells cover all {len(raw)} raw points",
            )
            for start, vmin, vmax, mean, count in cells["cells"]:
                window = [v for t, v in raw if start <= t < start + 10.0]
                where = f"{name} cell at {start:g}"
                if count != len(window):
                    check(False, f"{where}: count {count} == {len(window)}")
                if vmin != min(window) or vmax != max(window):
                    check(False, f"{where}: min/max match raw")
                if abs(mean - sum(window) / count) >= 1e-9:
                    check(False, f"{where}: mean matches raw")
                checked += 1
    check(checked > 0, f"rollups exact: {checked} 10s cells checked against raw")


def check_append_rate() -> None:
    with tempfile.TemporaryDirectory() as root:
        db = TSDB(os.path.join(root, "bench-store"))
        appenders = [
            db.appender("bench_power_watts", {"node": f"n{i}"}) for i in range(8)
        ]
        best, base = float("inf"), 0.0
        for _ in range(5):
            t0 = time.perf_counter()
            for ap in appenders:
                for i in range(5000):
                    ap.append(base + i, 100.0 + (i % 50))
            db.flush()
            best = min(best, time.perf_counter() - t0)
            base += 5000.0
        db.close()
    rate = 8 * 5000 / best
    check(
        rate >= APPEND_FLOOR,
        f"tsdb append: {rate:,.0f} samples/s >= {APPEND_FLOOR:,}",
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--store",
        default="tsdb-store",
        help="store a monitored run persisted (rollup check)",
    )
    args = parser.parse_args()
    check(os.path.isdir(args.store), f"store {args.store} exists")
    check_rollups(args.store)
    check_append_rate()
    print("tsdb smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
