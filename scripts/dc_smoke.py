#!/usr/bin/env python
"""Datacenter scenario smoke: a capped 256-node run holds its cap.

Runs ``repro-power datacenter`` on 2 zones x 128 nodes for 60 s under a
60 % power cap (diurnal + flash-crowd + failover traffic), keeps its
JSON report, and checks the estimated-sensor run:

* it simulated 256 nodes;
* it never exceeded the cap (zero violations, max power <= cap);
* it emitted an energy-proportionality score in (0, 1];
* the failover moved budget between zones at least once.

The command itself exits 1 if the policy ever exceeded the cap.  Exits
non-zero on the first failed check.  Used by the ``dc-smoke`` CI job;
run locally with ``python scripts/dc_smoke.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def check(ok: bool, what: str) -> None:
    print(f"  {'ok' if ok else 'FAIL'}: {what}")
    if not ok:
        sys.exit(1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="dc.json", help="where to write the scenario report"
    )
    parser.add_argument(
        "--flight-dir",
        default="flight-dc",
        help="flight-recorder bundle directory for a failed run",
    )
    args = parser.parse_args()

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable, "-m", "repro.cli", "datacenter",
        "--dc-zones", "2", "--nodes-per-zone", "128",
        "--duration", "60", "--cap-frac", "0.6",
        "--no-static", "--no-regret", "--flight-dir", args.flight_dir,
        "--json",
    ]
    with open(args.out, "w") as out:
        proc = subprocess.run(command, stdout=out, env=env)
    check(proc.returncode == 0, f"datacenter command exited {proc.returncode}")
    with open(args.out) as fh:
        run = json.load(fh)["subsystem_estimated"]

    check(run["n_nodes"] == 256, f"n_nodes == 256 (got {run['n_nodes']})")
    check(
        run["cap_violations"] == 0,
        f"zero cap violations (got {run['cap_violations']})",
    )
    check(
        run["max_power_w"] <= run["cap_w"],
        f"max power {run['max_power_w']:.1f} W <= cap {run['cap_w']:.1f} W",
    )
    ep = run["energy_proportionality"]
    check(
        bool(ep) and 0.0 < ep["ep_score"] <= 1.0,
        f"EP score in (0, 1] (got {ep and ep['ep_score']})",
    )
    check(
        run["budget_redistributions"] >= 1,
        f"budget redistributed (got {run['budget_redistributions']})",
    )
    print(
        f"dc smoke ok: max {run['max_power_w']:.1f} W of {run['cap_w']:.1f} W "
        f"cap, EP {ep['ep_score']:.3f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
