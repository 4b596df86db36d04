#!/usr/bin/env python
"""Live monitor smoke: scrape a single-node and a 64-lane monitor mid-run.

Two headless ``repro-power monitor`` runs, one after the other, each
scraped over HTTP while it runs and checked once it exits:

* **Single node** (``--workload gcc``, port 9464): ``/healthz`` comes
  up; ``/metrics`` carries the live true-power gauge of every
  subsystem; ``/alerts``, ``/attribution`` and ``/flightrecorder``
  answer mid-run.  The log shows the injected drift alert firing, the
  calibrated suite being restored and the alert resolving;
  ``monitor-telemetry/alerts.json`` holds both transitions and nothing
  still firing; the alert dumped a ``drift.alert`` flight bundle naming
  its top terms and carrying windows.
* **Fleet** (``--fleet 64 --perturb-lanes 5,21``, port 9465): ``/fleet``
  reports width 64 and exactly lanes 5 and 21 firing;
  ``/fleet/lanes?top=8`` flags and ranks those two first;
  ``/fleet/lane/5`` answers and ``/fleet/lane/999`` is a 404.  The log
  and ``fleet-telemetry/alerts.json`` attribute every alert to lanes
  {5, 21}, and every drift bundle in ``fleet-flight/`` names one of
  them, the fleet width and the lane's history.

Logs, telemetry and bundles land in the working directory
(``monitor.log``, ``monitor-telemetry/``, ``monitor-flight/``, and the
``fleet`` counterparts).  Exits non-zero on the first failed check,
stopping the monitor still running.  Used by the ``monitor-smoke`` CI
job; run locally with ``python scripts/monitor_smoke.py`` (~4 min).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import subprocess
import sys
import time
import urllib.error
import urllib.request

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from repro.obs.flight import load_bundle  # noqa: E402

SUBSYSTEMS = ("cpu", "chipset", "memory", "io", "disk", "total")

#: The monitor still running, stopped if a check fails.
_RUNNING: "list[subprocess.Popen]" = []


def check(ok: bool, what: str) -> None:
    print(f"  {'ok' if ok else 'FAIL'}: {what}", flush=True)
    if not ok:
        for proc in _RUNNING:
            proc.kill()
        sys.exit(1)


def fetch(url: str) -> "tuple[int | None, str]":
    """(status, body) of a GET; status None when nothing answers."""
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode()
    except OSError:
        return None, ""


def poll(url: str, tries: int, pause_s: float, ready) -> str:
    """Body of the first 2xx answer that ``ready`` accepts."""
    for _ in range(tries):
        status, body = fetch(url)
        if status is not None and 200 <= status < 300 and ready(body):
            return body
        time.sleep(pause_s)
    check(False, f"{url} ready within {tries * pause_s:.0f} s")
    return ""


def get_ok(url: str, lines: int = 20) -> str:
    """A 2xx GET, its first ``lines`` lines echoed."""
    status, body = fetch(url)
    print("\n".join(body.splitlines()[:lines]))
    check(status is not None and 200 <= status < 300, f"GET {url} -> {status}")
    return body


def launch(args: "list[str]", log: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    with open(log, "w") as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "monitor", *args],
            stdout=out,
            stderr=subprocess.STDOUT,
            env=env,
        )
    _RUNNING.append(proc)
    return proc


def finish(proc: subprocess.Popen, log: str) -> str:
    proc.wait()
    _RUNNING.remove(proc)
    with open(log) as fh:
        text = fh.read()
    print(text)
    check(proc.returncode == 0, f"monitor exited {proc.returncode}")
    return text


def log_has(text: str, pattern: str) -> None:
    check(re.search(pattern, text) is not None, f"log matches {pattern!r}")


def alert_history(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    states = {a["state"] for a in doc["history"]}
    check({"firing", "resolved"} <= states, f"{path}: fired and resolved ({states})")
    check(doc["firing"] == [], f"{path}: nothing still firing ({doc['firing']})")
    return doc


def single_node(port: int) -> None:
    base = f"http://127.0.0.1:{port}"
    proc = launch(
        [
            "--workload", "gcc", "--duration", "900", "--port", str(port),
            "--refresh", "30", "--perturb", "1.5", "--restore-at", "450",
            "--flight-dir", "monitor-flight", "--telemetry", "monitor-telemetry",
        ],
        "monitor.log",
    )
    # The endpoint is up before training starts; wait for liveness.
    print(poll(f"{base}/healthz", 120, 1.0, lambda body: True))
    # Wait for live per-window gauges (the run phase proper).
    metrics = poll(
        f"{base}/metrics", 600, 0.2, lambda body: "live_power_watts{" in body
    )
    for subsystem in SUBSYSTEMS:
        series = f'live_power_watts{{source="true",subsystem="{subsystem}"}}'
        check(series in metrics, f"/metrics has {series}")
    get_ok(f"{base}/alerts", 40)
    # Attribution and flight-recorder routes respond mid-run (the
    # perturbed phase answers 503 on /healthz, so any status does).
    get_ok(f"{base}/attribution")
    get_ok(f"{base}/flightrecorder")
    print(fetch(f"{base}/healthz")[1][:2000])

    text = finish(proc, "monitor.log")
    log_has(text, r"ALERT.*firing")
    log_has(text, r"calibrated suite restored")
    log_has(text, r"ALERT resolved")
    doc = alert_history("monitor-telemetry/alerts.json")
    print("alert log ok:", len(doc["history"]), "transitions")

    print(sorted(os.listdir("monitor-flight")))
    check(
        bool(glob.glob("monitor-flight/flight-*-drift-alert")),
        "drift alert dumped a flight bundle",
    )
    bundle = load_bundle(sorted(glob.glob("monitor-flight/flight-*"))[0])
    check(bundle["reason"] == "drift.alert", f"bundle reason {bundle['reason']}")
    check(bool(bundle["detail"]["top_terms"]), "bundle names the offending terms")
    check(bool(bundle["windows"]["windows"]), "bundle carries windows")
    print("flight bundle ok:", len(bundle["frames"]), "frames")


def fleet(port: int) -> None:
    base = f"http://127.0.0.1:{port}"
    # --slo 30: some seeds' intrinsic chipset error (a constant model
    # vs seeded per-lane derivation offsets) reaches ~18%, so the
    # paper's 9% bound would flag un-perturbed lanes too; 30% separates
    # intrinsic (<20%) from injected (~60%) error and keeps the alert
    # attribution exactly {5, 21}.
    proc = launch(
        [
            "--fleet", "64", "--workload", "gcc", "--duration", "600",
            "--port", str(port), "--refresh", "30", "--slo", "30",
            "--perturb", "1.6", "--perturb-lanes", "5,21", "--restore-at", "300",
            "--flight-dir", "fleet-flight", "--telemetry", "fleet-telemetry",
        ],
        "fleet.log",
    )
    print(poll(f"{base}/healthz", 120, 1.0, lambda body: True))
    # Wait until the perturbed lanes' drift alerts arm and fire.
    summary = json.loads(
        poll(
            f"{base}/fleet", 600, 0.5,
            lambda body: bool(json.loads(body).get("firing_lanes")),
        )
    )
    print(json.dumps(summary)[:2000])
    check(summary["width"] == 64, f"fleet width {summary['width']}")
    check(summary["firing_lanes"] == [5, 21], f"firing lanes {summary['firing_lanes']}")
    check(summary["power_w"]["true"]["mean"] > 0, "fleet true power reported")
    print("fleet summary ok:", summary["n_windows"], "windows")

    lanes = json.loads(get_ok(f"{base}/fleet/lanes?top=8", 0))["lanes"]
    check(len(lanes) == 8, f"top=8 returns 8 lanes (got {len(lanes)})")
    flagged = sorted(lane["lane"] for lane in lanes if lane["firing"])
    check(flagged == [5, 21], f"flagged lanes {flagged}")
    # Worst-first ranking puts the mis-calibrated lanes on top.
    top = sorted(lane["lane"] for lane in lanes[:2])
    check(top == [5, 21], f"lanes ranked first {top}")
    print("lane ranking ok:", [lane["lane"] for lane in lanes])
    get_ok(f"{base}/fleet/lane/5", 30)
    status, _ = fetch(f"{base}/fleet/lane/999")
    check(status == 404, f"/fleet/lane/999 -> {status}")

    text = finish(proc, "fleet.log")
    log_has(text, r"ALERT.*firing.*\[5\]")
    log_has(text, r"ALERT.*firing.*\[21\]")
    log_has(text, r"calibrated suite restored")
    log_has(text, r"ALERT resolved")
    doc = alert_history("fleet-telemetry/alerts.json")
    alerted = {a["lane"] for a in doc["history"]}
    check(alerted == {5, 21}, f"alerts attributed to lanes {alerted}")
    print("fleet alert log ok:", len(doc["history"]), "transitions")

    print(sorted(os.listdir("fleet-flight")))
    paths = sorted(glob.glob("fleet-flight/flight-*-drift-alert"))
    check(bool(paths), "fleet drift alert dumped a flight bundle")
    bundled = set()
    for path in paths:
        bundle = load_bundle(path)
        detail = bundle["detail"]
        check(bundle["reason"] == "drift.alert", f"{path}: reason {bundle['reason']}")
        check(detail["lane"] in (5, 21), f"{path}: lane {detail['lane']}")
        check(detail["fleet"]["width"] == 64, f"{path}: fleet width")
        check(bool(detail["lane_history"]), f"{path}: carries lane history")
        bundled.add(detail["lane"])
    check(bundled == {5, 21}, f"bundles cover lanes {sorted(bundled)}")
    print("fleet bundles ok:", len(paths), "bundles, lanes", sorted(bundled))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--port", type=int, default=9464,
        help="single-node monitor port; the fleet monitor uses the next one",
    )
    args = parser.parse_args()
    print("single-node monitor:", flush=True)
    single_node(args.port)
    print("fleet monitor:", flush=True)
    fleet(args.port + 1)
    print("monitor smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
