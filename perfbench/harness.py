"""Shared plumbing: host fingerprint, memory peak, set-up timing, stats."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

#: How many times each workload's set-up runs; ``setup_s`` is the median.
SETUP_REPEATS = 3


def fingerprint() -> dict:
    """What absolute numbers depend on: compare them only when equal.

    ``git_sha`` is ``None`` outside a git checkout; ``src_sha256``
    identifies the code either way.  Neither belongs to the host, so
    :func:`host_key` leaves them out.
    """
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha,
        "src_sha256": source_digest(),
    }


def host_key(fp: dict) -> tuple:
    return (fp["cpu_model"], fp["nproc"], fp["python"], fp["numpy"])


def source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for directory, subdirs, files in os.walk(package):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, package).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


class MemoryPeak:
    """Peak resident memory of this process and its worker processes.

    A background thread reads every live process's ``VmHWM`` (its own
    high-water mark) from ``/proc`` every ``interval_s``; the peak is
    the largest sum over processes alive at the same sample.  Helper
    processes the benchmark starts for itself (the import probe) are
    excluded.
    """

    def __init__(self, interval_s: float = 0.25) -> None:
        self.interval_s = interval_s
        self.excluded: "set[int]" = set()
        #: Held while a helper process starts, so it is never sampled
        #: before it is excluded.
        self.lock = threading.Lock()
        self._peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="perfbench-rss", daemon=True
        )

    def __enter__(self) -> "MemoryPeak":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.sample()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def sample(self) -> None:
        with self.lock:
            pids = [os.getpid(), *_children(os.getpid())]
            total = sum(_hwm_kb(pid) for pid in pids if pid not in self.excluded)
        self._peak_kb = max(self._peak_kb, total)

    @property
    def peak_mb(self) -> float:
        return self._peak_kb / 1024.0


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _children(pid: int) -> "list[int]":
    found: "list[int]" = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="utf-8") as handle:
                found.extend(int(child) for child in handle.read().split())
        except (OSError, ValueError):
            continue
    return found


def import_probe(modules: "tuple[str, ...]", memory: "MemoryPeak | None") -> None:
    """Import ``modules`` in a fresh interpreter (the cold-start cost a
    user of the CLI pays), excluded from the memory peak."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = "; ".join(f"import {module}" for module in modules)
    if memory is None:
        proc = subprocess.Popen([sys.executable, "-c", code], env=env, cwd=ROOT)
    else:
        with memory.lock:
            proc = subprocess.Popen([sys.executable, "-c", code], env=env, cwd=ROOT)
            memory.excluded.add(proc.pid)
    if proc.wait(timeout=120) != 0:
        raise RuntimeError(f"import probe failed: {code}")


def timed_setup(setup, memory: "MemoryPeak | None"):
    """Run ``setup()`` :data:`SETUP_REPEATS` times; returns
    ``(median seconds, last result)``."""
    times = []
    result = None
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        result = setup(memory)
        times.append(time.perf_counter() - started)
    return statistics.median(times), result


def percentile(values: "list[float]", q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q / 100.0
    lower = math.floor(pos)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (pos - lower)


def units_until(seconds: float, unit) -> "list":
    """Run ``unit(i)`` until another would overrun ``seconds`` (at
    least once); returns the results in order."""
    started = time.perf_counter()
    results = []
    last = 0.0
    while not results or (time.perf_counter() - started) + last <= seconds:
        t0 = time.perf_counter()
        results.append(unit(len(results)))
        last = time.perf_counter() - t0
    return results
