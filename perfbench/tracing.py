"""Span recording for the traced run, from outside the program.

The benchmark wraps public entry points of each ``repro`` layer (and a
few internal ones named in README.md) with :meth:`Recorder.wrap`.  A
wrapped call records one span: name, start, end, parent span, process
and thread.  Spans stay in memory; :meth:`Recorder.dump` writes them
out when the run ends.  With the recorder inactive a wrapped call costs
one attribute check; the untraced run installs no tracing wrappers, only
the few measurement probes each workload documents.

:func:`split` turns the spans into a per-layer partition of the traced
wall time (see its docstring), so that layer self times plus the
residual equal the wall time exactly.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import threading
import time

#: Spans whose own time is waiting on work elsewhere (a parent blocked
#: on its pool, a generator sleeping to its schedule, the run's root).
#: They yield each instant to any concurrent non-waiting span.
WAIT_SPANS = frozenset({"bench.unit", "bench.idle", "bench.send", "exec.sweep"})

#: The root span of one traced unit of work.
ROOT = "bench.unit"


class Recorder:
    """Collects spans in memory for one traced run."""

    def __init__(self, run_id: str, spill_dir: "str | None" = None) -> None:
        self.run_id = run_id
        self.spill_dir = spill_dir
        self.active = False
        self.missing: "list[str]" = []
        self._restore: "list[tuple[object, str, object]]" = []
        self._fresh_process(base_parent=None)

    def _fresh_process(self, base_parent) -> None:
        self.pid = os.getpid()
        self.spans: "list[tuple]" = []
        self._seq = 0
        self._local = threading.local()
        #: Parent of spans opened on an empty stack (a worker's root).
        self.base_parent = base_parent
        #: The open ``exec.sweep`` span, inherited by forked workers.
        self.fork_parent = None

    # -- spans ---------------------------------------------------------

    def open(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        self._seq += 1
        sid = f"{self.pid}:{self._seq}"
        parent = stack[-1] if stack else self.base_parent
        stack.append(sid)
        return (sid, parent, name, time.monotonic_ns())

    def close(self, token, attrs: "dict | None" = None) -> None:
        end = time.monotonic_ns()
        self._local.stack.pop()
        sid, parent, name, start = token
        self.spans.append(
            (sid, parent, name, start, end, self.pid, threading.get_ident(), attrs)
        )

    def span(self, name: str):
        """Context manager recording one span (only while active)."""
        return _Span(self, name)

    # -- wrapping ------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, attrs_fn=None) -> bool:
        """Record a span around every call of ``owner.attr``.

        ``attrs_fn(args, kwargs, result)`` may return span attributes.
        A missing attribute is noted in :attr:`missing` (its time then
        shows up in the parent span or the residual) instead of failing
        the run.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not recorder.active:
                return original(*args, **kwargs)
            token = recorder.open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                attrs = attrs_fn(args, kwargs, result) if attrs_fn else None
                recorder.close(token, attrs)

        self.patch(owner, attr, traced)
        return True

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``; :meth:`unwrap_all` puts the original back."""
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap_pool_task(self, module, attr: str) -> bool:
        """Trace a process-pool task function as ``exec.worker``.

        The wrapper keeps the task's module and qualified name, so the
        pool pickles it by reference and forked workers (which inherit
        the patched module) run it.  Each task writes its spans to
        :attr:`spill_dir`; :meth:`collect_spills` merges them.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return False
        recorder = self
        parent_pid = os.getpid()

        @functools.wraps(original)
        def task(*args, **kwargs):
            if not recorder.active or os.getpid() == parent_pid:
                return original(*args, **kwargs)
            recorder._fresh_process(base_parent=recorder.fork_parent)
            token = recorder.open("exec.worker")
            try:
                return original(*args, **kwargs)
            finally:
                recorder.close(token)
                recorder._spill()

        self.patch(module, attr, task)
        return True

    def _spill(self) -> None:
        path = os.path.join(
            self.spill_dir, f"worker-{self.pid}-{self._seq}-{time.monotonic_ns()}.json"
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)
        self.spans = []

    def collect_spills(self) -> None:
        for path in sorted(glob.glob(os.path.join(self.spill_dir, "worker-*.json"))):
            with open(path, encoding="utf-8") as handle:
                self.spans.extend(tuple(span) for span in json.load(handle))
            os.remove(path)

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end, pid, tid, attrs in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "pid": pid,
                            "tid": tid,
                            "attrs": attrs,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


class _Span:
    __slots__ = ("recorder", "name", "token", "attrs")

    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name
        self.token = None
        self.attrs = None

    def __enter__(self) -> "_Span":
        if self.recorder.active:
            self.token = self.recorder.open(self.name)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.token is not None:
            self.recorder.close(self.token, self.attrs)


def category(name: str) -> str:
    """The layer a span's self time is reported under."""
    if name == ROOT:
        return "residual"
    if name == "bench.idle":
        return "idle"
    return name.split(".", 1)[0]


def split(spans: "list[tuple]") -> dict:
    """Partition the root span's wall time over the spans below it.

    Each thread of each process is a track; on a track the deepest open
    span owns the instant.  Across tracks, the instant is shared equally
    by every track whose deepest span is doing work (not in
    :data:`WAIT_SPANS`).  When no track is working, the instant goes to
    the root track's deepest span.  So the parent's ``exec.sweep`` time
    counts only while no worker is busy, and a sleeping load generator
    is idle time only while the service does nothing.  Every instant of
    the root span is credited exactly once, so the credits sum to the
    wall time.

    Returns ``{"wall_s", "by_span": {name: s}, "by_category": {cat: s}}``.
    """
    roots = [s for s in spans if s[2] == ROOT]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT} span, found {len(roots)}")
    root = roots[0]
    lo, hi = root[3], root[4]
    root_track = (root[5], root[6])
    events = []
    for index, span in enumerate(spans):
        start, end = max(span[3], lo), min(span[4], hi)
        if end <= start and span is not root:
            continue
        track = (span[5], span[6])
        # Ends sort before starts at the same instant.
        events.append((start, 1, -span[4], index, track))
        events.append((end, 0, 0, index, track))
    events.sort()
    stacks: "dict[tuple, list[int]]" = {}
    credit = [0.0] * len(spans)
    previous = lo
    for moment, kind, _, index, track in events:
        if moment > previous:
            working = [
                stack[-1]
                for stack in stacks.values()
                if stack and spans[stack[-1]][2] not in WAIT_SPANS
            ]
            width = moment - previous
            if working:
                share = width / len(working)
                for owner in working:
                    credit[owner] += share
            else:
                credit[stacks[root_track][-1]] += width
            previous = moment
        stack = stacks.setdefault(track, [])
        if kind == 1:
            stack.append(index)
        elif index in stack:
            stack.remove(index)
    by_span: "dict[str, float]" = {}
    by_category: "dict[str, float]" = {}
    for index, seconds_ns in enumerate(credit):
        if not seconds_ns:
            continue
        name = spans[index][2]
        by_span[name] = by_span.get(name, 0.0) + seconds_ns / 1e9
        cat = category(name)
        by_category[cat] = by_category.get(cat, 0.0) + seconds_ns / 1e9
    return {"wall_s": (hi - lo) / 1e9, "by_span": by_span, "by_category": by_category}


def inclusive(spans: "list[tuple]", name: str) -> "tuple[float, int]":
    """Total duration (s) and count of spans called ``name``."""
    total = count = 0
    for span in spans:
        if span[2] == name:
            total += span[4] - span[3]
            count += 1
    return total / 1e9, count
