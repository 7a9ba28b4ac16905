"""The record ring: every report of a run, as nested intervals and instants.

An :class:`repro.obs.Observer` keeps one :class:`SpanRecorder` — a
bounded ring of :class:`SpanRecord` rows — and appends one record per
report: an interval (``plan``, ``kernel``, ``store_wait``,
``writeback_drain``, a backing transfer, ...) with its start and duration,
or an instant (``get``, ``miss``, ``evict``, a retry or restart) with
``dur = 0``. Each record carries the thread it ran on and, where the
report names one, its item and slot, so the same ring answers "what
happened, in order" (``--events``, the slot timeline) and "what
overlapped what" (Chrome trace-event JSON, ``ph: "X"`` complete events,
loadable directly into Perfetto / ``chrome://tracing``).

Recording is lock-cheap: one ``deque(maxlen=...)`` whose ``append`` is
GIL-atomic, so compute, prefetch and writer threads record concurrently
without taking a lock. On overflow the **oldest** records drop, and
``emitted`` keeps honest accounting (``dropped = emitted - captured``);
the unlocked increment may undercount by a few under heavy cross-thread
contention — the price of never stalling the I/O pipeline for its own
instrumentation. This module must stay importable without
:mod:`repro.core`.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator, NamedTuple


class SpanRecord(NamedTuple):
    """One report on one thread: an interval, or an instant (``dur = 0``)."""

    name: str  #: reported name, e.g. "kernel", "writeback_drain", "miss"
    start: float  #: time.perf_counter() at entry (at the report, for an instant)
    dur: float  #: duration in seconds
    thread: str  #: threading.current_thread().name at completion
    args: dict[str, Any] | None  #: optional payload (a retry's attempt, ...)
    item: int = -1  #: logical vector id (-1 when not applicable)
    slot: int = -1  #: RAM slot id (-1 when not applicable)


class SpanRecorder:
    """Bounded ring buffer of completed records.

    Writers never block, the ring evicts oldest-first on overflow, and
    :attr:`dropped` exposes how many records were lost so an exported
    timeline can never silently pretend to be complete.
    """

    def __init__(self, capacity: int = 1 << 18) -> None:
        if capacity <= 0:
            raise ValueError("SpanRecorder capacity must be positive")
        self.capacity = capacity
        self._ring: deque[SpanRecord] = deque(maxlen=capacity)
        self._emitted = 0

    # -- recording (any thread) -------------------------------------------------

    def complete(self, name: str, start: float, dur: float,
                 args: dict[str, Any] | None = None, *, item: int = -1,
                 slot: int = -1) -> None:
        """Record an interval that just finished (GIL-atomic append)."""
        self._emitted += 1
        self._ring.append(SpanRecord(
            name, start, dur, threading.current_thread().name, args,
            item, slot))

    @contextmanager
    def span(self, name: str,
             args: dict[str, Any] | None = None) -> Iterator[None]:
        """Context manager recording the enclosed block as one span."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.complete(name, t0, time.perf_counter() - t0, args)

    # -- accounting --------------------------------------------------------------

    @property
    def emitted(self) -> int:
        """Total records appended, including any since evicted."""
        return self._emitted

    @property
    def dropped(self) -> int:
        """Records lost to ring overflow (oldest-first discard)."""
        return max(0, self._emitted - len(self._ring))

    def __len__(self) -> int:
        return len(self._ring)

    def records(self) -> list[SpanRecord]:
        """Snapshot of retained records in completion order."""
        return list(self._ring)

    def by_name(self) -> dict[str, int]:
        """Retained record counts keyed by reported name."""
        out: dict[str, int] = {}
        for rec in self._ring:
            out[rec.name] = out.get(rec.name, 0) + 1
        return out

    def clear(self) -> None:
        self._ring.clear()
        self._emitted = 0

    # -- export ------------------------------------------------------------------

    def to_chrome_trace(self) -> dict[str, Any]:
        """Render retained spans as a Chrome trace-event document.

        Each thread name gets a stable integer ``tid`` (first-appearance
        order) plus a ``thread_name`` metadata record, so Perfetto shows
        one labelled track per thread ("MainThread", "writeback-0",
        "prefetcher", ...) of one process. Timestamps are microseconds
        relative to the earliest span.
        """
        records = self.records()
        t_zero = min((r.start for r in records), default=0.0)
        tids: dict[str, int] = {}
        events: list[dict[str, Any]] = []
        for rec in records:
            tid = tids.setdefault(rec.thread, len(tids) + 1)
            event: dict[str, Any] = {
                "name": rec.name,
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": round((rec.start - t_zero) * 1e6, 3),
                "dur": round(rec.dur * 1e6, 3),
            }
            args = dict(rec.args) if rec.args else {}
            if rec.item >= 0:
                args["item"] = rec.item
            if rec.slot >= 0:
                args["slot"] = rec.slot
            if args:
                event["args"] = args
            events.append(event)
        meta: list[dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": "repro out-of-core"}}]
        meta.extend({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": thread},
        } for thread, tid in tids.items())
        return {
            "traceEvents": meta + events,
            "displayTimeUnit": "ms",
            "otherData": {"emitted": self.emitted, "dropped": self.dropped},
        }

    def write_chrome_trace(self, path: str) -> None:
        """Write :meth:`to_chrome_trace` as JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh, indent=1)
            fh.write("\n")
