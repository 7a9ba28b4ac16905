"""The record ring: every report of a run, as nested intervals and instants.

An :class:`repro.obs.Observer` keeps one :class:`SpanRecorder` — a
bounded ring of :class:`SpanRecord` rows — and appends one record per
report: an interval (``plan``, ``kernel``, ``store_wait``,
``writeback_drain``, a shard request, ...) with its start and duration,
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

Records carry optional *identity*: a ``span_id`` (allocate one with
:func:`next_span_id`) and a ``parent`` pointing at the record that
caused this one. The sharded backing tier threads these ids through its
wire header, so a shard worker's disk span can name the client-side
request span that triggered it; :meth:`SpanRecorder.to_chrome_trace`
turns cross-process parent links into Chrome flow events (``ph:
"s"/"f"``), and :meth:`SpanRecorder.add_process_track` renders each
worker as its own ``pid`` track (with a per-worker clock offset applied
at export).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator, NamedTuple

#: Process-wide span-id allocator. ``next()`` on an ``itertools.count``
#: is GIL-atomic, so concurrent allocations never collide; worker
#: processes allocate from a disjoint (shard-salted) range instead.
_SPAN_IDS = itertools.count(1)


def next_span_id() -> int:
    """A process-unique positive span id (0 means "no identity")."""
    return next(_SPAN_IDS)


class SpanRecord(NamedTuple):
    """One report on one thread: an interval, or an instant (``dur = 0``)."""

    name: str  #: reported name, e.g. "kernel", "writeback_drain", "miss"
    start: float  #: time.perf_counter() at entry (at the report, for an instant)
    dur: float  #: duration in seconds
    thread: str  #: threading.current_thread().name at completion
    args: dict[str, Any] | None  #: optional payload (attempt, shard, ...)
    span_id: int = 0  #: identity for causal linking (0 = anonymous)
    parent: int = 0  #: span_id of the causing span (0 = no parent)
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
        # Extra per-process tracks (e.g. shard workers) merged in at
        # export time: (process name, records, clock offset) where
        # ``offset`` maps the track's clock into this process's
        # perf_counter domain (t_here = t_track - offset).
        self._tracks: list[tuple[str, list[SpanRecord], float]] = []

    # -- recording (any thread) -------------------------------------------------

    def complete(self, name: str, start: float, dur: float,
                 args: dict[str, Any] | None = None, *,
                 span_id: int = 0, parent: int = 0, item: int = -1,
                 slot: int = -1) -> None:
        """Record an interval that just finished (GIL-atomic append)."""
        self._emitted += 1
        self._ring.append(SpanRecord(
            name, start, dur, threading.current_thread().name, args,
            span_id, parent, item, slot))

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
        self._tracks.clear()

    # -- merged per-process tracks ----------------------------------------------

    def add_process_track(self, name: str, records: list[SpanRecord],
                          clock_offset: float = 0.0) -> None:
        """Attach a foreign process's spans as a separate export track.

        ``records`` keep their *own* clock; ``clock_offset`` is the
        calibrated offset such that ``t_local = t_track - clock_offset``
        (the sharded tier measures it via the ATTACH handshake timestamp
        exchange). The track appears as its own ``pid`` in
        :meth:`to_chrome_trace`, and any record whose ``parent`` names a
        span in another track becomes a Chrome flow arrow.
        """
        self._tracks.append((name, list(records), float(clock_offset)))

    def tracks(self) -> list[tuple[str, list[SpanRecord], float]]:
        """The attached per-process tracks (name, records, clock offset)."""
        return list(self._tracks)

    # -- export ------------------------------------------------------------------

    def to_chrome_trace(self) -> dict[str, Any]:
        """Render retained spans as a Chrome trace-event document.

        Each thread name gets a stable integer ``tid`` (first-appearance
        order) plus a ``thread_name`` metadata record, so Perfetto shows
        one labelled track per thread ("MainThread", "writeback-0",
        "prefetcher", ...). Tracks added via :meth:`add_process_track`
        render as additional processes (``pid`` 2, 3, ...) with their
        clock offsets applied, and every cross-process ``parent`` link
        becomes a flow-event pair (``ph: "s"`` at the parent, ``ph: "f"``
        at the child), so Perfetto draws an arrow from the client-side
        request span into the worker-side disk span it caused.
        Timestamps are microseconds relative to the earliest span.
        """
        # (pid, process name, records already shifted into local clock)
        groups: list[tuple[int, str, list[SpanRecord]]] = [
            (1, "repro out-of-core", self.records())]
        for idx, (name, records, offset) in enumerate(self._tracks):
            shifted = [rec._replace(start=rec.start - offset)
                       for rec in records]
            groups.append((2 + idx, name, shifted))
        t_zero = min((r.start for _pid, _name, recs in groups for r in recs),
                     default=0.0)

        events: list[dict[str, Any]] = []
        meta: list[dict[str, Any]] = []
        # span_id -> (pid, tid, ts_us) of the span that carries it, for
        # resolving cross-process parent links into flow arrows.
        by_id: dict[int, tuple[int, int, float]] = {}
        linked: list[tuple[int, int, float, int]] = []  # (pid, tid, ts, parent)
        for pid, pname, records in groups:
            tids: dict[str, int] = {}
            meta.append({"name": "process_name", "ph": "M", "pid": pid,
                         "args": {"name": pname}})
            for rec in records:
                tid = tids.setdefault(rec.thread, len(tids) + 1)
                ts = round((rec.start - t_zero) * 1e6, 3)
                event: dict[str, Any] = {
                    "name": rec.name,
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": ts,
                    "dur": round(rec.dur * 1e6, 3),
                }
                args = dict(rec.args) if rec.args else {}
                if rec.item >= 0:
                    args["item"] = rec.item
                if rec.slot >= 0:
                    args["slot"] = rec.slot
                if rec.span_id:
                    args["span_id"] = rec.span_id
                    by_id[rec.span_id] = (pid, tid, ts)
                if rec.parent:
                    args["parent"] = rec.parent
                    linked.append((pid, tid, ts, rec.parent))
                if args:
                    event["args"] = args
                events.append(event)
            meta.extend({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": thread},
            } for thread, tid in tids.items())
        flow_id = 0
        for pid, tid, ts, parent in linked:
            src = by_id.get(parent)
            if src is None or src[0] == pid:
                continue  # unresolved (ring overflow) or same-process nesting
            flow_id += 1
            events.append({"name": "causal", "cat": "backing", "ph": "s",
                           "pid": src[0], "tid": src[1], "ts": src[2],
                           "id": flow_id})
            events.append({"name": "causal", "cat": "backing", "ph": "f",
                           "bp": "e", "pid": pid, "tid": tid, "ts": ts,
                           "id": flow_id})
        return {
            "traceEvents": meta + events,
            "displayTimeUnit": "ms",
            "otherData": {
                "emitted": self.emitted,
                "dropped": self.dropped,
                "tracks": len(self._tracks),
            },
        }

    def write_chrome_trace(self, path: str) -> None:
        """Write :meth:`to_chrome_trace` as JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh, indent=1)
            fh.write("\n")
