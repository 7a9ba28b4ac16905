"""A lock-cheap structured event tracer (bounded ring of typed records).

Every interesting transition in the out-of-core pipeline — demand
requests, hits, misses, evictions, demand reads, elided reads, prefetch
issues and hits, write-behind staging/drains, and stalls — can emit one
:class:`TraceRecord` into a :class:`Tracer`. Emission is designed to be
cheap enough to leave compiled into the hot path behind a single
``is None`` check:

* the ring is a ``collections.deque(maxlen=capacity)`` — ``append`` is
  a single GIL-atomic operation, so compute, prefetch and writer threads
  emit concurrently without taking any lock;
* records are plain ``NamedTuple`` rows stamped with
  ``time.perf_counter()``;
* **overflow semantics**: when more than ``capacity`` records are
  emitted, the *oldest* records are silently discarded — the ring always
  holds the newest ``capacity`` events. :attr:`Tracer.dropped` reports
  how many were lost. The :attr:`Tracer.emitted` total is maintained
  with an unlocked increment and may undercount by a few events under
  heavy cross-thread contention; that is the price of never stalling
  the I/O pipeline for its own instrumentation.

The event taxonomy is the closed set :data:`EVENT_TYPES`. Its sync with
the :class:`~repro.core.stats.IoStats` counter registry (via
``repro.core.stats.EVENT_COUNTERS``) is enforced by
``python -m repro.analysis`` rules EVT001/EVT002, exactly like the
counter registry itself.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from typing import NamedTuple

from repro.errors import OutOfCoreError

#: The closed event taxonomy. Every event a ``repro.obs.ROUTES`` row names
#: must be one of these literals (analysis rule EVT001), and every entry
#: must have an ``EVENT_COUNTERS`` mapping in ``repro.core.stats`` (EVT002).
EVENT_TYPES = frozenset({
    "get",                # demand request entered the store
    "hit",                # request satisfied by a resident (demand-touched) slot
    "miss",               # request required a slot placement (demand semantics)
    "evict",              # a victim left RAM (slot recycled)
    "demand_read",        # demand-charged read (dur > 0 when physically read now)
    "read_skip",          # read elided by the write-only rule (paper §3.4)
    "prefetch_issue",     # physical ahead-of-demand load completed
    "prefetch_hit",       # demand request landed on a prefetched slot
    "writeback_enqueue",  # eviction staged into the write-behind buffer
    "writeback_drain",    # staged vector made durable by a writer thread
    "stall",              # back-pressure block or deferred prefetch
})


class TraceRecord(NamedTuple):
    """One traced event: timestamp, type, subject and duration."""

    ts: float      #: ``time.perf_counter()`` at emission
    etype: str     #: one of :data:`EVENT_TYPES`
    item: int      #: logical vector id (-1 when not applicable)
    slot: int      #: RAM slot id (-1 when not applicable)
    dur: float     #: seconds attributed to the event (0.0 for instants)
    thread: str    #: emitting thread's name


class Tracer:
    """Bounded, thread-tolerant ring buffer of :class:`TraceRecord`.

    Default-off by construction: components hold ``obs = None`` until an
    :class:`repro.obs.Observer` (which owns the tracer) is attached, and
    every reporting site is guarded by a single ``is None`` test, so an
    untraced run pays one pointer comparison.
    """

    def __init__(self, capacity: int = 1 << 16) -> None:
        if capacity < 1:
            raise OutOfCoreError(f"tracer capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._ring: deque[TraceRecord] = deque(maxlen=self.capacity)
        self._emitted = 0

    def emit(self, etype: str, item: int = -1, slot: int = -1,
             dur: float = 0.0) -> None:
        """Append one record; never blocks, never raises on overflow."""
        self._emitted += 1
        self._ring.append(TraceRecord(
            time.perf_counter(), etype, item, slot, dur,
            threading.current_thread().name,
        ))

    # -- inspection -------------------------------------------------------------

    @property
    def emitted(self) -> int:
        """Total records emitted since construction (or :meth:`clear`)."""
        return self._emitted

    @property
    def dropped(self) -> int:
        """Records lost to ring overflow (oldest-first discard)."""
        return max(0, self._emitted - len(self._ring))

    def __len__(self) -> int:
        return len(self._ring)

    def records(self) -> list[TraceRecord]:
        """Snapshot of the retained records, oldest first."""
        return list(self._ring)

    def by_type(self) -> dict[str, int]:
        """Retained-record counts per event type (sorted by type name)."""
        counts = Counter(rec.etype for rec in self._ring)
        return {etype: counts[etype] for etype in sorted(counts)}

    def clear(self) -> None:
        """Drop all records and reset the emission/overflow counters."""
        self._ring.clear()
        self._emitted = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Tracer(capacity={self.capacity}, captured={len(self)}, "
                f"dropped={self.dropped})")
