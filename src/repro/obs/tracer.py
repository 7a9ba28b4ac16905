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

The event taxonomy is the closed table :data:`EVENT_TYPES`: one row per
event type, naming the :class:`~repro.core.stats.IoStats` counter the
event mirrors. ``python -m repro.analysis`` rule EVT001 checks every
reporting site and every named counter against it.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from typing import NamedTuple

from repro.errors import OutOfCoreError

#: The closed event taxonomy: event type -> the ``IoStats`` counter whose
#: value equals the number of such events (``None`` where no single counter
#: does). Every event a ``repro.obs.ROUTES`` row names must be a key and
#: every counter named must be an ``IoStats`` field (analysis rule EVT001).
EVENT_TYPES: dict[str, str | None] = {
    "get": "requests",         # demand request entered the store
    "hit": "hits",             # satisfied by a resident (demand-touched) slot
    "miss": "misses",          # required a slot placement (demand semantics)
    "evict": None,             # a victim left RAM: writes + write_skips
    "demand_read": "reads",    # dur > 0 when physically read now
    "read_skip": "read_skips",  # read elided by the write-only rule (§3.4)
    "prefetch_issue": "prefetch_reads",  # ahead-of-demand load completed
    "prefetch_hit": "prefetch_hits",     # demand landed on a prefetched slot
    "writeback_enqueue": None,           # the staging step before the drain
    "writeback_drain": "writeback_writes",  # made durable by a writer thread
    "stall": None,             # back-pressure block *or* deferred prefetch
}


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
