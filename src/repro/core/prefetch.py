"""Traversal-order prefetching (paper §5, future work).

The paper's conclusion proposes "assessing if pre-fetching can be deployed
by means of a prefetch thread". Because a post-order traversal descriptor
is computed *before* any likelihood arithmetic (§3.4), the exact upcoming
vector access order is known — a prefetcher can pull the next vectors into
free or soon-to-be-free slots while the CPU crunches the current one.

Two implementations share the store's :meth:`prefetch_load` entry point,
which accounts ahead-of-demand traffic only in the ``prefetch_*`` counters
so the demand miss/read rates (the Fig. 2–4 metrics) stay untouched:

* :class:`Prefetcher` — the synchronous *model*: it issues the upcoming
  reads inline and, with a
  :class:`~repro.core.backing.SimulatedDiskBackingStore`, discounts an
  ``overlap`` fraction of their cost, representing how much of the
  transfer would hide behind computation.
* :class:`ThreadedPrefetcher` — the real thing: daemon worker threads fed
  the access sequence of one operation (the plan's schedule, flattened,
  then the evaluated edge's two end reads — what
  ``LikelihoodEngine.make_edge_current`` feeds and the engine then issues,
  call for call). They track demand progress through the store's request
  counter and keep the read items among the next ``depth`` *accesses*
  resident or in flight while the compute thread works.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import TYPE_CHECKING

from repro.analysis.race import make_thread, race_detector
from repro.core.backing import SimulatedDiskBackingStore
from repro.core.vecstore import AncestralVectorStore
from repro.errors import OutOfCoreError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.obs import Observer


def _validated_depth(depth: int) -> int:
    if depth < 1:
        raise OutOfCoreError(f"prefetch depth must be >= 1, got {depth}")
    return int(depth)


class Prefetcher:
    """Synchronous model of a prefetch thread for a known access sequence.

    Parameters
    ----------
    store:
        The vector store to prefetch into.
    depth:
        The look-ahead window, in accesses (a pruning step is three): the
        read items among the next ``depth`` accesses are kept resident. A
        prefetch never evicts a pinned item and never evicts an item that
        appears in that window (that would be self-defeating).
    overlap:
        Fraction of each prefetched transfer assumed hidden behind compute
        (only meaningful when the backing store simulates time; 1.0 = the
        classic fully-overlapped prefetch thread).
    """

    def __init__(self, store: AncestralVectorStore, depth: int = 2,
                 overlap: float = 1.0) -> None:
        self.store = store
        self.depth = _validated_depth(depth)
        if not 0.0 <= overlap <= 1.0:
            raise OutOfCoreError(f"overlap must be in [0, 1], got {overlap}")
        self.overlap = overlap
        self.hidden_seconds = 0.0

    def run_schedule(self, upcoming: list[tuple[int, tuple, bool]]) -> None:
        """Prefetch for a schedule of ``(item, pins, write_only)`` triples.

        Walks the schedule and, before each demand access would occur,
        ensures the *read* items among the next ``depth`` accesses are
        resident (write-only items gain nothing from prefetch: their reads
        are skipped anyway).
        Loads go through ``store.prefetch_load``, so only ``prefetch_*``
        counters move — the demand ``requests``/``misses``/``reads`` are
        charged later, by the traversal itself, exactly as they would be
        without prefetching. Call immediately before executing the
        corresponding traversal.
        """
        backing = self.store.backing
        simulated = isinstance(backing, SimulatedDiskBackingStore)
        for idx, (item, pins, write_only) in enumerate(upcoming):
            horizon = upcoming[idx: idx + self.depth]
            protect = {it for it, _, _ in horizon} | {int(p) for p in pins}
            written_first = set()
            for nxt, _npins, nwrite in horizon:
                if nwrite:
                    # A read of this item later in the horizon is satisfied
                    # by the write, not by (stale) backing-store bytes.
                    written_first.add(nxt)
                    continue
                if nxt in written_first or self.store.is_resident(nxt):
                    continue
                before = backing.simulated_seconds if simulated else 0.0
                loaded = self.store.prefetch_load(nxt, protect=protect)
                if simulated and loaded:
                    # The swap-in (and any eviction write it caused) would
                    # run on the prefetch thread: hide `overlap` of it.
                    cost = backing.simulated_seconds - before
                    hidden = cost * self.overlap
                    backing.simulated_seconds -= hidden
                    self.hidden_seconds += hidden


class ThreadedPrefetcher:
    """Real prefetch threads consuming an operation's access sequence.

    Usage::

        pf = ThreadedPrefetcher(store, depth=4, workers=2)
        pf.feed(engine.plan_accesses(plan))   # before each traversal
        engine.execute_plan(plan)             # compute overlaps the reads
        ...
        pf.stop()                             # at teardown

    (an engine built with ``prefetch_depth`` does this itself, and feeds
    the edge's end reads behind the plan's.) Demand progress is the
    store's request-counter delta since :meth:`feed`; the window is the
    next ``depth`` *accesses* of the schedule, and each of the ``workers``
    threads loads one of its absent read items at a time — so up to
    ``workers`` loads are in flight together, which pays off whenever the
    backing overlaps transfers (a modelled or real disk, a sharded tier).
    A worker picks its item and claims the slot for it in one hold of the
    store lock, so no two ever pick the same one; with nothing to do it
    parks on the store's condition variable. Prefetch never evicts pinned,
    in-flight or in-window items, and an item no slot can be found for is
    deferred (one ``stall`` event) until demand progresses — prefetch is
    best-effort by design.
    """

    def __init__(self, store: AncestralVectorStore, depth: int = 4,
                 workers: int = 1) -> None:
        if workers < 1:
            raise OutOfCoreError(
                f"need at least one prefetch worker, got {workers}")
        self.store = store
        self.depth = _validated_depth(depth)
        self.workers = int(workers)
        # All prefetcher bookkeeping is guarded by the *store's* condition
        # variable — the thread already parks on it, and sharing the lock
        # makes feed()/progress checks atomic with the store's maps.
        self._schedule: list[tuple[int, tuple, bool]] = []  # guarded-by: _cond
        self._base = 0  # guarded-by: _cond
        self._deferred: set[int] = set()  # guarded-by: _cond
        self._last_progress = -1  # guarded-by: _cond
        self._stop = False  # guarded-by: _cond
        #: The :class:`repro.obs.Observer` (default off) told about each
        #: prefetch_load attempt and each deferral. Set by its ``attach``;
        #: reporting is lock-free (ring appends), read without the lock.
        self.obs: Observer | None = None
        # Under REPRO_SANITIZE=race the thread carries start/join clock
        # edges (zero cost otherwise — see repro.analysis.race).
        self._race = race_detector()
        self._race_scope = ("" if self._race is None
                            else self._race.new_scope("ThreadedPrefetcher"))
        # The single-worker thread keeps the historical "prefetcher"
        # name (timelines and span filters key on it).
        self._threads = [
            make_thread(self._run, daemon=True,
                        name="prefetcher" if self.workers == 1
                        else f"prefetcher-{i}")
            for i in range(self.workers)
        ]
        for t in self._threads:
            t.start()

    def feed(self, schedule: list[tuple[int, tuple, bool]]) -> None:
        """Install the upcoming access sequence; prefetching starts at once."""
        store = self.store
        rc = self._race
        with store._cond:
            if rc is not None:
                rc.read(self._race_scope, "_stop")
                rc.write(self._race_scope, "_schedule", "_base", "_deferred",
                         "_last_progress")
                rc.read(store._race_scope, "stats.store")
            if self._stop:
                raise OutOfCoreError("prefetcher is stopped")
            self._schedule = list(schedule)
            self._base = store.stats.requests
            self._deferred.clear()
            self._last_progress = -1
            store._cond.notify_all()

    def idle(self) -> bool:
        """True when the schedule is exhausted (mainly for tests)."""
        store = self.store
        with store._cond:
            return not self._pick_locked()

    def stop(self) -> None:
        """Terminate the prefetch thread (idempotent)."""
        store = self.store
        rc = self._race
        with store._cond:
            if rc is not None:
                rc.write(self._race_scope, "_stop")
            self._stop = True
            store._cond.notify_all()
        for t in self._threads:
            t.join()

    close = stop

    # -- worker ----------------------------------------------------------------

    def _pick_locked(self) -> tuple[int, set[int]] | None:  # holds: _cond
        """Next (item, protect) to load, or None. Caller holds the store lock."""
        rc = self._race
        if rc is not None:
            rc.read(self._race_scope, "_schedule", "_base", "_deferred")
            rc.write(self._race_scope, "_last_progress")
            rc.read(self.store._race_scope, "stats.store", "_item_slot")
        progress = self.store.stats.requests - self._base
        if progress != self._last_progress:
            self._last_progress = progress
            self._deferred.clear()
        window = self._schedule[progress: progress + self.depth]
        if not window:
            return None
        horizon = {it for it, _, _ in window}
        written_first = set()
        for it, _pins, write_only in window:
            if write_only:
                # Its upcoming read (if any) will see this write's data;
                # the backing store's bytes are stale — nothing to fetch.
                written_first.add(it)
                continue
            if it in written_first or it in self._deferred:
                continue
            if it in self.store._item_slot:  # resident, or its load is in flight
                continue
            return it, horizon
        return None

    def _claim_locked(self) -> tuple[int, int] | None:  # holds: _cond
        """Pick the next item and claim its slot: ``(item, slot)`` or None.

        Pick and claim share this one lock hold, so the item is published
        in flight before any other worker can look. An item no slot can
        be found for is deferred until demand progresses — so a worker
        never busy-spins — and the next one in the window is tried.
        """
        rc = self._race
        while (target := self._pick_locked()) is not None:
            item, horizon = target
            slot = self.store._prefetch_claim(item, horizon)
            if slot is not None:
                return item, slot
            if rc is not None:
                rc.write(self._race_scope, "_deferred")
            self._deferred.add(item)
            if self.obs is not None:
                # The prefetch pipeline stalled: no evictable slot.
                self.obs.event("stall", item)
        return None

    def _run(self) -> None:  # thread: prefetch
        store = self.store
        rc = self._race
        # Trace-context injection (see WriteBehindQueue._writer_loop_async):
        # each prefetch load gets a span id the sharded backing threads
        # through its wire header to the worker-side disk span.
        scope = getattr(store.backing, "trace_scope", None)
        while True:
            with store._cond:
                while True:
                    if rc is not None:
                        rc.read(self._race_scope, "_stop")
                    if self._stop:
                        return
                    claimed = self._claim_locked()
                    if claimed is not None:
                        break
                    # The timeout is belt-and-braces against a lost notify;
                    # progress signals normally wake us immediately.
                    store._cond.wait(timeout=0.1)
            item, slot = claimed
            ob = self.obs
            t0 = time.perf_counter() if ob is not None else 0.0
            sid = ob.new_span_id() if ob is not None and scope is not None else 0
            with scope(sid) if sid else nullcontext():
                loaded = store._prefetch_fill(item, slot)
            if ob is not None:
                ob.timed("prefetch_load", t0, time.perf_counter() - t0,
                         item=item, span_id=sid, loaded=loaded)
            if not loaded:
                with store._cond:
                    # The read failed: retry only after demand progresses.
                    if rc is not None:
                        rc.write(self._race_scope, "_deferred")
                    self._deferred.add(item)
