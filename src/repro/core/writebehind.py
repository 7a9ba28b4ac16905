"""Asynchronous write-behind: evictions stage their victim, a thread drains it.

The paper's eviction path is synchronous — ``getxvector()`` blocks the
likelihood compute until the victim vector is written out (§3.2). The
:class:`WriteBehindQueue` removes that stall: the store copies the victim
slot into a bounded *staging buffer* and returns immediately; one or more
background writer threads drain staged vectors to the backing store in
FIFO order.

Correctness invariants
----------------------
* **Read-your-writes.** A staged vector stays visible to
  :meth:`read_into` from the moment it is :meth:`put` until its write has
  *completed* — never merely until it has been popped. A demand or
  prefetch read of a recently evicted item is served from the staging
  buffer, not from the (possibly stale) backing store.
* **Coalescing.** Re-staging an item that is already queued overwrites the
  staged copy in place — only the newest version is ever written. If the
  older version is mid-write, a fresh buffer is staged and drains later
  (writes to one item are never concurrent, so the newest data always
  lands last).
* **Back-pressure.** ``put`` blocks while the buffer holds ``depth``
  distinct items (each blocked eviction counts one ``writeback_stalls``).
* **Drain barrier.** :meth:`drain` returns only once every staged vector
  is durable in the backing store; ``flush``/``close``/checkpointing use
  it as their barrier.
* **Fault handling.** A failed write keeps its vector staged (still
  readable), re-queues it for retry and parks the writer until new
  activity; the error surfaces on the next ``drain``/``close``.

Thread model: callers (the compute thread via eviction, the prefetcher via
``read_into``) and ``io_threads`` writer threads synchronise on one
condition variable. Writers never take the vector-store lock, so a caller
may block in ``put`` while holding it without deadlock.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Callable

import numpy as np
from numpy.typing import DTypeLike

from repro.analysis.race import make_condition, make_lock, make_thread, race_detector
from repro.core.backing import BackingStore
from repro.core.stats import IoStats
from repro.errors import OutOfCoreError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.obs import Observer


class WriteBehindQueue:
    """Bounded staging buffer + background writer thread(s).

    Parameters
    ----------
    backing:
        The :class:`~repro.core.backing.BackingStore` drained into. Must
        tolerate concurrent writes to *distinct* items (all shipped stores
        do; :class:`FileBackingStore` uses positioned I/O).
    item_shape / dtype:
        Geometry of one vector (staging buffers are preallocated lazily
        and pooled, so steady-state operation allocates nothing).
    depth:
        Maximum number of distinct staged items before ``put`` blocks.
    io_threads:
        Number of writer threads (more than one only helps when the
        backing store overlaps operations, e.g. real disk I/O).
    stats:
        The owning store's :class:`IoStats`; this queue updates only the
        ``writeback_writes`` / ``writeback_bytes`` / ``writeback_stalls``
        counters, always under its own lock.
    """

    def __init__(self, backing: BackingStore, item_shape: tuple[int, ...], dtype: DTypeLike,
                 depth: int = 8, io_threads: int = 1,
                 stats: IoStats | None = None) -> None:
        if depth < 1:
            raise OutOfCoreError(f"write-behind depth must be >= 1, got {depth}")
        if io_threads < 1:
            raise OutOfCoreError(f"need at least one writer thread, got {io_threads}")
        self.backing = backing
        self.item_shape = tuple(item_shape)
        self.dtype = np.dtype(dtype)
        self.item_bytes = int(np.prod(self.item_shape)) * self.dtype.itemsize
        self.depth = int(depth)
        self.stats = stats if stats is not None else IoStats()
        self.stats.writeback_enabled = True
        #: The owning store's :class:`repro.obs.Observer` (default off;
        #: set by ``AncestralVectorStore.attach``): enqueue, stall and
        #: drain are reported to it.
        self.obs: Observer | None = None

        # Under REPRO_SANITIZE=race the condition's monitor is a tracked
        # lock and writer threads carry start/join clock edges (zero cost
        # otherwise — see repro.analysis.race).
        self._race = race_detector()
        self._race_scope = ("" if self._race is None
                            else self._race.new_scope("WriteBehindQueue"))
        self._cond = make_condition(make_lock("WriteBehindQueue"))
        self._staged: dict[int, np.ndarray] = {}   # guarded-by: _cond  (item -> newest staged copy)
        self._order: deque[int] = deque()          # guarded-by: _cond  (FIFO awaiting a writer)
        self._writing: set[int] = set()            # guarded-by: _cond  (items a writer holds)
        self._pool: list[np.ndarray] = []          # guarded-by: _cond  (recycled staging buffers)
        self._error: BaseException | None = None   # guarded-by: _cond
        self._stop = False                         # guarded-by: _cond
        self._threads = [
            make_thread(self._writer_loop, daemon=True, name=f"writeback-{i}")
            for i in range(int(io_threads))
        ]
        for t in self._threads:
            t.start()

    # -- producer side (the vector store's eviction path) ----------------------

    def put(self, item: int, data: np.ndarray) -> None:
        """Stage ``data`` for asynchronous write-back of ``item``.

        Copies ``data`` (the caller's slot is reusable immediately) and
        returns once the copy is staged, blocking only under back-pressure.
        """
        item = int(item)
        ob = self.obs
        rc = self._race
        with self._cond:
            if rc is not None:
                rc.write(self._race_scope, "stats.writeback", "_staged",
                         "_order", "_pool")
                rc.read(self._race_scope, "_stop", "_writing")
            if self._stop:
                raise OutOfCoreError("write-behind queue is closed")
            if item in self._staged and item not in self._writing:
                # Coalesce: the queued (not-yet-popped) copy is superseded.
                np.copyto(self._staged[item], data)
                if ob is not None:
                    ob.event("writeback_enqueue", item)
                return
            stalled = False
            stall_t0 = 0.0
            while (len(self._staged) >= self.depth
                   and item not in self._staged) or item in self._writing:
                # Full buffer, or an older version of this item is mid-write
                # (staging a second concurrent copy of the same item would
                # allow two writers to race on one offset).
                if not stalled:
                    stalled = True
                    stall_t0 = time.perf_counter()
                    self.stats.writeback_stalls += 1
                self._cond.wait()
                if self._stop:
                    raise OutOfCoreError("write-behind queue is closed")
            if stalled and ob is not None:
                ob.timed("writeback_stall", stall_t0,
                         time.perf_counter() - stall_t0, item=item)
            if item in self._staged:  # re-check after waiting
                np.copyto(self._staged[item], data)
                if ob is not None:
                    ob.event("writeback_enqueue", item)
                return
            buf = self._pool.pop() if self._pool else np.empty(
                self.item_shape, dtype=self.dtype)
            np.copyto(buf, data)
            self._staged[item] = buf
            self._order.append(item)
            if ob is not None:
                ob.event("writeback_enqueue", item)
            self._cond.notify_all()

    def read_into(self, item: int, out: np.ndarray) -> bool:
        """Copy the staged (newest) version of ``item`` into ``out`` if present.

        Returns ``True`` on a staging hit — the caller must then *not* read
        the backing store, whose copy may be stale.
        """
        rc = self._race
        with self._cond:
            if rc is not None:
                rc.read(self._race_scope, "_staged")
            buf = self._staged.get(int(item))
            if buf is None:
                return False
            np.copyto(out, buf)
            return True

    def pending(self) -> int:
        """Number of items staged but not yet durable."""
        rc = self._race
        with self._cond:
            if rc is not None:
                rc.read(self._race_scope, "_staged")
            return len(self._staged)

    def counters_snapshot(self) -> dict[str, int]:
        """The writer-owned counters, read under the queue lock.

        Metrics collection uses this instead of trusting the copies it
        took under the *store* lock — those fields are written under this
        lock, so only this snapshot is race-free and consistent.
        """
        rc = self._race
        with self._cond:
            if rc is not None:
                rc.read(self._race_scope, "stats.writeback")
            return {
                "writeback_writes": self.stats.writeback_writes,
                "writeback_bytes": self.stats.writeback_bytes,
                "writeback_stalls": self.stats.writeback_stalls,
            }

    # -- barriers ---------------------------------------------------------------

    def drain(self) -> None:
        """Block until every staged vector is durable; re-raise writer errors."""
        rc = self._race
        with self._cond:
            if rc is not None:
                rc.read(self._race_scope, "_staged", "_writing")
                rc.write(self._race_scope, "_error")
            self._cond.notify_all()  # wake a writer parked after an error
            while True:
                if self._error is not None:
                    err, self._error = self._error, None
                    raise err
                if not self._staged and not self._writing:
                    return
                self._cond.wait()

    def close(self) -> None:
        """Drain, then stop and join the writer threads."""
        try:
            self.drain()
        finally:
            rc = self._race
            with self._cond:
                if rc is not None:
                    rc.write(self._race_scope, "_stop")
                self._stop = True
                self._cond.notify_all()
            for t in self._threads:
                t.join()

    # -- writer side -------------------------------------------------------------

    def _writer_loop(self) -> None:  # thread: writer
        rc = self._race
        # Feature-detect the async submit/collect hooks once (the backing
        # never changes): against an AsyncBackingStore such as the sharded
        # tier, a writer drains every queued victim as one submitted batch
        # — the per-shard in-flight windows keep all workers busy — and
        # only then collects completions, instead of one synchronous
        # round-trip at a time.
        submit = getattr(self.backing, "submit_write", None)
        if callable(submit):
            self._writer_loop_async(submit)
            return
        while True:
            with self._cond:
                if rc is not None:
                    rc.read(self._race_scope, "_stop", "_staged")
                    rc.write(self._race_scope, "_order", "_writing")
                while not self._order and not self._stop:
                    self._cond.wait()
                if self._stop:
                    # close() drains before stopping, so pending entries can
                    # only remain here after a drain that raised; abandon them.
                    return
                item = self._order.popleft()
                buf = self._staged[item]
                self._writing.add(item)
            write_t0 = time.perf_counter()
            try:
                self.backing.write(item, buf)
            except BaseException as exc:  # noqa: BLE001 - surfaced via drain()
                self._park_failed([(item, exc)], park=True)
                continue
            self._finish(item, buf, write_t0)

    def _writer_loop_async(
            self, submit: "Callable[[int, np.ndarray], Any]") -> None:  # thread: writer
        """Pipelined drain against an ``AsyncBackingStore``.

        Every queued victim is submitted as soon as it is popped —
        ``submit_write`` serialises the staged copy before returning, so
        the buffers are safe the moment each ticket completes — and
        completions are collected one at a time, oldest first, so the
        loop returns to pick up newly staged victims between waits. The
        submission pipe therefore stays full: while one shard's write is
        in flight, victims routed to other shards keep streaming out,
        which is where a multi-worker backing tier earns its overlap.

        A re-staged item can briefly have two writes in flight; they are
        submitted in staging order and the backing applies same-item
        operations in submission order (the sharded tier's per-item
        ordering contract — operations on *different* items may
        complete in any order), so the newest data wins. Failed items follow the synchronous error
        path (:meth:`_park_failed`): the vector stays staged (still
        readable), is re-queued for retry, the first error is parked for
        ``drain()`` to surface, and once the pipe is empty the writer waits
        for new activity instead of spinning.
        """
        rc = self._race
        # Trace-context injection: when spans are on and the backing can
        # scope submits (the sharded tier), every drain gets a span id
        # that the backing threads through its wire header, chaining the
        # worker-side disk span back to this drain.
        scope = getattr(self.backing, "trace_scope", None)
        inflight: deque[tuple[int, np.ndarray, Any, float, int]] = deque()
        while True:
            stopping = False
            with self._cond:
                if rc is not None:
                    rc.read(self._race_scope, "_stop", "_staged")
                    rc.write(self._race_scope, "_order", "_writing")
                while not self._order and not self._stop and not inflight:
                    self._cond.wait()
                stopping = self._stop
                batch: list[tuple[int, np.ndarray]] = []
                if not stopping:
                    while self._order:
                        queued = self._order.popleft()
                        batch.append((queued, self._staged[queued]))
                        self._writing.add(queued)
            if stopping:
                # close() drains before stopping, so tickets can only
                # remain here after a drain that raised; let them settle
                # (the backing is about to be closed) and abandon the
                # queue like the synchronous path does.
                for _item, _buf, ticket, _t0, _sid in inflight:
                    try:
                        ticket.wait()
                    except BaseException:  # noqa: BLE001 - abandoned on stop
                        pass
                return
            failed: list[tuple[int, BaseException]] = []
            for item, buf in batch:
                t0 = time.perf_counter()
                ob = self.obs
                sid = (ob.new_span_id()
                       if ob is not None and scope is not None else 0)
                try:
                    with scope(sid) if sid else nullcontext():
                        ticket = submit(item, buf)
                    inflight.append((item, buf, ticket, t0, sid))
                except BaseException as exc:  # noqa: BLE001 - surfaced via drain()
                    failed.append((item, exc))
            if inflight:
                item, buf, ticket, t0, sid = inflight.popleft()
                try:
                    ticket.wait()
                except BaseException as exc:  # noqa: BLE001 - surfaced via drain()
                    failed.append((item, exc))
                else:
                    self._finish(item, buf, t0, sid)
            if failed:
                self._park_failed(failed, park=not inflight)

    def _finish(self, item: int, buf: np.ndarray, t0: float,
                sid: int = 0) -> None:  # thread: writer
        """Account one completed drain (either loop) and recycle its buffer."""
        rc = self._race
        ob = self.obs
        if ob is not None:
            ob.timed("writeback_drain", t0, time.perf_counter() - t0,
                     item=item, span_id=sid)
        with self._cond:
            if rc is not None:
                rc.write(self._race_scope, "_writing", "_staged", "_pool",
                         "stats.writeback")
            self._writing.discard(item)
            self.stats.writeback_writes += 1
            self.stats.writeback_bytes += self.item_bytes
            if self._staged.get(item) is buf:
                del self._staged[item]
                if len(self._pool) < self.depth:
                    self._pool.append(buf)
            # else: the item was re-staged while this copy drained; the
            # newer version is still queued and drains after us.
            self._cond.notify_all()

    def _park_failed(self, failed: list[tuple[int, BaseException]],
                     park: bool) -> None:  # thread: writer
        """Re-queue failed drains; optionally park until new activity."""
        rc = self._race
        with self._cond:
            if rc is not None:
                rc.write(self._race_scope, "_writing", "_order", "_error")
            for item, exc in failed:
                self._writing.discard(item)
                self._order.append(item)  # keep the data; retry later
                if self._error is None:
                    self._error = exc
            self._cond.notify_all()
            # Park until new activity so a dead backing store does not
            # spin the writer — but never while tickets are still in
            # flight (their completions must be collected promptly).
            if park and not self._stop:
                self._cond.wait()
