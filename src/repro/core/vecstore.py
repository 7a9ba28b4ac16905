"""The out-of-core ancestral-vector store — the paper's ``getxvector()``.

:class:`AncestralVectorStore` manages ``n`` logical vectors with only
``m = f·n < n`` RAM *slots* (§3.2). Each slot holds exactly one vector; a
vector is at any moment either resident in a slot or in the backing store
(the paper's single binary file). All bookkeeping mirrors the C structs of
§3.2:

====================  =========================================
paper                 here
====================  =========================================
``itemvector[i]``     ``item_slot[i]`` (absent ⇒ on disk at offset ``i·w``)
``item_in_mem[s]``    ``slot_item[s]`` (-1 ⇒ slot free)
``getxvector(i,j,k)`` ``get(i, pins=(j, k))``
``skipreads``         ``read_skipping`` constructor flag
``strategy``          a :class:`~repro.core.policies.ReplacementPolicy`
====================  =========================================

Correctness contract (paper §4.1): routing vector accesses through this
store must leave likelihood results **bit-identical** to the all-in-RAM
implementation, for every policy and every ``m ≥ 3`` — including when the
asynchronous I/O pipeline below is active.

Asynchronous I/O pipeline (paper §5 future work)
------------------------------------------------
The store optionally overlaps I/O with likelihood compute:

* **Write-behind** (``writeback_depth > 0``): evictions copy the victim
  slot into a bounded :class:`~repro.core.writebehind.WriteBehindQueue`
  instead of writing synchronously; background writer threads drain it.
  Reads consult the staging buffer first (read-your-writes), ``flush``/
  ``close`` use its ``drain()`` barrier.
* **Prefetch** (:class:`~repro.core.prefetch.ThreadedPrefetcher` or the
  synchronous model in :class:`~repro.core.prefetch.Prefetcher`): upcoming
  read items from the traversal access sequence are loaded ahead of demand
  via :meth:`prefetch_load`, which never steals a slot from pinned,
  in-flight or caller-protected items.

Thread model: one compute thread calls ``get``; the prefetch workers
(``io_threads`` of them) call ``prefetch_load``; writer threads live inside
the write-behind queue and never take the store lock; and the synchronous
path owns one *swap helper* thread (below). All mutable bookkeeping is
guarded by one condition variable (``self._cond``). A slot being filled is
*published* in the maps but marked in-flight: demand requests for it wait
on the condition until its load has ended, and eviction never selects
in-flight items, so no thread ever reads or recycles a half-filled slot. A
demand miss that finds every unpinned slot held by loads in flight waits
for one to land — they end without the compute thread's help — instead
of failing. Backing-store transfers happen outside the lock — on the
demand path without exception.

A synchronous miss is one overlapped swap
-----------------------------------------
With ``writeback_depth == 0`` a miss that must both write its victim out
and read its item in issues the two transfers *together* (the paper's
cost model, §3.2: a miss costs one device transfer time, not two). Under
the lock the victim is chosen and flagged in flight — it keeps its slot,
so it is neither evictable nor readable from the backing store while its
write is open — and the item is published in flight. Outside the lock the
swap helper writes the victim from its slot while the calling thread
reads the item into the *transit vector*, one buffer beyond the ``m``
slots. Both are joined, and under the lock again the eviction and the
load are committed: the transit vector becomes the slot's buffer and the
victim's old buffer the next transit vector (a pointer rotation, no
copy). A failed write leaves the victim resident with its bytes and the
policy's order untouched; a failed read returns the vacated slot to the
free list; either way the error (a ``BaseException`` raised on the
helper included) surfaces from ``get``. A miss that owes only one
transfer does it on the calling thread. The helper thread and the
transit vector are created by the first two-transfer miss and released
by :meth:`AncestralVectorStore.close`.

**Synchronous** therefore means: *nothing is in flight when ``get``
returns*. Every counter, the victim sequence and the tracer's event
order are those of the serial write-then-read; only the waiting is
shorter.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from itertools import chain
from typing import TYPE_CHECKING, Any, Iterable
import weakref

import numpy as np
from numpy.typing import DTypeLike

from repro.analysis.race import make_condition, make_lock, race_detector
from repro.core.backing import BackingStore, MemoryBackingStore
from repro.core.layout import StorageLayout, WholeVectorLayout
from repro.core.policies import EvictableView, ReplacementPolicy, make_policy
from repro.core.stats import IoStats
from repro.core.writebehind import WriteBehindQueue
from repro.errors import BorrowError, OutOfCoreError, PinnedSlotError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.obs import Observer

#: ``(t0, seconds, served from the write-behind staging buffer)`` of the
#: read that filled a slot.
_ReadTiming = tuple[float, float, bool]

#: Smallest legal slot count: computing one ancestral vector needs it plus
#: its two children resident simultaneously (paper: "we must ensure m ≥ 3").
MIN_SLOTS = 3


def _sanitize_default() -> bool:
    """The slot-borrow sanitizer defaults on when ``REPRO_SANITIZE=1``."""
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


class BorrowedSlotView(np.ndarray):
    """Debug-mode slot view that detects use-after-evict.

    Under the sanitizer every view handed out by
    :meth:`AncestralVectorStore.get` is one of these instead of a plain
    ndarray. The view remembers its slot's generation at issue time; the
    store bumps the per-slot generation on every eviction, so any element
    access, assignment or ufunc touching a view whose slot has since been
    recycled raises :class:`~repro.errors.BorrowError` instead of silently
    reading another vector's data.

    Derived arrays (slices, ufunc results) are downcast to plain ndarray:
    only the originally borrowed view is validity-checked, which keeps the
    numerics bit-identical and the overhead local to the borrow boundary.
    """

    # Class-level defaults so instances numpy creates internally (e.g. via
    # __array_finalize__ during slicing) are inert rather than half-tracked.
    _borrow_generations: np.ndarray | None = None
    _borrow_slot: int = -1
    _borrow_expected: int = -1
    _borrow_item: int = -1

    def _borrow_check(self) -> None:
        gens = self._borrow_generations
        if gens is None:
            return
        # lockfree-ok: single aligned int64 load; the generation is bumped
        # under the store lock strictly before the slot can be reused, so a
        # stale read here only ever delays detection by one access.
        if int(gens[self._borrow_slot]) != self._borrow_expected:
            raise BorrowError(
                f"use-after-evict: view of item {self._borrow_item} "
                f"(slot {self._borrow_slot}) used after the slot was "
                f"recycled; re-fetch the vector with get() or hold a pin"
            )

    def _borrow_plain(self) -> np.ndarray:
        return self.view(np.ndarray)

    def __getitem__(self, key: Any) -> Any:
        self._borrow_check()
        out = super().__getitem__(key)
        if isinstance(out, BorrowedSlotView):
            out = out.view(np.ndarray)
        return out

    def __setitem__(self, key: Any, value: Any) -> None:
        self._borrow_check()
        super().__setitem__(key, value)

    def __array_ufunc__(self, ufunc: Any, method: str,
                        *inputs: Any, **kwargs: Any) -> Any:
        out = kwargs.get("out", ())
        for operand in (*inputs, *out):
            if isinstance(operand, BorrowedSlotView):
                operand._borrow_check()
        inputs = tuple(x._borrow_plain() if isinstance(x, BorrowedSlotView)
                       else x for x in inputs)
        if out:
            kwargs["out"] = tuple(
                x._borrow_plain() if isinstance(x, BorrowedSlotView) else x
                for x in out)
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __array_function__(self, func: Any, types: Any,
                           args: Any, kwargs: Any) -> Any:
        def strip(obj: Any) -> Any:
            if isinstance(obj, BorrowedSlotView):
                obj._borrow_check()
                return obj._borrow_plain()
            if isinstance(obj, (list, tuple)):
                return type(obj)(strip(x) for x in obj)
            return obj

        return func(*strip(args), **{k: strip(v) for k, v in kwargs.items()})


class AncestralVectorStore:
    """Fixed-capacity slot arena with transparent swap-in/swap-out.

    Parameters
    ----------
    num_items:
        ``n`` — the number of paged items. With the default whole-vector
        layout this is the number of logical vectors (ancestral nodes).
    item_shape:
        Shape of one paged item, e.g. ``(patterns, rates, states)``.
    layout:
        Alternative to ``num_items``/``item_shape``: a
        :class:`~repro.core.layout.StorageLayout` from which the item
        geometry is derived. The store itself stays item-granular — the
        layout only fixes the geometry and travels along so consumers
        (engines, policies, traces) can map items back to nodes. When
        omitted, a :class:`~repro.core.layout.WholeVectorLayout` over
        ``num_items × item_shape`` is assumed (the paper's design).
    dtype:
        ``float64`` (paper default) or ``float32`` (the single-precision
        memory halving of Berger & Stamatakis 2010).
    num_slots / fraction:
        Capacity ``m``: either an absolute count or the paper's ``f`` with
        ``m = max(MIN_SLOTS, round(f · n))``. ``fraction=1.0`` (default)
        keeps everything resident — the "standard RAxML" configuration.
    policy:
        A policy name or :class:`ReplacementPolicy` instance.
    backing:
        A :class:`BackingStore`; defaults to an in-RAM backing (suitable
        for miss-rate experiments; use a file store for real spill).
    read_skipping:
        Enable §3.4: a miss with ``write_only=True`` allocates a slot but
        skips the disk read.
    track_dirty:
        Beyond-paper option: skip the write-back of vectors never written
        since load ("clean evictions"). Off by default to match the paper,
        which always swaps the full vector out.
    poison_skipped_reads:
        Debug aid: fill read-skipped slots with NaN so a kernel that
        *reads* a write-only vector is caught immediately by tests.
    writeback_depth:
        ``> 0`` enables asynchronous write-behind with a staging buffer of
        that many vectors; ``0`` (default) keeps the paper's synchronous
        eviction write.
    io_threads:
        Background I/O threads per direction: that many writers drain the
        write-behind queue (none when write-behind is off), and an engine
        that attaches a prefetcher gives it that many workers. Recorded
        as :attr:`io_threads`.
    sanitize:
        Enable the debug-mode slot-borrow sanitizer: ``get`` returns
        generation-checked :class:`BorrowedSlotView` objects that raise
        :class:`~repro.errors.BorrowError` on use-after-evict. Defaults to
        the ``REPRO_SANITIZE`` environment variable (``1`` = on).
    """

    def __init__(
        self,
        num_items: int | None = None,
        item_shape: tuple[int, ...] | None = None,
        *,
        layout: StorageLayout | None = None,
        dtype: DTypeLike = np.float64,
        num_slots: int | None = None,
        fraction: float | None = None,
        policy: str | ReplacementPolicy = "lru",
        backing: BackingStore | None = None,
        read_skipping: bool = True,
        track_dirty: bool = False,
        poison_skipped_reads: bool = False,
        policy_kwargs: dict | None = None,
        writeback_depth: int = 0,
        io_threads: int = 1,
        sanitize: bool | None = None,
    ) -> None:
        if layout is None:
            if num_items is None or item_shape is None:
                raise OutOfCoreError(
                    "pass num_items and item_shape, or a StorageLayout")
            if num_items < 1:
                raise OutOfCoreError(f"need at least one item, got {num_items}")
            layout = WholeVectorLayout(int(num_items), tuple(item_shape))
        else:
            if num_items is not None and int(num_items) != layout.num_items:
                raise OutOfCoreError(
                    f"num_items={num_items} contradicts layout "
                    f"({layout.num_items} items)")
            if (item_shape is not None
                    and tuple(int(d) for d in item_shape) != layout.item_shape):
                raise OutOfCoreError(
                    f"item_shape={tuple(item_shape)} contradicts layout "
                    f"(items of {layout.item_shape})")
        self.layout = layout
        self.num_items = layout.num_items
        self.item_shape = layout.item_shape
        self.dtype = np.dtype(dtype)
        self.item_bytes = int(np.prod(self.item_shape)) * self.dtype.itemsize

        if num_slots is not None and fraction is not None:
            raise OutOfCoreError("pass either num_slots or fraction, not both")
        if num_slots is None:
            f = 1.0 if fraction is None else float(fraction)
            if not 0.0 < f <= 1.0:
                raise OutOfCoreError(f"fraction must be in (0, 1], got {f}")
            num_slots = int(math.floor(f * self.num_items + 0.5))
        num_slots = min(self.num_items, max(MIN_SLOTS, int(num_slots)))
        if self.num_items < MIN_SLOTS:
            num_slots = self.num_items
        self.num_slots = num_slots

        if isinstance(policy, str):
            policy = make_policy(policy, **(policy_kwargs or {}))
        self.policy = policy
        self.backing = backing if backing is not None else MemoryBackingStore(
            self.num_items, self.item_shape, self.dtype
        )
        self.read_skipping = bool(read_skipping)
        self.track_dirty = bool(track_dirty)
        self.poison_skipped_reads = bool(poison_skipped_reads)
        self.stats = IoStats()
        # Deferred writes (``fill``) that found their item evicted and had
        # to go straight to staging/backing. Diagnostic only — deliberately
        # *not* an IoStats counter, since fills are outside the demand/
        # eviction trace whose parity the counters certify.
        self.fill_spills = 0  # guarded-by: _lock

        # Slot arena: one contiguous block of m vectors. ``_slots[s]`` is the
        # buffer slot s currently owns — its arena row until an overlapped
        # swap rotates the transit vector in (see the module docstring).
        # The buffers are NOT lock-guarded: a slot's data is only touched
        # by the thread that holds it in-flight or by the compute thread while
        # the mapping says so (see the module docstring's thread model).
        self._arena = np.zeros((self.num_slots, *self.item_shape), dtype=self.dtype)
        self._slots: list[np.ndarray] = list(self._arena)
        # The two-way maps hold plain Python ints (they are read on every
        # ``get``). ``_item_slot`` has an entry per *resident* item only, so
        # it is also the resident set: updated in ``_publish``, ``_evict``
        # and ``_unpublish``, never rebuilt.
        self._slot_item: list[int] = [-1] * self.num_slots  # guarded-by: _lock  (item_in_mem)
        self._item_slot: dict[int, int] = {}  # guarded-by: _lock  (itemvector)
        self._dirty = np.zeros(self.num_slots, dtype=bool)  # guarded-by: _lock
        self._free: list[int] = list(range(self.num_slots - 1, -1, -1))  # guarded-by: _lock
        self._ever_stored = np.zeros(self.num_items, dtype=bool)  # guarded-by: _lock

        # Async-pipeline state (see the module docstring's thread model).
        # Under REPRO_SANITIZE=race the factories return vector-clock
        # tracked primitives and the hooks below record every guarded
        # access; otherwise they are plain threading objects and each
        # hook site is one ``is None`` test (pay-for-play, like tracer).
        self._race = race_detector()
        self._race_scope = ("" if self._race is None
                            else self._race.new_scope("AncestralVectorStore"))
        self._lock = make_lock("AncestralVectorStore")
        self._cond = make_condition(self._lock)
        self._inflight: set[int] = set()  # guarded-by: _lock
        self._prefetched_untouched: set[int] = set()  # guarded-by: _lock
        self._active_pins: set[int] = set()  # guarded-by: _lock
        self._writeback: WriteBehindQueue | None = None
        # The overlapped swap's two resources, both created by the first
        # two-transfer miss (``_swap_resources``) and touched only by the
        # compute thread: the vector beyond the m slots that a read lands
        # in, and the one-thread pool that runs the victim's write.
        self._transit: np.ndarray | None = None
        self._swap_helper: ThreadPoolExecutor | None = None
        self._closed = False

        # Slot-borrow sanitizer (debug mode, REPRO_SANITIZE=1): per-slot
        # generation counters plus weakrefs to every live borrowed view.
        self._sanitize = _sanitize_default() if sanitize is None else bool(sanitize)
        self._slot_generation = np.zeros(self.num_slots, dtype=np.int64)  # guarded-by: _lock
        self._borrows: list[weakref.ref] = []  # guarded-by: _lock
        #: The attached :class:`repro.obs.Observer`, or ``None`` (default):
        #: every reporting site is then a single ``is None`` test. Purely
        #: passive — reporting changes no allocation, eviction or counter
        #: decision. Written only from the compute thread via
        #: :meth:`attach`; reports themselves are lock-free (the sinks'
        #: ring appends are GIL-atomic), so reading the reference without
        #: the lock from the prefetch path is safe.
        self.obs: Observer | None = None
        self.io_threads = int(io_threads)
        if int(writeback_depth) > 0:
            self._writeback = WriteBehindQueue(
                self.backing, self.item_shape, self.dtype,
                depth=int(writeback_depth), io_threads=self.io_threads,
                stats=self.stats,
            )

    # -- introspection -----------------------------------------------------------

    @property
    def fraction(self) -> float:
        """Effective ``f = m / n``."""
        return self.num_slots / self.num_items

    @property
    def writeback(self) -> WriteBehindQueue | None:
        """The write-behind queue, or ``None`` when evictions are synchronous."""
        return self._writeback

    def attach(self, obs: "Observer | None") -> None:
        """Attach (or with ``None`` detach) the observer this store reports to.

        Hands it on to the write-behind queue and the backing store, so
        their events and physical-I/O latencies land in the same sinks,
        and registers the pull collector that copies the store's counters
        and slot/queue gauges into the metrics registry at scrape/snapshot
        time — the demand path itself is untouched (passivity). Call from
        the compute thread only, ideally before the workload starts.
        """
        if self.obs is not None:
            self.obs.remove_collector(self._collect_metrics)
        self.obs = obs
        backing_any: Any = self.backing
        backing_any.obs = obs
        if self._writeback is not None:
            self._writeback.obs = obs
        if obs is not None:
            obs.add_collector(self._collect_metrics)

    def _collect_metrics(self) -> None:
        """Pull collector: copy counters and live gauges into the registry.

        Runs on whichever thread scrapes/snapshots. The counter block is
        read under the store lock (one consistent cut); the write-behind
        queue depth is read after releasing it, respecting the
        store-lock → queue-lock order.
        """
        ob = self.obs
        if ob is None:
            return
        rc = self._race
        with self._cond:
            if rc is not None:
                rc.read(self._race_scope, "stats.store", "_free", "_dirty",
                        "_inflight", "_prefetched_untouched")
            counters = dict(self.stats._counters())
            occupied = self.num_slots - len(self._free)
            dirty = int(np.count_nonzero(self._dirty))
            inflight = len(self._inflight)
            untouched = len(self._prefetched_untouched)
        wb = self._writeback
        if wb is not None:
            # The writer-owned counters just read under the store lock are
            # stale/racy snapshots — discard them and re-read under the
            # queue lock (store-lock -> queue-lock order, one clean cut).
            counters.update(wb.counters_snapshot())
        ob.totals(counters)
        ob.gauge("slots_total", self.num_slots)
        ob.gauge("slots_occupied", occupied)
        ob.gauge("slots_dirty", dirty)
        ob.gauge("loads_inflight", inflight)
        ob.gauge("prefetch_untouched", untouched)
        ob.gauge("writeback_queue_depth",
                 wb.pending() if wb is not None else 0)

    def is_resident(self, item: int) -> bool:
        self._check_item(item)
        rc = self._race
        with self._cond:
            if rc is not None:
                rc.read(self._race_scope, "_item_slot")
            return item in self._item_slot

    def resident_items(self) -> list[int]:
        rc = self._race
        with self._cond:
            if rc is not None:
                rc.read(self._race_scope, "_slot_item")
            return [i for i in self._slot_item if i >= 0]

    def ram_bytes(self) -> int:
        """Bytes the slot arena occupies — the paper's ``m · w`` budget.

        The transit vector of the overlapped swap is staging beyond the
        budget, accounted like the write-behind queue's buffers: not here.
        """
        return self._arena.nbytes

    def _check_item(self, item: int) -> None:
        if not 0 <= item < self.num_items:
            raise OutOfCoreError(f"item {item} out of range [0, {self.num_items})")

    # -- the core access path (paper's getxvector) ----------------------------------

    def get(self, item: int, pins: tuple = (), write_only: bool = False) -> np.ndarray:
        """Return the RAM address (a numpy view) of vector ``item``.

        Mirrors ``getxvector(i, pin_j, pin_k)``: if ``item`` is not
        resident, a victim slot is chosen by the replacement strategy —
        never one holding a pinned or in-flight item — the victim is
        swapped out, and ``item`` is swapped in (read elided under read
        skipping when ``write_only``). The returned view stays valid only
        until the next ``get`` that may evict it; kernels therefore fetch
        all operands with mutual pins, exactly as the paper prescribes for
        the (parent, left child, right child) triple. The pins of the most
        recent ``get`` additionally shield those operands from a concurrent
        prefetcher until the next demand access.
        """
        item = int(item)
        self._check_item(item)
        for p in pins:
            self._check_item(p)
        ob = self.obs
        rc = self._race
        with self._cond:
            if rc is not None:
                rc.write(self._race_scope, "stats.store", "_active_pins")
            self.stats.requests += 1
            if ob is not None:
                ob.event("get", item)
            self._active_pins = {item, *(int(p) for p in pins)}
            self._cond.notify_all()  # progress signal for the prefetch workers
            if rc is not None:
                rc.read(self._race_scope, "_item_slot", "_inflight")
            while True:
                if item in self._inflight:
                    # A prefetch load of this exact item is in flight: wait
                    # for it — the hit branch accounts it.
                    self._wait_inflight(item, {item})
                slot = self._item_slot.get(item, -1)
                if slot >= 0:
                    return self._account_hit(item, slot, write_only)
                found = self._allocate_slot(item, pins)
                if found is not None:
                    break
                # Every unpinned slot is held by a load in flight. Loads land
                # without this thread's help: wait for one, then look again
                # (the item itself may have been prefetched meanwhile).
                self._wait_inflight(item, set(self._inflight))
            self.stats.misses += 1
            slot, victim = found
            if ob is not None:
                ob.event("miss", item, slot)
            skip = write_only and self.read_skipping
            if victim < 0:
                self._publish(item, slot)
                if skip:  # a vacant slot and no read: nothing is owed
                    return self._commit_load(item, slot, write_only, None)
            else:
                # The slot is the victim's until its write lands; the item
                # is only announced (resident, in flight).
                self._item_slot[item] = slot
            # Transfers are owed: they happen outside the lock, so a
            # prefetch thread can keep working.
            if rc is not None:
                rc.write(self._race_scope, "_inflight", "_item_slot")
            self._inflight.add(item)
        return self._swap_in(item, slot, victim, write_only, skip)

    def _wait_inflight(self, item: int, loading: set[int]) -> None:  # holds: _cond
        """Wait until one of the loads ``loading`` has landed: one timed
        ``inflight_wait`` — beside back-pressure (``writeback_stall``) and
        a read of its own (``demand_read``) the demand path's third wait."""
        ob = self.obs
        t0 = time.perf_counter() if ob is not None else 0.0
        while loading <= self._inflight:
            self._cond.wait()
        if ob is not None:
            ob.timed("inflight_wait", t0, time.perf_counter() - t0, item=item)

    def _swap_in(self, item: int, slot: int, victim: int, write_only: bool,
                 skip: bool) -> np.ndarray:
        """Do the transfers a demand miss owes, then commit or roll back.

        Called without the lock, with ``item`` (and ``victim``, if ``>= 0``)
        flagged in flight. ``victim``'s write-out and ``item``'s read-in
        (unless ``skip``) run outside the lock. When both are owed the
        write runs on the swap helper from the slot's own buffer (so the
        victim's bytes stay intact whatever happens) while this thread
        reads into the transit vector, and one ``swap`` is reported: the
        interval both were in flight together, i.e. the device seconds the
        overlap hid (write + read - elapsed). Whatever either transfer
        raises is held until both have ended and the bookkeeping is
        consistent again:

        * write failed, or could not be handed to the helper — the victim
          keeps its slot, bytes and place in the policy's order; the load
          is rolled back even if its read succeeded (the serial path would
          never have attempted it);
        * read failed — the eviction stands, the vacated slot returns to
          the free list.
        """
        ob = self.obs
        rc = self._race
        dest = self._slots[slot]
        write_exc: BaseException | None = None
        read_exc: BaseException | None = None
        read: _ReadTiming | None = None
        pending: Future[float] | None = None
        t0 = time.perf_counter()
        if victim >= 0 and skip:
            try:
                self.backing.write(victim, dest)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                write_exc = exc
        elif victim >= 0:
            try:
                helper, transit = self._swap_resources()
                pending = helper.submit(self._timed_write, victim, dest)
                dest = transit
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                write_exc = exc  # the write never started: neither does the read
        if not skip and write_exc is None:
            try:
                from_staging = self._read_into(item, dest)
                read = (t0, time.perf_counter() - t0, from_staging)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                read_exc = exc
        if pending is not None:
            write_exc = pending.exception()  # joins the helper's write
            if ob is not None and write_exc is None and read is not None:
                hidden = pending.result() + read[1] - (time.perf_counter() - t0)
                ob.timed("swap", t0, max(hidden, 0.0), item=item, slot=slot,
                         victim=victim)
        with self._cond:
            if rc is not None:
                rc.write(self._race_scope, "_inflight", "_item_slot")
            if victim >= 0:
                self._inflight.remove(victim)
                if write_exc is None:
                    self._vacate(victim, slot, written=True)
            self._inflight.remove(item)
            self._cond.notify_all()
            if write_exc is not None:
                del self._item_slot[item]  # the slot is still the victim's
                raise write_exc
            if read_exc is not None:
                self._unpublish(item, slot)
                raise read_exc
            if pending is not None:
                # The read landed in the transit vector: it becomes the
                # slot's buffer, the victim's old one the next transit.
                self._transit, self._slots[slot] = self._slots[slot], dest
            if victim >= 0:
                self._publish(item, slot)
            return self._commit_load(item, slot, write_only, read)

    def _swap_resources(self) -> tuple[ThreadPoolExecutor, np.ndarray]:
        """The swap helper and the transit vector, created on first use."""
        helper, transit = self._swap_helper, self._transit
        if helper is None or transit is None:
            if self._closed:
                raise OutOfCoreError(
                    "the store is closed: no swap helper to write a victim out")
            transit = self._transit = np.zeros(self.item_shape,
                                               dtype=self.dtype)
            helper = self._swap_helper = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="vecstore-swap")
        return helper, transit

    def _timed_write(self, item: int, data: np.ndarray) -> float:  # thread: writer
        """The swap helper's job: one backing write, returning its seconds."""
        t0 = time.perf_counter()
        self.backing.write(item, data)
        return time.perf_counter() - t0

    def _account_hit(self, item: int, slot: int, write_only: bool) -> np.ndarray:  # holds: _cond
        """Stats + policy bookkeeping for a request that found ``item`` resident.

        A first demand touch of a prefetched slot is charged as the miss
        plus read — or read skip, when write-only under read skipping —
        that it would have been without prefetch (see ``repro.core.stats``),
        so the Fig. 2–4 demand metrics are independent of prefetching.
        """
        ob = self.obs
        rc = self._race
        if rc is not None:
            rc.write(self._race_scope, "stats.store", "_prefetched_untouched",
                     "_dirty", "_ever_stored")
        if item in self._prefetched_untouched:
            self._prefetched_untouched.discard(item)
            self.stats.misses += 1
            if ob is not None:
                ob.event("miss", item, slot)
            if write_only and self.read_skipping:
                # Without prefetch this miss would have skipped its read
                # (§3.4) — the prefetched bytes were wasted, not a hit.
                self.stats.read_skips += 1
                self.stats.prefetch_unused += 1
                if ob is not None:
                    ob.event("read_skip", item, slot)
                if self.poison_skipped_reads:
                    self._slots[slot].fill(np.nan)
            else:
                self.stats.reads += 1
                self.stats.bytes_read += self.item_bytes
                self.stats.prefetch_hits += 1
                if ob is not None:
                    # An instant: the physical read already happened at
                    # prefetch_issue time; this records the demand charge.
                    ob.event("demand_read", item, slot)
                    ob.event("prefetch_hit", item, slot)
        else:
            self.stats.hits += 1
            if ob is not None:
                ob.event("hit", item, slot)
        if write_only:
            self._dirty[slot] = True
            self._ever_stored[item] = True
        self.policy.on_access(item, write_only)
        return self._issue_view(item, slot)

    def _commit_load(self, item: int, slot: int, write_only: bool,  # holds: _cond
                     read: _ReadTiming | None) -> np.ndarray:
        """Account a demand miss whose slot now holds ``item`` and issue the view.

        ``read`` times the read that filled the slot; ``None`` means the
        read was skipped (§3.4).
        """
        ob = self.obs
        rc = self._race
        if rc is not None:
            rc.write(self._race_scope, "stats.store", "_dirty", "_ever_stored")
        if read is None:
            self.stats.read_skips += 1
            if ob is not None:
                ob.event("read_skip", item, slot)
            if self.poison_skipped_reads:
                self._slots[slot].fill(np.nan)
        else:
            t0, seconds, from_staging = read
            self.stats.reads += 1
            self.stats.bytes_read += self.item_bytes
            if ob is not None:
                ob.timed("demand_read", t0, seconds, item=item, slot=slot)
            if from_staging:
                self.stats.writeback_read_hits += 1
        self.policy.on_load(item)
        self._dirty[slot] = False
        if write_only:
            self._dirty[slot] = True
            self._ever_stored[item] = True
        self.policy.on_access(item, write_only)
        return self._issue_view(item, slot)

    def _issue_view(self, item: int, slot: int) -> np.ndarray:  # holds: _cond
        """The ndarray handed back by ``get`` — sanitizer-wrapped in debug mode."""
        rc = self._race
        if rc is not None:
            rc.read(self._race_scope, "_slot_generation")
            rc.write(self._race_scope, "_borrows")
        if not self._sanitize:
            return self._slots[slot]
        view = self._slots[slot].view(BorrowedSlotView)
        view._borrow_generations = self._slot_generation
        view._borrow_slot = slot
        view._borrow_expected = int(self._slot_generation[slot])
        view._borrow_item = item
        self._borrows = [r for r in self._borrows if r() is not None]
        self._borrows.append(weakref.ref(view))
        return view

    def active_borrows(self) -> int:
        """Live sanitizer-tracked views (0 when the sanitizer is off)."""
        rc = self._race
        with self._cond:
            if rc is not None:
                rc.write(self._race_scope, "_borrows")
            self._borrows = [r for r in self._borrows if r() is not None]
            return len(self._borrows)

    def _publish(self, item: int, slot: int) -> None:  # holds: _cond
        rc = self._race
        if rc is not None:
            rc.write(self._race_scope, "_slot_item", "_item_slot", "_dirty")
        self._slot_item[slot] = item
        self._item_slot[item] = slot
        self._dirty[slot] = False

    def _unpublish(self, item: int, slot: int) -> None:  # holds: _cond
        """Roll back ``_publish`` after a failed load: the slot is free again.

        The policy never heard of ``item`` (``on_load`` follows a
        successful read), so there is nothing to tell it.
        """
        rc = self._race
        if rc is not None:
            rc.write(self._race_scope, "_slot_item", "_item_slot", "_free")
        del self._item_slot[item]
        self._slot_item[slot] = -1
        self._free.append(slot)

    def _read_into(self, item: int, out: np.ndarray) -> bool:
        """Fill ``out`` from the staging buffer or the backing store.

        Returns ``True`` when served by the write-behind staging buffer
        (whose copy is newer than the backing store's — read-your-writes).
        """
        if self._writeback is not None and \
                self._writeback.read_into(item, out):
            return True
        self.backing.read(item, out)
        return False

    def mark_dirty(self, item: int) -> None:
        """Declare that a vector obtained read-mostly was actually modified."""
        self._check_item(item)
        rc = self._race
        with self._cond:
            if rc is not None:
                rc.read(self._race_scope, "_item_slot")
                rc.write(self._race_scope, "_dirty", "_ever_stored")
            slot = self._item_slot.get(item, -1)
            if slot < 0:
                raise OutOfCoreError(f"item {item} is not resident")
            self._dirty[slot] = True
            self._ever_stored[item] = True

    def fill(self, item: int, data: np.ndarray) -> None:
        """Out-of-band completion of an earlier write-only ``get``.

        The batched execution path fetches each group member's target
        write-only at its exact position in the access sequence but
        computes the contents only after the whole group's operands are
        stacked; ``fill`` then lands the result wherever the item now
        lives. ``data`` covers the leading ``data.shape[0]`` rows of the
        item (a ragged last block leaves the slot's padding rows as they
        were — exactly what an in-place kernel write would have done).

        This is *not* an access: no counter moves and the replacement
        policy is not consulted, so the demand/eviction parity of the
        surrounding ``get`` sequence is preserved by construction. Three
        cases:

        * resident → copy into the slot (its write-only ``get`` already
          marked it dirty; re-mark anyway in case a racing prefetch
          reloaded it clean);
        * evicted since the write-only ``get`` → the eviction persisted
          stale bytes; write the real ones through the write-behind
          queue (coalescing — newest copy wins) or straight to backing;
        * load in flight (prefetch) → wait for it, then overwrite the
          slot, so a reload of pre-fill bytes can never win the race.
        """
        item = int(item)
        self._check_item(item)
        span = int(data.shape[0])
        staged = False
        rc = self._race
        while True:
            with self._cond:
                if rc is not None:
                    rc.read(self._race_scope, "_inflight", "_item_slot")
                while item in self._inflight:
                    self._cond.wait()
                slot = self._item_slot.get(item, -1)
                if slot >= 0:
                    if rc is not None:
                        rc.write(self._race_scope, "_dirty", "_ever_stored")
                    self._slots[slot][:span] = data
                    self._dirty[slot] = True
                    self._ever_stored[item] = True
                    return
                if staged:
                    # Persisted below and still non-resident: any get
                    # from here on reads the staged/written copy.
                    return
            # Non-resident: persist a full-size buffer out-of-band, then
            # re-check — a prefetch that raced us and loaded stale bytes
            # is overwritten in-slot on the next pass.
            buf = np.zeros(self.item_shape, dtype=self.dtype)
            buf[:span] = data
            if self._writeback is not None:
                self._writeback.put(item, buf)
            else:
                self.backing.write(item, buf)
            with self._cond:
                if rc is not None:
                    rc.write(self._race_scope, "_ever_stored", "fill_spills")
                self._ever_stored[item] = True
                self.fill_spills += 1
            staged = True

    def _allocate_slot(self, item: int,  # holds: _cond
                       pins: tuple) -> tuple[int, int] | None:
        """A slot for a demand miss on ``item``: ``(slot, victim)``.

        ``victim < 0``: the slot is vacant (free, or its occupant was
        evicted here — clean under ``track_dirty``, or staged into the
        write-behind queue). ``victim >= 0``: the synchronous write-out of
        that item is still owed — it keeps the slot, flagged in flight,
        until the caller has written it outside the lock (``_swap_in``).
        ``None``: nothing is evictable *yet* — loads in flight hold the
        unpinned slots, and the caller waits for one to land. Pins alone
        exhausting the slots is the caller's error.
        """
        rc = self._race
        if rc is not None:
            rc.write(self._race_scope, "_free")
        if self._free:
            return self._free.pop(), -1
        candidates = self._evictable(pins)
        if not candidates:
            if self._inflight:
                return None
            # Pins hold slots only while resident: the slot count advised
            # is the one that would have sufficed.
            pinned = sorted({int(p) for p in pins if p in self._item_slot})
            raise PinnedSlotError(
                f"all {self.num_slots} slots pinned while requesting item "
                f"{item} (pins={pinned}); the store needs at least "
                f"{len(pinned) + 1} slots")
        victim = int(self.policy.choose_victim(candidates, item))
        if victim not in candidates:
            raise OutOfCoreError(
                f"policy {self.policy.name!r} chose non-candidate victim {victim}"
            )
        vslot = self._item_slot[victim]
        if self._writeback is not None or (self.track_dirty
                                           and not self._dirty[vslot]):
            self._evict(victim, vslot)
            return vslot, -1
        if rc is not None:
            rc.write(self._race_scope, "_inflight")
        if self.obs is not None:
            self.obs.event("evict", victim, vslot)
        self._inflight.add(victim)
        return vslot, victim

    def _evictable(self, *excluded: Iterable[int]) -> EvictableView:  # holds: _cond
        """The victim candidates: residents minus ``excluded`` and in-flight loads."""
        rc = self._race
        if rc is not None:
            rc.read(self._race_scope, "_slot_item", "_item_slot", "_inflight")
        return EvictableView(self._slot_item, self._item_slot,
                             chain(self._inflight, *excluded))

    def _evict(self, item: int, slot: int) -> None:  # holds: _cond
        """Evict ``item`` here and now (every path but the synchronous
        demand miss, which writes outside the lock — ``_swap_in``)."""
        rc = self._race
        if rc is not None:
            rc.read(self._race_scope, "_dirty")
        if self.obs is not None:
            self.obs.event("evict", item, slot)
        written = not (self.track_dirty and not self._dirty[slot])
        if written:
            self._write_out(item, slot)
        self._vacate(item, slot, written)

    def _vacate(self, item: int, slot: int, written: bool) -> None:  # holds: _cond
        """Bookkeeping of an eviction whose bytes are safe: the slot is vacant."""
        rc = self._race
        if rc is not None:
            rc.write(self._race_scope, "_slot_generation", "stats.store",
                     "_prefetched_untouched", "_item_slot", "_slot_item",
                     "_dirty")
        self._slot_generation[slot] += 1  # invalidates outstanding borrows
        if item in self._prefetched_untouched:
            self._prefetched_untouched.discard(item)
            self.stats.prefetch_unused += 1
        if written:
            self.stats.writes += 1
            self.stats.bytes_written += self.item_bytes
        else:
            self.stats.write_skips += 1
        del self._item_slot[item]
        self._slot_item[slot] = -1
        self._dirty[slot] = False
        self.policy.on_evict(item)

    def _write_out(self, item: int, slot: int) -> None:
        """Persist one slot — staged asynchronously when write-behind is on."""
        if self._writeback is not None:
            self._writeback.put(item, self._slots[slot])
        else:
            self.backing.write(item, self._slots[slot])

    # -- prefetch support (paper §5) -------------------------------------------------

    def prefetch_load(self, item: int,  # thread: prefetch
                      protect: Iterable[int] = ()) -> bool:
        """Load ``item`` ahead of demand; best-effort, thread-safe.

        Allocates a slot — never stealing from ``protect``, the pins of the
        most recent demand ``get`` or in-flight loads — publishes the
        mapping, and fills the slot from the staging buffer or the backing
        store *outside the lock*. Demand requests arriving mid-load wait on
        the condition until it has ended. Returns ``False`` (without
        raising) when the item is already resident/in flight, no evictable
        slot exists, or the read fails — prefetching is an optimisation,
        never an obligation. Accounts only ``prefetch_*`` traffic: demand
        counters are charged at first demand touch, as if prefetch were
        transparent.
        """
        item = int(item)
        self._check_item(item)
        with self._cond:
            slot = self._prefetch_claim(item, protect)
        return slot is not None and self._prefetch_fill(item, slot)

    def _prefetch_claim(self, item: int,  # holds: _cond
                        protect: Iterable[int]) -> int | None:
        """Publish ``item`` in flight in a slot of its own, or ``None``.

        ``None`` when the item is already resident (or its load in flight)
        or no slot is evictable. The threaded prefetcher claims in the
        same lock hold that picked the item, so two workers can never
        pick the same one.
        """
        rc = self._race
        if rc is not None:
            rc.read(self._race_scope, "_item_slot")
        if item in self._item_slot:
            return None
        slot = self._try_allocate(item, protect)
        if slot is not None:
            self._publish(item, slot)
            if rc is not None:
                rc.write(self._race_scope, "_inflight")
            self._inflight.add(item)
        return slot

    def _prefetch_fill(self, item: int, slot: int) -> bool:  # thread: prefetch
        """Fill a claimed slot outside the lock; ``False`` if the read failed."""
        rc = self._race
        ob = self.obs
        try:
            read_t0 = time.perf_counter() if ob is not None else 0.0
            from_staging = self._read_into(item, self._slots[slot])
        except Exception:
            with self._cond:
                self._unpublish(item, slot)
                if rc is not None:
                    rc.write(self._race_scope, "_inflight")
                self._inflight.discard(item)
                self._cond.notify_all()
            return False
        with self._cond:
            if rc is not None:
                rc.write(self._race_scope, "stats.store",
                         "_prefetched_untouched", "_inflight")
            self.stats.prefetch_reads += 1
            self.stats.prefetch_bytes += self.item_bytes
            if ob is not None:
                ob.timed("prefetch_issue", read_t0,
                         time.perf_counter() - read_t0, item=item, slot=slot)
            if from_staging:
                self.stats.writeback_read_hits += 1
            self._prefetched_untouched.add(item)
            self.policy.on_load(item)
            # Stamp the policy so the freshly prefetched vector is not the
            # immediate next victim (it is needed within the horizon).
            self.policy.on_access(item, False)
            self._inflight.discard(item)
            self._cond.notify_all()
        return True

    def _try_allocate(self, item: int,  # holds: _cond
                      protect: Iterable[int]) -> int | None:
        """Non-raising slot allocation for prefetch (``None`` = no slot)."""
        rc = self._race
        if rc is not None:
            rc.write(self._race_scope, "_free")
            rc.read(self._race_scope, "_active_pins", "_prefetched_untouched")
        if self._free:
            return self._free.pop()
        candidates = self._evictable(protect, self._active_pins,
                                     self._prefetched_untouched)
        if not candidates:
            return None
        victim = int(self.policy.choose_victim(candidates, item))
        if victim not in candidates:
            return None
        vslot = self._item_slot[victim]
        self._evict(victim, vslot)
        return vslot

    # -- bulk operations ----------------------------------------------------------

    def flush(self, force: bool = False) -> None:
        """Write resident vectors back to the backing store (kept resident).

        Honours :attr:`track_dirty`: clean residents are skipped (credited
        to ``write_skips``) unless ``force=True`` — the checkpointing
        escape hatch that persists everything regardless. Acts as a full
        barrier: returns only after the write-behind queue (if any) has
        drained, so the backing store is durable and self-consistent.
        """
        rc = self._race
        with self._cond:
            self._settle()
            if rc is not None:
                rc.read(self._race_scope, "_slot_item")
                rc.write(self._race_scope, "stats.store", "_dirty")
            for slot, item in enumerate(self._slot_item):
                if item < 0:
                    continue
                if not force and self.track_dirty and not self._dirty[slot]:
                    self.stats.write_skips += 1
                    continue
                self._write_out(item, slot)
                self.stats.writes += 1
                self.stats.bytes_written += self.item_bytes
                self._dirty[slot] = False
        self.drain()
        # Only now is every write actually ON the device, not just handed
        # to the OS: the backing-level flush is the fsync barrier.
        self.backing.flush()

    def drain(self) -> None:
        """Barrier: block until all staged write-behind data is durable."""
        if self._writeback is not None:
            self._writeback.drain()

    def _settle(self) -> None:  # holds: _cond
        """Wait (under the lock) until no load is in flight."""
        rc = self._race
        if rc is not None:
            rc.read(self._race_scope, "_inflight")
        while self._inflight:
            self._cond.wait()

    def evict_all(self) -> None:
        """Empty every slot (vectors written back); used between experiment phases."""
        rc = self._race
        with self._cond:
            self._settle()
            if rc is not None:
                rc.read(self._race_scope, "_slot_item")
                rc.write(self._race_scope, "_free")
            for slot, item in enumerate(self._slot_item):
                if item >= 0:
                    self._evict(item, slot)
                    self._free.append(slot)
        self.drain()

    def read_item(self, item: int) -> np.ndarray:
        """Copy of a vector's current contents, resident or not (no stats impact).

        For verification/debugging only — production code uses :meth:`get`.
        Consults, in order: the RAM slot, the write-behind staging buffer,
        the backing store — so it always observes the newest version.
        """
        self._check_item(item)
        rc = self._race
        with self._cond:
            self._settle()
            if rc is not None:
                rc.read(self._race_scope, "_item_slot")
            slot = self._item_slot.get(item, -1)
            if slot >= 0:
                return self._slots[slot].copy()
        out = np.empty(self.item_shape, dtype=self.dtype)
        self._read_into(item, out)
        return out

    def validate(self) -> None:
        """Internal-consistency check of the slot/item maps and what hangs off them.

        The maps, the free list and the replacement policy's own order are
        each updated incrementally, on every load, eviction and failed-load
        rollback; a missed update would not crash, it would skew victim
        choice. This cross-checks all of them: ``_slot_item`` and
        ``_item_slot`` are inverse to each other, the free list holds
        exactly the empty slots, every slot owns a buffer of its own (the
        overlapped swap rotates them), in-flight and prefetched-untouched
        items are resident, and an order-keeping policy
        (:meth:`ReplacementPolicy.ordered_items`) tracks exactly the
        residents whose load has completed. For the compute thread,
        between two ``get`` calls: a swap of its own in flight is not a
        state this describes.
        """
        rc = self._race
        with self._cond:
            if rc is not None:
                rc.read(self._race_scope, "_slot_item", "_item_slot", "_free",
                        "_inflight", "_prefetched_untouched")
            for slot, item in enumerate(self._slot_item):
                if item >= 0 and self._item_slot.get(item, -1) != slot:
                    raise OutOfCoreError(f"slot {slot} ↦ item {item} ↦ slot "
                                         f"{self._item_slot.get(item, -1)} mismatch")
            for item, slot in self._item_slot.items():
                if not (0 <= slot < self.num_slots
                        and self._slot_item[slot] == item):
                    raise OutOfCoreError(f"item {item} ↦ slot {slot} mismatch: "
                                         f"the slot does not map back to it")
            if (len(self._item_slot) + len(self._free) != self.num_slots
                    or len(set(self._free)) != len(self._free)
                    or any(self._slot_item[slot] >= 0 for slot in self._free)):
                raise OutOfCoreError("free-list/resident accounting mismatch")
            buffers = {id(buf) for buf in self._slots}
            if len(buffers) != self.num_slots or id(self._transit) in buffers:
                raise OutOfCoreError("two slots (or a slot and the transit "
                                     "vector) share one buffer")
            stray = (self._inflight | self._prefetched_untouched) \
                - self._item_slot.keys()
            if stray:
                raise OutOfCoreError(
                    f"in-flight/prefetched items {sorted(stray)} are not resident")
            order = self.policy.ordered_items()
            if order is not None:
                loaded = sorted(self._item_slot.keys() - self._inflight)
                if sorted(order) != loaded:
                    raise OutOfCoreError(
                        f"policy {self.policy.name!r} orders items "
                        f"{sorted(order)}, out of step with the loaded "
                        f"residents {loaded}")

    def close(self) -> None:
        """Join the swap helper, drain pending write-behind traffic and
        close the backing store. Idempotent: a second call does nothing."""
        if self._closed:
            return
        helper, self._swap_helper = self._swap_helper, None
        if helper is not None:
            helper.shutdown(wait=True)
        if self._writeback is not None:
            self._writeback.close()
        self.backing.close()
        self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AncestralVectorStore(n={self.num_items}, m={self.num_slots}, "
            f"policy={self.policy.name}, w={self.item_bytes}B)"
        )
