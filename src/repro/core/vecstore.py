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
``getxvector(i,j,k)`` ``get(i, pins=(j, k))``, one access of ``get_many``
``skipreads``         ``read_skipping`` constructor flag
``strategy``          a :class:`~repro.core.policies.ReplacementPolicy`
====================  =========================================

A transfer moves the live rows only
------------------------------------
Each item has a *live-row count* ``k``: its leading rows that hold data
(a vector stored as site classes keeps ``k`` class rows at the front of
its slot; a ragged last block's padding is not live). It starts at the
item's sites (``layout.item_sites``) and is declared by the write that
fills the item — a write access's optional fourth field, or ``fill``'s
``data.shape[0]``. Every transfer of the item — demand read and write,
eviction write-back, write-behind staging and prefetch — moves rows
``[0, k)`` of the slot at the unchanged offset ``i·w``; rows ``[k, w)``
are stale and never leave RAM. Under the sanitizer every read-in fills
them with NaN, so a reader past ``k`` is caught.

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
* **Prefetch** (:class:`~repro.core.prefetch.ThreadedPrefetcher`):
  upcoming read items from the traversal access sequence are loaded ahead
  of demand, never into a slot stolen from pinned, in-flight or
  in-window items, by a demand miss's own steps — only the accounting
  differs. :meth:`prefetch_load` is the same load driven synchronously.

Thread model: one compute thread calls ``get_many``; the prefetch workers
(``io_threads`` of them) claim and fill slots ahead of it; writer
threads live inside the write-behind queue and never take the store
lock. A synchronous store starts no thread at all. All mutable
bookkeeping is guarded by one condition variable (``self._cond``). A
slot being filled is *published* in the maps but marked in-flight:
demand requests for it wait on the condition until its load has ended,
and eviction never selects in-flight items, so no thread ever reads or
recycles a half-filled slot. A demand miss that finds every unpinned
slot held by loads in flight waits for one to land — they end without
the compute thread's help — instead of failing. Backing-store transfers
happen outside the lock on every load path, demand and prefetch alike.

A synchronous miss is write-then-read
-------------------------------------
With ``writeback_depth == 0`` a miss whose victim is dirty writes the
victim's live rows out of its slot and then reads the item's live rows
into the same slot, both on the calling thread (the paper's
``getxvector()``, §3.2). Under the lock the victim is chosen and flagged
in flight — it keeps its slot, so it is neither evictable nor readable
from the backing store while its write is open — and the item is
announced in flight. Outside the lock the two transfers run in that
order, and under the lock again the eviction and the load are
committed. A failed write leaves the victim resident with its bytes and
its place in the policy's order, and the read is never issued; a failed
read leaves the eviction standing and returns the slot to the free
list; either way the error (a ``BaseException`` included) surfaces from
``get_many`` (a prefetch load rolls back alike, see :meth:`prefetch_load`).
A read-skipped write-only miss owes only the write, and a
miss whose victim is clean (never written since its load,
``track_dirty``, the default) owes no write at all — the backing store
already holds its bytes.

**Synchronous** therefore means: *nothing is in flight when ``get_many``
returns*.

Write only what a read wants
----------------------------
A dirty demand-miss victim is *dropped* — its slot vacated, nothing
written, ``write_drops`` counted — when its caller declared both that
the running operation never reads it (:meth:`declare_reads`) and that
recomputing it is priced below writing it (:meth:`mark_recomputable`,
which a later write of the item revokes). Its backing copy is then
stale, and the item is *unbacked* until a real write (an eviction's,
``flush``'s, ``fill``'s) clears the mark. The invariant is: **an evicted
vector is on the backing store, or it is unbacked and never read.** A
read miss on an unbacked item raises :class:`~repro.errors.OutOfCoreError`
(one set lookup per miss), a prefetch claim refuses it, ``mark_clean``
leaves it dirty and ``check_copy`` has no copy to compare it with. The
engine declares both only over a backing whose read price is positive,
and prices a read of an unbacked vector at infinity, so it recomputes
it; ``flush`` and ``evict_all`` write every dirty resident as before.

The mirror rule keeps a write that changes nothing from costing one: a
write access of an item declared *reproduced*
(:meth:`declare_reproduced` — its writer recomputes the bits it stored
last) leaves the slot as clean as the backing copy was just before the
access. A hit keeps the slot's dirty bit; a miss is clean unless the
item is unbacked. So the invariant on the write side is: **a clean slot
equals its backing copy.** Under the sanitizer each slot the rule left
clean is compared with its backing copy at the start of the next run
(or barrier), once its writer has filled it, and a difference raises
:class:`~repro.errors.OutOfCoreError`.

A run of accesses is one hold of the lock
-----------------------------------------
``get_many(accesses)`` serves a run of ``(item, pins, write_only)``
accesses (a write may add its live-row count as a fourth field) — a batch
group of the traversal schedule — exactly as the same
``get`` calls in order: the same hits, misses, victims, policy calls,
RNG draws, counters and observer records. What it saves is the per-call
overhead: the run's bookkeeping happens in one hold of the lock, which a
miss leaves only for the transfers it owes, and the views come back
together, each valid until the next demand call. A view is the slot
itself, except for an item the run lent and then evicted before it
ended: a read access then gets a private copy of the bytes taken at the
eviction, a write-only access ``None`` — its caller lands the result
with :meth:`~AncestralVectorStore.fill`. A failing transfer leaves every
access before it committed, its own access rolled back as above, and
the accesses after it never happened.
"""

from __future__ import annotations

import math
import os
import time
from itertools import chain
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence
import weakref

import numpy as np
from numpy.typing import DTypeLike

from repro.analysis.race import make_condition, make_lock, race_detector
from repro.core.backing import BackingStore, MemoryBackingStore
from repro.core.layout import StorageLayout, only_view
from repro.core.policies import EvictableView, ReplacementPolicy, make_policy
from repro.core.stats import IoStats
from repro.core.writebehind import WriteBehindQueue
from repro.errors import BorrowError, OutOfCoreError, PinnedSlotError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.obs import Observer

#: ``(t0, seconds, served from the write-behind staging buffer)`` of the
#: read that filled a slot.
_ReadTiming = tuple[float, float, bool]

#: One demand access: ``(item, pins, write_only)``, or with a fourth
#: field ``rows``, the live-row count a write access leaves.
_Access = (tuple[int, tuple[int, ...], bool]
           | tuple[int, tuple[int, ...], bool, int])

#: An announced load (see ``_announce``): ``(slot, victim, reads, writes)``.
_Load = tuple[int, int, int, int]

#: What a miss's transfers did: the write's and the read's exception, the
#: read's timing (``None`` when skipped or failed).
_Swap = tuple["BaseException | None", "BaseException | None",
              "_ReadTiming | None"]

#: Smallest legal slot count: computing one ancestral vector needs it plus
#: its two children resident simultaneously (paper: "we must ensure m ≥ 3").
MIN_SLOTS = 3


def slots_for_fraction(fraction: float, num_items: int) -> int:
    """The slot count ``m`` of the paper's ``f`` over ``n`` items.

    ``m = floor(f · n + 0.5)`` — half rounds up, not to even — clamped to
    ``[MIN_SLOTS, n]`` (``n`` itself when ``n < MIN_SLOTS``). The one rule
    a store sized by ``fraction=`` uses; a shadow or a table that states
    its capacity as a fraction uses it too.
    """
    f = float(fraction)
    if not 0.0 < f <= 1.0:
        raise OutOfCoreError(f"fraction must be in (0, 1], got {f}")
    return min(num_items, max(MIN_SLOTS, math.floor(f * num_items + 0.5)))


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

    The view of a read access is read-only until the item is declared
    dirty (:meth:`AncestralVectorStore.mark_dirty`): a clean victim is not
    written back, so a write through it would be silently lost. Writing
    to it raises :class:`~repro.errors.BorrowError` (numpy's own
    read-only ``ValueError`` through anything derived from it).

    Derived arrays (slices, ufunc results) are downcast to plain ndarray:
    only the originally borrowed view is validity-checked, which keeps the
    numerics bit-identical and the overhead local to the borrow boundary.
    """

    # Class-level defaults so instances numpy creates internally (e.g. via
    # __array_finalize__ during slicing) are inert rather than half-tracked.
    _borrow_generations: list[int] | None = None
    _borrow_slot: int = -1
    _borrow_expected: int = -1
    _borrow_item: int = -1

    def _borrow_check(self, write: bool = False) -> None:
        gens = self._borrow_generations
        if gens is None:
            return
        # lockfree-ok: one list-element read, atomic under the GIL; the
        # generation is bumped under the store lock strictly before the
        # slot can be reused, so a stale read here only ever delays
        # detection by one access.
        if gens[self._borrow_slot] != self._borrow_expected:
            raise BorrowError(
                f"use-after-evict: view of item {self._borrow_item} "
                f"(slot {self._borrow_slot}) used after the slot was "
                f"recycled; re-fetch the vector with get() or hold a pin"
            )
        if write and not self.flags.writeable:
            raise BorrowError(
                f"write through a read view of item {self._borrow_item} "
                f"(slot {self._borrow_slot}): a clean victim is not written "
                f"back, so the write would be lost; fetch it write_only=True "
                f"or mark_dirty() it first"
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
        self._borrow_check(write=True)
        super().__setitem__(key, value)

    def __array_ufunc__(self, ufunc: Any, method: str,
                        *inputs: Any, **kwargs: Any) -> Any:
        out = kwargs.get("out", ())
        for operand in inputs:
            if isinstance(operand, BorrowedSlotView):
                operand._borrow_check()
        for operand in out:
            if isinstance(operand, BorrowedSlotView):
                operand._borrow_check(write=True)
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
        omitted, a whole-vector :class:`~repro.core.layout.StorageLayout`
        over ``num_items × item_shape`` is assumed (the paper's design).
    dtype:
        ``float64`` (paper default) or ``float32`` (the single-precision
        memory halving of Berger & Stamatakis 2010).
    num_slots / fraction:
        Capacity ``m``: either an absolute count (clamped to
        ``[MIN_SLOTS, n]``) or the paper's ``f``, with ``m =``
        :func:`slots_for_fraction` ``(f, n)``. ``fraction=1.0`` (default)
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
        Skip the write-back of vectors never written since their load: a
        clean victim's bytes are already on the backing store, so its
        slot is simply free (credited to ``write_skips``). On by default;
        ``False`` is the paper's accounting, which always swaps the full
        vector out. A vector is dirty once fetched ``write_only`` or
        declared with :meth:`mark_dirty` — a write through a view fetched
        for reading is lost at a clean eviction (the sanitizer makes such
        views read-only, so the write raises instead).
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
        :class:`~repro.errors.BorrowError` on use-after-evict, and the
        view of a read access is read-only until :meth:`mark_dirty`.
        Defaults to the ``REPRO_SANITIZE`` environment variable (``1`` =
        on).
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
        track_dirty: bool = True,
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
            layout = StorageLayout(int(num_items), tuple(item_shape))
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
        #: Bytes of one row along the item's first axis.
        self.row_bytes = self.item_bytes // self.item_shape[0]

        if num_slots is not None and fraction is not None:
            raise OutOfCoreError("pass either num_slots or fraction, not both")
        if num_slots is None:
            num_slots = slots_for_fraction(
                1.0 if fraction is None else fraction, self.num_items)
        self.num_slots = min(self.num_items, max(MIN_SLOTS, int(num_slots)))

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
        # Spilled write-only results (``fill``) that went straight to
        # staging/backing. Diagnostic only — deliberately *not* an IoStats
        # counter, since fills are outside the demand/eviction trace whose
        # parity the counters certify.
        self.fill_spills = 0  # guarded-by: _lock

        # Slot arena: one contiguous block of m vectors; ``_slots[s]`` is
        # slot s's row of it, made once. The buffers are NOT lock-guarded: a slot's data is only touched
        # by the thread that holds it in-flight or by the compute thread while
        # the mapping says so (see the module docstring's thread model).
        self._arena = np.zeros((self.num_slots, *self.item_shape), dtype=self.dtype)
        self._slots: list[np.ndarray] = list(self._arena)
        # The two-way maps hold plain Python ints (they are read on every
        # ``get``). ``_item_slot`` has an entry per *resident* item only, so
        # it is also the resident set: updated in ``_publish``, ``_evict``
        # and ``_land``, never rebuilt.
        self._slot_item: list[int] = [-1] * self.num_slots  # guarded-by: _lock  (item_in_mem)
        self._item_slot: dict[int, int] = {}  # guarded-by: _lock  (itemvector)
        self._dirty: list[bool] = [False] * self.num_slots  # guarded-by: _lock
        self._free: list[int] = list(range(self.num_slots - 1, -1, -1))  # guarded-by: _lock
        # Live rows per item: what a transfer of it moves (module docstring).
        # Item ``node · blocks_per_node + b`` spans block ``b``'s sites.
        self._rows: list[int] = [  # guarded-by: _lock
            hi - lo for lo, hi in map(layout.block_bounds,
                                      range(layout.blocks_per_node))
        ] * layout.num_nodes

        # Async-pipeline state (see the module docstring's thread model).
        # Under REPRO_SANITIZE=race the factories return vector-clock
        # tracked primitives and the hooks below record every guarded
        # access; otherwise they are plain threading objects and each
        # hook site is one ``is None`` test (pay-for-play, like ``obs``).
        self._race = race_detector()
        self._race_scope = ("" if self._race is None
                            else self._race.new_scope("AncestralVectorStore"))
        self._lock = make_lock("AncestralVectorStore")
        self._cond = make_condition(self._lock)
        #: An attached prefetcher's wake-up, called with the lock held
        #: where demand progresses or this thread leaves the lock to wait
        #: or transfer (``None``: no prefetcher).
        self._prefetch_poke: Callable[[], None] | None = None  # guarded-by: _lock
        self._inflight: set[int] = set()  # guarded-by: _lock
        self._prefetched_untouched: set[int] = set()  # guarded-by: _lock
        self._active_pins: set[int] = set()  # guarded-by: _lock
        # Write only what a read wants (module docstring): the items the
        # running operation reads, those whose recomputation is priced
        # below their write, and those whose backing copy is stale.
        self._reads: set[int] = set()  # guarded-by: _lock
        self._recomputable: set[int] = set()  # guarded-by: _lock
        self._unbacked: set[int] = set()  # guarded-by: _lock
        # ... and the items whose writes the running operation declared
        # reproducing, with, under the sanitizer, each ``(item, slot,
        # generation)`` such a write left clean, not yet compared with its
        # backing copy.
        self._reproduced: set[int] = set()  # guarded-by: _lock
        self._unchecked: list[tuple[int, int, int]] = []  # guarded-by: _lock
        # ``get_many`` bookkeeping: the number of the run being served
        # (odd while one is, bumped at both ends), the run that lent each
        # slot's occupant, and ``(slot, generation)`` -> the private copy
        # of an occupant the serving run lent and then lost.
        self._run = 0  # guarded-by: _lock
        self._lent_in: list[int] = [0] * self.num_slots  # guarded-by: _lock
        self._spilled: dict[tuple[int, int], np.ndarray] = {}  # guarded-by: _lock
        # What the serving run has served so far while it is relayed
        # through an instrumented ``get`` (see ``_relayed``), else None.
        self._relay: list[tuple[int, int, int]] | None = None  # guarded-by: _lock
        self._writeback: WriteBehindQueue | None = None
        # The sanitizer's mark_clean reads the backing copy into this
        # buffer, created on first use.
        self._compare: np.ndarray | None = None  # guarded-by: _lock
        self._closed = False

        # Slot-borrow sanitizer (debug mode, REPRO_SANITIZE=1): per-slot
        # generation counters plus weakrefs to every live borrowed view.
        self._sanitize = _sanitize_default() if sanitize is None else bool(sanitize)
        self._slot_generation: list[int] = [0] * self.num_slots  # guarded-by: _lock
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
            dirty = sum(self._dirty)
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
        """Whether ``item`` has a slot — True also while a load of it is in
        flight (published, not yet landed), so a caller deciding whether
        reading it would cost a transfer sees a pending prefetch as paid.
        A victim whose owed write is in flight has left already: it keeps
        its slot only until the write lands, and a read of it misses."""
        self._check_item(item)
        rc = self._race
        with self._cond:
            if rc is not None:
                rc.read(self._race_scope, "_item_slot", "_inflight",
                        "_slot_item")
            slot = self._item_slot.get(item, -1)
            if slot < 0 or item not in self._inflight:
                return slot >= 0
            # In flight: a load, or a leaving victim — the occupant of a
            # slot another in-flight load is mapped to (_announce).
            return self._slot_item[slot] != item or not any(
                other != item and self._item_slot.get(other) == slot
                for other in self._inflight)

    def resident_items(self) -> list[int]:
        rc = self._race
        with self._cond:
            if rc is not None:
                rc.read(self._race_scope, "_slot_item")
            return [i for i in self._slot_item if i >= 0]

    def ram_bytes(self) -> int:
        """Bytes the slot arena occupies — the paper's ``m · w`` budget."""
        return self._arena.nbytes

    def _check_item(self, item: int) -> None:
        if not 0 <= item < self.num_items:
            raise OutOfCoreError(f"item {item} out of range [0, {self.num_items})")

    # -- the core access path (paper's getxvector) ----------------------------------

    def get(self, item: int, pins: tuple = (), write_only: bool = False,
            rows: int | None = None) -> np.ndarray:
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
        prefetcher until the next demand access. A run of one access of
        :meth:`get_many` that never relays (:meth:`_relayed`): an
        instrument wrapping ``get`` has already seen this access. ``rows``
        is a write's live-row count (see :meth:`get_many`).
        """
        access = ((item, pins, write_only) if rows is None
                  else (item, pins, write_only, rows))
        return only_view(self._demand((access,), None))

    def get_many(self, accesses: Sequence[_Access]) -> list[np.ndarray | None]:
        """Serve a run of ``(item, pins, write_only)`` accesses; their views.

        A write-only access may carry a fourth field, ``rows``: the live
        rows ``[0, rows)`` its writer leaves in the slot, which every
        later transfer of the item moves (default: what the item had — at
        first its sites). It takes effect once the access is served.

        Exactly the same ``get`` calls issued in order — the same hits,
        misses, victims, policy calls, RNG draws, counters and observer
        records — with the bookkeeping of the whole run done in one hold
        of the lock. A miss that owes transfers leaves the lock for them
        (write-then-read, see the module docstring) and commits them
        when it has it back; the other threads are notified then and once
        at the end. Every view stays valid until the next demand call,
        and the union of the run's items and pins shields them from a
        concurrent prefetcher until then.

        One case has no equivalent in a single ``get``: an item served
        earlier in the run evicted by a later access (or by a prefetch
        load while the lock was left). Its view is then a private copy of
        its bytes taken at the eviction — or ``None`` for a write-only
        access, whose result the caller lands with :meth:`fill`.

        When an instrument has wrapped this instance's ``get``, the run
        goes through that wrapper one access at a time
        (:meth:`_relayed`), so the instrument sees and counts every
        access. The results are the same, but the lock is no longer held
        for the whole run.

        A failing access propagates its error: every access before it is
        committed, it is rolled back (see :meth:`_land`), the
        accesses after it never happened. Not for a caller that holds the
        store lock: the transfers must leave it.
        """
        return self._demand(accesses, vars(self).get("get"))

    def _demand(self, accesses: Sequence[_Access],
                instrument: Any) -> list[np.ndarray | None]:
        """The body of :meth:`get_many`; ``instrument`` is the wrapper
        set over this instance's ``get``, or ``None``."""
        rc = self._race
        with self._lock:
            if rc is not None:
                rc.write(self._race_scope, "_run", "_spilled", "_active_pins",
                         "_relay")
                rc.read(self._race_scope, "_unchecked")
            if self._relay is not None:  # one access of a relayed run
                served = self._serve(accesses)
                self._relay.extend(served)
                self._active_pins = {accesses[0][0], *accesses[0][1]}
                return self._issue_views(accesses, served)
            if self._unchecked:
                self._check_reproduced()
            self._run += 1
            try:
                served = (self._serve(accesses) if instrument is None
                          else self._relayed(instrument, accesses))
                views = self._issue_views(accesses, served)
                if self._spilled:
                    for pos, (_, slot, gen) in enumerate(served):
                        spilled = self._spilled.get((slot, gen))
                        if spilled is not None:
                            views[pos] = None if accesses[pos][2] else spilled
                shield = {item for item, _, _ in served}
                for access in accesses:
                    shield.update(access[1])
                self._active_pins = shield
                return views
            finally:
                self._run += 1
                self._spilled.clear()
                self._cond.notify_all()
                if self._prefetch_poke is not None:
                    self._prefetch_poke()

    def _relayed(self, instrument: Any,  # holds: _cond
                 accesses: Sequence[_Access]) -> list[tuple[int, int, int]]:
        """Serve ``accesses`` one at a time through ``instrument`` — a
        wrapper an instrument set over this instance's ``get`` (the
        benchmark's span tracer) — so that it sees every demand access.
        The run stays open across them, so its views follow the same rule;
        only the lock is left between accesses."""
        rc = self._race
        served: list[tuple[int, int, int]] = []
        self._relay = served
        try:
            for access in accesses:
                self._lock.release()
                try:
                    instrument(*access)
                finally:
                    self._lock.acquire()
        finally:
            if rc is not None:
                rc.write(self._race_scope, "_relay")
            self._relay = None
        return served

    def _serve(self, accesses: Sequence[_Access]  # holds: _cond
               ) -> list[tuple[int, int, int]]:
        """Serve ``accesses`` in order: each one's ``(item, slot,
        generation)``, its slot marked lent by this run (see
        :meth:`_vacate`)."""
        ob = self.obs
        rc = self._race
        stats = self.stats
        n = self.num_items
        width = self.item_shape[0]
        run = self._run
        lent_in = self._lent_in
        gens = self._slot_generation
        served: list[tuple[int, int, int]] = []
        for item, pins, write_only, *rows in accesses:
            item = int(item)
            write_only = bool(write_only)
            if not 0 <= item < n:
                self._check_item(item)
            for p in pins:
                if not 0 <= p < n:
                    self._check_item(p)
            if rows and not (write_only and 0 < rows[0] <= width):
                raise OutOfCoreError(
                    f"item {item}: only a write-only access declares live "
                    f"rows, between 1 and {width} (got {rows[0]})")
            if rc is not None:
                rc.write(self._race_scope, "stats.store", "_lent_in", "_rows")
                rc.read(self._race_scope, "_item_slot", "_inflight",
                        "_slot_generation", "_unbacked")
            stats.requests += 1
            if ob is not None:
                ob.event("get", item)
            while True:
                if item in self._inflight:
                    # A prefetch load of this exact item is in flight: wait
                    # for it — the hit branch accounts it.
                    self._wait_inflight(item, pins, {item})
                slot = self._item_slot.get(item, -1)
                if slot >= 0:
                    self._account_hit(item, slot, write_only)
                    break
                if item in self._unbacked and not (write_only
                                                   and self.read_skipping):
                    raise OutOfCoreError(
                        f"item {item} is unbacked: it was dropped dirty, so "
                        f"its backing copy is stale; only a recomputation "
                        f"(a write-only access) brings it back")
                found = self._allocate_slot(item, pins)
                if found is not None:
                    slot = self._load(item, pins, write_only, *found)
                    break
                # Every unpinned slot is held by a load in flight. Loads land
                # without this thread's help: wait for one, then look again
                # (the item itself may have been prefetched meanwhile).
                self._wait_inflight(item, pins, set(self._inflight))
            if rows:
                self._rows[item] = int(rows[0])
            lent_in[slot] = run
            served.append((item, slot, gens[slot]))
        return served

    def _load(self, item: int, pins: tuple[int, ...],  # holds: _cond
              write_only: bool, slot: int, victim: int) -> int:
        """A demand miss on ``item`` into ``slot`` (``victim``: see
        :meth:`_allocate_slot`); returns the slot.

        Owed transfers run with the lock left — ``item`` (and ``victim``)
        flagged in flight, ``item`` and ``pins`` shielded from the
        prefetcher as their own ``get`` would — and are committed when it
        is taken back (:meth:`_land`, then :meth:`_commit_load`; a
        failure re-raises).
        """
        rc = self._race
        self.stats.misses += 1
        if self.obs is not None:
            self.obs.event("miss", item, slot)
        skip = write_only and self.read_skipping
        if victim < 0 and skip:  # a vacant slot and no read: nothing is owed
            self._publish(item, slot)
            self._commit_load(item, slot, write_only, None)
            return slot
        if rc is not None:
            rc.write(self._race_scope, "_active_pins")
        load = self._announce(item, slot, victim, not skip)
        self._active_pins = {item, *pins}
        self._cond.notify_all()
        if self._prefetch_poke is not None:
            self._prefetch_poke()
        self._lock.release()
        try:
            swap = self._transfer(item, load)
        finally:
            self._lock.acquire()
        self._commit_load(item, slot, write_only, self._land(item, load, swap))
        return slot

    def _announce(self, item: int, slot: int, victim: int,  # holds: _cond
                  read: bool) -> _Load:
        """Flag a load of ``item`` into ``slot`` (``victim``: see
        :meth:`_allocate_slot`) in flight before the caller leaves the
        lock for :meth:`_transfer`: published in a vacant slot, or only
        mapped to one that stays ``victim``'s until its write lands. The
        read may land after the serving run has ended (a prefetch), so a
        victim it will overwrite is spilled now (:meth:`_spill`)."""
        rc = self._race
        if rc is not None:
            rc.write(self._race_scope, "_inflight", "_item_slot")
            rc.read(self._race_scope, "_rows")
        if victim < 0:
            self._publish(item, slot)
        else:
            self._item_slot[item] = slot
            if read:
                self._spill(slot)
        self._inflight.add(item)
        return (slot, victim, self._rows[item] if read else 0,
                self._rows[victim] if victim >= 0 else 0)

    def _wait_inflight(self, item: int, pins: Iterable[int],  # holds: _cond
                       loading: set[int]) -> None:
        """Wait until one of the loads ``loading`` has landed: one timed
        ``inflight_wait`` — beside back-pressure (``writeback_stall``) and
        a read of its own (``demand_read``) the demand path's third wait.
        The lock is left meanwhile, so ``item`` and ``pins`` are shielded
        from the prefetcher first."""
        ob = self.obs
        rc = self._race
        if rc is not None:
            rc.write(self._race_scope, "_active_pins")
        self._active_pins = {item, *pins}
        self._cond.notify_all()
        if self._prefetch_poke is not None:
            self._prefetch_poke()
        t0 = time.perf_counter() if ob is not None else 0.0
        while loading <= self._inflight:
            self._cond.wait()
        if ob is not None:
            ob.timed("inflight_wait", t0, time.perf_counter() - t0, item=item)

    def _transfer(self, item: int, load: _Load) -> _Swap:
        """Run the transfers an announced load owes, outside the lock.

        ``item`` (and the victim, if ``>= 0``) are flagged in flight. The
        victim's ``writes`` live rows are written out of the slot, then
        ``item``'s ``reads`` live rows (none: the read is skipped) are
        read into it; a failed write issues no read. Whatever either
        transfer raises is held for :meth:`_land`.
        """
        slot, victim, reads, writes = load
        dest = self._slots[slot]
        if victim >= 0:
            try:
                self.backing.write(victim, dest[:writes])
            except BaseException as exc:  # noqa: BLE001 - re-raised on commit
                return exc, None, None
        if not reads:
            return None, None, None
        t0 = time.perf_counter()
        try:
            from_staging = self._read_into(item, dest, reads)
        except BaseException as exc:  # noqa: BLE001 - re-raised on commit
            return None, exc, None
        return None, None, (t0, time.perf_counter() - t0, from_staging)

    def _land(self, item: int, load: _Load,  # holds: _cond
              swap: _Swap) -> _ReadTiming | None:
        """Commit a demand or prefetch load's transfers and return its
        read's timing (the caller accounts it), or roll it back and raise:

        * write failed — the victim keeps its slot, bytes and place in the
          policy's order; the load is rolled back;
        * read failed — the eviction stands, the vacated slot returns to
          the free list.
        """
        slot, victim, _, _ = load
        write_exc, read_exc, read = swap
        rc = self._race
        if rc is not None:
            rc.write(self._race_scope, "_inflight", "_item_slot", "_spilled",
                     "_slot_item", "_free")
            rc.read(self._race_scope, "_slot_generation")
        if victim >= 0:
            self._inflight.remove(victim)
            if write_exc is None:
                self._wrote(victim)
                self._vacate(victim, slot)
        self._inflight.remove(item)
        if write_exc is not None:
            del self._item_slot[item]  # the slot is still the victim's
            # ... and so are its bytes: a view of it is valid again.
            self._spilled.pop((slot, self._slot_generation[slot]), None)
            raise write_exc
        if read_exc is not None:
            # The slot is free again; the policy never heard of ``item``
            # (``on_load`` follows a successful read).
            del self._item_slot[item]
            self._slot_item[slot] = -1
            self._free.append(slot)
            raise read_exc
        if victim >= 0:
            self._publish(item, slot)
        return read

    def _account_hit(self, item: int, slot: int, write_only: bool) -> None:  # holds: _cond
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
                     "_dirty", "_recomputable")
            rc.read(self._race_scope, "_rows", "_reproduced")
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
                self.stats.bytes_read += self._live_bytes(item)
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
            if item not in self._reproduced:
                self._dirty[slot] = True
            elif not self._dirty[slot]:
                self._reproduced_clean(item, slot)
            self._recomputable.discard(item)
        self.policy.on_access(item, write_only)

    def _commit_load(self, item: int, slot: int, write_only: bool,  # holds: _cond
                     read: _ReadTiming | None) -> None:
        """Account a demand miss whose slot now holds ``item``.

        ``read`` times the read that filled the slot; ``None`` means the
        read was skipped (§3.4).
        """
        ob = self.obs
        rc = self._race
        if rc is not None:
            rc.write(self._race_scope, "stats.store", "_dirty",
                     "_recomputable")
            rc.read(self._race_scope, "_rows", "_reproduced", "_unbacked")
        if read is None:
            self.stats.read_skips += 1
            if ob is not None:
                ob.event("read_skip", item, slot)
            if self.poison_skipped_reads:
                self._slots[slot].fill(np.nan)
        else:
            t0, seconds, from_staging = read
            self.stats.reads += 1
            self.stats.bytes_read += self._live_bytes(item)
            if ob is not None:
                ob.timed("demand_read", t0, seconds, item=item, slot=slot)
            if from_staging:
                self.stats.writeback_read_hits += 1
        self.policy.on_load(item)
        if write_only:
            # A reproducing write leaves the slot as clean as the backing
            # copy: stale only if the item is unbacked.
            self._dirty[slot] = (item not in self._reproduced
                                 or item in self._unbacked)
            if not self._dirty[slot]:
                self._reproduced_clean(item, slot)
            self._recomputable.discard(item)
        else:
            self._dirty[slot] = False
        self.policy.on_access(item, write_only)

    def _reproduced_clean(self, item: int, slot: int) -> None:  # holds: _cond
        """A reproducing write access left ``item``'s slot clean: under the
        sanitizer, note it for :meth:`_check_reproduced`."""
        if self._sanitize:
            rc = self._race
            if rc is not None:
                rc.write(self._race_scope, "_unchecked")
                rc.read(self._race_scope, "_slot_generation")
            self._unchecked.append((item, slot, self._slot_generation[slot]))

    def _check_reproduced(self) -> None:  # holds: _cond
        """Compare each slot a reproducing write left clean, and that is
        still its item's, with the backing copy — its writer has filled it
        by now — and seal its views read-only; a difference (the write
        changed the bits, so the clean slot would lose it) raises
        :class:`~repro.errors.OutOfCoreError`."""
        rc = self._race
        if rc is not None:
            rc.write(self._race_scope, "_unchecked", "_compare")
            rc.read(self._race_scope, "_slot_generation", "_dirty", "_rows")
        unchecked, self._unchecked = self._unchecked, []
        for item, slot, gen in unchecked:
            if self._slot_generation[slot] != gen or self._dirty[slot]:
                continue  # evicted clean (a fill lands it) or written since
            if self._differs_from_copy(
                    item, self._slots[slot][:self._rows[item]]):
                raise OutOfCoreError(
                    f"item {item}: a write declared reproducing changed its "
                    f"live rows, so its clean slot differs from the backing "
                    f"copy")
            self._seal(slot)

    def _issue_views(self, accesses: Sequence[_Access],  # holds: _cond
                     served: list[tuple[int, int, int]]
                     ) -> list[np.ndarray | None]:
        """The slot of each served ``(item, slot, _)`` — in debug mode
        sanitizer-wrapped, and read-only for a read access."""
        rc = self._race
        if rc is not None:
            rc.read(self._race_scope, "_slot_generation")
            rc.write(self._race_scope, "_borrows")
        slots = self._slots
        if not self._sanitize:
            return [slots[slot] for _, slot, _ in served]
        self._borrows = [r for r in self._borrows if r() is not None]
        views: list[np.ndarray | None] = []
        for (_, _, write_only, *_), (item, slot, gen) in zip(accesses,
                                                             served):
            view = slots[slot].view(BorrowedSlotView)
            view._borrow_generations = self._slot_generation
            view._borrow_slot = slot
            view._borrow_expected = gen
            view._borrow_item = item
            view.flags.writeable = bool(write_only)
            self._borrows.append(weakref.ref(view))
            views.append(view)
        return views

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

    def _read_into(self, item: int, buf: np.ndarray, rows: int,
                   peek: bool = False) -> bool:
        """Fill rows ``[0, rows)`` of ``buf`` — ``item``'s live rows — from
        the staging buffer or the backing store; under the sanitizer the
        rest of ``buf`` becomes NaN. With ``peek`` the backing is only
        looked at (``backing.peek``, where it has one): a check's read, no
        transfer a modelled device is charged for.

        Returns ``True`` when served by the write-behind staging buffer
        (whose copy is newer than the backing store's — read-your-writes).
        """
        out = buf[:rows]
        staged = (self._writeback is not None
                  and self._writeback.read_into(item, out))
        if not staged:
            backing = self.backing
            (getattr(backing, "peek", backing.read) if peek
             else backing.read)(item, out)
        if self._sanitize:
            buf[rows:] = np.nan
        return staged

    def mark_dirty(self, item: int) -> None:
        """Declare that a vector fetched for reading is being modified.

        Its slot is written back at eviction like a ``write_only`` fetch's
        (a :meth:`mark_recomputable` of it is revoked, as by any write).
        Under the sanitizer the item's live read views become writeable:
        declare first, then write.
        """
        self._check_item(item)
        rc = self._race
        with self._cond:
            if rc is not None:
                rc.read(self._race_scope, "_item_slot", "_borrows",
                        "_slot_generation")
                rc.write(self._race_scope, "_dirty", "_recomputable")
            slot = self._item_slot.get(item, -1)
            if slot < 0:
                raise OutOfCoreError(f"item {item} is not resident")
            self._dirty[slot] = True
            self._recomputable.discard(item)
            gen = self._slot_generation[slot]
            for ref in self._borrows:
                view = ref()
                if (view is not None and view._borrow_slot == slot
                        and view._borrow_expected == gen):
                    view.flags.writeable = True

    def mark_clean(self, item: int, rows: int | None = None) -> None:
        """Declare that a resident vector equals its backing copy again.

        The mirror of :meth:`mark_dirty`: the slot is not written back at
        eviction, and under the sanitizer its live views are read-only
        again. A claim about this store's own backing copy, made after
        the fact; the engine instead declares a recomputation that
        reproduces the stored bits before it writes
        (:meth:`declare_reproduced`), which every store applies from its
        own state. An item not resident (or still loading) is
        left as it is: its newest bytes are on the backing store or on
        their way. So is an unbacked one: its backing copy is stale, so
        its slot stays dirty. Under the sanitizer the leading ``rows``
        (default: the item's live rows) are first compared with the
        backing copy (the staging buffer's, when newer), and a difference
        — a write the clean slot would lose, or rows past what the backing
        copy holds — raises :class:`~repro.errors.OutOfCoreError`.
        """
        self._check_item(item)
        rc = self._race
        with self._cond:
            if rc is not None:
                rc.read(self._race_scope, "_item_slot", "_inflight", "_borrows",
                        "_slot_generation", "_rows", "_unbacked")
                rc.write(self._race_scope, "_dirty", "_compare")
            slot = self._item_slot.get(item, -1)
            if slot < 0 or item in self._inflight or item in self._unbacked:
                return
            if self._sanitize:
                if rows is None:
                    rows = self._rows[item]
                if self._differs_from_copy(item, self._slots[slot][:rows]):
                    raise OutOfCoreError(
                        f"mark_clean({item}): the live rows differ from the "
                        f"backing copy, so the slot is not clean")
                self._seal(slot)
            self._dirty[slot] = False

    def _seal(self, slot: int) -> None:  # holds: _cond
        """Make the live sanitizer views of ``slot``'s occupant read-only:
        the slot is clean, so a write through one would be lost."""
        rc = self._race
        if rc is not None:
            rc.read(self._race_scope, "_borrows", "_slot_generation")
        gen = self._slot_generation[slot]
        for ref in self._borrows:
            view = ref()
            if (view is not None and view._borrow_slot == slot
                    and view._borrow_expected == gen):
                view.flags.writeable = False

    def check_copy(self, item: int, rows: np.ndarray) -> None:
        """Under the sanitizer, raise :class:`~repro.errors.OutOfCoreError`
        unless ``rows`` equal the leading rows of ``item``'s stored copy
        (the staging buffer's, when newer); otherwise do nothing.

        For a vector recomputed outside the store — a plan's ghost, which
        must reproduce the bits it would otherwise have read. Not an
        access: no counter moves. An unbacked item has no copy to compare
        with, so nothing is compared.
        """
        if not self._sanitize:
            return
        self._check_item(item)
        rc = self._race
        with self._cond:
            if rc is not None:
                rc.read(self._race_scope, "_rows", "_unbacked")
                rc.write(self._race_scope, "_compare")
            if item in self._unbacked:
                return
            if self._differs_from_copy(item, rows):
                raise OutOfCoreError(
                    f"check_copy({item}): the recomputed rows differ from "
                    f"the stored copy")

    def _differs_from_copy(self, item: int,  # holds: _cond
                           rows: np.ndarray) -> bool:
        """Whether ``rows`` differ from the leading rows of ``item``'s
        stored copy, looked at where a miss reads it (:meth:`_read_into`);
        rows past the copy's live rows are NaN there, so they differ."""
        if self._compare is None:
            self._compare = np.empty(self.item_shape, dtype=self.dtype)
        stored = self._compare
        self._read_into(item, stored, self._rows[item], peek=True)
        return stored[:len(rows)].tobytes() != rows.tobytes()

    def declare_reads(self, items: Iterable[int]) -> None:
        """Declare the items the running operation reads, replacing the
        last declaration: a dirty victim among them is written, never
        dropped (module docstring, "Write only what a read wants")."""
        reads = {int(i) for i in items}
        rc = self._race
        with self._cond:
            if rc is not None:
                rc.write(self._race_scope, "_reads")
            self._reads = reads

    def declare_reproduced(self, items: Iterable[int]) -> None:
        """Declare the items whose write accesses in the running operation
        reproduce the bits each stored last, replacing the last
        declaration: such a write leaves the slot as clean as the backing
        copy was (module docstring, "Write only what a read wants")."""
        reproduced = {int(i) for i in items}
        rc = self._race
        with self._cond:
            if rc is not None:
                rc.write(self._race_scope, "_reproduced")
            self._reproduced = reproduced

    def mark_recomputable(self, items: Iterable[int]) -> None:
        """Declare that recomputing each of ``items`` is priced below
        writing it: evicted dirty while no running operation reads it,
        such an item is dropped, not written. The mark lasts until the
        item is next written (a write access, :meth:`mark_dirty`,
        :meth:`fill`)."""
        marked = [int(i) for i in items]
        rc = self._race
        with self._cond:
            if rc is not None:
                rc.write(self._race_scope, "_recomputable")
            self._recomputable.update(marked)

    def is_unbacked(self, item: int) -> bool:
        """Whether ``item``'s backing copy is stale: it was dropped dirty
        and not written since, so only a recomputation may bring it
        back."""
        rc = self._race
        with self._cond:
            if rc is not None:
                rc.read(self._race_scope, "_unbacked")
            return item in self._unbacked

    def fill(self, item: int, data: np.ndarray) -> None:
        """Land the result of a write-only access that ``get_many`` spilled.

        A fused batch group fetches its targets write-only in one
        ``get_many`` and computes their contents after it returns; the
        results go straight into the views it lent — except for a target
        a later access of the same run evicted, whose view came back as
        ``None``. ``fill`` lands that one wherever the item now lives.
        ``data`` is the item's leading ``data.shape[0]`` rows, which
        become its live rows (the rest of the slot is left as it was —
        exactly what an in-place kernel write would have done).

        This is *not* an access: no counter moves and the replacement
        policy is not consulted, so the demand/eviction parity of the
        surrounding access sequence is preserved by construction. Three
        cases:

        * resident → copy into the slot and mark it dirty;
        * not resident → the eviction persisted stale bytes (or dropped
          them); write ``data`` as it is through the write-behind queue
          (coalescing — newest copy wins) or straight to backing (counted
          in :attr:`fill_spills`), which makes the item backed again;
        * load in flight (prefetch) → wait for it, then overwrite the
          slot, so a reload of pre-fill bytes can never win the race.
        """
        item = int(item)
        self._check_item(item)
        span = int(data.shape[0])
        if not 0 < span <= self.item_shape[0]:
            raise OutOfCoreError(
                f"fill({item}): {span} rows, the item has {self.item_shape[0]}")
        staged = False
        rc = self._race
        while True:
            with self._cond:
                if rc is not None:
                    rc.read(self._race_scope, "_inflight", "_item_slot")
                    rc.write(self._race_scope, "_rows", "_recomputable")
                while item in self._inflight:
                    self._cond.wait()
                self._recomputable.discard(item)
                slot = self._item_slot.get(item, -1)
                if slot >= 0:
                    if rc is not None:
                        rc.write(self._race_scope, "_dirty")
                    self._slots[slot][:span] = data
                    self._rows[item] = span
                    self._dirty[slot] = True
                    return
                if staged:
                    # Persisted below and still non-resident: any get
                    # from here on reads the staged/written copy.
                    return
                self._rows[item] = span
            # Non-resident: persist ``data`` out-of-band, then re-check —
            # a prefetch that raced us and loaded stale bytes is
            # overwritten in-slot on the next pass.
            if self._writeback is not None:
                self._writeback.put(item, data)
            else:
                self.backing.write(item, data)
            with self._cond:
                if rc is not None:
                    rc.write(self._race_scope, "fill_spills", "_unbacked")
                self.fill_spills += 1
                self._unbacked.discard(item)
            staged = True

    def _allocate_slot(self, item: int, pins: Iterable[int],  # holds: _cond
                       *excluded: Iterable[int],
                       demand: bool = True) -> tuple[int, int] | None:
        """A slot for a demand or prefetch load of ``item``: ``(slot,
        victim)``, never evicting ``pins`` or ``excluded``.

        ``victim < 0``: the slot is vacant (free, or its occupant was
        evicted here — clean under ``track_dirty``, dropped (a demand
        miss's dirty victim nothing reads, see the module docstring), or
        staged into the write-behind queue). ``victim >= 0``: the
        synchronous write-out of that item is still owed — it keeps the
        slot, flagged in flight, until the caller has written it outside
        the lock (``_transfer``).
        ``None``: nothing is evictable (for a demand miss only *yet* —
        loads in flight hold the unpinned slots; it waits for one). Pins
        alone exhausting the slots is a demand miss's error.
        """
        rc = self._race
        if rc is not None:
            rc.write(self._race_scope, "_free")
            rc.read(self._race_scope, "_recomputable", "_reads")
        if self._free:
            return self._free.pop(), -1
        candidates = self._evictable(pins, *excluded)
        if not candidates:
            if self._inflight or not demand:
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
        if (victim in self._recomputable and demand and self._dirty[vslot]
                and victim not in self._reads and self.read_skipping):
            self._drop(victim, vslot)
            return vslot, -1
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
        """Evict ``item`` here and now: a victim owing no backing write,
        or a bulk barrier's (a load's owed write is ``_transfer``'s)."""
        rc = self._race
        if rc is not None:
            rc.read(self._race_scope, "_dirty")
            rc.write(self._race_scope, "stats.store")
        if self.obs is not None:
            self.obs.event("evict", item, slot)
        if self.track_dirty and not self._dirty[slot]:
            self.stats.write_skips += 1
        else:
            self._write_out(item, slot)
        self._vacate(item, slot)

    def _drop(self, item: int, slot: int) -> None:  # holds: _cond
        """Evict dirty ``item`` unwritten: its backing copy is stale from
        here on (module docstring, "Write only what a read wants")."""
        rc = self._race
        if rc is not None:
            rc.write(self._race_scope, "stats.store", "_unbacked")
        if self.obs is not None:
            self.obs.event("evict", item, slot)
        self.stats.write_drops += 1
        self._unbacked.add(item)
        self._vacate(item, slot)

    def _vacate(self, item: int, slot: int) -> None:  # holds: _cond
        """Bookkeeping of an eviction whose bytes are safe — written,
        clean or dropped, and counted so by the caller: the slot is
        vacant."""
        rc = self._race
        if rc is not None:
            rc.write(self._race_scope, "_slot_generation", "stats.store",
                     "_prefetched_untouched", "_item_slot", "_slot_item",
                     "_dirty")
        self._spill(slot)
        self._slot_generation[slot] += 1  # invalidates outstanding borrows
        if item in self._prefetched_untouched:
            self._prefetched_untouched.discard(item)
            self.stats.prefetch_unused += 1
        del self._item_slot[item]
        self._slot_item[slot] = -1
        self._dirty[slot] = False
        self.policy.on_evict(item)

    def _spill(self, slot: int) -> None:  # holds: _cond
        """``slot``'s occupant is leaving it: if the serving run lent it,
        what the run hands back for it is a private copy of these bytes
        (see get_many), read-only under the sanitizer like the view."""
        rc = self._race
        if rc is not None:
            rc.read(self._race_scope, "_slot_generation", "_lent_in", "_run")
            rc.write(self._race_scope, "_spilled")
        key = (slot, self._slot_generation[slot])
        if self._lent_in[slot] == self._run and key not in self._spilled:
            spilled = self._slots[slot].copy()
            spilled.flags.writeable = not self._sanitize
            self._spilled[key] = spilled

    def _live_bytes(self, item: int) -> int:  # holds: _cond
        """The bytes a transfer of ``item`` moves: its live rows."""
        return self._rows[item] * self.row_bytes

    def _write_out(self, item: int, slot: int) -> None:  # holds: _cond
        """Persist one slot's live rows — staged asynchronously when
        write-behind is on — and count the write."""
        rc = self._race
        if rc is not None:
            rc.read(self._race_scope, "_rows")
        live = self._slots[slot][:self._rows[item]]
        if self._writeback is not None:
            self._writeback.put(item, live)
        else:
            self.backing.write(item, live)
        self._wrote(item)

    def _wrote(self, item: int) -> None:  # holds: _cond
        """Count a write of ``item``'s live rows toward the backing store,
        which holds its newest bytes from now on (it is backed)."""
        rc = self._race
        if rc is not None:
            rc.write(self._race_scope, "stats.store", "_unbacked")
            rc.read(self._race_scope, "_rows")
        self.stats.writes += 1
        self.stats.bytes_written += self._live_bytes(item)
        self._unbacked.discard(item)

    # -- prefetch support (paper §5) -------------------------------------------------

    def prefetch_load(self, item: int,  # thread: prefetch
                      protect: Iterable[int] = ()) -> bool:
        """Load ``item`` ahead of demand; best-effort, thread-safe.

        The synchronous form of a
        :class:`~repro.core.prefetch.ThreadedPrefetcher` worker's claim and
        fill, deterministic, so tests call it. A demand miss's steps
        (:meth:`_allocate_slot`, :meth:`_transfer` outside the lock,
        :meth:`_land`), never evicting ``protect``, the pins of the most
        recent demand ``get``, untouched prefetched items or loads in
        flight. Returns ``False`` when the item is resident or in flight,
        no slot can be had, or a transfer raises an ``Exception``: after a
        failed write the victim stays resident, dirty, in its place in the
        policy's order; after a failed read the eviction stands and the
        slot is free. A ``BaseException`` propagates after the same
        rollback. Only ``prefetch_*`` counters move: demand counters are
        charged at first demand touch, as if prefetch were transparent.
        """
        item = int(item)
        self._check_item(item)
        with self._cond:
            load = self._prefetch_claim(item, protect)
        return load is not None and self._prefetch_fill(item, load)

    def _prefetch_claim(self, item: int,  # holds: _cond
                        protect: Iterable[int]) -> _Load | None:
        """Announce a prefetch load of ``item`` in flight, or ``None``
        (resident or in flight already, unbacked — its copy is stale —
        or no slot to be had). A dirty
        victim's write is owed to :meth:`_prefetch_fill`. The threaded
        prefetcher claims in the lock hold that picked the item, so two
        workers never pick the same one."""
        rc = self._race
        if rc is not None:
            rc.read(self._race_scope, "_item_slot", "_active_pins",
                    "_prefetched_untouched", "_unbacked")
        if item in self._item_slot or item in self._unbacked:
            return None
        try:
            found = self._allocate_slot(item, protect, self._active_pins,
                                        self._prefetched_untouched,
                                        demand=False)
        except Exception:  # e.g. a policy fault: no slot this time
            return None
        return None if found is None else self._announce(item, *found, True)

    def _prefetch_fill(self, item: int,  # thread: prefetch
                       load: _Load) -> bool:
        """Run a claimed load's transfers outside the lock and commit it;
        ``False`` if an ``Exception`` rolled it back."""
        rc = self._race
        swap = self._transfer(item, load)
        with self._cond:
            self._cond.notify_all()  # the load has ended, landed or not
            try:
                read = self._land(item, load, swap)
            except Exception:
                return False
            if rc is not None:
                rc.write(self._race_scope, "stats.store",
                         "_prefetched_untouched")
                rc.read(self._race_scope, "_rows")
            assert read is not None  # a prefetch never skips its read
            t0, seconds, from_staging = read
            self.stats.prefetch_reads += 1
            self.stats.prefetch_bytes += self._live_bytes(item)
            if self.obs is not None:
                self.obs.timed("prefetch_issue", t0, seconds, item=item,
                               slot=load[0])
            if from_staging:
                self.stats.writeback_read_hits += 1
            self._prefetched_untouched.add(item)
            self.policy.on_load(item)
            # Stamp the policy so the freshly prefetched vector is not the
            # immediate next victim (it is needed within the horizon).
            self.policy.on_access(item, False)
        return True

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
                rc.read(self._race_scope, "_slot_item", "_rows")
                rc.write(self._race_scope, "stats.store", "_dirty")
            for slot, item in enumerate(self._slot_item):
                if item < 0:
                    continue
                if not force and self.track_dirty and not self._dirty[slot]:
                    self.stats.write_skips += 1
                    continue
                self._write_out(item, slot)
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
            rc.read(self._race_scope, "_inflight", "_unchecked")
        while self._inflight:
            self._cond.wait()
        if self._unchecked:
            self._check_reproduced()

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
        the backing store — so it always observes the newest version of
        the live rows. Rows past them are the slot's stale ones, or for a
        vector not resident zeros (NaN under the sanitizer). A vector
        neither resident nor backed has no copy anywhere: that raises
        :class:`~repro.errors.OutOfCoreError`.
        """
        self._check_item(item)
        rc = self._race
        with self._cond:
            self._settle()
            if rc is not None:
                rc.read(self._race_scope, "_item_slot", "_rows", "_unbacked")
            slot = self._item_slot.get(item, -1)
            if slot >= 0:
                return self._slots[slot].copy()
            if item in self._unbacked:
                raise OutOfCoreError(
                    f"read_item({item}): the item is unbacked and not "
                    f"resident, so no copy of it exists")
            rows = self._rows[item]
        out = np.zeros(self.item_shape, dtype=self.dtype)
        self._read_into(item, out, rows)
        return out

    def validate(self) -> None:
        """Internal-consistency check of the slot/item maps and what hangs off them.

        The maps, the free list and the replacement policy's own order are
        each updated incrementally, on every load, eviction and failed-load
        rollback; a missed update would not crash, it would skew victim
        choice. This cross-checks all of them: ``_slot_item`` and
        ``_item_slot`` are inverse to each other, the free list holds
        exactly the empty slots, in-flight and prefetched-untouched items
        are resident, a resident unbacked item is dirty (its slot holds
        its only copy), and an order-keeping policy
        (:meth:`ReplacementPolicy.ordered_items`) tracks exactly the
        residents whose load has completed — including an in-flight victim
        whose write is owed: its slot still maps to it, and the load
        announced into that slot maps there too. Callable at any time.
        """
        rc = self._race
        with self._cond:
            if rc is not None:
                rc.read(self._race_scope, "_slot_item", "_item_slot", "_free",
                        "_inflight", "_prefetched_untouched", "_unbacked",
                        "_dirty")
            for slot, item in enumerate(self._slot_item):
                if item >= 0 and self._item_slot.get(item, -1) != slot:
                    raise OutOfCoreError(f"slot {slot} ↦ item {item} ↦ slot "
                                         f"{self._item_slot.get(item, -1)} mismatch")
                if (item in self._unbacked and item not in self._inflight
                        and not self._dirty[slot]):
                    raise OutOfCoreError(
                        f"item {item} is unbacked but its slot {slot} is "
                        f"clean: its only copy would be lost at eviction")
            victims: set[int] = set()
            for item, slot in self._item_slot.items():
                occupant = (self._slot_item[slot]
                            if 0 <= slot < self.num_slots else -1)
                if occupant == item:
                    continue
                if not (item in self._inflight and occupant in self._inflight
                        and occupant not in victims):
                    raise OutOfCoreError(f"item {item} ↦ slot {slot} mismatch: "
                                         f"the slot does not map back to it")
                victims.add(occupant)
            if (len(self._item_slot) - len(victims) + len(self._free)
                    != self.num_slots
                    or len(set(self._free)) != len(self._free)
                    or any(self._slot_item[slot] >= 0 for slot in self._free)):
                raise OutOfCoreError("free-list/resident accounting mismatch")
            stray = (self._inflight | self._prefetched_untouched) \
                - self._item_slot.keys()
            if stray:
                raise OutOfCoreError(
                    f"in-flight/prefetched items {sorted(stray)} are not resident")
            order = self.policy.ordered_items()
            if order is not None:
                loaded = sorted((self._item_slot.keys() - self._inflight)
                                | victims)
                if sorted(order) != loaded:
                    raise OutOfCoreError(
                        f"policy {self.policy.name!r} orders items "
                        f"{sorted(order)}, out of step with the loaded "
                        f"residents {loaded}")

    def close(self) -> None:
        """Drain pending write-behind traffic and close the backing store.
        Under the sanitizer, first compare what reproducing writes left
        clean (see :meth:`declare_reproduced`). Idempotent: a second call
        does nothing."""
        if self._closed:
            return
        rc = self._race
        try:
            with self._cond:
                if rc is not None:
                    rc.read(self._race_scope, "_unchecked")
                if self._unchecked:
                    self._check_reproduced()
        finally:
            if self._writeback is not None:
                self._writeback.close()
            self.backing.close()
            self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AncestralVectorStore(n={self.num_items}, m={self.num_slots}, "
            f"policy={self.policy.name}, w={self.item_bytes}B)"
        )
