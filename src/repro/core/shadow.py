"""Shadow stores: measure many (policy, capacity) points from one live run.

The vector access *sequence* produced by the likelihood engine is completely
independent of the store configuration — the paper relies on this ("given a
fixed starting tree, RAxML is deterministic ... regardless of f and the
selected replacement strategy", §4.1). A :class:`ShadowStore` therefore only
needs the event stream, not the data: it runs the exact slot-allocation
logic of :class:`~repro.core.vecstore.AncestralVectorStore` (free slots
first, then a policy victim among unpinned residents, read skipping for
write-only misses, dirty victims dropped and reproducing writes left
clean as the declarations say, each from its own slots) and accumulates
an :class:`~repro.core.stats.IoStats`.
It is the one replica of that state machine: the offline
:func:`~repro.core.trace.simulate_policy_on_trace` replay is a loop over a
shadow.

:class:`TeeStore` wraps the primary (real) store and broadcasts every
``get()`` to any number of observers — shadows, and an
:class:`~repro.core.trace.AccessTrace` that records the run — so a
*single* tree search produces the full policy × fraction grid of Figures
2–4 and its trace, including the Topological strategy, whose distance
queries need the live tree at eviction time (a post-hoc trace replay could
not reproduce them faithfully). The engine binds those distances: see
``Executor._bind_topological_policy``.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.layout import only_view
from repro.core.policies import EvictableView, ReplacementPolicy, make_policy
from repro.core.stats import IoStats
from repro.errors import OutOfCoreError, PinnedSlotError


class ShadowStore:
    """Bookkeeping-only replica of the out-of-core slot logic.

    Parameters mirror :class:`AncestralVectorStore`; no data is stored, so
    thousands of shadows cost almost nothing per event.
    """

    def __init__(self, num_items: int, num_slots: int,
                 policy: str | ReplacementPolicy = "lru", *,
                 read_skipping: bool = True, track_dirty: bool = True,
                 label: str = "",
                 policy_kwargs: dict | None = None) -> None:
        if num_slots < 1:
            raise OutOfCoreError(f"need at least one slot, got {num_slots}")
        self.num_items = int(num_items)
        self.num_slots = min(int(num_slots), self.num_items)
        if isinstance(policy, str):
            policy = make_policy(policy, **(policy_kwargs or {}))
        self.policy = policy
        self.read_skipping = bool(read_skipping)
        #: Mirrors the store option of the same name, default included: a
        #: clean victim (never written since its load) is charged to
        #: ``write_skips`` instead of ``writes``, exactly like
        #: ``AncestralVectorStore._evict``. With ``False`` *every* eviction
        #: counts one write — the paper's accounting, which always swaps
        #: the full vector out.
        self.track_dirty = bool(track_dirty)
        self.label = label or f"{policy.name}@m={num_slots}"
        self.stats = IoStats()
        # The store's own slot bookkeeping, minus the data: free slots are
        # handed out in the same order and a victim's slot goes to the item
        # that displaced it, so the candidates a policy sees come in the
        # same (slot) order as the real store's.
        self._slot_item: list[int] = [-1] * self.num_slots
        self._item_slot: dict[int, int] = {}
        self._free: list[int] = list(range(self.num_slots - 1, -1, -1))
        self._dirty: set[int] = set()  # residents written since their load
        # The store's drop declarations and their outcome (its module
        # docstring, "Write only what a read wants").
        self._reads: set[int] = set()
        self._recomputable: set[int] = set()
        self._unbacked: set[int] = set()
        self._reproduced: set[int] = set()

    @property
    def fraction(self) -> float:
        return self.num_slots / self.num_items

    def access(self, item: int, pins: tuple = (), write_only: bool = False) -> None:
        """Observe one ``get()`` event and update counters."""
        self.stats.requests += 1
        reproduced = write_only and item in self._reproduced
        if item in self._item_slot:
            self.stats.hits += 1
            if write_only:
                if not reproduced:  # a reproducing write keeps the dirty bit
                    self._dirty.add(item)
                self._recomputable.discard(item)
        else:
            self.stats.misses += 1
            if self._free:
                slot = self._free.pop()
            else:
                candidates = EvictableView(self._slot_item, self._item_slot, pins)
                if not candidates:
                    raise PinnedSlotError(
                        f"shadow {self.label!r}: all {self.num_slots} slots pinned"
                    )
                victim = int(self.policy.choose_victim(candidates, item))
                slot = self._item_slot.pop(victim)
                self.policy.on_evict(victim)
                if (victim in self._recomputable and victim in self._dirty
                        and victim not in self._reads and self.read_skipping):
                    self.stats.write_drops += 1
                    self._unbacked.add(victim)
                elif self.track_dirty and victim not in self._dirty:
                    self.stats.write_skips += 1
                else:
                    self.stats.writes += 1
                    self._unbacked.discard(victim)
                self._dirty.discard(victim)
            if write_only and self.read_skipping:
                self.stats.read_skips += 1
            else:
                self.stats.reads += 1
            self._slot_item[slot] = item
            self._item_slot[item] = slot
            # The store's load path marks a write-only load dirty — unless
            # it reproduces a backed item — and any other load clean
            # (_commit_load); mirror that here.
            if write_only and (not reproduced or item in self._unbacked):
                self._dirty.add(item)
            else:
                self._dirty.discard(item)
            if write_only:
                self._recomputable.discard(item)
            self.policy.on_load(item)
        self.policy.on_access(item, write_only)

    def mark_clean(self, item: int, rows: int | None = None) -> None:
        """Observe ``AncestralVectorStore.mark_clean``: a resident item is
        no longer dirty, so its eviction is charged to ``write_skips``
        (no data here, so ``rows`` is not compared) — unless it is
        unbacked, whose slot stays dirty. The claim is the primary's
        about its own backing copy: in a shadow with other slots the item
        may have been rewritten and never written back, so a recomputation
        is declared with :meth:`declare_reproduced` instead."""
        if item not in self._unbacked:
            self._dirty.discard(item)

    def declare_reads(self, items: Iterable[int]) -> None:
        """Observe ``AncestralVectorStore.declare_reads``."""
        self._reads = {int(i) for i in items}

    def declare_reproduced(self, items: Iterable[int]) -> None:
        """Observe ``AncestralVectorStore.declare_reproduced``: the rule is
        applied at each access from this shadow's own slots."""
        self._reproduced = {int(i) for i in items}

    def mark_recomputable(self, items: Iterable[int]) -> None:
        """Observe ``AncestralVectorStore.mark_recomputable``."""
        self._recomputable.update(int(i) for i in items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShadowStore({self.label}, {self.stats})"


class TeeStore:
    """A real store plus observers of the identical access stream.

    Satisfies the engine's store protocol by forwarding ``get_many`` (and
    ``get``, one access of it) and the four declarations — ``mark_clean``,
    ``declare_reads``, ``declare_reproduced`` and ``mark_recomputable`` —
    to the primary store and replaying each against every observer:
    anything with ``num_items``, ``access(item, pins, write_only)`` and
    the four declarations — a
    :class:`ShadowStore`, or an :class:`~repro.core.trace.AccessTrace`
    that records the run. An engine over a tee binds the distance
    provider of every Topological policy among the observers.
    """

    def __init__(self, primary: Any, observers: list[Any]) -> None:
        self.primary = primary
        self.observers = list(observers)
        for observer in self.observers:
            if observer.num_items != primary.num_items:
                name = getattr(observer, "label", type(observer).__name__)
                raise OutOfCoreError(
                    f"observer {name!r} has {observer.num_items} items, "
                    f"primary has {primary.num_items}"
                )

    def get(self, item: int, pins: tuple = (),
            write_only: bool = False) -> np.ndarray:
        return only_view(self.get_many(((item, pins, write_only),)))

    def get_many(self, accesses: Sequence[tuple[int, tuple[int, ...], bool]]
                 ) -> list[np.ndarray | None]:
        for item, pins, write_only, *_ in accesses:
            for observer in self.observers:
                observer.access(item, pins, write_only)
        views: list[np.ndarray | None] = self.primary.get_many(accesses)
        return views

    def mark_clean(self, item: int, rows: int | None = None) -> None:
        self.primary.mark_clean(item, rows)
        for observer in self.observers:
            observer.mark_clean(item, rows)

    def declare_reads(self, items: Iterable[int]) -> None:
        items = list(items)
        self.primary.declare_reads(items)
        for observer in self.observers:
            observer.declare_reads(items)

    def declare_reproduced(self, items: Iterable[int]) -> None:
        items = list(items)
        self.primary.declare_reproduced(items)
        for observer in self.observers:
            observer.declare_reproduced(items)

    def mark_recomputable(self, items: Iterable[int]) -> None:
        items = list(items)
        self.primary.mark_recomputable(items)
        for observer in self.observers:
            observer.mark_recomputable(items)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.primary, name)
