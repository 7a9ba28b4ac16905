"""Shadow stores: measure many (policy, capacity) points from one live run.

The vector access *sequence* produced by the likelihood engine is completely
independent of the store configuration — the paper relies on this ("given a
fixed starting tree, RAxML is deterministic ... regardless of f and the
selected replacement strategy", §4.1). A :class:`ShadowStore` therefore only
needs the event stream, not the data: it runs the exact slot-allocation
logic of :class:`~repro.core.vecstore.AncestralVectorStore` (free slots
first, then a policy victim among unpinned residents, read skipping for
write-only misses) and accumulates an :class:`~repro.core.stats.IoStats`.
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

from typing import Any, Sequence

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

    @property
    def fraction(self) -> float:
        return self.num_slots / self.num_items

    def access(self, item: int, pins: tuple = (), write_only: bool = False) -> None:
        """Observe one ``get()`` event and update counters."""
        self.stats.requests += 1
        if item in self._item_slot:
            self.stats.hits += 1
            if write_only:
                self._dirty.add(item)
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
                if self.track_dirty and victim not in self._dirty:
                    self.stats.write_skips += 1
                else:
                    self.stats.writes += 1
                self._dirty.discard(victim)
            if write_only and self.read_skipping:
                self.stats.read_skips += 1
            else:
                self.stats.reads += 1
            self._slot_item[slot] = item
            self._item_slot[item] = slot
            # The store's load path marks a write-only load dirty and any
            # other load clean (_commit_load); mirror that here.
            if write_only:
                self._dirty.add(item)
            else:
                self._dirty.discard(item)
            self.policy.on_load(item)
        self.policy.on_access(item, write_only)

    def mark_clean(self, item: int, rows: int | None = None) -> None:
        """Observe ``AncestralVectorStore.mark_clean``: a resident item is
        no longer dirty, so its eviction is charged to ``write_skips``
        (no data here, so ``rows`` is not compared)."""
        self._dirty.discard(item)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShadowStore({self.label}, {self.stats})"


class TeeStore:
    """A real store plus observers of the identical access stream.

    Satisfies the engine's store protocol by forwarding ``get_many`` (and
    ``get``, one access of it) and ``mark_clean`` to the primary store and
    replaying each against every observer: anything with ``num_items``,
    ``access(item, pins, write_only)`` and ``mark_clean(item, rows)`` — a
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

    def __getattr__(self, name: str) -> Any:
        return getattr(self.primary, name)
