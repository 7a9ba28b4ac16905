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
``get()`` to any number of shadows — so a *single* tree search produces the
full policy × fraction grid of Figures 2–4, including the Topological
strategy, whose distance queries need the live tree at eviction time (a
post-hoc trace replay could not reproduce them faithfully).
"""

from __future__ import annotations

from typing import Any

import numpy as np

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
                 read_skipping: bool = True, track_dirty: bool = False,
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
        #: Mirrors the store option of the same name: a clean victim (never
        #: written since its load) is charged to ``write_skips`` instead of
        #: ``writes``, exactly like ``AncestralVectorStore._evict``. Without
        #: it *every* eviction counts one write — the paper's behaviour,
        #: which always swaps the full vector out.
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
            # other load clean (_finish_load); mirror that here.
            if write_only:
                self._dirty.add(item)
            else:
                self._dirty.discard(item)
            self.policy.on_load(item)
        self.policy.on_access(item, write_only)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShadowStore({self.label}, {self.stats})"


class TeeStore:
    """A real store plus shadows observing the identical access stream.

    Satisfies the engine's store protocol by forwarding ``get()`` to the
    primary store and replaying the event against every shadow.
    """

    def __init__(self, primary: Any, shadows: list[ShadowStore]) -> None:
        self.primary = primary
        self.shadows = list(shadows)
        for shadow in self.shadows:
            if shadow.num_items != primary.num_items:
                raise OutOfCoreError(
                    f"shadow {shadow.label!r} has {shadow.num_items} items, "
                    f"primary has {primary.num_items}"
                )

    def get(self, item: int, pins: tuple = (),
            write_only: bool = False) -> np.ndarray:
        for shadow in self.shadows:
            shadow.access(item, pins=pins, write_only=write_only)
        return self.primary.get(item, pins=pins, write_only=write_only)

    def results(self) -> dict[str, IoStats]:
        """Shadow label → accumulated stats."""
        return {s.label: s.stats for s in self.shadows}

    def __getattr__(self, name: str) -> Any:
        return getattr(self.primary, name)
