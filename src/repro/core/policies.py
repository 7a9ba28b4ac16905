"""Slot replacement strategies (paper §3.3).

When ``getxvector()`` misses and every slot is occupied, one resident
vector must be evicted. The paper implements and compares four strategies:

* **Random** — uniform choice, "minimum overhead (one call to a random
  number generator)";
* **LRU** — evict the vector accessed furthest back in time;
* **LFU** — evict the vector accessed least often;
* **Topological** — evict the vector whose tree node is most distant (in
  nodes along the unique path) from the requested node, the rationale being
  that tree-search locality makes distant vectors the least likely to be
  needed soon.

We add two more for ablations: **FIFO** (classic baseline) and **Belady**
(the clairvoyant optimum, usable only when the future access trace is
known — see :mod:`repro.core.trace`).

A policy never sees pinned items: the store hands it only the *evictable*
residents, enforcing the paper's constraint that the up-to-three vectors of
the current pruning step stay resident. What it hands over is an
:class:`EvictableView` — "resident minus excluded", never materialised —
so a miss costs the policy's own bookkeeping and nothing per resident item:
LRU and FIFO keep their items in eviction order and return the first one
that is ``in candidates``; CLOCK probes the items under its hand; Random,
LFU, Topological and Belady iterate the view (slot order), which is the
O(m) search their definition asks for. A plain ``list`` is accepted
everywhere a view is.
"""

from __future__ import annotations

from itertools import filterfalse, islice
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import OutOfCoreError
from repro.utils.rng import as_rng


class EvictableView(Sequence[int]):
    """The victim candidates of one miss: resident items minus ``excluded``.

    A read-only window onto a slot arena's two-way maps — ``slot_item``
    (slot → item, ``-1`` = free) and ``item_slot`` (resident item → slot) —
    built in O(len(excluded)). ``len`` and ``in`` are O(1); iteration and
    indexing run in slot order, skipping free slots and excluded items.
    ``excluded`` may name non-resident items (a pin on a vector that is on
    disk protects nothing and is not counted). Valid only while the maps
    do not change, i.e. for the one ``choose_victim`` call it is built for.
    """

    __slots__ = ("_slot_item", "_item_slot", "_skip", "_len")

    def __init__(self, slot_item: Sequence[int], item_slot: Mapping[int, int],
                 excluded: Iterable[int]) -> None:
        skip = set(excluded)
        self._len = len(item_slot) - len(item_slot.keys() & skip)
        skip.add(-1)  # a free slot's entry
        self._slot_item = slot_item
        self._item_slot = item_slot
        self._skip = skip

    def __len__(self) -> int:
        return self._len

    def __contains__(self, item: object) -> bool:
        return item in self._item_slot and item not in self._skip

    def __iter__(self) -> Iterator[int]:
        return filterfalse(self._skip.__contains__, self._slot_item)

    def __getitem__(self, index: Any) -> Any:  # integer indices only
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("EvictableView index out of range")
        return next(islice(iter(self), index, None))


def _first_in_order(order: Mapping[int, int],
                    candidates: Sequence[int]) -> int:
    """The candidate with the smallest stamp, first-wins on ties.

    ``order`` maps item → stamp with its keys *in stamp order* (a dict
    re-inserted on every stamp); an item without an entry counts as
    stamp ``-1``. When every candidate has an entry, the answer is the
    first key that is ``in candidates`` — found after skipping only the
    entries of non-candidates (pins, in-flight loads). That shortcut is
    taken for an :class:`EvictableView`, whose builder guarantees every
    candidate was announced to the policy; anything else (a plain list:
    O(n) membership, and no such guarantee), a view longer than the order,
    or an order holding no candidate at all gets the argmin scan.
    """
    if isinstance(candidates, EvictableView) and len(candidates) <= len(order):
        for item in order:
            if item in candidates:
                return item
    return min(candidates, key=lambda it: order.get(it, -1))


class ReplacementPolicy:
    """Base class: observation hooks + victim selection.

    Subclasses override :meth:`choose_victim` and any of the ``on_*``
    notification hooks they need for bookkeeping. ``item`` ids are the
    store's logical vector indices (``0 .. num_items-1``).
    """

    name = "base"

    def on_access(self, item: int, write_only: bool) -> None:
        """Called on every request for ``item`` (hit or miss, after load)."""

    def on_load(self, item: int) -> None:
        """Called when ``item`` becomes resident."""

    def on_evict(self, item: int) -> None:
        """Called when ``item`` is evicted from RAM."""

    def choose_victim(self, candidates: Sequence[int], requested: int) -> int:
        """Pick the resident item to evict; ``candidates`` is non-empty."""
        raise NotImplementedError

    def ordered_items(self) -> Iterable[int] | None:
        """The items whose eviction order this policy keeps, or ``None``.

        An order-keeping policy finds its victim without looking at every
        candidate, which is only right while it tracks every resident
        whose load has completed and nothing else;
        :meth:`AncestralVectorStore.validate` checks exactly that.
        """
        return None

    def reset(self) -> None:
        """Forget all bookkeeping (store re-initialization)."""


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim — the paper's cheapest strategy."""

    name = "random"

    def __init__(self, seed: int | np.random.Generator | None = None) -> None:
        self._rng = as_rng(seed)

    def choose_victim(self, candidates: Sequence[int], requested: int) -> int:
        return candidates[int(self._rng.integers(len(candidates)))]


class LruPolicy(ReplacementPolicy):
    """Least-Recently-Used: evict the oldest access time-stamp.

    The paper keeps "a list of n time-stamps" and searches only among
    resident vectors; we keep a logical clock per item in a dict that is
    re-inserted on every access, so its keys are in recency order and the
    victim is the first one that is a candidate (:func:`_first_in_order`).
    """

    name = "lru"

    def __init__(self) -> None:
        self._clock = 0
        self._stamp: dict[int, int] = {}  # keys in stamp order

    def on_access(self, item: int, write_only: bool) -> None:
        self._clock += 1
        self._stamp.pop(item, None)
        self._stamp[item] = self._clock

    def on_evict(self, item: int) -> None:
        # A non-resident item can never be a victim candidate, and it gets a
        # fresh stamp on reload — dropping the entry bounds the dict at the
        # resident set instead of growing over a whole tree search.
        self._stamp.pop(item, None)

    def choose_victim(self, candidates: Sequence[int], requested: int) -> int:
        return _first_in_order(self._stamp, candidates)

    def ordered_items(self) -> Iterable[int] | None:
        return self._stamp

    def reset(self) -> None:
        self._clock = 0
        self._stamp.clear()


class LfuPolicy(ReplacementPolicy):
    """Least-Frequently-Used: evict the smallest access count.

    Ties broken by least-recent access so the policy is deterministic.
    The paper finds LFU clearly worst (Fig. 2): hot root-adjacent vectors
    accumulate huge counts early and then pin themselves in RAM even after
    the search moves elsewhere.

    Frequency counts are *deliberately retained across evictions* — that
    retention is what defines this policy's (poor) behaviour in Fig. 2, so
    pruning them on eviction would change the reproduced results. To keep
    memory bounded over an arbitrarily long tree search anyway, the count
    table is capped at ``max_tracked`` entries; when it overflows, the
    coldest half of the entries is dropped (a dropped item re-enters at
    count 0, exactly like ``_count.get(it, 0)`` already treats unknowns).
    Recency stamps are only a tie-breaker and are refreshed on every
    access, so those *are* pruned on eviction.
    """

    name = "lfu"

    def __init__(self, max_tracked: int = 1 << 20) -> None:
        if max_tracked < 1:
            raise OutOfCoreError(f"max_tracked must be >= 1, got {max_tracked}")
        self.max_tracked = int(max_tracked)
        self._count: dict[int, int] = {}
        self._clock = 0
        self._stamp: dict[int, int] = {}

    def on_access(self, item: int, write_only: bool) -> None:
        self._count[item] = self._count.get(item, 0) + 1
        self._clock += 1
        self._stamp[item] = self._clock
        if len(self._count) > self.max_tracked:
            keep = sorted(self._count, key=self._count.get, reverse=True)
            keep = keep[: max(1, self.max_tracked // 2)]
            self._count = {it: self._count[it] for it in keep}

    def on_evict(self, item: int) -> None:
        self._stamp.pop(item, None)

    def choose_victim(self, candidates: Sequence[int], requested: int) -> int:
        return min(
            candidates,
            key=lambda it: (self._count.get(it, 0), self._stamp.get(it, -1)),
        )

    def reset(self) -> None:
        self._count.clear()
        self._stamp.clear()
        self._clock = 0


class FifoPolicy(ReplacementPolicy):
    """First-In-First-Out: evict the longest-resident vector (ablation)."""

    name = "fifo"

    def __init__(self) -> None:
        self._clock = 0
        self._loaded_at: dict[int, int] = {}  # keys in stamp order

    def on_load(self, item: int) -> None:
        self._clock += 1
        self._loaded_at.pop(item, None)
        self._loaded_at[item] = self._clock

    def on_evict(self, item: int) -> None:
        self._loaded_at.pop(item, None)

    def choose_victim(self, candidates: Sequence[int], requested: int) -> int:
        return _first_in_order(self._loaded_at, candidates)

    def ordered_items(self) -> Iterable[int] | None:
        return self._loaded_at

    def reset(self) -> None:
        self._clock = 0
        self._loaded_at.clear()


class TopologicalPolicy(ReplacementPolicy):
    """Evict the node most distant in the tree from the requested node (§3.3).

    Needs a *distance provider*: a callable mapping a requested item id to
    an array of hop distances indexed by item id. The likelihood engine
    wires this to :meth:`repro.phylo.tree.Tree.hop_distances_from` on the
    current topology (item ``i`` ↔ inner node ``n_tips + i``). Ties are
    broken by least-recently-used so behaviour is deterministic.
    """

    name = "topological"

    def __init__(self, distance_provider: Callable[[int], np.ndarray] | None = None) -> None:
        self.distance_provider = distance_provider
        self._clock = 0
        self._stamp: dict[int, int] = {}

    def on_access(self, item: int, write_only: bool) -> None:
        self._clock += 1
        self._stamp[item] = self._clock

    def on_evict(self, item: int) -> None:
        self._stamp.pop(item, None)

    def choose_victim(self, candidates: Sequence[int], requested: int) -> int:
        if self.distance_provider is None:
            raise OutOfCoreError(
                "TopologicalPolicy needs a distance_provider bound to the tree"
            )
        dist = self.distance_provider(requested)
        return max(candidates, key=lambda it: (dist[it], -self._stamp.get(it, 0)))

    def reset(self) -> None:
        self._clock = 0
        self._stamp.clear()


class ClockPolicy(ReplacementPolicy):
    """CLOCK (second-chance) — the approximation real OS pagers use.

    Items sit on a circular list with a reference bit set on access; the
    clock hand sweeps, clearing bits and evicting the first unreferenced
    item. O(1) amortized per eviction with near-LRU quality — included
    because the paper's Fig. 5 baseline (the OS pager) effectively runs
    this policy, so it quantifies how much the application-level LRU gains
    over what the kernel could do.
    """

    name = "clock"

    def __init__(self) -> None:
        self._ring: list[int] = []
        self._referenced: dict[int, bool] = {}
        self._hand = 0

    def on_load(self, item: int) -> None:
        self._ring.append(item)
        self._referenced[item] = True

    def on_access(self, item: int, write_only: bool) -> None:
        if item in self._referenced:
            self._referenced[item] = True

    def on_evict(self, item: int) -> None:
        # choose_victim leaves the hand on the item it returned, so the
        # eviction that follows finds it there without searching the ring.
        idx = self._hand
        if not (idx < len(self._ring) and self._ring[idx] == item):
            try:
                idx = self._ring.index(item)
            except ValueError:
                return
        self._ring.pop(idx)
        if idx < self._hand:
            self._hand -= 1
        self._referenced.pop(item, None)

    def choose_victim(self, candidates: Sequence[int], requested: int) -> int:
        # O(1) membership either way: the view has it, a plain list does not.
        allowed = (candidates if isinstance(candidates, EvictableView)
                   else set(candidates))
        if not self._ring:
            return candidates[0]
        sweeps = 0
        while sweeps < 2 * len(self._ring) + 1:
            if self._hand >= len(self._ring):
                self._hand = 0
            item = self._ring[self._hand]
            if item in allowed:
                if self._referenced.get(item, False):
                    self._referenced[item] = False  # second chance
                else:
                    return item
            self._hand += 1
            sweeps += 1
        # every allowed item kept its reference bit twice (pins elsewhere):
        # fall back to the hand position among candidates
        for offset in range(len(self._ring)):
            item = self._ring[(self._hand + offset) % len(self._ring)]
            if item in allowed:
                return item
        return candidates[0]

    def ordered_items(self) -> Iterable[int] | None:
        return self._ring

    def reset(self) -> None:
        self._ring.clear()
        self._referenced.clear()
        self._hand = 0


class BeladyPolicy(ReplacementPolicy):
    """Clairvoyant optimal replacement (Belady's MIN) for trace replay.

    Evicts the resident vector whose next use lies furthest in the future
    (never-used-again beats everything). Requires the full future access
    sequence, so it is only usable offline via
    :func:`repro.core.trace.simulate_policy_on_trace`; it provides the lower
    bound the implementable strategies are measured against.
    """

    name = "belady"

    def __init__(self, future_items: Iterable[int] = ()) -> None:
        self.load_future(future_items)

    def load_future(self, future_items: Iterable[int]) -> None:
        """Precompute, for each trace position, every item's next-use index."""
        seq = list(future_items)
        self._next_use: dict[int, list[int]] = {}
        for pos, item in enumerate(seq):
            self._next_use.setdefault(item, []).append(pos)
        self._cursor = 0

    def on_access(self, item: int, write_only: bool) -> None:
        uses = self._next_use.get(item)
        if uses and uses[0] <= self._cursor:
            uses.pop(0)
        self._cursor += 1

    def _next(self, item: int) -> int:
        uses = self._next_use.get(item)
        while uses and uses[0] < self._cursor:
            uses.pop(0)
        return uses[0] if uses else 1 << 60

    def choose_victim(self, candidates: Sequence[int], requested: int) -> int:
        return max(candidates, key=self._next)

    def reset(self) -> None:
        self._cursor = 0


_POLICIES = {
    "random": RandomPolicy,
    "lru": LruPolicy,
    "lfu": LfuPolicy,
    "fifo": FifoPolicy,
    "clock": ClockPolicy,
    "topological": TopologicalPolicy,
    "belady": BeladyPolicy,
}


def make_policy(name: str, **kwargs: Any) -> ReplacementPolicy:
    """Instantiate a policy by name (``random|lru|lfu|fifo|topological|belady``).

    ``kwargs`` are forwarded (e.g. ``seed=`` for random,
    ``distance_provider=`` for topological).
    """
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise OutOfCoreError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    return cls(**kwargs)


def policy_names() -> list[str]:
    """All registered policy names."""
    return sorted(_POLICIES)
