"""Access-trace recording and offline policy replay.

Recording the sequence of ``get()`` calls made by a likelihood computation
lets us (i) replay the same workload against every replacement strategy
without re-running the numerics, and (ii) evaluate the clairvoyant Belady
optimum, which needs the future. This is how the ablation benchmarks
compare the paper's four strategies against the theoretical lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.core.layout import StorageLayout, only_view
from repro.core.policies import BeladyPolicy, ReplacementPolicy
from repro.core.shadow import ShadowStore
from repro.core.stats import IoStats


@dataclass(frozen=True)
class TraceEvent:
    """One ``get()`` call: requested item, pinned items, write-only flag —
    or, with ``clean``, one ``mark_clean(item)`` declaration (no access)."""

    item: int
    pins: tuple[int, ...] = ()
    write_only: bool = False
    clean: bool = False


@dataclass
class AccessTrace:
    """An ordered sequence of :class:`TraceEvent` plus the store geometry."""

    num_items: int
    events: list[TraceEvent] = field(default_factory=list)
    #: Layout the recorded item ids live in — a trace carries its store's
    #: :class:`~repro.core.layout.StorageLayout` so offline analysis can
    #: map block items back to nodes/site-ranges. ``None`` for traces recorded
    #: before the layout abstraction (item id == node id). The replay in
    #: :func:`simulate_policy_on_trace` is deliberately layout-agnostic:
    #: item ids are opaque to the allocation logic, so block-granular traces
    #: replay unchanged.
    layout: StorageLayout | None = None

    def record(self, item: int, pins: tuple = (), write_only: bool = False) -> None:
        self.events.append(TraceEvent(int(item), tuple(int(p) for p in pins), bool(write_only)))

    def record_clean(self, item: int) -> None:
        self.events.append(TraceEvent(int(item), clean=True))

    def __len__(self) -> int:
        return len(self.events)

    def accesses(self) -> list[TraceEvent]:
        """The events that are ``get()`` calls (clean declarations skipped)."""
        return [e for e in self.events if not e.clean]

    def items(self) -> list[int]:
        """The requested items in order — what Belady's future is."""
        return [e.item for e in self.accesses()]

    def unique_items(self) -> set[int]:
        return set(self.items())


class RecordingStoreProxy:
    """Wraps an :class:`AncestralVectorStore`-compatible object, logging calls.

    Drop-in for the engine's ``store`` attribute: forwards ``get_many``
    (and ``get``, one access of it, and everything else) to the wrapped
    store while appending each access — and each ``mark_clean`` — to
    ``trace``.
    """

    def __init__(self, store: Any, trace: AccessTrace | None = None) -> None:
        self._store = store
        self.trace = trace if trace is not None else AccessTrace(
            store.num_items, layout=getattr(store, "layout", None))

    def get(self, item: int, pins: tuple = (),
            write_only: bool = False) -> np.ndarray:
        return only_view(self.get_many(((item, pins, write_only),)))

    def get_many(self, accesses: Sequence[tuple[int, tuple[int, ...], bool]]
                 ) -> list[np.ndarray | None]:
        for item, pins, write_only, *_ in accesses:
            self.trace.record(item, pins, write_only)
        views: list[np.ndarray | None] = self._store.get_many(accesses)
        return views

    def mark_clean(self, item: int, rows: int | None = None) -> None:
        self.trace.record_clean(item)
        self._store.mark_clean(item, rows)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._store, name)


def simulate_policy_on_trace(
    trace: AccessTrace,
    num_slots: int,
    policy: str | ReplacementPolicy,
    **options: Any,
) -> IoStats:
    """Replay a trace against a policy, counting misses/reads — no data moves.

    The replay drives one :class:`~repro.core.shadow.ShadowStore` — the
    store's allocation logic exactly (free slots first, then policy victim
    among unpinned residents) — so its miss/read rates match a real run
    with the same policy; it is simply ~100× faster, which lets benchmarks
    sweep many (policy, m) points on one recorded workload. Belady's policy
    is fed the future item sequence automatically; a clean event is no
    part of it, and replays as the shadow's ``mark_clean``.

    ``options`` are the shadow's keywords — ``read_skipping``,
    ``track_dirty``, ``policy_kwargs`` — with the store's defaults, so a
    default replay and a default live store agree. Counter parity against
    a live store run with the same configuration is asserted in
    ``tests/test_trace.py``.
    """
    shadow = ShadowStore(trace.num_items, num_slots, policy, **options)
    if isinstance(shadow.policy, BeladyPolicy):
        shadow.policy.load_future(trace.items())
    for ev in trace.events:
        if ev.clean:
            shadow.mark_clean(ev.item)
        else:
            shadow.access(ev.item, ev.pins, ev.write_only)
    return shadow.stats


class _FenwickTree:
    """Binary indexed tree over 0-based positions: point add, prefix sum."""

    def __init__(self, size: int) -> None:
        self._size = size
        self._tree = [0] * (size + 1)

    def add(self, pos: int, delta: int) -> None:
        pos += 1
        while pos <= self._size:
            self._tree[pos] += delta
            pos += pos & -pos

    def prefix(self, pos: int) -> int:
        """Sum over positions ``0..pos`` inclusive (0 for ``pos < 0``)."""
        pos += 1
        total = 0
        while pos > 0:
            total += self._tree[pos]
            pos -= pos & -pos
        return total


def reuse_distance_profile(trace: AccessTrace) -> list[int]:
    """LRU stack (reuse) distances of each access; -1 for first touches.

    The classic locality fingerprint: the miss rate of an LRU cache with
    ``m`` slots equals the fraction of accesses with reuse distance ≥ m.
    Used to characterize *why* PLF workloads behave so well (paper §4.2).

    The distance of an access is the number of *distinct* items touched
    since the previous access to the same item. Computed in O(n log n)
    with a Fenwick tree holding one mark at each item's last-access time:
    the distance is then the mark count strictly between the previous
    access and now (Bennett & Kruskal's classic algorithm).
    """
    events = trace.accesses()
    marks = _FenwickTree(len(events))
    last: dict[int, int] = {}  # item -> time of its most recent access
    out: list[int] = []
    for t, ev in enumerate(events):
        prev = last.get(ev.item)
        if prev is None:
            out.append(-1)
        else:
            out.append(marks.prefix(t - 1) - marks.prefix(prev))
            marks.add(prev, -1)
        marks.add(t, 1)
        last[ev.item] = t
    return out


def lru_miss_curve(trace: AccessTrace, capacities: list[int]) -> dict[int, float]:
    """Exact LRU miss rate at several capacities from one reuse-distance pass."""
    dists = reuse_distance_profile(trace)
    total = len(dists)
    if total == 0:
        return {m: 0.0 for m in capacities}
    out = {}
    for m in capacities:
        misses = sum(1 for d in dists if d < 0 or d >= m)
        out[m] = misses / total
    return out
