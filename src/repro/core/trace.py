"""Access-trace recording and offline policy replay.

Recording the sequence of ``get()`` calls made by a likelihood computation
lets us (i) replay the same workload against every replacement strategy
without re-running the numerics, and (ii) evaluate the clairvoyant Belady
optimum, which needs the future. This is how the ablation benchmarks
compare the paper's four strategies against the theoretical lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.policies import BeladyPolicy, ReplacementPolicy
from repro.core.shadow import ShadowStore
from repro.core.stats import IoStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.core.layout import StorageLayout


@dataclass(frozen=True)
class TraceEvent:
    """One ``get()`` call: requested item, pinned items, write-only flag."""

    item: int
    pins: tuple[int, ...] = ()
    write_only: bool = False


@dataclass
class AccessTrace:
    """An ordered sequence of :class:`TraceEvent` plus the store geometry."""

    num_items: int
    events: list[TraceEvent] = field(default_factory=list)
    #: Layout the recorded item ids live in — block-granular traces carry
    #: their :class:`~repro.core.layout.SiteBlockLayout` so offline analysis
    #: can map items back to nodes/site-ranges. ``None`` for traces recorded
    #: before the layout abstraction (item id == node id). The replay in
    #: :func:`simulate_policy_on_trace` is deliberately layout-agnostic:
    #: item ids are opaque to the allocation logic, so block-granular traces
    #: replay unchanged.
    layout: "StorageLayout | None" = None

    def record(self, item: int, pins: tuple = (), write_only: bool = False) -> None:
        self.events.append(TraceEvent(int(item), tuple(int(p) for p in pins), bool(write_only)))

    def __len__(self) -> int:
        return len(self.events)

    def items(self) -> list[int]:
        return [e.item for e in self.events]

    def unique_items(self) -> set[int]:
        return {e.item for e in self.events}


class RecordingStoreProxy:
    """Wraps an :class:`AncestralVectorStore`-compatible object, logging calls.

    Drop-in for the engine's ``store`` attribute: forwards ``get`` (and
    everything else) to the wrapped store while appending to ``trace``.
    """

    def __init__(self, store: Any, trace: AccessTrace | None = None) -> None:
        self._store = store
        self.trace = trace if trace is not None else AccessTrace(
            store.num_items, layout=getattr(store, "layout", None))

    def get(self, item: int, pins: tuple = (),
            write_only: bool = False) -> np.ndarray:
        self.trace.record(item, pins, write_only)
        return self._store.get(item, pins=pins, write_only=write_only)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._store, name)


def simulate_policy_on_trace(
    trace: AccessTrace,
    num_slots: int,
    policy: str | ReplacementPolicy,
    *,
    read_skipping: bool = True,
    track_dirty: bool = False,
    policy_kwargs: dict | None = None,
) -> IoStats:
    """Replay a trace against a policy, counting misses/reads — no data moves.

    The replay drives one :class:`~repro.core.shadow.ShadowStore` — the
    store's allocation logic exactly (free slots first, then policy victim
    among unpinned residents) — so its miss/read rates match a real run
    with the same policy; it is simply ~100× faster, which lets benchmarks
    sweep many (policy, m) points on one recorded workload. Belady's policy
    is fed the future item sequence automatically.

    ``track_dirty`` mirrors the store option of the same name (see
    :class:`~repro.core.shadow.ShadowStore`). Counter parity against a live
    store run with the same configuration is asserted in
    ``tests/test_trace.py``.
    """
    shadow = ShadowStore(trace.num_items, num_slots, policy,
                         read_skipping=read_skipping, track_dirty=track_dirty,
                         policy_kwargs=policy_kwargs)
    if isinstance(shadow.policy, BeladyPolicy):
        shadow.policy.load_future(trace.items())
    for ev in trace.events:
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
    n = len(trace.events)
    marks = _FenwickTree(n)
    last: dict[int, int] = {}  # item -> time of its most recent access
    out: list[int] = []
    for t, ev in enumerate(trace.events):
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
