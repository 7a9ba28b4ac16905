"""Access-trace recording and offline policy replay.

Recording the sequence of ``get()`` calls made by a likelihood computation
(an :class:`AccessTrace` observing a :class:`~repro.core.shadow.TeeStore`)
lets us (i) replay the same workload against every replacement strategy
without re-running the numerics, and (ii) evaluate the clairvoyant Belady
optimum, which needs the future. This is how the ablation benchmarks
compare the paper's four strategies against the theoretical lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.policies import BeladyPolicy, ReplacementPolicy
from repro.core.shadow import ShadowStore
from repro.core.stats import IoStats


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One ``get()`` call (``kind`` ``"get"``): requested item, pinned
    items, write-only flag — or one declaration, no access: ``"clean"``
    (``mark_clean(item)``), ``"reads"`` (``declare_reads(items)``),
    ``"reproduced"`` (``declare_reproduced(items)``) or ``"recomputable"``
    (``mark_recomputable(items)``)."""

    item: int
    pins: tuple[int, ...] = ()
    write_only: bool = False
    kind: str = "get"
    #: The declared items of a ``"reads"``, ``"reproduced"`` or
    #: ``"recomputable"`` event.
    items: tuple[int, ...] = ()

    @property
    def clean(self) -> bool:
        return self.kind == "clean"

    def replay(self, shadow: ShadowStore) -> None:
        """Apply this event to ``shadow`` as the live store saw it."""
        if self.kind == "get":
            shadow.access(self.item, self.pins, self.write_only)
        elif self.kind == "clean":
            shadow.mark_clean(self.item)
        elif self.kind == "reads":
            shadow.declare_reads(self.items)
        elif self.kind == "reproduced":
            shadow.declare_reproduced(self.items)
        else:
            shadow.mark_recomputable(self.items)


@dataclass
class AccessTrace:
    """An ordered sequence of :class:`TraceEvent` over ``num_items`` items.

    A trace is an observer of a :class:`~repro.core.shadow.TeeStore`: it
    takes the calls the tee makes of each observer, ``access`` and the
    four declarations. ``TeeStore(store, [trace])`` records a live run. Item
    ids are opaque to the replay, so block-granular traces replay
    unchanged.
    """

    num_items: int
    events: list[TraceEvent] = field(default_factory=list)

    def access(self, item: int, pins: tuple = (), write_only: bool = False) -> None:
        self.events.append(TraceEvent(int(item), tuple(int(p) for p in pins), bool(write_only)))

    def mark_clean(self, item: int, rows: int | None = None) -> None:
        self.events.append(TraceEvent(int(item), kind="clean"))

    def declare_reads(self, items: Iterable[int]) -> None:
        self.events.append(TraceEvent(-1, kind="reads",
                                      items=tuple(int(i) for i in items)))

    def declare_reproduced(self, items: Iterable[int]) -> None:
        self.events.append(TraceEvent(-1, kind="reproduced",
                                      items=tuple(int(i) for i in items)))

    def mark_recomputable(self, items: Iterable[int]) -> None:
        self.events.append(TraceEvent(-1, kind="recomputable",
                                      items=tuple(int(i) for i in items)))

    def __len__(self) -> int:
        return len(self.events)

    def accesses(self) -> list[TraceEvent]:
        """The events that are ``get()`` calls (declarations skipped)."""
        return [e for e in self.events if e.kind == "get"]

    def items(self) -> list[int]:
        """The requested items in order — what Belady's future is."""
        return [e.item for e in self.accesses()]

    def unique_items(self) -> set[int]:
        return set(self.items())


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
    is fed the future item sequence automatically; a declaration is no
    part of it, and replays as the shadow's own (:meth:`TraceEvent.replay`).

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
        ev.replay(shadow)
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
