"""``AncestralVectorStore.get_many``: a run of accesses in one hold of the lock.

A run is served exactly as the same ``get`` calls issued in order —
``tests/test_evictable.py`` holds the victims to the frozen references.
Here: what the views of a run are, the one case a single ``get`` cannot
produce (an item lent earlier in the run evicted before the run ends),
what a failing transfer leaves behind, and the prefetch shield.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.backing import MemoryBackingStore
from repro.core.prefetch import ThreadedPrefetcher
from repro.core.vecstore import AncestralVectorStore, BorrowedSlotView
from repro.errors import BackingStoreError, BorrowError
from tests.test_failure_injection import FlakyBackingStore
from tests.test_prefetch import GatedReads

SHAPE = (2,)


def filled(store: AncestralVectorStore) -> AncestralVectorStore:
    """Every item written once, holding ``item + 10``; the last ``m``
    items resident (dirty), the oldest first in LRU order."""
    for item in range(store.num_items):
        store.get(item, write_only=True)[:] = item + 10
    return store


def lent(view, store) -> bool:
    """``view`` is a slot of ``store``, not a private copy."""
    return any(np.shares_memory(view, buf) for buf in store._slots)


class TestServedLikeGets:
    RUN = [(5, (), False), (1, (5,), False), (2, (1, 5), True),
           (6, (2,), False), (1, (), False)]

    def test_counters_residency_and_bytes_match_one_get_each(self, closing):
        batched = filled(closing(AncestralVectorStore(8, SHAPE, num_slots=4)))
        serial = filled(closing(AncestralVectorStore(8, SHAPE, num_slots=4)))
        views = batched.get_many(self.RUN)
        for access in self.RUN:
            serial.get(*access)
        assert batched.stats._counters() == serial.stats._counters()
        assert batched.resident_items() == serial.resident_items()
        for (item, _, write_only), view in zip(self.RUN, views):
            assert lent(view, batched)
            if not write_only:
                assert view[0] == item + 10
        batched.validate()

    def test_get_is_a_run_of_one(self, closing):
        store = filled(closing(AncestralVectorStore(8, SHAPE, num_slots=3)))
        (view,) = store.get_many([(0, (), False)])
        assert view[0] == 10 and lent(view, store)
        assert np.shares_memory(store.get(0), view)

    def test_an_empty_run_is_nothing(self, closing):
        store = closing(AncestralVectorStore(8, SHAPE, num_slots=3))
        assert store.get_many([]) == []
        assert store.stats.requests == 0


class TestEvictedBeforeTheRunEnds:
    """LRU, 3 slots: the fourth distinct unpinned item evicts the first."""

    def test_a_read_item_is_a_private_copy_of_its_bytes(self, closing):
        store = filled(closing(AncestralVectorStore(8, SHAPE, num_slots=3)))
        views = store.get_many([(1, (), False), (2, (), False),
                                (3, (), False), (4, (), False)])
        assert not store.is_resident(1)
        assert not lent(views[0], store) and views[0][0] == 11
        assert all(lent(v, store) for v in views[1:])
        assert [v[0] for v in views[1:]] == [12, 13, 14]
        assert store.fill_spills == 0
        store.validate()

    def test_a_dirty_read_item_evicted_by_a_read_keeps_its_bytes(
            self, closing):
        """The victim is written out and the next item read into the same
        slot: the view handed back is the victim's bytes, not the read's."""
        store = filled(closing(AncestralVectorStore(8, SHAPE, num_slots=3)))
        # residents 5, 6, 7 (dirty): the run reads 5, then 0, 1 and 2 evict
        # 6, 7 and 5, each written out before its slot is read into
        views = store.get_many([(5, (), False), (0, (), False),
                                (1, (), False), (2, (), False)])
        assert not store.is_resident(5)
        assert store.stats.writes == 5 + 3 and store.stats.reads == 3
        assert not lent(views[0], store) and views[0][0] == 15
        assert [v[0] for v in views[1:]] == [10, 11, 12]
        store.validate()

    def test_a_write_only_target_is_none_and_lands_through_fill(self, closing):
        store = filled(closing(AncestralVectorStore(8, SHAPE, num_slots=3)))
        views = store.get_many([(1, (), True), (2, (), False),
                                (3, (), False), (4, (), False)])
        assert views[0] is None
        store.fill(1, np.full(2, 99.0))
        assert store.fill_spills == 1
        assert store.read_item(1)[0] == 99.0
        store.validate()

    def test_by_a_prefetch_load_while_the_lock_is_left(self, closing):
        backing = GatedReads(8, SHAPE)
        store = filled(closing(AncestralVectorStore(
            8, SHAPE, num_slots=3, backing=backing)))
        # residents 5, 6, 7: the run lends 6, then misses on 0 pinning 5
        # — evicting 7 — and waits at the gate for 0's read.
        views = []
        demand = threading.Thread(target=lambda: views.extend(
            store.get_many([(6, (), False), (0, (5,), False)])))
        backing.shut()
        demand.start()
        try:
            assert backing.started.acquire(timeout=10.0)
            # Only 6 is neither in flight nor shielded by the access
            # being served: the prefetch load takes its slot.
            loader = threading.Thread(target=store.prefetch_load, args=(1,))
            loader.start()
            assert backing.started.acquire(timeout=10.0)
        finally:
            backing.gate.set()
        demand.join(timeout=10.0)
        loader.join(timeout=10.0)
        assert not demand.is_alive() and not loader.is_alive()
        assert not store.is_resident(6) and store.is_resident(1)
        assert not lent(views[0], store) and views[0][0] == 16
        assert lent(views[1], store) and views[1][0] == 10
        store.validate()


class TestSanitizer:
    def test_a_lent_view_raises_once_a_later_run_recycles_its_slot(
            self, closing):
        store = closing(AncestralVectorStore(8, SHAPE, num_slots=3,
                                             sanitize=True))
        views = store.get_many([(0, (), True), (1, (), True), (2, (), True)])
        assert all(isinstance(v, BorrowedSlotView) for v in views)
        store.get_many([(3, (), True), (4, (), True), (5, (), True)])
        for view in views:
            with pytest.raises(BorrowError, match="use-after-evict"):
                _ = view[0]

    def test_a_private_copy_is_a_plain_array_that_stays_valid(self, closing):
        store = filled(closing(AncestralVectorStore(
            8, SHAPE, num_slots=3, sanitize=True)))
        views = store.get_many([(1, (), False), (2, (), False),
                                (3, (), False), (4, (), False)])
        assert type(views[0]) is np.ndarray and views[0][0] == 11
        assert all(isinstance(v, BorrowedSlotView) for v in views[1:])
        store.get_many([(5, (), False), (6, (), False), (7, (), False)])
        assert views[0][0] == 11
        with pytest.raises(BorrowError):
            _ = views[1][0]


class TestAFailingTransfer:
    """Before the failing access: committed. The failing access: rolled
    back as a failed ``get`` is. After it: never happened."""

    RUN = [(0, (), False), (3, (), False), (4, (), False), (5, (), False)]

    def store(self, closing):
        flaky = FlakyBackingStore(MemoryBackingStore(8, SHAPE))
        store = closing(AncestralVectorStore(8, SHAPE, num_slots=3,
                                             backing=flaky))
        for item in range(3):
            store.get(item, write_only=True)[:] = item + 10
        return store, flaky

    def test_a_failed_read(self, closing):
        store, flaky = self.store(closing)
        requests = store.stats.requests
        # 0 hits; 3 evicts 1 and reads; 4 evicts 2, its read fails.
        flaky.fail_reads_at = {flaky.read_calls + 2}
        with pytest.raises(BackingStoreError, match="injected read"):
            store.get_many(self.RUN)
        assert store.stats.requests == requests + 3
        assert sorted(store.resident_items()) == [0, 3]
        assert len(store._free) == 1       # 2's eviction stands
        assert not store._spilled and store._run % 2 == 0
        store.validate()
        assert store.read_item(2)[0] == 12
        flaky.fail_reads_at = set()
        assert [v[0] for v in store.get_many(self.RUN)] == [10, 0, 0, 0]
        store.validate()

    def test_a_failed_write(self, closing):
        store, flaky = self.store(closing)
        requests = store.stats.requests
        # 0 hits; 3 evicts 1; 4's victim 2 cannot be written.
        flaky.fail_writes_at = {flaky.write_calls + 2}
        with pytest.raises(BackingStoreError, match="injected write"):
            store.get_many(self.RUN)
        assert store.stats.requests == requests + 3
        assert sorted(store.resident_items()) == [0, 2, 3]
        assert store.read_item(2)[0] == 12   # kept its slot and bytes
        store.validate()


class TestRelayedThroughAWrappedGet:
    """An instrument that wraps the instance's ``get`` (the benchmark's
    span tracer does) sees every access of a run, and the run's views
    follow the same rule."""

    RUN = [(1, (), True), (2, (), False), (3, (), False), (4, (), False)]

    def wrapped(self, store):
        seen = []
        inner = store.get

        def get(item, pins=(), write_only=False):
            seen.append((item, tuple(pins), write_only))
            return inner(item, pins=pins, write_only=write_only)

        store.get = get
        return seen

    def test_the_wrapper_sees_each_access_and_the_views_are_unchanged(
            self, closing):
        plain = filled(closing(AncestralVectorStore(8, SHAPE, num_slots=3)))
        relayed = filled(closing(AncestralVectorStore(8, SHAPE, num_slots=3)))
        seen = self.wrapped(relayed)
        want = plain.get_many(self.RUN)
        got = relayed.get_many(self.RUN)
        assert seen == self.RUN
        assert relayed.stats._counters() == plain.stats._counters()
        assert relayed.resident_items() == plain.resident_items()
        # 4 evicts 1, a write-only target: None, as without the relay
        assert got[0] is None and want[0] is None
        assert all(lent(v, relayed) for v in got[1:])
        assert [v[0] for v in got[1:]] == [v[0] for v in want[1:]] == [12, 13, 14]
        assert relayed._relay is None and relayed._run % 2 == 0
        relayed.validate()
        relayed.get(5)                      # a direct get: seen once
        assert seen[len(self.RUN):] == [(5, (), False)]

    def test_a_failing_access_ends_the_relay(self, closing):
        flaky = FlakyBackingStore(MemoryBackingStore(8, SHAPE))
        store = filled(closing(AncestralVectorStore(
            8, SHAPE, num_slots=3, backing=flaky)))
        seen = self.wrapped(store)
        flaky.fail_reads_at = {flaky.read_calls + 1}
        with pytest.raises(BackingStoreError, match="injected read"):
            store.get_many(self.RUN)
        assert seen == self.RUN[:2]       # 1 skips its read; 2's fails
        assert store._relay is None and store._run % 2 == 0
        assert not store._spilled
        store.validate()
        del store.get
        assert [v[0] for v in store.get_many(self.RUN)[1:]] == [12, 13, 14]


def test_the_run_is_shielded_from_prefetch_until_the_next_demand_call(closing):
    store = filled(closing(AncestralVectorStore(8, SHAPE, num_slots=4)))
    # residents 4, 5, 6, 7; the run touches 4 and 6 and pins 5
    store.get_many([(4, (5,), False), (6, (4,), False)])
    assert store.prefetch_load(0)
    assert sorted(store.resident_items()) == [0, 4, 5, 6]
    assert not store.prefetch_load(1)     # nothing unshielded is left
    store.get(0)
    assert store.prefetch_load(1)


def test_runs_beside_three_prefetch_workers_keep_every_byte(closing):
    """More prefetch workers than cores and a short switch interval: the
    lock a run leaves for its transfers is where the workers get in, and
    every view — lent, private copy or ``None`` landed through ``fill``
    — still carries the newest bytes."""
    store = closing(AncestralVectorStore(24, SHAPE, num_slots=6))
    prefetcher = ThreadedPrefetcher(store, depth=6, workers=3)
    rng = np.random.default_rng(11)
    contents: dict[int, float] = {}
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        deadline = time.monotonic() + 30.0
        for step in range(200):
            assert time.monotonic() < deadline
            a, b, c, t, u = (int(x) for x in rng.permutation(24)[:5])
            run = [(a, (b, t), False), (b, (a, t), False), (t, (a, b), True),
                   (c, (u,), False), (u, (c,), True)]
            prefetcher.feed(run)
            views = store.get_many(run)
            for (item, _, write_only), view in zip(run, views):
                if not write_only:
                    assert view[0] == contents.get(item, 0.0)
            for (item, _, write_only), view in zip(run, views):
                if write_only:
                    contents[item] = float(step * 100 + item + 1)
                    if view is None:
                        store.fill(item, np.full(2, contents[item]))
                    else:
                        view[:] = contents[item]
    finally:
        sys.setswitchinterval(before)
        prefetcher.stop()
    assert not any(t.is_alive() for t in prefetcher._threads)
    store.validate()
    for item, value in contents.items():
        assert store.read_item(item)[0] == value
