"""Failure-injection tests: the store must stay consistent under I/O faults.

A flaky backing store raises on a configurable schedule; the vector store
must propagate the error cleanly (no silent corruption) and remain usable
and internally consistent once the fault clears.
"""

import threading

import numpy as np
import pytest

from repro.core.backing import MemoryBackingStore
from repro.core.prefetch import ThreadedPrefetcher
from repro.core.vecstore import AncestralVectorStore
from repro.errors import BackingStoreError

SHAPE = (4,)


class FlakyBackingStore:
    """Wraps a real backing store, failing reads/writes on command."""

    def __init__(self, inner, fail_reads_at=(), fail_writes_at=()):
        self.inner = inner
        self.read_calls = 0
        self.write_calls = 0
        self.fail_reads_at = set(fail_reads_at)
        self.fail_writes_at = set(fail_writes_at)

    def read(self, item, out):
        self.read_calls += 1
        if self.read_calls in self.fail_reads_at:
            raise BackingStoreError(f"injected read failure #{self.read_calls}")
        self.inner.read(item, out)

    def write(self, item, data):
        self.write_calls += 1
        if self.write_calls in self.fail_writes_at:
            raise BackingStoreError(f"injected write failure #{self.write_calls}")
        self.inner.write(item, data)

    def flush(self):
        self.inner.flush()

    def close(self):
        self.inner.close()


@pytest.fixture()
def make_flaky(closing):
    """``(store, flaky)`` over a flaky backing; the store closes with the test."""
    def make(n=8, m=3, **kwargs):
        flaky = FlakyBackingStore(MemoryBackingStore(n, SHAPE), **kwargs)
        store = closing(AncestralVectorStore(n, SHAPE, num_slots=m,
                                             policy="lru", backing=flaky))
        return store, flaky
    return make


class TestReadFailures:
    def test_error_propagates(self, make_flaky):
        store, flaky = make_flaky(fail_reads_at={1})
        with pytest.raises(BackingStoreError, match="injected read"):
            store.get(0, write_only=False)

    def test_store_usable_after_read_failure(self, make_flaky):
        store, flaky = make_flaky(fail_reads_at={2})
        store.get(0, write_only=True)[:] = 1.0
        with pytest.raises(BackingStoreError):
            # fill remaining slots, then this read fails (read #2... force it)
            for i in range(1, 8):
                store.get(i, write_only=False)
        # recover: subsequent accesses succeed and data survives
        v = store.get(0)
        store.validate()

    def test_failed_read_returns_slot_to_free_list(self, make_flaky):
        """A failed swap-in must not leak the slot its victim vacated.

        The victim is evicted (written out) *before* the read is attempted;
        when the read then fails, the slot has no owner and must return to
        the free list so capacity is preserved and the store stays usable.
        """
        store, flaky = make_flaky(n=8, m=3)
        for i in range(3):
            store.get(i, write_only=True)[:] = float(i + 1)
        flaky.fail_reads_at = {flaky.read_calls + 1}
        with pytest.raises(BackingStoreError, match="injected read"):
            store.get(5)
        store.validate()
        assert not store.is_resident(5)
        assert len(store._free) == 1          # the vacated slot came back
        # the fault clears: the same item loads fine into the freed slot
        flaky.fail_reads_at = set()
        store.get(5)
        assert store.is_resident(5)
        store.validate()
        # and the evicted victim's data survived the failed swap-in
        np.testing.assert_array_equal(store.read_item(0), 1.0)

    def test_failed_prefetch_read_rolls_back_like_a_failed_demand_read(
            self, make_flaky):
        """The other rollback: a prefetch whose read fails leaves no trace."""
        store, flaky = make_flaky(n=8, m=3)
        for i in range(3):
            store.get(i, write_only=True)[:] = float(i + 1)
        flaky.fail_reads_at = {flaky.read_calls + 1}
        assert store.prefetch_load(5) is False
        store.validate()              # maps, free list and LRU order agree
        assert not store.is_resident(5)
        assert len(store._free) == 1  # the victim's slot came back
        flaky.fail_reads_at = set()
        assert store.prefetch_load(5) is True
        store.validate()

    def test_failed_prefetch_write_keeps_the_victim_like_a_failed_demand_write(
            self, make_flaky):
        """A prefetch whose victim's write fails returns ``False``: the
        victim keeps its slot, its bytes, its dirt and its place in the
        policy's order, and the read is never issued."""
        store, flaky = make_flaky(n=8, m=3)
        for i in range(3):
            store.get(i, write_only=True)[:] = float(i + 1)
        order = list(store.policy.ordered_items())
        reads = flaky.read_calls
        flaky.fail_writes_at = {flaky.write_calls + 1}
        assert store.prefetch_load(5) is False
        store.validate()
        assert not store.is_resident(5) and store.is_resident(0)
        assert store._dirty[store._item_slot[0]]
        assert list(store.policy.ordered_items()) == order
        assert flaky.read_calls == reads and store.stats.prefetch_reads == 0
        flaky.fail_writes_at = set()
        assert store.prefetch_load(5) is True
        store.validate()
        np.testing.assert_array_equal(store.read_item(0), 1.0)

    def test_a_prefetch_worker_outlives_a_failed_victim_write(
            self, make_flaky):
        """The same failure on a worker's load defers the item; the worker
        stays alive and loads it once the backing recovers and demand
        progresses."""
        store, flaky = make_flaky(n=8, m=3)
        for i in range(3):
            store.get(i, write_only=True)[:] = float(i + 1)
        writes = flaky.write_calls
        flaky.fail_writes_at = set(range(writes + 1, writes + 100))
        pf = ThreadedPrefetcher(store, depth=2)
        try:
            # 2 is resident; 5's load evicts the dirty LRU item 0
            pf.feed([(2, (), False), (5, (), False)])
            with store._cond:
                assert store._cond.wait_for(
                    lambda: flaky.write_calls > writes and not store._inflight,
                    timeout=10.0)
            assert all(t.is_alive() for t in pf._threads)
            store.validate()
            assert store.is_resident(0) and not store.is_resident(5)
            flaky.fail_writes_at = set()
            store.get(2)             # progress: the deferred item is retried
            with store._cond:
                assert store._cond.wait_for(
                    lambda: store.stats.prefetch_reads == 1, timeout=10.0)
            np.testing.assert_array_equal(store.get(5), 0.0)
            assert all(t.is_alive() for t in pf._threads)
        finally:
            pf.stop()
        assert store.stats.prefetch_hits == 1
        store.validate()
        np.testing.assert_array_equal(store.read_item(0), 1.0)

    def test_write_only_path_never_reads(self, make_flaky):
        store, flaky = make_flaky(fail_reads_at=set(range(1, 100)))
        # read skipping: write-only traffic must not touch the read path
        for i in range(8):
            store.get(i, write_only=True)[:] = i
        assert flaky.read_calls == 0


class TestWriteFailures:
    def test_eviction_write_failure_propagates(self, make_flaky):
        store, flaky = make_flaky(fail_writes_at={1})
        for i in range(3):
            store.get(i, write_only=True)[:] = i
        with pytest.raises(BackingStoreError, match="injected write"):
            store.get(3, write_only=True)  # needs an eviction -> write #1

    def test_data_not_lost_on_later_success(self, make_flaky):
        store, flaky = make_flaky(n=8, m=3)
        for i in range(8):
            store.get(i, write_only=True)[:] = float(i)
        for i in range(8):
            np.testing.assert_array_equal(store.get(i), float(i))
        store.validate()


class TestConsistencyUnderChaos:
    def test_random_faults_never_corrupt_mapping(self, rng, closing):
        """Whatever faults occur, the slot/item maps stay coherent."""
        self.chaos("lru", rng, closing)

    @pytest.mark.parametrize("policy", ["fifo", "clock"])
    def test_random_faults_never_corrupt_policy_order(self, policy, rng,
                                                      closing):
        """...and so does the eviction order a policy keeps beside them."""
        self.chaos(policy, rng, closing)

    def chaos(self, policy, rng, closing):
        inner = MemoryBackingStore(10, SHAPE)
        flaky = FlakyBackingStore(inner)
        store = closing(AncestralVectorStore(10, SHAPE, num_slots=4,
                                             policy=policy, backing=flaky))
        faults = 0
        for _ in range(400):
            # schedule a fault on ~10% of operations
            if rng.random() < 0.1:
                flaky.fail_reads_at = {flaky.read_calls + 1}
                flaky.fail_writes_at = {flaky.write_calls + 1}
            else:
                flaky.fail_reads_at = set()
                flaky.fail_writes_at = set()
            item = int(rng.integers(10))
            try:
                store.get(item, write_only=bool(rng.random() < 0.5))
            except BackingStoreError:
                faults += 1
            store.validate()
        assert faults > 0  # chaos actually happened


class TestOverlappedSwapFailures:
    """One miss that owes both transfers: the victim's write, then the
    item's read, both on the calling thread; either — or both — may fail.
    (The name is historical: the two transfers once overlapped.)"""

    N, M = 8, 3

    def full_store(self, make_flaky, **kwargs):
        """Slots full of dirty vectors; the LRU victim is item 0."""
        store, flaky = make_flaky(n=self.N, m=self.M, **kwargs)
        for i in range(self.M):
            store.get(i, write_only=True)[:] = float(i + 1)
        return store, flaky

    def assert_consistent(self, store):
        store.validate()
        assert len(store.resident_items()) + len(store._free) == self.M
        assert not store._inflight
        # the newest bytes of every vector written so far are reachable
        for i in range(self.M):
            np.testing.assert_array_equal(store.read_item(i), float(i + 1))

    @pytest.mark.parametrize("fail", ["write", "read", "both"])
    def test_one_miss_under_each_failure(self, fail, make_flaky):
        store, flaky = self.full_store(make_flaky)
        order = list(store.policy.ordered_items())
        writer = []
        inner_write = flaky.inner.write

        def write_on_record(item, data):
            writer.append(threading.current_thread().name)
            inner_write(item, data)

        flaky.inner.write = write_on_record
        if fail in ("write", "both"):
            flaky.fail_writes_at = {flaky.write_calls + 1}
        if fail in ("read", "both"):
            flaky.fail_reads_at = {flaky.read_calls + 1}
        before = store.stats.as_row()
        # a failed write issues no read
        with pytest.raises(BackingStoreError,
                           match="injected read" if fail == "read"
                           else "injected write"):
            store.get(5)
        assert (flaky.write_calls, flaky.read_calls) == (
            (1, 1) if fail == "read" else (1, 0))
        self.assert_consistent(store)
        assert not store.is_resident(5)
        after = store.stats.as_row()
        assert after["misses"] == before["misses"] + 1
        assert after["reads"] == before["reads"]
        if fail == "read":
            # the eviction stands: written once, slot back on the free list
            assert writer == [threading.current_thread().name]
            assert not store.is_resident(0)
            assert len(store._free) == 1
            assert after["writes"] == before["writes"] + 1
        else:
            # today's contract: the write precedes the bookkeeping, so the
            # victim is still resident and the policy's order untouched
            assert store.is_resident(0)
            assert list(store.policy.ordered_items()) == order
            assert store._free == []
            assert after["writes"] == before["writes"]
        # the fault clears: the same request succeeds
        flaky.fail_reads_at = flaky.fail_writes_at = set()
        store.get(5)
        assert store.is_resident(5) and not store.is_resident(0)
        self.assert_consistent(store)

    def test_failed_write_keeps_the_victims_newest_bytes_in_its_slot(
            self, make_flaky):
        """The read that would overwrite the slot is never issued."""
        store, flaky = self.full_store(make_flaky)
        flaky.inner.write(5, np.full(SHAPE, 55.0))
        flaky.fail_writes_at = {flaky.write_calls + 1}
        with pytest.raises(BackingStoreError, match="injected write"):
            store.get(5)
        np.testing.assert_array_equal(store.get(0), 1.0)   # a hit
        assert store.stats.hits == 1

    def test_crash_in_the_write_surfaces_from_get(self):
        """A ``BaseException`` raised by the victim's write surfaces, and
        the victim stays."""
        from repro.core.faults import FaultInjectingBackingStore, SimulatedCrash
        backing = FaultInjectingBackingStore(
            MemoryBackingStore(self.N, SHAPE), crash_after_writes=0)
        store = AncestralVectorStore(self.N, SHAPE, num_slots=self.M,
                                     policy="lru", backing=backing)
        for i in range(self.M):
            store.get(i, write_only=True)[:] = float(i + 1)
        with pytest.raises(SimulatedCrash):
            store.get(5)
        assert backing.crashes_injected == 1
        store.validate()
        assert store.is_resident(0) and not store.is_resident(5)
        store.close()

    @pytest.mark.parametrize("policy", ["lru", "fifo", "clock", "lfu"])
    def test_chaos_with_reads_after_writes(self, policy, rng, closing):
        """`TestConsistencyUnderChaos` with data: whatever fails, every
        vector reads back as last written."""
        flaky = FlakyBackingStore(MemoryBackingStore(10, SHAPE))
        store = closing(AncestralVectorStore(10, SHAPE, num_slots=4,
                                             policy=policy, backing=flaky))
        model = {}
        faults = 0
        for step in range(600):
            flaky.fail_reads_at = flaky.fail_writes_at = set()
            if rng.random() < 0.15:
                if rng.random() < 0.6:
                    flaky.fail_reads_at = {flaky.read_calls + 1}
                if rng.random() < 0.6:
                    flaky.fail_writes_at = {flaky.write_calls + 1}
            item = int(rng.integers(10))
            write = item not in model or bool(rng.random() < 0.4)
            try:
                view = store.get(item, write_only=write)
            except BackingStoreError:
                faults += 1
            else:
                if write:
                    view[:] = float(step + 1)
                    model[item] = float(step + 1)
                else:
                    np.testing.assert_array_equal(view, model[item])
            store.validate()
        assert faults > 20
        flaky.fail_reads_at = flaky.fail_writes_at = set()
        for item, value in model.items():
            np.testing.assert_array_equal(store.read_item(item), value)
