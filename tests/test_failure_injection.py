"""Failure-injection tests: the store must stay consistent under I/O faults.

A flaky backing store raises on a configurable schedule; the vector store
must propagate the error cleanly (no silent corruption) and remain usable
and internally consistent once the fault clears.
"""

import numpy as np
import pytest

from repro.core.backing import MemoryBackingStore
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


def make_flaky(n=8, m=3, **kwargs):
    flaky = FlakyBackingStore(MemoryBackingStore(n, SHAPE), **kwargs)
    store = AncestralVectorStore(n, SHAPE, num_slots=m, policy="lru",
                                 backing=flaky)
    return store, flaky


class TestReadFailures:
    def test_error_propagates(self):
        store, flaky = make_flaky(fail_reads_at={1})
        with pytest.raises(BackingStoreError, match="injected read"):
            store.get(0, write_only=False)

    def test_store_usable_after_read_failure(self):
        store, flaky = make_flaky(fail_reads_at={2})
        store.get(0, write_only=True)[:] = 1.0
        with pytest.raises(BackingStoreError):
            # fill remaining slots, then this read fails (read #2... force it)
            for i in range(1, 8):
                store.get(i, write_only=False)
        # recover: subsequent accesses succeed and data survives
        v = store.get(0)
        store.validate()

    def test_failed_read_returns_slot_to_free_list(self):
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

    def test_failed_prefetch_read_rolls_back_like_a_failed_demand_read(self):
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

    def test_write_only_path_never_reads(self):
        store, flaky = make_flaky(fail_reads_at=set(range(1, 100)))
        # read skipping: write-only traffic must not touch the read path
        for i in range(8):
            store.get(i, write_only=True)[:] = i
        assert flaky.read_calls == 0


class TestWriteFailures:
    def test_eviction_write_failure_propagates(self):
        store, flaky = make_flaky(fail_writes_at={1})
        for i in range(3):
            store.get(i, write_only=True)[:] = i
        with pytest.raises(BackingStoreError, match="injected write"):
            store.get(3, write_only=True)  # needs an eviction -> write #1

    def test_data_not_lost_on_later_success(self):
        store, flaky = make_flaky(n=8, m=3)
        for i in range(8):
            store.get(i, write_only=True)[:] = float(i)
        for i in range(8):
            np.testing.assert_array_equal(store.get(i), float(i))
        store.validate()


class TestConsistencyUnderChaos:
    def test_random_faults_never_corrupt_mapping(self, rng):
        """Whatever faults occur, the slot/item maps stay coherent."""
        self.chaos("lru", rng)

    @pytest.mark.parametrize("policy", ["fifo", "clock"])
    def test_random_faults_never_corrupt_policy_order(self, policy, rng):
        """...and so does the eviction order a policy keeps beside them."""
        self.chaos(policy, rng)

    def chaos(self, policy, rng):
        inner = MemoryBackingStore(10, SHAPE)
        flaky = FlakyBackingStore(inner)
        store = AncestralVectorStore(10, SHAPE, num_slots=4, policy=policy,
                                     backing=flaky)
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
