"""Tests for the asynchronous I/O pipeline (write-behind + prefetch thread).

Covers the :class:`~repro.core.writebehind.WriteBehindQueue` invariants
(coalescing, read-your-writes, back-pressure, drain barrier, fault
handling), the store integration (staged evictions stay readable, flush
and close act as barriers), the :class:`~repro.core.prefetch.ThreadedPrefetcher`,
and the acceptance-level concurrency stress test: ≥10k interleaved
get/evict/prefetch operations with ``poison_skipped_reads=True`` must leave
every vector bit-identical to an all-in-RAM reference.
"""

import threading
import time

import numpy as np
import pytest

from repro import LikelihoodEngine, RateModel
from repro.core.backing import MemoryBackingStore
from repro.core.prefetch import ThreadedPrefetcher
from repro.core.vecstore import AncestralVectorStore
from repro.core.writebehind import WriteBehindQueue
from repro.errors import BackingStoreError, OutOfCoreError

SHAPE = (6,)
DTYPE = np.float64


def vec(value):
    return np.full(SHAPE, float(value), dtype=DTYPE)


class GatedBackingStore:
    """Backing store whose writes block until the test opens a gate."""

    def __init__(self, inner):
        self.inner = inner
        self.gate = threading.Event()
        self.gate.set()
        self.write_started = threading.Event()
        self.write_calls = 0

    def read(self, item, out):
        self.inner.read(item, out)

    def write(self, item, data):
        self.write_started.set()
        self.gate.wait(timeout=10.0)
        self.write_calls += 1
        self.inner.write(item, data)

    def flush(self):
        self.inner.flush()

    def close(self):
        self.inner.close()


class FlakyWriteBackingStore:
    """Fails the first ``fail_first`` writes, then recovers."""

    def __init__(self, inner, fail_first=1):
        self.inner = inner
        self.write_calls = 0
        self.fail_first = fail_first

    def read(self, item, out):
        self.inner.read(item, out)

    def write(self, item, data):
        self.write_calls += 1
        if self.write_calls <= self.fail_first:
            raise BackingStoreError(f"injected write failure #{self.write_calls}")
        self.inner.write(item, data)

    def flush(self):
        self.inner.flush()

    def close(self):
        self.inner.close()


def gated_queue(n=8, depth=4, io_threads=1):
    backing = GatedBackingStore(MemoryBackingStore(n, SHAPE, DTYPE))
    return WriteBehindQueue(backing, SHAPE, DTYPE, depth=depth,
                            io_threads=io_threads), backing


class TestWriteBehindQueue:
    def test_configuration_validated(self):
        backing = MemoryBackingStore(4, SHAPE, DTYPE)
        with pytest.raises(OutOfCoreError, match="depth"):
            WriteBehindQueue(backing, SHAPE, DTYPE, depth=0)
        with pytest.raises(OutOfCoreError, match="thread"):
            WriteBehindQueue(backing, SHAPE, DTYPE, io_threads=0)

    def test_put_drain_makes_data_durable(self):
        inner = MemoryBackingStore(8, SHAPE, DTYPE)
        q = WriteBehindQueue(inner, SHAPE, DTYPE, depth=4)
        for i in range(8):
            q.put(i, vec(i + 1))
        q.drain()
        assert q.pending() == 0
        out = np.empty(SHAPE, DTYPE)
        for i in range(8):
            inner.read(i, out)
            np.testing.assert_array_equal(out, vec(i + 1))
        assert q.stats.writeback_writes == 8
        assert q.stats.writeback_bytes == 8 * q.item_bytes
        q.close()

    def test_coalescing_writes_only_newest(self):
        q, backing = gated_queue()
        backing.gate.clear()
        q.put(0, vec(10))                     # writer picks this up and blocks
        assert backing.write_started.wait(timeout=5.0)
        q.put(1, vec(1))
        q.put(1, vec(2))                      # queued, not writing -> coalesce
        assert q.pending() == 2
        backing.gate.set()
        q.drain()
        assert backing.write_calls == 2       # item 1 written exactly once
        assert q.stats.writeback_writes == 2
        out = np.empty(SHAPE, DTYPE)
        backing.inner.read(1, out)
        np.testing.assert_array_equal(out, vec(2))
        q.close()

    def test_read_your_writes_until_durable(self):
        q, backing = gated_queue()
        backing.gate.clear()
        q.put(3, vec(7))
        assert backing.write_started.wait(timeout=5.0)
        out = np.zeros(SHAPE, DTYPE)
        # mid-write: the staged copy must still serve reads
        assert q.read_into(3, out)
        np.testing.assert_array_equal(out, vec(7))
        backing.gate.set()
        q.drain()
        assert not q.read_into(3, out)        # durable -> staging entry gone
        q.close()

    def test_backpressure_blocks_and_counts_stall(self):
        q, backing = gated_queue(depth=1)
        backing.gate.clear()
        q.put(0, vec(1))                      # fills the single staging slot
        blocked_done = threading.Event()

        def blocked_put():
            q.put(1, vec(2))
            blocked_done.set()

        t = threading.Thread(target=blocked_put)
        t.start()
        assert not blocked_done.wait(timeout=0.2)   # genuinely blocked
        assert q.stats.writeback_stalls == 1
        backing.gate.set()
        assert blocked_done.wait(timeout=5.0)
        t.join()
        q.drain()
        assert q.stats.writeback_writes == 2
        q.close()

    def test_restage_while_writing_lands_newest_version(self):
        q, backing = gated_queue()
        backing.gate.clear()
        q.put(5, vec(1))
        assert backing.write_started.wait(timeout=5.0)
        staged = threading.Event()

        def restage():
            q.put(5, vec(2))                  # same item is mid-write: waits
            staged.set()

        t = threading.Thread(target=restage)
        t.start()
        assert not staged.wait(timeout=0.2)
        backing.gate.set()
        assert staged.wait(timeout=5.0)
        t.join()
        q.drain()
        out = np.empty(SHAPE, DTYPE)
        backing.inner.read(5, out)
        np.testing.assert_array_equal(out, vec(2))  # newest version wins
        assert q.stats.writeback_writes == 2
        q.close()

    def test_write_error_surfaces_on_drain_then_retries(self):
        inner = MemoryBackingStore(4, SHAPE, DTYPE)
        flaky = FlakyWriteBackingStore(inner, fail_first=1)
        q = WriteBehindQueue(flaky, SHAPE, DTYPE, depth=4)
        q.put(2, vec(9))
        with pytest.raises(BackingStoreError, match="injected"):
            q.drain()
        # the data was kept staged; a second drain retries and succeeds
        q.drain()
        assert q.pending() == 0
        out = np.empty(SHAPE, DTYPE)
        inner.read(2, out)
        np.testing.assert_array_equal(out, vec(9))
        q.close()

    def test_close_drains_and_rejects_further_puts(self):
        inner = MemoryBackingStore(4, SHAPE, DTYPE)
        q = WriteBehindQueue(inner, SHAPE, DTYPE, depth=2)
        q.put(1, vec(4))
        q.close()
        out = np.empty(SHAPE, DTYPE)
        inner.read(1, out)
        np.testing.assert_array_equal(out, vec(4))
        with pytest.raises(OutOfCoreError, match="closed"):
            q.put(0, vec(1))


def async_store(n=12, m=4, backing=None, **kwargs):
    kwargs.setdefault("writeback_depth", 4)
    return AncestralVectorStore(
        n, SHAPE, dtype=DTYPE, num_slots=m, policy="lru",
        backing=backing if backing is not None
        else MemoryBackingStore(n, SHAPE, DTYPE),
        **kwargs,
    )


class TestStoreWithWriteBehind:
    def test_eviction_stages_and_get_reads_staged_copy(self):
        backing = GatedBackingStore(MemoryBackingStore(12, SHAPE, DTYPE))
        store = async_store(backing=backing, writeback_depth=8)
        backing.gate.clear()
        for i in range(5):                    # m=4 -> evicts item 0
            store.get(i, write_only=True)[:] = i + 1
        assert store.writeback.pending() >= 1
        # demand re-read of the evicted item must see the staged version
        np.testing.assert_array_equal(store.get(0), vec(1))
        assert store.stats.writeback_read_hits >= 1
        backing.gate.set()
        store.close()

    def test_flush_is_a_drain_barrier(self):
        backing = GatedBackingStore(MemoryBackingStore(12, SHAPE, DTYPE))
        store = async_store(backing=backing, writeback_depth=8)
        backing.gate.clear()
        for i in range(6):
            store.get(i, write_only=True)[:] = i + 1
        flushed = threading.Event()

        def flush():
            store.flush()
            flushed.set()

        t = threading.Thread(target=flush)
        t.start()
        assert not flushed.wait(timeout=0.2)  # blocked on the un-drained queue
        backing.gate.set()
        assert flushed.wait(timeout=5.0)
        t.join()
        assert store.writeback.pending() == 0
        out = np.empty(SHAPE, DTYPE)
        for i in range(6):
            backing.inner.read(i, out)
            np.testing.assert_array_equal(out, vec(i + 1))
        store.close()

    def test_coalesced_evictions_fewer_physical_writes(self):
        backing = GatedBackingStore(MemoryBackingStore(12, SHAPE, DTYPE))
        store = async_store(m=3, backing=backing, writeback_depth=8)
        backing.gate.clear()
        for item in (0, 1, 2):
            store.get(item, write_only=True)[:] = item
        store.get(3, write_only=True)[:] = 3   # evicts 0; the writer grabs it
        assert backing.write_started.wait(timeout=5.0)
        # With the single writer stuck on item 0, later evictions of the
        # same items coalesce in the staging buffer.
        for round_no in range(1, 4):
            for item in (1, 2, 3, 4):
                store.get(item, write_only=True)[:] = 10 * round_no + item
        demand_writes = store.stats.writes
        backing.gate.set()
        store.drain()
        assert store.stats.writeback_writes < demand_writes
        np.testing.assert_array_equal(store.read_item(4), vec(34))
        store.close()

    def test_failed_demand_read_recovers_with_writeback(self):
        class FlakyReadBackingStore:
            def __init__(self, inner):
                self.inner = inner
                self.fail_next_read = False

            def read(self, item, out):
                if self.fail_next_read:
                    self.fail_next_read = False
                    raise BackingStoreError("injected read failure")
                self.inner.read(item, out)

            def write(self, item, data):
                self.inner.write(item, data)

            def flush(self):
                self.inner.flush()

            def close(self):
                self.inner.close()

        backing = FlakyReadBackingStore(MemoryBackingStore(12, SHAPE, DTYPE))
        store = async_store(backing=backing)
        for i in range(12):
            store.get(i, write_only=True)[:] = i + 1
        store.drain()
        backing.fail_next_read = True
        with pytest.raises(BackingStoreError, match="injected"):
            store.get(0)
        store.validate()
        np.testing.assert_array_equal(store.get(0), vec(1))  # recovered
        store.validate()
        store.close()

    def test_close_drains(self):
        inner = MemoryBackingStore(12, SHAPE, DTYPE)
        store = async_store(backing=inner)
        for i in range(6):
            store.get(i, write_only=True)[:] = i + 1
        assert store.writeback is not None
        store.close()
        # the staged evictions became durable before the backing closed
        np.testing.assert_array_equal(inner._data[0], vec(1))
        np.testing.assert_array_equal(inner._data[1], vec(2))


class TestThreadedPrefetcher:
    def _warm(self, store):
        for i in range(store.num_items):
            store.get(i, write_only=True)[:] = i + 1
        store.evict_all()
        store.stats.reset()
        return [(i, (), False) for i in range(store.num_items)]

    def _wait(self, predicate, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.005)
        return predicate()

    def test_depth_validated_and_feed_after_stop(self):
        store = AncestralVectorStore(8, SHAPE, num_slots=4)
        with pytest.raises(OutOfCoreError, match="depth"):
            ThreadedPrefetcher(store, depth=0)
        pf = ThreadedPrefetcher(store, depth=2)
        pf.stop()
        pf.stop()  # idempotent
        with pytest.raises(OutOfCoreError, match="stopped"):
            pf.feed([(0, (), False)])

    def test_loads_ahead_and_demand_hits(self):
        store = AncestralVectorStore(12, SHAPE, num_slots=4, policy="lru")
        schedule = self._warm(store)
        pf = ThreadedPrefetcher(store, depth=3)
        try:
            pf.feed(schedule)
            assert self._wait(lambda: store.stats.prefetch_reads >= 3)
            for item, pins, write_only in schedule:
                np.testing.assert_array_equal(
                    store.get(item, pins=pins, write_only=write_only),
                    vec(item + 1))
            assert self._wait(pf.idle)
        finally:
            pf.stop()
        s = store.stats
        assert s.prefetch_hits > 0
        assert s.requests == 12
        assert s.hits + s.misses == 12
        store.validate()

    def test_demand_counters_as_if_no_prefetch(self):
        self.check_demand_counters_as_if_no_prefetch(workers=1)

    def test_demand_counters_as_if_no_prefetch_two_workers(self):
        self.check_demand_counters_as_if_no_prefetch(workers=2)

    def check_demand_counters_as_if_no_prefetch(self, workers):
        """The threaded prefetcher must not perturb demand totals."""
        def run(threaded):
            store = AncestralVectorStore(12, SHAPE, num_slots=4, policy="lru")
            schedule = self._warm(store)
            pf = (ThreadedPrefetcher(store, depth=3, workers=workers)
                  if threaded else None)
            try:
                if pf:
                    pf.feed(schedule)
                for item, pins, write_only in schedule:
                    store.get(item, pins=pins, write_only=write_only)
            finally:
                if pf:
                    pf.stop()
            return store.stats

        base, pf = run(False), run(True)
        # cold sequential scan: every access misses either way
        assert (pf.requests, pf.misses, pf.reads, pf.read_skips, pf.hits) == \
            (base.requests, base.misses, base.reads, base.read_skips,
             base.hits)
        assert pf.bytes_read == base.bytes_read


class TestConcurrencyStress:
    def test_10k_interleaved_ops_bit_identical(self):
        self.check_10k_interleaved_ops_bit_identical(prefetchers=1)

    def test_10k_interleaved_ops_bit_identical_two_prefetchers(self):
        self.check_10k_interleaved_ops_bit_identical(prefetchers=2)

    def check_10k_interleaved_ops_bit_identical(self, prefetchers):
        """Acceptance: ≥10k interleaved get/evict/prefetch ops with
        poisoned read-skips stay bit-identical to a reference dict."""
        n, m = 24, 6
        store = AncestralVectorStore(
            n, SHAPE, dtype=DTYPE, num_slots=m, policy="lru",
            backing=MemoryBackingStore(n, SHAPE, DTYPE),
            writeback_depth=4, io_threads=2, poison_skipped_reads=True)
        rng = np.random.default_rng(42)
        reference: dict[int, np.ndarray] = {}
        stop = threading.Event()

        def prefetch_worker(seed):
            prng = np.random.default_rng(seed)
            while not stop.is_set():
                store.prefetch_load(int(prng.integers(n)))

        workers = [threading.Thread(target=prefetch_worker, args=(7 + i,))
                   for i in range(prefetchers)]
        for worker in workers:
            worker.start()
        version = 0
        try:
            for step in range(10_000):
                item = int(rng.integers(n))
                if item in reference and rng.random() < 0.6:
                    view = store.get(item)
                    np.testing.assert_array_equal(view, reference[item])
                    if rng.random() < 0.5:
                        version += 1
                        view[:] = version
                        store.mark_dirty(item)
                        reference[item] = vec(version)
                else:
                    version += 1
                    store.get(item, write_only=True)[:] = version
                    reference[item] = vec(version)
                if step % 1000 == 999:
                    store.validate()
        finally:
            stop.set()
            for worker in workers:
                worker.join()
        store.validate()
        store.flush(force=True)
        for item, expected in reference.items():
            np.testing.assert_array_equal(store.read_item(item), expected)
        assert store.stats.requests == 10_000
        store.close()

    def test_engine_bit_identical_with_full_async_pipeline(
            self, small_tree, small_alignment, small_model):
        """Write-behind + threaded prefetch on, likelihoods unchanged."""
        rates = RateModel.gamma(0.8, 4)
        reference = LikelihoodEngine(
            small_tree.copy(), small_alignment, small_model, rates
        ).full_traversals(2)
        engine = LikelihoodEngine(
            small_tree.copy(), small_alignment, small_model, rates,
            fraction=0.25, policy="lru", poison_skipped_reads=True,
            writeback_depth=4, io_threads=2, prefetch_depth=4)
        try:
            assert engine.full_traversals(2) == reference
            # a tree this small keeps children resident until their parent
            # computes, so there are no demand reads to prefetch — but the
            # write-behind path must have carried the eviction traffic
            assert engine.prefetcher is not None
            assert engine.store.stats.writeback_writes > 0
        finally:
            engine.close()

    @pytest.mark.parametrize("io_threads", [1, 2])
    def test_rerooting_bit_identical_whatever_the_prefetch_workers(
            self, io_threads, small_model):
        """Re-rooting over a tree too big for its slots: every operation's
        lnL bits and the request count equal the no-prefetch run's, with
        the prefetch workers really loading (poisoned read-skips armed).
        Which *residents* a load displaces depends on thread timing, so
        misses/read-skips are compared on controlled traces only
        (``TestThreadedPrefetcher``)."""
        from repro import simulate_alignment, yule_tree

        tree = yule_tree(32, seed=3)
        rates = RateModel.gamma(0.8, 4)
        alignment = simulate_alignment(tree, small_model, 120, rates=rates,
                                       seed=1)

        def run(**pipeline):
            engine = LikelihoodEngine(
                tree.copy(), alignment, small_model, rates, num_slots=6,
                poison_skipped_reads=True, writeback_depth=4, **pipeline)
            try:
                lnls = [engine.edge_loglikelihood(u, v)
                        for u, v in list(engine.tree.edges())[::3]]
                engine.store.drain()
                return lnls, engine.stats
            finally:
                engine.close()

        base_lnls, base = run()
        lnls, stats = run(io_threads=io_threads, prefetch_depth=4)
        assert [x.hex() for x in lnls] == [x.hex() for x in base_lnls]
        assert stats.requests == base.requests
        assert stats.prefetch_reads > 0 and base.prefetch_reads == 0
