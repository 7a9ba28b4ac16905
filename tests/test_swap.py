"""The synchronous miss as one overlapped swap (``writeback_depth == 0``).

A miss that owes both transfers writes its victim out on the swap helper
while the calling thread reads the item in. These tests hold what must
*not* change — every counter and the victim sequence (parity with the
serial state machine, ``simulate_policy_on_trace``), the bytes — and the
one new interleaving: a prefetch thread asking for the victim while its
write is still open. Failure handling lives in
``tests/test_failure_injection.py``.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backing import MemoryBackingStore
from repro.core.layout import SiteBlockLayout, WholeVectorLayout
from repro.core.policies import policy_names
from repro.core.trace import AccessTrace, simulate_policy_on_trace
from repro.core.vecstore import AncestralVectorStore
from repro.obs import Observer
from tests.test_async_io import GatedBackingStore

JOIN_S = 10.0


def store_threads(baseline):
    """Names of the live threads a store (or its write-behind queue or
    prefetcher) started since ``baseline = set(threading.enumerate())``.
    By identity, not by name: an earlier test's unclosed store may still
    own a helper of the same name until it is collected."""
    return sorted(t.name for t in threading.enumerate()
                  if t not in baseline
                  and t.name.startswith(("vecstore-swap", "writeback-",
                                         "prefetcher")))


# ---------------------------------------------------------------------------
# parity: counters against the serial state machine, bytes against a dict

LAYOUTS = {
    "whole": WholeVectorLayout(12, (5, 2)),          # 12 items of (5, 2)
    "block": SiteBlockLayout(4, (5, 2), 2),          # 4 nodes x 3 blocks of (2, 2)
}
COUNTERS = ("requests", "hits", "misses", "reads", "read_skips", "writes",
            "write_skips")

accesses = st.lists(
    st.tuples(st.integers(0, 11),                       # item
              st.booleans(),                            # write_only
              st.lists(st.integers(0, 11), max_size=2)  # pins
              ),
    min_size=1, max_size=150)


@settings(max_examples=40, deadline=None)
@given(accesses, st.sampled_from(policy_names()), st.sampled_from(sorted(LAYOUTS)),
       st.integers(3, 6), st.booleans(), st.booleans())
def test_counters_and_bytes_equal_the_serial_model(
        workload, policy, layout_name, num_slots, read_skipping, track_dirty):
    layout = LAYOUTS[layout_name]
    n = layout.num_items
    kwargs = {"random": {"seed": 5},
              "topological": {"distance_provider":
                              lambda req: np.abs(np.arange(n) - req)}
              }.get(policy, {})
    trace = AccessTrace(n)
    for item, write_only, pins in workload:
        trace.record(item, tuple(p for p in pins if p != item), write_only)
    backing = MemoryBackingStore.from_layout(layout)
    store = AncestralVectorStore(
        layout=layout, num_slots=num_slots, policy=policy,
        policy_kwargs=kwargs, backing=backing, read_skipping=read_skipping,
        track_dirty=track_dirty)
    if policy == "belady":
        store.policy.load_future(trace.items())
    model = {}
    try:
        for step, ev in enumerate(trace.events):
            view = store.get(ev.item, ev.pins, ev.write_only)
            if ev.write_only:
                view[...] = float(step + 1)
                model[ev.item] = float(step + 1)
            elif ev.item in model:
                np.testing.assert_array_equal(view, model[ev.item])
            store.validate()
        expected = simulate_policy_on_trace(
            trace, num_slots, policy, read_skipping=read_skipping,
            track_dirty=track_dirty, policy_kwargs=kwargs).as_row()
        got = store.stats.as_row()
        assert {k: got[k] for k in COUNTERS} == {k: expected[k] for k in COUNTERS}
        assert got["bytes_read"] == got["reads"] * store.item_bytes
        assert got["bytes_written"] == got["writes"] * store.item_bytes
        # synchronous: nothing is in flight, so the backing already holds
        # every evicted vector; flushing the residents completes it
        store.flush(force=True)
        out = np.empty(layout.item_shape)
        for item, value in model.items():
            backing.read(item, out)
            np.testing.assert_array_equal(out, value)
    finally:
        store.close()


# ---------------------------------------------------------------------------
# the one new interleaving: prefetch_load(victim) while its write is open

class TestPrefetchOfAVictimInFlight:
    def test_never_loads_stale_bytes(self):
        n, m, shape = 8, 3, (6,)
        gated = GatedBackingStore(MemoryBackingStore(n, shape))
        store = AncestralVectorStore(n, shape, num_slots=m, policy="lru",
                                     backing=gated)
        try:
            for i in range(m):
                store.get(i, write_only=True)[:] = 1.0     # generation 1
            store.flush()
            store.get(0)[:] = 2.0                          # generation 2, in RAM only
            store.mark_dirty(0)
            store.get(1), store.get(2)                     # 0 is the LRU victim
            gated.gate.clear()
            gated.write_started.clear()
            result = {}
            main = threading.Thread(
                target=lambda: result.setdefault("view", store.get(5)))
            main.start()
            assert gated.write_started.wait(JOIN_S)        # 0's write is open
            # The backing still holds generation 1 of item 0. A prefetch of
            # it now must be refused, not served from the backing store.
            attempts = [store.prefetch_load(0) for _ in range(3)]
            assert attempts == [False] * 3
            assert store.is_resident(0)                    # in flight, not gone
            assert store.stats.prefetch_reads == 0
            gated.gate.set()
            main.join(JOIN_S)
            assert not main.is_alive() and "view" in result
            assert not store.is_resident(0) and store.is_resident(5)
            # the write has landed: now the prefetch reads generation 2
            assert store.prefetch_load(0) is True
            np.testing.assert_array_equal(store.get(0), 2.0)
            store.validate()
        finally:
            gated.gate.set()
            store.close()

    def test_stress_prefetch_thread_beside_synchronous_swaps(self):
        """More threads than the swap needs, a shortened switch interval:
        every read must still see the newest write (a lost or stale vector
        would break the equality)."""
        import sys
        n, m, shape = 16, 4, (6,)
        store = AncestralVectorStore(n, shape, num_slots=m, policy="lru",
                                     backing=MemoryBackingStore(n, shape),
                                     poison_skipped_reads=True)
        stop = threading.Event()

        def prefetch_worker(seed):
            prng = np.random.default_rng(seed)
            while not stop.is_set():
                store.prefetch_load(int(prng.integers(n)))

        workers = [threading.Thread(target=prefetch_worker, args=(s,))
                   for s in (7, 8, 9)]
        rng = np.random.default_rng(42)
        model = {}
        before = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for w in workers:
                w.start()
            for step in range(3000):
                item = int(rng.integers(n))
                if item in model and rng.random() < 0.6:
                    np.testing.assert_array_equal(store.get(item), model[item])
                else:
                    store.get(item, write_only=True)[:] = float(step + 1)
                    model[item] = float(step + 1)
        finally:
            sys.setswitchinterval(before)
            stop.set()
            for w in workers:
                w.join(JOIN_S)
        assert not any(w.is_alive() for w in workers)
        store.validate()
        for item, value in model.items():
            np.testing.assert_array_equal(store.read_item(item), value)
        assert store.stats.requests == 3000
        store.close()


# ---------------------------------------------------------------------------
# lifecycle: the helper exists only once needed, and close() joins it

class TestHelperLifecycle:
    def test_created_by_the_first_two_transfer_miss_only(self):
        baseline = set(threading.enumerate())
        store = AncestralVectorStore(8, (4,), num_slots=3)
        for i in range(8):                    # read-skipped: one transfer each
            store.get(i, write_only=True)[:] = i
        assert store_threads(baseline) == [] and store._transit is None
        assert store.ram_bytes() == 3 * store.item_bytes
        store.get(0)                          # write-out + read-in
        assert store_threads(baseline) == ["vecstore-swap_0"]
        assert store.ram_bytes() == 3 * store.item_bytes   # transit is staging
        store.close()
        assert store_threads(baseline) == []
        store.close()                         # idempotent
        assert store_threads(baseline) == []

    def test_validate_sees_two_slots_sharing_a_buffer(self):
        """What a wrong rotation would leave behind."""
        from repro.errors import OutOfCoreError
        store = AncestralVectorStore(8, (4,), num_slots=3)
        for i in range(4):
            store.get(i, write_only=True)[:] = i
        store.get(0)                          # one rotation
        store.validate()
        store._slots[0] = store._transit
        with pytest.raises(OutOfCoreError, match="share one buffer"):
            store.validate()
        store.close()

    def test_engine_close_leaves_no_store_thread(self, engine_factory):
        baseline = set(threading.enumerate())
        for kwargs in ({"fraction": 1.0}, {"num_slots": 3},
                       {"num_slots": 4, "writeback_depth": 2,
                        "prefetch_depth": 2}):
            engine = engine_factory(**kwargs)
            engine.full_traversals(2)
            if kwargs == {"fraction": 1.0}:
                assert store_threads(baseline) == []   # never started one
            engine.close()
            assert store_threads(baseline) == [], kwargs
            engine.close()
            assert store_threads(baseline) == [], kwargs

    def test_constructor_that_raised_leaves_no_thread(self, engine_factory):
        from repro.errors import OutOfCoreError, ReproError
        baseline = set(threading.enumerate())
        with pytest.raises(OutOfCoreError):
            AncestralVectorStore(8, (4,), num_slots=3, writeback_depth=2,
                                 io_threads=0)
        with pytest.raises(ReproError):
            engine_factory(num_slots=4, writeback_depth=2, prefetch_depth=-1)
        assert store_threads(baseline) == []

    def test_closed_store_refuses_to_restart_the_helper(self):
        from repro.errors import OutOfCoreError
        baseline = set(threading.enumerate())
        store = AncestralVectorStore(8, (4,), num_slots=3)
        for i in range(3):
            store.get(i, write_only=True)
        store.close()
        with pytest.raises(OutOfCoreError, match="closed"):
            store.get(5)
        assert store_threads(baseline) == []
        store.validate()                      # and nothing left in flight


# ---------------------------------------------------------------------------
# reporting: one `swap` per two-transfer miss, through ROUTES

def test_each_overlapped_swap_is_reported_once():
    n, m = 8, 3
    store = AncestralVectorStore(n, (4,), num_slots=m)
    obs = Observer(metrics=True, spans=True)
    store.attach(obs)
    for i in range(n):
        store.get(i, write_only=True)[:] = i        # evictions, no reads
    for i in range(n):
        store.get(i)                                # n two-transfer misses
    hist = obs.metrics.snapshot()["histograms"]["swap_hidden_seconds"]
    assert hist["count"] == obs.spans.by_name()["swap"] == n
    assert store.stats.reads == n
    store.close()
