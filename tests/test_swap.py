"""The synchronous miss as write-then-read (``writeback_depth == 0``).

A miss whose victim is dirty writes the victim out of its slot and then
reads the item into it, both on the calling thread. These tests hold
every counter and the victim sequence (parity with the serial state
machine, ``simulate_policy_on_trace``), the bytes, a prefetch thread
asking for the victim while its write is still open, and that a
synchronous store starts no thread. Failure handling lives in
``tests/test_failure_injection.py``.
"""

import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core.backing import BACKING_KINDS, MemoryBackingStore, make_backing
from repro.core.layout import StorageLayout
from repro.core.policies import policy_names
from repro.core.trace import AccessTrace, simulate_policy_on_trace
from repro.core.vecstore import AncestralVectorStore
from tests.test_async_io import GatedBackingStore

JOIN_S = 10.0


# ---------------------------------------------------------------------------
# parity: counters against the serial state machine, bytes against a dict
# (and each transfer against its item's live rows)

LAYOUTS = {
    "whole": StorageLayout(12, (5, 2)),              # 12 items of (5, 2)
    "block": StorageLayout(4, (5, 2), 2),            # 4 nodes x 3 blocks of (2, 2)
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
    backing = _LoggedBacking.from_layout(layout)

    def live_rows(item):
        lo, hi = layout.item_sites(item)
        return hi - lo

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
                np.testing.assert_array_equal(view[:live_rows(ev.item)],
                                              model[ev.item])
            store.validate()
        expected = simulate_policy_on_trace(
            trace, num_slots, policy, read_skipping=read_skipping,
            track_dirty=track_dirty, policy_kwargs=kwargs).as_row()
        got = store.stats.as_row()
        assert {k: got[k] for k in COUNTERS} == {k: expected[k] for k in COUNTERS}
        # Each transfer moves its item's live rows — a ragged last
        # block's padding stays behind — and the bytes count exactly them.
        for kind, counter in (("read", "bytes_read"),
                              ("write", "bytes_written")):
            moved = [(item, nbytes) for op, item, nbytes in backing.log
                     if op == kind]
            assert len(moved) == got[f"{kind}s"]
            assert all(nbytes == live_rows(item) * store.row_bytes
                       for item, nbytes in moved)
            assert got[counter] == sum(n for _, n in moved)
        # synchronous: nothing is in flight, so the backing already holds
        # every evicted vector; flushing the residents completes it
        store.flush(force=True)
        out = np.empty(layout.item_shape)
        for item, value in model.items():
            backing.read(item, out)
            np.testing.assert_array_equal(out[:live_rows(item)], value)
    finally:
        store.close()


class _LoggedBacking(MemoryBackingStore):
    """Logs each transfer as ``(op, item, bytes)``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def _read(self, item, out):
        self.log.append(("read", item, out.nbytes))
        return super()._read(item, out)

    def _write(self, item, data):
        self.log.append(("write", item, data.nbytes))
        return super()._write(item, data)


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
            view = store.get(0)
            store.mark_dirty(0)
            view[:] = 2.0                                  # generation 2, in RAM only
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
# threads: a synchronous store starts none, over its whole life

@pytest.mark.parametrize("kind", BACKING_KINDS)
def test_a_two_transfer_miss_starts_no_thread(kind, tmp_path):
    """On every backing kind, the victim's write and the item's read run
    on the calling thread, and no thread is started from the store's
    construction through ``get_many`` and ``close``."""
    baseline = set(threading.enumerate())

    def started():
        return set(threading.enumerate()) - baseline

    n, shape = 8, (4, 2)
    backing = make_backing(kind, n, shape, path=tmp_path / kind)
    transfers = []
    for op in ("write", "read"):
        def logged(item, buf, op=op, transfer=getattr(backing, op)):
            transfers.append((op, item, threading.current_thread(),
                              started()))
            return transfer(item, buf)
        setattr(backing, op, logged)
    store = AncestralVectorStore(n, shape, num_slots=3, policy="lru",
                                 backing=backing)
    try:
        for item in range(5):             # evicts 0 and 1, dirty
            store.get(item, write_only=True)[:] = item + 1
        assert not started()
        transfers.clear()
        (view,) = store.get_many([(0, (), False)])   # victim 2: both owed
        assert transfers == [("write", 2, threading.current_thread(), set()),
                             ("read", 0, threading.current_thread(), set())]
        np.testing.assert_array_equal(view, 1.0)
        assert not started()
    finally:
        store.close()
    assert not started()
