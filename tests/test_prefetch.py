"""Tests for traversal-order prefetching (the paper's §5 future work)."""

import sys
import threading

import pytest

from repro import LikelihoodEngine, RateModel
from repro.core.backing import MemoryBackingStore, SimulatedDiskBackingStore
from repro.core.layout import make_layout
from repro.core.prefetch import Prefetcher, ThreadedPrefetcher
from repro.core.vecstore import AncestralVectorStore
from repro.errors import OutOfCoreError, PinnedSlotError
from repro.obs import Observer
from repro.phylo.likelihood.engine import clv_geometry
from repro.phylo.likelihood.partitioned import (
    PartitionedEngine,
    split_alignment,
)

SHAPE = (4, 2, 4)


def store_with_disk(n=12, m=4):
    disk = SimulatedDiskBackingStore(n, SHAPE)
    return AncestralVectorStore(n, SHAPE, num_slots=m, policy="lru",
                                backing=disk), disk


class TestConfiguration:
    def test_depth_validated(self):
        store, _ = store_with_disk()
        with pytest.raises(OutOfCoreError, match="depth"):
            Prefetcher(store, depth=0)

    def test_overlap_validated(self):
        store, _ = store_with_disk()
        with pytest.raises(OutOfCoreError, match="overlap"):
            Prefetcher(store, overlap=1.5)


class TestPrefetching:
    def _warm_schedule(self, store):
        """Fill the backing store and build a read schedule over it."""
        for i in range(store.num_items):
            store.get(i, write_only=True)[:] = i
        store.evict_all()
        store.stats.reset()
        return [(i, (), False) for i in range(store.num_items)]

    def test_reads_issued_ahead_leave_demand_counters_untouched(self):
        """Satellite fix: prefetch traffic lands only in prefetch_*.

        The old implementation routed prefetch loads through ``store.get``,
        so a prefetch inflated requests/misses/reads and corrupted the
        Fig. 2–4 miss/read rates. Now ``run_schedule`` alone must move only
        the prefetch counters; demand hits arrive later, at demand time.
        """
        store, _ = store_with_disk()
        schedule = self._warm_schedule(store)
        pf = Prefetcher(store, depth=3)
        pf.run_schedule(schedule)
        assert store.stats.prefetch_reads > 0
        assert store.stats.requests == 0
        assert store.stats.misses == 0
        assert store.stats.reads == 0
        assert store.stats.hits == 0
        assert store.stats.prefetch_hits == 0
        # The demand traversal then claims its hits-from-prefetch.
        for i in range(store.num_items):
            store.get(i)
        assert store.stats.prefetch_hits > 0
        assert store.stats.requests == store.num_items

    def test_exact_counters_for_fixed_schedule(self):
        """Regression: pin the exact counter values for a fixed schedule.

        n=12, m=4, LRU, cold sequential read schedule, depth-3 prefetch
        interleaved with demand (the way a prefetch thread overlaps a
        traversal). Demand accounting must be *as if the prefetcher did not
        exist*: every access is a miss + read, and every one of them is
        additionally a prefetch_hit because the prefetcher got there first.
        """
        store, _ = store_with_disk()
        schedule = self._warm_schedule(store)
        depth = 3
        for idx, (item, pins, write_only) in enumerate(schedule):
            horizon = schedule[idx: idx + depth]
            protect = {it for it, _, _ in horizon}
            for nxt, _p, nwrite in horizon:
                if not nwrite and not store.is_resident(nxt):
                    store.prefetch_load(nxt, protect=protect)
            store.get(item, pins=pins, write_only=write_only)
        s = store.stats
        assert s.requests == 12
        assert s.misses == 12
        assert s.reads == 12
        assert s.hits == 0
        assert s.prefetch_hits == 12
        assert s.prefetch_reads == 12
        assert s.prefetch_unused == 0
        assert s.writes == 8          # 12 items through 4 slots
        assert s.bytes_read == 12 * store.item_bytes

    def test_demand_rates_match_prefetch_disabled_run(self):
        """Acceptance: miss_rate/read_rate equal the prefetch-free values
        for an identical demand trace."""
        def run(prefetch):
            store, _ = store_with_disk()
            schedule = self._warm_schedule(store)
            # a trace with re-references so hits exist and rates are not 1.0
            trace = schedule + schedule[:6] + schedule[2:8]
            for idx, (item, pins, write_only) in enumerate(trace):
                if prefetch:
                    horizon = trace[idx: idx + 3]
                    protect = {it for it, _, _ in horizon}
                    for nxt, _p, nwrite in horizon:
                        if not nwrite and not store.is_resident(nxt):
                            store.prefetch_load(nxt, protect=protect)
                store.get(item, pins=pins, write_only=write_only)
            return store.stats

        base, pf = run(False), run(True)
        assert pf.requests == base.requests
        assert pf.miss_rate == base.miss_rate
        assert pf.read_rate == base.read_rate
        assert pf.bytes_read == base.bytes_read
        assert pf.prefetch_hits > 0 and base.prefetch_hits == 0

    def test_write_only_items_not_prefetched(self):
        store, _ = store_with_disk()
        self._warm_schedule(store)
        store.evict_all()
        store.stats.reset()
        pf = Prefetcher(store, depth=3)
        pf.run_schedule([(i, (), True) for i in range(store.num_items)])
        assert store.stats.prefetch_reads == 0

    def test_full_overlap_conservation(self):
        """hidden + visible must equal the total I/O cost; with overlap=1.0
        every swap issued inside a prefetch call is fully hidden.

        Physical traffic in a prefetch-only run is ``prefetch_reads`` plus
        any eviction ``writes`` those loads forced — the demand ``reads``
        counter stays at zero (no demand accesses happened).
        """
        store, disk = store_with_disk()
        schedule = self._warm_schedule(store)
        disk.simulated_seconds = 0.0
        pf = Prefetcher(store, depth=2, overlap=1.0)
        pf.run_schedule(schedule)
        per_op = disk.disk.transfer_time(store.item_bytes, True)
        total_io = (store.stats.prefetch_reads + store.stats.writes) * per_op
        assert store.stats.reads == 0
        assert pf.hidden_seconds > 0
        assert disk.simulated_seconds + pf.hidden_seconds == \
            pytest.approx(total_io, rel=1e-9)
        assert disk.simulated_seconds < total_io

    def test_partial_overlap_hides_half_as_much(self):
        def run(overlap):
            store, disk = store_with_disk()
            schedule = self._warm_schedule(store)
            disk.simulated_seconds = 0.0
            pf = Prefetcher(store, depth=2, overlap=overlap)
            pf.run_schedule(schedule)
            return pf.hidden_seconds

        assert run(0.5) == pytest.approx(0.5 * run(1.0), rel=1e-9)

    def test_correctness_unaffected(self, small_tree, small_alignment, small_model):
        """Prefetching must not change likelihoods (it only moves reads)."""
        rates = RateModel.gamma(0.8, 4)
        e_ref = LikelihoodEngine(small_tree.copy(), small_alignment, small_model,
                                 rates)
        ref = e_ref.full_traversals(1)

        shape = (small_alignment.num_patterns, 4, 4)
        store = AncestralVectorStore(small_tree.num_inner, shape, num_slots=5,
                                     policy="lru")
        eng = LikelihoodEngine(small_tree.copy(), small_alignment, small_model,
                               rates, store=store)
        eng.full_traversals(1)   # populate
        eng.invalidate_all()
        plan = eng.plan(*eng.default_edge(), full=True)
        Prefetcher(store, depth=2).run_schedule(eng.plan_accesses(plan))
        assert eng.full_traversals(1) == ref


# ---------------------------------------------------------------------------
# The threaded prefetcher: what it is fed, how many loads it keeps in
# flight, and that more of them never turn into an error.


def warm(store):
    """Give every item backing bytes, then empty the slots."""
    for i in range(store.num_items):
        store.get(i, write_only=True)[:] = i + 1
    store.evict_all()
    store.stats.reset()


class RecordingStore(AncestralVectorStore):
    """Records every ``get`` as the ``(item, pins, write_only)`` it was."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.issued = []

    def get(self, item, pins=(), write_only=False):
        self.issued.append((int(item), tuple(int(p) for p in pins),
                            bool(write_only)))
        return super().get(item, pins=pins, write_only=write_only)


def record_feeds(engine):
    """The list every schedule fed to ``engine``'s prefetcher is appended
    to, each normalised like :attr:`RecordingStore.issued`."""
    fed = []
    feed = engine.prefetcher.feed

    def recording_feed(schedule):
        schedule = list(schedule)
        fed.append([(int(i), tuple(int(p) for p in pins), bool(w))
                    for i, pins, w in schedule])
        feed(schedule)

    engine.prefetcher.feed = recording_feed
    return fed


class TestFedScheduleIsTheIssuedSequence:
    """The schedule is the truth: per operation, what the prefetcher is
    fed equals — call for call — what the engine then asks the store."""

    LAYOUTS = {"whole": {}, "block": {"block_sites": 64}}

    @staticmethod
    def recording_engine(tree, alignment, model, rates, layout):
        kind, kwargs = layout
        num_inner, shape = clv_geometry(tree, alignment, model, rates)
        store = RecordingStore(
            layout=make_layout(kind, num_inner, shape, **kwargs), num_slots=6)
        engine = LikelihoodEngine(tree, alignment, model, rates, store=store,
                                  prefetch_depth=3)
        return engine, record_feeds(engine)

    @staticmethod
    def check(engine, fed, operation, feeds=1):
        engine.store.issued.clear()
        fed.clear()
        operation()
        assert len(fed) == feeds
        assert engine.store.issued, "the operation touched no vector"
        assert [access for schedule in fed for access in schedule] \
            == engine.store.issued

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_every_edge_evaluating_entry_point(
            self, layout, small_tree, small_alignment, small_model):
        rates = RateModel.gamma(0.8, 4)
        engine, fed = self.recording_engine(
            small_tree.copy(), small_alignment, small_model, rates,
            (layout, self.LAYOUTS[layout]))
        tree = engine.tree
        inner = [x for x in tree.inner_nodes()]
        far = (inner[-1], tree.neighbors(inner[-1])[0])
        try:
            self.check(engine, fed, lambda: engine.edge_loglikelihood(
                *engine.default_edge(), full=True))
            self.check(engine, fed, lambda: engine.edge_loglikelihood(*far))
            # Same edge again: the plan is empty, the ends are still fed.
            assert not engine.plan(*far).steps
            self.check(engine, fed, lambda: engine.edge_loglikelihood(*far))
            assert fed == [list(engine.edge_accesses(*far))]
            self.check(engine, fed, engine.site_loglikelihoods)
            self.check(engine, fed,
                       lambda: engine.optimize_branch(*engine.default_edge()))
        finally:
            engine.close()

    def test_partitioned_branch_optimiser(self, small_tree, small_alignment,
                                          small_model):
        rates = RateModel.gamma(0.8, 4)
        tree = small_tree.copy()
        parts = [(aln, small_model, rates)
                 for aln in split_alignment(small_alignment, [120])]
        stores = []
        for aln, model, _ in parts:
            num_inner, shape = clv_geometry(tree, aln, model, rates)
            stores.append(RecordingStore(num_inner, shape, num_slots=5))
        joint = PartitionedEngine(
            tree, parts,
            store_kwargs=[{"store": s, "prefetch_depth": 3} for s in stores])
        try:
            feeds = [record_feeds(engine) for engine in joint.engines]
            joint.loglikelihood()
            (nbr,) = tree.neighbors(3)
            for store, fed in zip(stores, feeds):
                store.issued.clear()
                fed.clear()
            joint.optimize_branch(3, nbr)
            for store, fed in zip(stores, feeds):
                assert store.issued and fed == [store.issued]
        finally:
            joint.close()

    def test_the_engine_gives_the_prefetcher_the_stores_io_threads(
            self, engine_factory, small_tree, small_alignment, small_model):
        built = engine_factory(fraction=0.5, io_threads=2, prefetch_depth=2)
        try:
            assert built.prefetcher.workers == built.store.io_threads == 2
        finally:
            built.close()
        rates = RateModel.gamma(0.8, 4)
        num_inner, shape = clv_geometry(small_tree, small_alignment,
                                        small_model, rates)
        for io_threads in (1, 3):
            store = AncestralVectorStore(num_inner, shape, num_slots=5,
                                         io_threads=io_threads)
            explicit = engine_factory(store=store, prefetch_depth=2)
            try:
                assert explicit.prefetcher.workers == io_threads
            finally:
                explicit.close()


class GatedReads(MemoryBackingStore):
    """Reads block until the test opens the gate (deadline: 10 s)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.gate = threading.Event()
        self.gate.set()
        self.reads = None

    def shut(self):
        """From here on reads are recorded and wait at the gate."""
        self.gate.clear()
        self.started = threading.Semaphore(0)
        self.reads = []  # items in the order their reads started

    def _read(self, item, out):
        if self.reads is not None:
            self.reads.append(item)
            self.started.release()
            assert self.gate.wait(timeout=10.0)
        return super()._read(item, out)


class MeetingReads(MemoryBackingStore):
    """A read made by a prefetch worker meets another worker's read at a
    two-party barrier before it proceeds; demand reads on the calling
    thread pass straight through, so the compute thread can never be the
    second party."""

    def __init__(self, deadline, *args):
        super().__init__(*args)
        self.barrier = threading.Barrier(2, timeout=deadline)
        self.met = threading.Semaphore(0)
        self.alone = threading.Event()

    def _read(self, item, out):
        if threading.current_thread().name.startswith("prefetcher"):
            try:
                self.barrier.wait()
            except threading.BrokenBarrierError:
                self.alone.set()
                raise
            self.met.release()
        return super()._read(item, out)


class TestLoadsInFlightTogether:
    def test_two_workers_have_two_loads_in_flight(self):
        backing = MeetingReads(10.0, 8, SHAPE)
        store = AncestralVectorStore(8, SHAPE, num_slots=4, backing=backing,
                                     io_threads=2)
        warm(store)
        pf = ThreadedPrefetcher(store, depth=4, workers=store.io_threads)
        try:
            pf.feed([(0, (), False), (1, (), False)])
            # Each read only proceeds once the other has been issued too.
            assert backing.met.acquire(timeout=10.0)
            assert backing.met.acquire(timeout=10.0)
            for item in (0, 1):           # waits for the landing, if need be
                assert store.get(item)[0, 0, 0] == item + 1
        finally:
            pf.stop()
        assert not backing.alone.is_set()
        assert store.stats.prefetch_reads == store.stats.prefetch_hits == 2
        store.validate()

    def test_one_worker_issues_its_loads_one_after_another(self):
        backing = MeetingReads(0.3, 8, SHAPE)
        store = AncestralVectorStore(8, SHAPE, num_slots=4, backing=backing,
                                     io_threads=1)
        warm(store)
        pf = ThreadedPrefetcher(store, depth=4, workers=store.io_threads)
        try:
            pf.feed([(0, (), False), (1, (), False)])
            assert backing.alone.wait(timeout=10.0)   # nobody came to meet it
        finally:
            pf.stop()
        assert store.stats.prefetch_reads == 0
        store.validate()


class TestMoreLoadsInFlightNeverBecomeAnError:
    def test_demand_miss_waits_for_a_load_to_land_instead_of_raising(self):
        backing = GatedReads(8, SHAPE)
        store = AncestralVectorStore(8, SHAPE, num_slots=4, backing=backing,
                                     io_threads=2)
        warm(store)
        store.get(0)
        store.get(1)
        backing.shut()
        pf = ThreadedPrefetcher(store, depth=4, workers=store.io_threads)
        got = []
        demand = threading.Thread(
            target=lambda: got.append(store.get(2, pins=(0, 1))))
        try:
            pf.feed([(5, (), False), (6, (), False)])
            for _ in range(2):            # both workers' loads are gated
                assert backing.started.acquire(timeout=10.0)
            # Slots: 0 and 1 (pinned), 5 and 6 (in flight) — none evictable.
            demand.start()
            demand.join(timeout=0.2)
            assert demand.is_alive() and not got   # waiting, not raising
            backing.gate.set()
            demand.join(timeout=10.0)
            assert not demand.is_alive()
        finally:
            backing.gate.set()
            pf.stop()
        assert got and got[0][0, 0, 0] == 3
        assert store.is_resident(0) and store.is_resident(1)
        assert store.stats.prefetch_unused == 1   # a landed load made room
        store.validate()

    def test_pins_alone_exhausting_the_slots_still_raise(self):
        store = AncestralVectorStore(8, SHAPE, num_slots=4, io_threads=2)
        pf = ThreadedPrefetcher(store, depth=4, workers=2)
        try:
            for item in range(4):
                store.get(item, write_only=True)
            with pytest.raises(PinnedSlotError,
                               match=r"pins=\[0, 1, 2, 3\]\); the store "
                                     r"needs at least 5 slots$"):
                store.get(4, pins=(0, 1, 2, 3))
        finally:
            pf.stop()


class TestPickingIsClaiming:
    @pytest.fixture()
    def eager_switching(self):
        """Preempt threads often: at the default 5 ms a worker that drops
        the store lock nearly always gets it back before another looks."""
        before = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        yield
        sys.setswitchinterval(before)

    def test_every_item_loaded_exactly_once_without_stall_or_deferral(
            self, eager_switching):
        """N workers woken together over M absent items: no two pick the
        same one, so nobody loses a race, reports a stall or defers."""
        workers, absent = 4, 12
        backing = GatedReads(16, SHAPE)
        store = AncestralVectorStore(16, SHAPE, num_slots=14, backing=backing,
                                     io_threads=workers)
        warm(store)
        obs = Observer()
        pf = ThreadedPrefetcher(store, depth=absent, workers=workers)
        pf.obs = obs
        try:
            for _ in range(5):
                # Clear the previous round's schedule BEFORE emptying the
                # slots: with it still installed, a worker woken by its
                # timeout reloads items through the still-open gate, and
                # fewer than `workers` loads reach the new semaphore. The
                # race was this test's, not the prefetcher's.
                pf.feed([])
                store.evict_all()
                store.stats.reset()
                backing.shut()
                pf.feed([(item, (), False) for item in range(absent)])
                for _ in range(workers):      # every worker holds a load
                    assert backing.started.acquire(timeout=10.0)
                with store._cond:
                    assert len(store._inflight) == workers
                backing.gate.set()
                with store._cond:
                    assert store._cond.wait_for(
                        lambda: store.stats.prefetch_reads == absent,
                        timeout=10.0)
                    assert not pf._deferred
                assert pf.idle()
                assert sorted(backing.reads) == list(range(absent))
        finally:
            backing.gate.set()
            pf.stop()
        assert obs.tracer.by_type().get("stall", 0) == 0
        store.validate()
