"""Sharded multi-process backing tier: protocol, parity, crash recovery.

The matrix-style suites replay under the CI ``REPRO_FAULT_SEED`` sweep
(like :mod:`tests.test_faults`): the per-shard fault schedule is seeded
``seed + shard``, so each environment seed exercises one deterministic
failure history across every worker process.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.core.backing import FileBackingStore
from repro.core.faults import InjectedFault, RetryingBackingStore
from repro.core.layout import shard_items, shard_of
from repro.core.sharded import OP_FLUSH, ShardedBackingStore
from repro.core.stats import PARITY_COUNTERS
from repro.core.vecstore import AncestralVectorStore
from repro.errors import BackingStoreError
from repro.obs import MetricsRegistry, Observer

pytestmark = pytest.mark.usefixtures("no_shard_leaks")

SHAPE = (4, 2, 4)

#: Seed under test — the CI matrix sweeps {0, 1, 7, 1337}.
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

#: Modelled transfer time of the slow-device tests: long enough that the
#: order of completions is observable over scheduling noise.
DEVICE_S = 0.04


def within(seconds, fn, *args):
    """``fn(*args)`` with a hard deadline (``pytest-timeout`` is not
    installed): a hung lane or window fails the test, it does not stall
    the job."""
    box = {}

    def call():
        try:
            box["value"] = fn(*args)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"{fn!r} still running after {seconds} s"
    if "error" in box:
        raise box["error"]
    return box.get("value")


def wait_all(tickets, seconds=30.0):
    within(seconds, lambda: [t.wait() for t in tickets])


def _slow_store(directory, n, device_s=DEVICE_S):
    """One shard over a sleeping modelled device: order is observable."""
    return ShardedBackingStore(directory, n, SHAPE, num_shards=1,
                               kind="simulated", disk=(device_s, 1e12),
                               sleep=True)


def _laggy_file_store(directory, n, **fault):
    """One *durable* shard whose every transfer takes ``DEVICE_S``: the
    crash tests need data that survives the worker (the simulated kind is
    volatile), so the slow device is the fault injector's latency over a
    file store."""
    return ShardedBackingStore(
        directory, n, SHAPE, num_shards=1, kind="file",
        fault={"seed": FAULT_SEED, "latency_rate": 1.0,
               "latency_seconds": DEVICE_S, **fault})


def _fill(store, n, seed=17):
    rng = np.random.default_rng(seed)
    originals = {}
    for item in range(n):
        data = rng.normal(size=SHAPE)
        store.write(item, data)
        originals[item] = data
    return originals


def _item_on_shard(store, shard):
    """The first item routed to ``shard`` (placement is hash-skewed)."""
    for item in range(store.num_items):
        if store.shard_of_item(item) == shard:
            return item
    pytest.skip(f"no item routed to shard {shard} at this geometry")


class TestPlacement:
    def test_matches_layout_hash(self, tmp_path):
        st = ShardedBackingStore(tmp_path / "sh", 16, SHAPE, num_shards=3)
        try:
            for item in range(16):
                assert st.shard_of_item(item) == shard_of(item, 3)
        finally:
            st.close()

    def test_shard_items_partition(self):
        groups = shard_items(32, 5)
        flat = sorted(i for g in groups for i in g)
        assert flat == list(range(32))
        for s, items in enumerate(groups):
            assert all(shard_of(i, 5) == s for i in items)

    def test_bad_geometry_rejected(self, tmp_path):
        with pytest.raises(BackingStoreError):
            ShardedBackingStore(tmp_path / "sh", 4, SHAPE, num_shards=0)
        with pytest.raises(BackingStoreError):
            ShardedBackingStore(tmp_path / "sh", 4, SHAPE, kind="nope")


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ["file", "compressed", "simulated"])
    def test_write_read_all_items(self, kind, tmp_path):
        n = 13
        st = ShardedBackingStore(tmp_path / "sh", n, SHAPE, num_shards=4,
                                 kind=kind)
        try:
            originals = _fill(st, n)
            out = np.empty(SHAPE)
            for item in range(n):
                st.read(item, out)
                np.testing.assert_array_equal(out, originals[item])
        finally:
            st.close()

    def test_out_of_range_and_buffer_mismatch(self, tmp_path):
        st = ShardedBackingStore(tmp_path / "sh", 4, SHAPE, num_shards=2)
        try:
            with pytest.raises(BackingStoreError):
                st.read(4, np.empty(SHAPE))
            with pytest.raises(BackingStoreError):
                st.read(0, np.empty((2, 2)))
            with pytest.raises(BackingStoreError):
                st.write(0, np.zeros((2, 2)))
        finally:
            st.close()

    def test_reattach_preserves_flushed_data(self, tmp_path):
        n = 9
        st = ShardedBackingStore(tmp_path / "sh", n, SHAPE, num_shards=3)
        originals = _fill(st, n)
        st.flush()
        st.close()
        st2 = ShardedBackingStore(tmp_path / "sh", n, SHAPE, num_shards=3)
        try:
            out = np.empty(SHAPE)
            for item in range(n):
                st2.read(item, out)
                np.testing.assert_array_equal(out, originals[item])
        finally:
            st2.close()

    def test_close_idempotent_and_rejects_io(self, tmp_path):
        st = ShardedBackingStore(tmp_path / "sh", 4, SHAPE, num_shards=2)
        procs = [c._proc for c in st._clients]
        within(15.0, st.close)
        # CLOSE ended every worker (its lane threads are daemons and die
        # with it); close() never had to fall back on terminate().
        assert [p.exitcode for p in procs] == [0, 0]
        st.close()
        with pytest.raises(BackingStoreError):
            st.read(0, np.empty(SHAPE))


class TestAsyncBatches:
    def test_tickets_complete_out_of_wait_order(self, tmp_path):
        n = 8
        st = ShardedBackingStore(tmp_path / "sh", n, SHAPE, num_shards=3)
        try:
            payloads = {i: np.full(SHAPE, float(i)) for i in range(n)}
            tickets = [st.submit_write(i, payloads[i]) for i in range(n)]
            for t in reversed(tickets):
                t.wait()
                assert t.done
            outs = [np.empty(SHAPE) for _ in range(n)]
            reads = [st.submit_read(i, outs[i]) for i in range(n)]
            for t in reads:
                t.wait()
            for i in range(n):
                np.testing.assert_array_equal(outs[i], payloads[i])
        finally:
            st.close()

    def test_write_batch_read_batch(self, tmp_path):
        n = 11
        st = ShardedBackingStore(tmp_path / "sh", n, SHAPE, num_shards=4)
        try:
            rng = np.random.default_rng(5)
            data = {i: rng.normal(size=SHAPE) for i in range(n)}
            for t in st.write_batch(list(data.items())):
                t.wait()
            outs = {i: np.empty(SHAPE) for i in range(n)}
            for t in st.read_batch(list(outs.items())):
                t.wait()
            for i in range(n):
                np.testing.assert_array_equal(outs[i], data[i])
        finally:
            st.close()

    def test_submit_write_snapshots_buffer(self, tmp_path):
        st = ShardedBackingStore(tmp_path / "sh", 4, SHAPE, num_shards=2)
        try:
            buf = np.ones(SHAPE)
            ticket = st.submit_write(0, buf)
            buf[:] = -1.0  # caller reuses the buffer immediately
            ticket.wait()
            out = np.empty(SHAPE)
            st.read(0, out)
            np.testing.assert_array_equal(out, np.ones(SHAPE))
        finally:
            st.close()


class TestWindow:
    @pytest.mark.parametrize("window", [1, 2])
    def test_batch_larger_than_window(self, window, tmp_path):
        """A batch is sent a window-full at a time; waiting for room
        with nothing on the wire could never end."""
        n = 3 * window
        st = ShardedBackingStore(tmp_path / "sh", 16, (8,), num_shards=1,
                                 window=window)
        try:
            data = [(i, np.full(8, float(i))) for i in range(n)]
            wait_all(within(20.0, st.write_batch, data))
            outs = [(i, np.empty(8)) for i in range(n)]
            wait_all(within(20.0, st.read_batch, outs))
            for (_, out), (_, want) in zip(outs, data):
                np.testing.assert_array_equal(out, want)
        finally:
            st.close()


class TestServiceLanes:
    """The worker's ordering contract: reads beside writes, same-item
    order, control frames as barriers, a crash on one lane is a crash."""

    def test_read_not_queued_behind_writes_to_other_items(self, tmp_path):
        st = _slow_store(tmp_path / "sh", 16)
        try:
            st.write(0, np.full(SHAPE, 7.0))
            writes = [st.submit_write(i, np.full(SHAPE, float(i)))
                      for i in range(1, 9)]
            out = np.empty(SHAPE)
            t0 = time.perf_counter()
            within(20.0, st.read, 0, out)
            elapsed = time.perf_counter() - t0
            np.testing.assert_array_equal(out, np.full(SHAPE, 7.0))
            # One transfer beside the write lane, not one behind eight.
            assert elapsed < 2.5 * DEVICE_S, elapsed
            assert not all(t.done for t in writes)
            wait_all(writes)
        finally:
            st.close()

    @pytest.mark.parametrize("seed", [FAULT_SEED, FAULT_SEED + 1])
    def test_same_item_operations_complete_in_submission_order(
            self, seed, tmp_path):
        items, ops = 4, 2000
        st = _slow_store(tmp_path / "sh", items, device_s=2e-4)
        try:
            rng = np.random.default_rng(seed)
            last = {}
            for item in range(items):
                st.write(item, np.full(SHAPE, -1.0))
                last[item] = -1.0
            tickets, reads = [], []

            def submit_all():
                for k in range(ops):
                    item = int(rng.integers(items))
                    if rng.random() < 0.5:
                        last[item] = float(k)
                        tickets.append(st.submit_write(
                            item, np.full(SHAPE, float(k))))
                    else:
                        out = np.empty(SHAPE)
                        reads.append((k, item, out, last[item]))
                        tickets.append(st.submit_read(item, out))

            within(60.0, submit_all)
            wait_all(tickets, 60.0)
            for k, item, out, want in reads:
                # the last value written before this read was submitted
                assert (out == want).all(), (k, item, want, out.flat[0])
            out = np.empty(SHAPE)
            for item in range(items):
                st.read(item, out)
                assert (out == last[item]).all()
        finally:
            st.close()

    def test_flush_waits_for_every_earlier_write(self, tmp_path):
        st = _slow_store(tmp_path / "sh", 8)
        try:
            writes = [st.submit_write(i, np.full(SHAPE, float(i)))
                      for i in range(5)]
            within(20.0, st.flush)
            assert all(t.done for t in writes)
        finally:
            st.close()

    def test_nothing_submitted_after_a_flush_is_applied_before_it(
            self, tmp_path):
        st = _slow_store(tmp_path / "sh", 8)
        try:
            for i in range(4):
                st.write(i, np.full(SHAPE, float(i)))
            outs = [np.empty(SHAPE) for _ in range(4)]
            # Four transfers keep the read lane busy, the write lane idle.
            reads = [st.submit_read(i, outs[i]) for i in range(4)]
            client = st._clients[0]
            flush = client.submit(OP_FLUSH, 0, b"", None)
            late = st.submit_write(5, np.ones(SHAPE))
            within(20.0, late.wait)
            assert client.is_done(flush)
            assert all(t.done for t in reads)
        finally:
            st.close()

    def test_crash_on_write_lane_while_read_lane_is_mid_transfer(
            self, tmp_path):
        n = 4
        st = _laggy_file_store(tmp_path / "sh", n + 1, crash_after_writes=n)
        try:
            originals = _fill(st, n)
            out = np.empty(SHAPE)
            read = st.submit_read(1, out)
            time.sleep(DEVICE_S / 4)  # the read lane is inside its transfer
            extra = np.full(SHAPE, 9.0)
            write = st.submit_write(n, extra)  # write n + 1: SimulatedCrash
            wait_all([read, write])
            assert st.restarts() == 1
            np.testing.assert_array_equal(out, originals[1])
            originals[n] = extra
            for item, want in originals.items():  # replay ends bit-identical
                st.read(item, out)
                np.testing.assert_array_equal(out, want)
        finally:
            st.close()

    def test_kill_worker_with_both_lanes_busy(self, tmp_path):
        n = 6
        st = _laggy_file_store(tmp_path / "sh", n)
        try:
            originals = _fill(st, n)
            outs = [np.empty(SHAPE) for _ in range(3)]
            tickets = [st.submit_read(i, outs[i]) for i in range(3)]
            for i in range(3, n):
                originals[i] = np.full(SHAPE, 10.0 + i)
                tickets.append(st.submit_write(i, originals[i]))
            time.sleep(DEVICE_S / 4)  # both lanes are inside a transfer
            st.kill_worker(0)
            wait_all(tickets)
            assert st.restarts() == 1
            for i in range(3):
                np.testing.assert_array_equal(outs[i], originals[i])
            out = np.empty(SHAPE)
            for item, want in originals.items():
                st.read(item, out)
                np.testing.assert_array_equal(out, want)
        finally:
            st.close()


class TestFlushBarrier:
    def test_flush_behind_pending_writes(self, tmp_path):
        n = 12
        st = ShardedBackingStore(tmp_path / "sh", n, SHAPE, num_shards=3)
        rng = np.random.default_rng(3)
        data = {i: rng.normal(size=SHAPE) for i in range(n)}
        tickets = st.write_batch(list(data.items()))
        # Control frames are barriers in the worker: no ticket.wait()
        # needed before FLUSH, yet everything must be durable afterwards.
        st.flush()
        assert all(t.done for t in tickets)
        st.close()
        st2 = ShardedBackingStore(tmp_path / "sh", n, SHAPE, num_shards=3)
        try:
            out = np.empty(SHAPE)
            for i in range(n):
                st2.read(i, out)
                np.testing.assert_array_equal(out, data[i])
        finally:
            st2.close()


class TestCrashRecovery:
    def test_kill_one_worker_restart_reattach(self, tmp_path):
        n = 12
        st = ShardedBackingStore(tmp_path / "sh", n, SHAPE, num_shards=3)
        try:
            originals = _fill(st, n)
            st.flush()
            victim_shard = 1
            victim_item = _item_on_shard(st, victim_shard)
            old_pid = st.worker_pids()[victim_shard]
            st.kill_worker(victim_shard)
            # The next operation on the dead shard rides through a
            # transparent restart + reattach of the flushed shard file.
            out = np.empty(SHAPE)
            st.read(victim_item, out)
            np.testing.assert_array_equal(out, originals[victim_item])
            assert st.restarts() >= 1
            assert st.worker_pids()[victim_shard] != old_pid
            for item in range(n):  # every shard still serves
                st.read(item, out)
                np.testing.assert_array_equal(out, originals[item])
        finally:
            st.close()

    def test_restart_metric_and_per_shard_counts(self, tmp_path):
        mx = MetricsRegistry()
        st = ShardedBackingStore(tmp_path / "sh", 10, SHAPE, num_shards=2)
        st.obs = Observer(metrics=mx)
        try:
            _fill(st, 10)
            st.flush()
            victim = _item_on_shard(st, 0)
            st.kill_worker(0)
            st.read(victim, np.empty(SHAPE))
            assert st.restarts() >= 1
            assert mx.value("shard_restarts") == st.restarts()
            per = st.per_shard_counts()
            assert per["0"]["restarts"] >= 1
            assert sum(v["writes"] for v in per.values()) == 10
        finally:
            st.close()

    def test_kill_during_engine_run_bit_identical_lnl(self, tmp_path):
        from repro.core.layout import make_layout
        from repro.phylo.likelihood.engine import LikelihoodEngine, clv_geometry
        from repro.phylo.models import GTR
        from repro.phylo.models.rates import RateModel
        from repro.simulate import simulate_alignment, yule_tree

        tree = yule_tree(8, seed=11, scale=0.1)
        model = GTR()
        rates = RateModel.gamma(1.0, 4)
        alignment = simulate_alignment(tree, model, 60, seed=12)

        def run(directory, kill):
            lay = make_layout(
                "whole", *clv_geometry(tree, alignment, model, rates))
            backing = ShardedBackingStore.from_layout(directory, lay,
                                                      num_shards=3)
            engine = LikelihoodEngine(
                tree.copy(), alignment, model, rates,
                layout=lay, fraction=0.25, policy="lru", backing=backing)
            try:
                engine.full_traversals(1)
                if kill:
                    backing.kill_worker(1)
                lnl = engine.full_traversals(2)
                if kill:
                    assert backing.restarts() >= 1
                return lnl
            finally:
                engine.close()

        undisturbed = run(tmp_path / "a", kill=False)
        survived = run(tmp_path / "b", kill=True)
        assert survived == undisturbed


class TestFaultMatrix:
    """Satellite suite: PR 8 fault seeds replayed per shard process."""

    def test_transient_faults_surface_typed(self, tmp_path):
        st = ShardedBackingStore(
            tmp_path / "sh", 8, SHAPE, num_shards=2,
            fault={"seed": FAULT_SEED, "write_error_rate": 1.0})
        try:
            # The worker-side InjectedFault crosses the wire as a typed
            # ERR frame and rehydrates as the same class, so retry
            # wrappers can classify it as transient.
            with pytest.raises(InjectedFault):
                st.write(0, np.zeros(SHAPE))
        finally:
            st.close()

    def test_retry_wrapper_recovers(self, tmp_path):
        n = 10
        st = ShardedBackingStore(
            tmp_path / "sh", n, SHAPE, num_shards=3,
            fault={"seed": FAULT_SEED, "read_error_rate": 0.15,
                   "write_error_rate": 0.15, "short_read_rate": 0.1,
                   "short_write_rate": 0.1})
        retry = RetryingBackingStore(st, retries=32)
        try:
            rng = np.random.default_rng(23)
            data = {i: rng.normal(size=SHAPE) for i in range(n)}
            for i in range(n):
                retry.write(i, data[i])
            out = np.empty(SHAPE)
            for i in range(n):
                retry.read(i, out)
                np.testing.assert_array_equal(out, data[i])
        finally:
            retry.close()

    def test_counter_parity_through_sharded_tier(self, tmp_path):
        n, m = 12, 4
        clean = AncestralVectorStore(
            n, SHAPE, num_slots=m, policy="lru",
            backing=FileBackingStore(tmp_path / "clean.bin", n, SHAPE))
        expected = _drive(clean, n)
        baseline = {k: getattr(clean.stats, k) for k in PARITY_COUNTERS}

        sharded = ShardedBackingStore(
            tmp_path / "sh", n, SHAPE, num_shards=3,
            fault={"seed": FAULT_SEED, "read_error_rate": 0.15,
                   "write_error_rate": 0.15})
        store = AncestralVectorStore(
            n, SHAPE, num_slots=m, policy="lru",
            backing=RetryingBackingStore(sharded, retries=32))
        _drive(store, n)
        observed = {k: getattr(store.stats, k) for k in PARITY_COUNTERS}

        assert observed == baseline
        for item, data in expected.items():
            np.testing.assert_array_equal(store.read_item(item), data)
        store.validate()
        clean.close()
        store.close()

    def test_fault_history_is_the_same_served_concurrently(self, tmp_path):
        """One operation at a time, or all in flight over both lanes of
        every worker: the same operations fault. ``faults._hash_unit`` is
        a pure function of ``(seed, kind, item, attempt)`` — order-free
        across items — and the attempt counter of an item only advances
        in that item's submission order, which the lanes keep."""
        n = 8
        rng = np.random.default_rng(FAULT_SEED)
        script = [(int(rng.integers(n)), bool(rng.random() < 0.5), float(k))
                  for k in range(80)]

        def run(directory, concurrent):
            st = ShardedBackingStore(
                directory, n, SHAPE, num_shards=2,
                fault={"seed": FAULT_SEED, "read_error_rate": 0.3,
                       "write_error_rate": 0.3})
            history = []

            def outcome(ticket):
                try:
                    ticket.wait()
                except InjectedFault:
                    return "fault"
                return "ok"

            try:
                tickets = []
                for item, is_write, value in script:
                    ticket = (st.submit_write(item, np.full(SHAPE, value))
                              if is_write
                              else st.submit_read(item, np.empty(SHAPE)))
                    if concurrent:
                        tickets.append(ticket)
                    else:
                        history.append(outcome(ticket))
                history.extend(within(30.0, lambda: [outcome(t)
                                                     for t in tickets]))
            finally:
                st.close()
            return history

        serial = run(tmp_path / "a", concurrent=False)
        assert "fault" in serial and "ok" in serial
        assert run(tmp_path / "b", concurrent=True) == serial

    def test_fault_seed_is_per_shard(self, tmp_path):
        # Same base seed, two shards: the schedules must differ (seeded
        # ``seed + shard``), or every worker faults in lockstep.
        st = ShardedBackingStore(
            tmp_path / "sh", 2, SHAPE, num_shards=2,
            fault={"seed": FAULT_SEED})
        try:
            specs = [c.spec["fault"]["seed"] for c in st._clients]
            assert specs == [FAULT_SEED, FAULT_SEED + 1]
        finally:
            st.close()


class TestLabeledMetrics:
    def test_labels_mirror_per_shard_counts(self, tmp_path):
        n = 14
        mx = MetricsRegistry()
        st = ShardedBackingStore(tmp_path / "sh", n, SHAPE, num_shards=4)
        st.obs = Observer(metrics=mx)
        try:
            _fill(st, n)
            out = np.empty(SHAPE)
            for i in range(0, n, 2):
                st.read(i, out)
            per = st.per_shard_counts()
            for metric, field in (("backing_reads", "reads"),
                                  ("backing_writes", "writes"),
                                  ("backing_bytes_read", "bytes_read"),
                                  ("backing_bytes_written", "bytes_written")):
                labels = mx.labeled(metric)
                for shard, counts in per.items():
                    got = labels.get(f'shard="{shard}"', 0)
                    assert got == counts[field], (metric, shard)
                assert mx.labeled_sum(metric) == \
                    sum(v[field] for v in per.values())
            assert mx.labeled_sum("backing_writes") == n
            assert mx.labeled_sum("backing_reads") == n // 2
        finally:
            st.close()

    def test_prometheus_exposition_has_shard_labels(self, tmp_path):
        mx = MetricsRegistry()
        st = ShardedBackingStore(tmp_path / "sh", 6, SHAPE, num_shards=2)
        st.obs = Observer(metrics=mx)
        try:
            _fill(st, 6)
            text = mx.to_prometheus()
            assert 'repro_backing_writes{shard="0"}' in text
            assert 'repro_backing_writes{shard="1"}' in text
        finally:
            st.close()


def _drive(store, n):
    """A deterministic workload with evictions, re-reads and dirty data."""
    rng = np.random.default_rng(17)
    originals = {}
    for item in range(n):
        buf = store.get(item, write_only=True)
        data = rng.normal(size=SHAPE)
        buf[:] = data
        originals[item] = data
    for item in range(0, n, 2):
        store.get(item, write_only=False)
    for item in range(n - 1, -1, -1):
        store.get(item, write_only=False)
    store.flush(force=True)
    return originals
