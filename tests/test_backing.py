"""Unit tests for backing stores: memory, single-file, multi-file (and its
sharded stripes), simulated — and, for every kind, transfers of an item's
leading rows."""

import os
import sys
import threading

import numpy as np
import pytest

from repro.core.backing import (
    BACKING_KINDS,
    FileBackingStore,
    MemoryBackingStore,
    MultiFileBackingStore,
    SimulatedDiskBackingStore,
    make_backing,
)
from repro.core.faults import FaultInjectingBackingStore, RetryingBackingStore
from repro.core.sharded import ShardedBackingStore
from repro.core.stats import DEMAND_COUNTERS, PARITY_COUNTERS
from repro.core.vecstore import AncestralVectorStore
from repro.errors import BackingStoreError
from repro.vm.disk import DiskModel

SHAPE = (4, 2, 4)


def roundtrip(store, n):
    rng = np.random.default_rng(9)
    originals = {}
    for item in range(n):
        data = rng.normal(size=SHAPE)
        store.write(item, data)
        originals[item] = data
    for item in range(n):
        out = np.empty(SHAPE)
        store.read(item, out)
        np.testing.assert_array_equal(out, originals[item])  # bit-exact


class TestMemoryBacking:
    def test_roundtrip(self):
        roundtrip(MemoryBackingStore(6, SHAPE), 6)

    def test_unwritten_items_read_zero(self):
        s = MemoryBackingStore(3, SHAPE)
        out = np.ones(SHAPE)
        s.read(1, out)
        np.testing.assert_array_equal(out, 0.0)
        assert not s.has(1)

    def test_range_checked(self):
        s = MemoryBackingStore(3, SHAPE)
        with pytest.raises(BackingStoreError, match="out of range"):
            s.read(3, np.empty(SHAPE))

    def test_closed_store_rejects(self):
        s = MemoryBackingStore(3, SHAPE)
        s.close()
        with pytest.raises(BackingStoreError, match="closed"):
            s.write(0, np.zeros(SHAPE))


class TestFileBacking:
    def test_roundtrip_bit_exact(self, tmp_path):
        s = FileBackingStore(tmp_path / "v.bin", 6, SHAPE)
        roundtrip(s, 6)
        s.close()

    def test_file_is_preallocated(self, tmp_path):
        path = tmp_path / "v.bin"
        s = FileBackingStore(path, 10, SHAPE)
        assert path.stat().st_size == 10 * 4 * 2 * 4 * 8
        s.close()

    def test_items_at_fixed_offsets(self, tmp_path):
        """Paper layout: vector i lives at byte offset i*w in one file."""
        path = tmp_path / "v.bin"
        s = FileBackingStore(path, 4, SHAPE)
        marker = np.full(SHAPE, 42.0)
        s.write(2, marker)
        s.flush()
        raw = np.fromfile(path, dtype=np.float64)
        w_doubles = int(np.prod(SHAPE))
        np.testing.assert_array_equal(raw[2 * w_doubles: 3 * w_doubles], 42.0)
        np.testing.assert_array_equal(raw[:2 * w_doubles], 0.0)
        s.close()

    def test_buffer_width_checked(self, tmp_path):
        s = FileBackingStore(tmp_path / "v.bin", 4, SHAPE)
        with pytest.raises(BackingStoreError, match="mismatch"):
            s.read(0, np.empty((2, 2)))
        with pytest.raises(BackingStoreError, match="mismatch"):
            s.write(0, np.zeros((1,)))
        s.close()

    def test_closed_rejects(self, tmp_path):
        s = FileBackingStore(tmp_path / "v.bin", 4, SHAPE)
        s.close()
        with pytest.raises(BackingStoreError, match="closed"):
            s.read(0, np.empty(SHAPE))

    def test_float32_items(self, tmp_path):
        s = FileBackingStore(tmp_path / "v32.bin", 3, SHAPE, dtype=np.float32)
        data = np.arange(np.prod(SHAPE), dtype=np.float32).reshape(SHAPE)
        s.write(1, data)
        out = np.empty(SHAPE, dtype=np.float32)
        s.read(1, out)
        np.testing.assert_array_equal(out, data)
        s.close()

    def test_non_contiguous_write_roundtrips(self, tmp_path):
        """Satellite fix: the write path must handle any array layout and
        must persist every byte (the old code dropped os.write's return
        value, so a short write silently corrupted the vector)."""
        s = FileBackingStore(tmp_path / "v.bin", 4, SHAPE)
        base = np.random.default_rng(3).normal(size=(SHAPE[-1], SHAPE[1], SHAPE[0]))
        data = base.T                      # non-contiguous view
        assert not data.flags.c_contiguous
        s.write(0, data)
        out = np.empty(SHAPE)
        s.read(0, out)
        np.testing.assert_array_equal(out, data)
        s.close()

    def test_reattach_preserves_existing_vectors(self, tmp_path):
        """Satellite fix: reopening an existing vectors file must NOT
        truncate it ("w+b" zeroed every spilled CLV on reattach)."""
        path = tmp_path / "v.bin"
        s = FileBackingStore(path, 6, SHAPE)
        data = np.random.default_rng(11).normal(size=SHAPE)
        s.write(3, data)
        s.flush()
        s.close()
        s2 = FileBackingStore(path, 6, SHAPE)
        out = np.empty(SHAPE)
        s2.read(3, out)
        np.testing.assert_array_equal(out, data)
        s2.close()

    def test_reattach_extends_smaller_file(self, tmp_path):
        """Reattaching with a larger geometry preallocates the new tail."""
        path = tmp_path / "v.bin"
        FileBackingStore(path, 2, SHAPE).close()
        s = FileBackingStore(path, 8, SHAPE)
        assert path.stat().st_size == 8 * s.item_bytes
        out = np.ones(SHAPE)
        s.read(7, out)
        np.testing.assert_array_equal(out, 0.0)
        s.close()

    def test_eintr_interrupted_transfers_retry(self, tmp_path, monkeypatch):
        """Satellite fix: EINTR raised mid-transfer is retried, not fatal,
        on both the read and the write path."""
        s = FileBackingStore(tmp_path / "v.bin", 2, SHAPE)
        real_preadv, real_pwritev = os.preadv, os.pwritev
        interruptions = {"read": 2, "write": 2}

        def flaky_preadv(fd, bufs, offset):
            if interruptions["read"] > 0:
                interruptions["read"] -= 1
                raise InterruptedError(4, "Interrupted system call")
            return real_preadv(fd, bufs, offset)

        def flaky_pwritev(fd, bufs, offset):
            if interruptions["write"] > 0:
                interruptions["write"] -= 1
                raise InterruptedError(4, "Interrupted system call")
            return real_pwritev(fd, bufs, offset)

        monkeypatch.setattr(os, "preadv", flaky_preadv)
        monkeypatch.setattr(os, "pwritev", flaky_pwritev)
        data = np.random.default_rng(5).normal(size=SHAPE)
        s.write(1, data)
        assert interruptions["write"] == 0
        out = np.empty(SHAPE)
        s.read(1, out)
        assert interruptions["read"] == 0
        np.testing.assert_array_equal(out, data)
        s.close()

    def test_zero_byte_write_is_retried_not_fatal(self, tmp_path, monkeypatch):
        """Satellite fix: a legitimately interrupted zero-byte write must
        not raise (the old os.pwrite loop treated put == 0 as an error)."""
        s = FileBackingStore(tmp_path / "v.bin", 2, SHAPE)
        real_pwritev = os.pwritev
        zero_returns = {"left": 3}

        def stalling_pwritev(fd, bufs, offset):
            if zero_returns["left"] > 0:
                zero_returns["left"] -= 1
                return 0
            return real_pwritev(fd, bufs, offset)

        monkeypatch.setattr(os, "pwritev", stalling_pwritev)
        data = np.random.default_rng(6).normal(size=SHAPE)
        s.write(0, data)
        assert zero_returns["left"] == 0
        out = np.empty(SHAPE)
        s.read(0, out)
        np.testing.assert_array_equal(out, data)
        s.close()

    def test_wedged_write_eventually_raises(self, tmp_path, monkeypatch):
        """An endless run of zero-byte writes means the device is stuck."""
        s = FileBackingStore(tmp_path / "v.bin", 2, SHAPE)
        monkeypatch.setattr(os, "pwritev", lambda fd, bufs, offset: 0)
        with pytest.raises(BackingStoreError, match="no progress"):
            s.write(0, np.zeros(SHAPE))
        s.close()

    def test_short_write_resumes_where_it_left_off(self, tmp_path,
                                                   monkeypatch):
        """Partial pwritev transfers are continued from the split point."""
        s = FileBackingStore(tmp_path / "v.bin", 2, SHAPE)
        real_pwritev = os.pwritev
        calls = []

        def partial_pwritev(fd, bufs, offset):
            n = real_pwritev(fd, [bufs[0][:37]], offset)
            calls.append(n)
            return n

        monkeypatch.setattr(os, "pwritev", partial_pwritev)
        data = np.random.default_rng(7).normal(size=SHAPE)
        s.write(1, data)
        assert len(calls) > 1                  # genuinely split
        monkeypatch.setattr(os, "pwritev", real_pwritev)
        out = np.empty(SHAPE)
        s.read(1, out)
        np.testing.assert_array_equal(out, data)
        s.close()

    def test_positioned_io_is_thread_safe(self, tmp_path):
        """pread/pwrite share no seek cursor: concurrent transfers to
        distinct items must never interleave or tear."""
        import threading

        n = 16
        s = FileBackingStore(tmp_path / "v.bin", n, SHAPE)
        errors = []

        def worker(start):
            try:
                out = np.empty(SHAPE)
                for _ in range(20):
                    for item in range(start, n, 4):
                        s.write(item, np.full(SHAPE, float(item)))
                        s.read(item, out)
                        np.testing.assert_array_equal(out, float(item))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        out = np.empty(SHAPE)
        for item in range(n):
            s.read(item, out)
            np.testing.assert_array_equal(out, float(item))
        s.close()


class TestMultiFileBacking:
    def test_roundtrip(self, tmp_path):
        s = MultiFileBackingStore(tmp_path, 10, SHAPE, num_files=3)
        roundtrip(s, 10)
        s.close()

    def test_creates_requested_files(self, tmp_path):
        s = MultiFileBackingStore(tmp_path / "d", 10, SHAPE, num_files=4)
        files = sorted((tmp_path / "d").glob("vectors_*.bin"))
        assert len(files) == 4
        s.close()

    def test_single_file_degenerate_case(self, tmp_path):
        s = MultiFileBackingStore(tmp_path, 5, SHAPE, num_files=1)
        roundtrip(s, 5)
        s.close()

    def test_bad_file_count_rejected(self, tmp_path):
        with pytest.raises(BackingStoreError, match="at least 1"):
            MultiFileBackingStore(tmp_path, 5, SHAPE, num_files=0)

    def test_range_checked(self, tmp_path):
        s = MultiFileBackingStore(tmp_path, 5, SHAPE, num_files=2)
        with pytest.raises(BackingStoreError, match="out of range"):
            s.write(5, np.zeros(SHAPE))
        s.close()

    def test_flush_fsyncs_stripes_concurrently(self, tmp_path, monkeypatch):
        """Satellite: one fsync thread per stripe, all stripes covered."""
        import repro.core.backing as backing_mod

        s = MultiFileBackingStore(tmp_path, 9, SHAPE, num_files=3)
        for item in range(9):
            s.write(item, np.zeros(SHAPE))
        synced = []
        lock = threading.Lock()
        real_fsync = backing_mod.os.fsync

        def spy(fd):
            with lock:
                synced.append(threading.current_thread().name)
            real_fsync(fd)

        monkeypatch.setattr(backing_mod.os, "fsync", spy)
        s.flush()
        assert sorted(synced) == [f"stripe-fsync-{i}" for i in range(3)]
        s.close()

    def test_flush_propagates_first_stripe_error(self, tmp_path, monkeypatch):
        import repro.core.backing as backing_mod

        s = MultiFileBackingStore(tmp_path, 6, SHAPE, num_files=3)

        def boom(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(backing_mod.os, "fsync", boom)
        with pytest.raises(OSError, match="disk gone"):
            s.flush()
        monkeypatch.undo()
        s.close()

    def test_flush_and_reattach_across_stripes(self, tmp_path):
        """Satellite fix: flush() reaches every stripe, and reopening the
        directory does not truncate any of them."""
        rng = np.random.default_rng(13)
        originals = {i: rng.normal(size=SHAPE) for i in range(7)}
        s = MultiFileBackingStore(tmp_path, 7, SHAPE, num_files=3)
        for item, data in originals.items():
            s.write(item, data)
        s.flush()
        s.close()
        s2 = MultiFileBackingStore(tmp_path, 7, SHAPE, num_files=3)
        out = np.empty(SHAPE)
        for item, data in originals.items():
            s2.read(item, out)
            np.testing.assert_array_equal(out, data)
        s2.close()


#: Seed under test — the CI fault job sweeps {0, 1, 7, 1337}.
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

SHARD_KINDS = ["file", "compressed", "simulated"]


class TestShardedStripes:
    """``ShardedBackingStore``: the multi-file stripes with a store kind
    per shard (item ``i`` in shard ``i % N`` at local id ``i // N``)."""

    @pytest.mark.parametrize("kind", SHARD_KINDS)
    def test_write_read_all_items(self, kind, tmp_path, closing):
        st = closing(ShardedBackingStore(tmp_path / "sh", 13, SHAPE,
                                         num_shards=4, kind=kind))
        roundtrip(st, 13)
        assert st.num_shards == 4

    def test_bad_geometry_rejected(self, tmp_path):
        with pytest.raises(BackingStoreError):
            ShardedBackingStore(tmp_path / "sh", 4, SHAPE, num_shards=0)
        with pytest.raises(BackingStoreError, match="unknown shard kind"):
            ShardedBackingStore(tmp_path / "sh", 4, SHAPE, kind="nope")

    @pytest.mark.parametrize("kind", SHARD_KINDS)
    def test_out_of_range_and_buffer_mismatch(self, kind, tmp_path, closing):
        st = closing(ShardedBackingStore(tmp_path / "sh", 4, SHAPE,
                                         num_shards=2, kind=kind))
        with pytest.raises(BackingStoreError, match="out of range"):
            st.read(4, np.empty(SHAPE))
        with pytest.raises(BackingStoreError, match="out of range"):
            st.write(-1, np.zeros(SHAPE))
        with pytest.raises(BackingStoreError, match="read buffer mismatch"):
            st.read(0, np.empty((2, 2)))
        with pytest.raises(BackingStoreError, match="read buffer mismatch"):
            st.read(0, np.empty((4, 4, 4))[:, ::2])
        with pytest.raises(BackingStoreError, match="write buffer mismatch"):
            st.write(0, np.zeros((2, 2)))

    @pytest.mark.parametrize("kind", ["file", "compressed"])
    def test_reattach_preserves_flushed_data(self, kind, tmp_path):
        rng = np.random.default_rng(13)
        originals = {i: rng.normal(size=SHAPE) for i in range(9)}
        st = ShardedBackingStore(tmp_path / "sh", 9, SHAPE, num_shards=3,
                                 kind=kind)
        for item, data in originals.items():
            st.write(item, data)
        st.flush()
        st.close()
        st2 = ShardedBackingStore(tmp_path / "sh", 9, SHAPE, num_shards=3,
                                  kind=kind)
        try:
            out = np.empty(SHAPE)
            for item, data in originals.items():
                st2.read(item, out)
                np.testing.assert_array_equal(out, data)
        finally:
            st2.close()

    @pytest.mark.parametrize("kind", SHARD_KINDS)
    def test_close_idempotent_and_rejects_io(self, kind, tmp_path):
        st = ShardedBackingStore(tmp_path / "sh", 4, SHAPE, num_shards=2,
                                 kind=kind)
        st.write(1, np.ones(SHAPE))
        st.close()
        st.close()
        st.flush()  # nothing left to make durable
        with pytest.raises(BackingStoreError, match="closed"):
            st.read(0, np.empty(SHAPE))
        with pytest.raises(BackingStoreError, match="closed"):
            st.write(0, np.zeros(SHAPE))

    def test_read_batch_returns_done_tickets(self, tmp_path, closing):
        st = closing(ShardedBackingStore(tmp_path / "sh", 5, SHAPE,
                                         num_shards=2))
        for item in range(5):
            st.write(item, np.full(SHAPE, float(item)))
        bufs = [np.empty(SHAPE) for _ in range(5)]
        tickets = st.read_batch(list(enumerate(bufs)))
        assert len(tickets) == 5 and all(t.done for t in tickets)
        for item, (ticket, buf) in enumerate(zip(tickets, bufs)):
            ticket.wait()
            np.testing.assert_array_equal(buf, float(item))

    @pytest.mark.parametrize("kind", SHARD_KINDS)
    def test_concurrent_reads_and_writes_round_trip(self, kind, tmp_path,
                                                    closing):
        """Threads read and write distinct items of every shard at once —
        the write-behind writers and prefetch workers do — with a tiny
        switch interval, so transfers interleave mid-call. Every read
        returns its item's bytes."""
        n, rounds = 16, 40
        st = closing(ShardedBackingStore(tmp_path / "sh", n, SHAPE,
                                         num_shards=3, kind=kind))
        rng = np.random.default_rng(5)
        data = {i: rng.normal(size=SHAPE) for i in range(n)}
        for item, values in data.items():
            st.write(item, values)
        torn, errors = [], []

        def reader(items):
            out = np.empty(SHAPE)
            for _ in range(rounds):
                for item in items:
                    st.read(item, out)
                    if not (out == data[item]).all():
                        torn.append(item)

        def writer(items):
            for _ in range(rounds):
                for item in items:
                    st.write(item, data[item])

        def guarded(fn, items):
            try:
                fn(items)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        jobs = [(reader, range(0, n, 4)), (reader, range(1, n, 4)),
                (writer, range(2, n, 4)), (writer, range(3, n, 4))]
        before = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=guarded, args=job, daemon=True)
                       for job in jobs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(before)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and torn == []
        out = np.empty(SHAPE)
        for item, values in data.items():
            st.read(item, out)
            np.testing.assert_array_equal(out, values)

    def test_retry_wrapper_recovers(self, tmp_path):
        rng = np.random.default_rng(23)
        data = {i: rng.normal(size=SHAPE) for i in range(10)}
        faulty = FaultInjectingBackingStore(
            ShardedBackingStore(tmp_path / "sh", 10, SHAPE, num_shards=3),
            seed=FAULT_SEED, read_error_rate=0.15, write_error_rate=0.15,
            short_read_rate=0.1, short_write_rate=0.1)
        retry = RetryingBackingStore(faulty, retries=32)
        try:
            for item, values in data.items():
                retry.write(item, values)
            out = np.empty(SHAPE)
            for item, values in data.items():
                retry.read(item, out)
                np.testing.assert_array_equal(out, values)
        finally:
            retry.close()

    def test_counter_parity_through_faulty_stripes(self, tmp_path):
        n, m = 12, 4
        clean = AncestralVectorStore(
            n, SHAPE, num_slots=m, policy="lru",
            backing=FileBackingStore(tmp_path / "clean.bin", n, SHAPE))
        expected = _drive(clean, n)
        baseline = {k: getattr(clean.stats, k) for k in PARITY_COUNTERS}
        faulty = FaultInjectingBackingStore(
            ShardedBackingStore(tmp_path / "sh", n, SHAPE, num_shards=3),
            seed=FAULT_SEED, read_error_rate=0.15, write_error_rate=0.15)
        store = AncestralVectorStore(
            n, SHAPE, num_slots=m, policy="lru",
            backing=RetryingBackingStore(faulty, retries=32))
        try:
            _drive(store, n)
            assert {k: getattr(store.stats, k)
                    for k in PARITY_COUNTERS} == baseline
            for item, values in expected.items():
                np.testing.assert_array_equal(store.read_item(item), values)
            store.validate()
        finally:
            clean.close()
            store.close()

    @pytest.mark.parametrize("pipeline", [
        {}, {"writeback_depth": 4, "prefetch_depth": 2}],
        ids=["sync", "async"])
    def test_each_call_is_one_reported_transfer(self, tmp_path, pipeline):
        """An observer sees one ``backing_read`` / ``backing_write`` per
        striped call, through a retry wrapper: their counts are the
        physical I/O, and observing moves no demand counter."""
        from repro import GTR, RateModel, simulate_alignment, yule_tree
        from repro.config import EngineConfig
        from repro.obs import Observer
        from repro.phylo.likelihood.engine import LikelihoodEngine

        # 32 taxa: at 3 slots a full traversal re-reads evicted children.
        tree = yule_tree(32, seed=3)
        model = GTR((1.0, 2.5, 1.2, 0.8, 3.0, 1.0), (0.3, 0.2, 0.25, 0.25))
        rates = RateModel.gamma(0.8, 4)
        alignment = simulate_alignment(tree, model, 120, rates=rates, seed=1)
        config = EngineConfig(num_slots=3, policy="lru", backing="sharded",
                              shards=2, backing_retries=2, **pipeline)

        def run(workdir, observed):
            workdir.mkdir()
            engine = LikelihoodEngine(tree.copy(), alignment, model, rates,
                                      config, workdir=workdir)
            obs = Observer().attach(engine) if observed else None
            try:
                engine.full_traversals(2)
                engine.store.drain()
                stats = engine.stats
                hists = obs.metrics.snapshot()["histograms"] if obs else None
                return (dict(stats.as_row()),
                        (stats.physical_reads, stats.physical_writes), hists)
            finally:
                engine.close()

        bare, _, _ = run(tmp_path / "bare", False)
        seen, (reads, writes), hists = run(tmp_path / "seen", True)
        assert min(reads, writes) > 0
        assert hists["backing_read_seconds"]["count"] == reads
        assert hists["backing_write_seconds"]["count"] == writes
        for key in DEMAND_COUNTERS:
            assert seen[key] == bare[key], key


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


class TestSimulatedDisk:
    def test_roundtrip_and_timing(self):
        disk = DiskModel(access_latency=1e-3, bandwidth=1e8)
        s = SimulatedDiskBackingStore(4, SHAPE, disk=disk)
        roundtrip(s, 4)
        # 4 writes + 4 reads, each latency + bytes/bw.
        per_op = 1e-3 + s.item_bytes / 1e8
        assert s.simulated_seconds == pytest.approx(8 * per_op)

    def test_defaults_to_hdd(self):
        s = SimulatedDiskBackingStore(2, SHAPE)
        assert s.disk.name == "hdd"

    def test_flush_is_a_durability_no_op(self):
        """Satellite fix: SimulatedDisk implements the flush() protocol by
        delegating to the RAM inner store (no time is charged)."""
        s = SimulatedDiskBackingStore(2, SHAPE)
        s.write(0, np.full(SHAPE, 3.0))
        before = s.simulated_seconds
        s.flush()
        assert s.simulated_seconds == before
        out = np.empty(SHAPE)
        s.read(0, out)
        np.testing.assert_array_equal(out, 3.0)


# -- leading-rows transfers, for every kind -------------------------------------

#: Every kind, and the two wrappers: over a file, injecting seeded faults
#: (a transfer may tear) and retrying them away.
PREFIX_KINDS = (*BACKING_KINDS, "faulty", "retrying")
ROW = SHAPE[1] * SHAPE[2] * 8    # bytes of one row


def _backing(kind, tmp_path, n=5):
    if kind in BACKING_KINDS:
        return make_backing(kind, n, SHAPE, path=tmp_path / kind)
    inner = FaultInjectingBackingStore(
        FileBackingStore(tmp_path / "inner.bin", n, SHAPE), seed=FAULT_SEED,
        **({} if kind == "faulty" else {
            "read_error_rate": 0.15, "write_error_rate": 0.15,
            "short_read_rate": 0.1, "short_write_rate": 0.1}))
    return inner if kind == "faulty" else RetryingBackingStore(inner,
                                                                retries=32)


@pytest.mark.parametrize("kind", PREFIX_KINDS)
class TestLeadingRows:
    """A transfer moves the leading rows of one item at its fixed place:
    exactly the bytes it is handed, and nothing of its neighbours."""

    def test_a_prefix_round_trips_and_leaves_the_neighbours(self, kind,
                                                            tmp_path, closing):
        store = closing(_backing(kind, tmp_path))
        rng = np.random.default_rng(31)
        whole = {i: rng.normal(size=SHAPE) for i in (1, 2, 3)}
        for item, data in whole.items():
            store.write(item, data)
        for rows in (1, 3, SHAPE[0]):
            prefix = rng.normal(size=(rows, *SHAPE[1:]))
            store.write(2, prefix)
            got = np.empty_like(prefix)
            store.read(2, got)
            assert got.tobytes() == prefix.tobytes()
            for item in (1, 3):
                out = np.empty(SHAPE)
                store.read(item, out)
                assert out.tobytes() == whole[item].tobytes()

    def test_store_counts_the_bytes_of_the_live_rows(self, kind, tmp_path,
                                                     closing):
        store = closing(AncestralVectorStore(
            5, SHAPE, num_slots=3, backing=_backing(kind, tmp_path)))
        store.get(0, write_only=True, rows=1)[:] = 1.0
        store.get(1, write_only=True)[:] = 2.0        # every row is live
        for item in (2, 3, 4):                        # evicts 0, 1 (LRU)
            store.get(item, write_only=True, rows=2)
        assert store.stats.bytes_written == (1 + SHAPE[0]) * ROW
        # Reading 0 back evicts 2 (two rows); then 3 and 4 are flushed.
        assert store.get(0)[0].tobytes() == np.full(SHAPE[1:], 1.0).tobytes()
        assert store.stats.bytes_read == 1 * ROW
        store.flush()
        assert store.stats.bytes_written == (1 + SHAPE[0] + 3 * 2) * ROW

    def test_a_buffer_not_a_prefix_raises(self, kind, tmp_path, closing):
        store = closing(_backing(kind, tmp_path))
        wider = np.zeros((SHAPE[0] + 1, *SHAPE[1:]))
        partial_row = np.zeros(ROW // 8 + 1)
        strided = np.zeros((SHAPE[0], SHAPE[1], 2 * SHAPE[2]))[..., ::2]
        for bad in (wider, partial_row):
            with pytest.raises(BackingStoreError, match="buffer mismatch"):
                store.write(0, bad)
            with pytest.raises(BackingStoreError, match="read buffer mismatch"):
                store.read(0, bad)
        with pytest.raises(BackingStoreError, match="not C-contiguous"):
            store.read(0, strided)


def test_the_modelled_disk_charges_the_bytes_it_is_handed():
    disk = DiskModel(access_latency=1e-3, bandwidth=1e8)
    s = SimulatedDiskBackingStore(4, SHAPE, disk=disk)
    prefix = np.ones((1, *SHAPE[1:]))
    s.write(0, prefix)
    s.read(0, np.empty((1, *SHAPE[1:])))
    assert s.simulated_seconds == 2 * disk.transfer_time(ROW, sequential=True)
