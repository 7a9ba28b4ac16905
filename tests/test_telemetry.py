"""Cross-process telemetry for the sharded tier: mergeable histograms,
worker-side probes pulled over OP_TELEMETRY, and wire-level trace links.

The contract under test (PR 10): arming is pay-for-play (a worker with
no observer attached records nothing), pulls carry deltas
(repeated scrapes never double-count), worker histogram counts equal the
client-side completion counts bit-exactly, and every worker disk span
names the client request span that caused it so the merged Chrome trace
is causally linked across the process boundary.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import GTR, RateModel, simulate_alignment, yule_tree
from repro.config import EngineConfig
from repro.core.sharded import ShardedBackingStore
from repro.errors import OutOfCoreError
from repro.obs import MetricsRegistry, Observer, SpanRecorder
from repro.obs.histogram import BackingProbe, LogHistogram
from repro.phylo.likelihood.engine import LikelihoodEngine, clv_geometry
from repro.profile import _find_sharded

pytestmark = pytest.mark.usefixtures("no_shard_leaks")

SHAPE = (4, 2, 4)
N_ITEMS = 12
SHARDS = 2
ITEM_BYTES = int(np.prod(SHAPE)) * 8  # float64


def _make_store(tmp_path):
    return ShardedBackingStore(tmp_path / "sh", N_ITEMS, SHAPE,
                               num_shards=SHARDS)


def _do_ops(store, n=N_ITEMS):
    """n writes then n reads; returns the op counts (writes, reads)."""
    rng = np.random.default_rng(7)
    out = np.empty(SHAPE)
    for item in range(n):
        store.write(item, rng.normal(size=SHAPE))
    for item in range(n):
        store.read(item, out)
    return n, n


class TestHistogramState:
    def test_state_merge_round_trip(self):
        src, dst = LogHistogram(), LogHistogram()
        for dt in (1e-6, 1e-4, 1e-2, 1.0):
            src.record(dt)
        dst.merge_state(src.state())
        assert dst.count == src.count == 4
        assert dst.total_seconds == pytest.approx(src.total_seconds)
        assert dst.percentile(95.0) == src.percentile(95.0)
        # state() is a snapshot, not a drain
        assert src.count == 4

    def test_drain_state_is_delta(self):
        src, dst = LogHistogram(), LogHistogram()
        src.record(0.001)
        src.record(0.002)
        dst.merge_state(src.drain_state())
        assert src.count == 0 and src.total_seconds == 0.0
        src.record(0.004)
        dst.merge_state(src.drain_state())
        # two pulls, each a delta: nothing lost, nothing double-counted
        assert dst.count == 3
        assert dst.total_seconds == pytest.approx(0.007)
        # a further empty pull adds nothing
        dst.merge_state(src.drain_state())
        assert dst.count == 3

    def test_merge_rejects_foreign_geometry(self):
        coarse = LogHistogram(min_seconds=1e-3, num_buckets=8)
        coarse.record(0.5)
        with pytest.raises(OutOfCoreError, match="bucket geometry"):
            LogHistogram().merge_state(coarse.state())

    def test_probe_drain_and_merge(self):
        src, dst = BackingProbe(), BackingProbe()
        src.record_read(0.001, 256)
        src.record_read(0.002, 256)
        src.record_write(0.004, 512)
        dst.merge_state(src.drain_state())
        assert dst.read_hist.count == 2
        assert dst.write_hist.count == 1
        assert dst.read_bytes == 512
        assert dst.write_bytes == 512
        assert src.read_hist.count == 0 and src.read_bytes == 0


class TestWorkerPull:
    def test_unarmed_workers_record_nothing(self, tmp_path):
        """Pay-for-play: no sink attached -> no worker-side telemetry."""
        st = _make_store(tmp_path)
        try:
            _do_ops(st)
            st.collect_telemetry()  # unarmed workers answer with {}
            assert st.worker_probe.read_hist.count == 0
            assert st.worker_probe.write_hist.count == 0
            assert st.wire_read_hist.count == 0
            assert st.export_spans_into(SpanRecorder()) == 0
        finally:
            st.close()

    def test_armed_counts_match_client_completions(self, tmp_path):
        st = _make_store(tmp_path)
        try:
            st.obs = obs = Observer()  # arms every worker
            writes, reads = _do_ops(st)
            st.collect_telemetry()
            # the bit-exact cross-check --attribution and the bench rely on
            assert st.worker_probe.read_hist.count == reads
            assert st.worker_probe.write_hist.count == writes
            assert st.worker_probe.read_bytes == reads * ITEM_BYTES
            assert st.worker_probe.write_bytes == writes * ITEM_BYTES
            # every armed op contributes one wire and one reply sample
            assert st.wire_read_hist.count == reads
            assert st.wire_write_hist.count == writes
            assert st.reply_read_hist.count == reads
            assert st.reply_write_hist.count == writes
            # and the client-side probe saw the same ops
            assert obs.probe.read_hist.count == reads
            assert obs.probe.write_hist.count == writes
        finally:
            st.close()

    def test_repeated_pulls_never_double_count(self, tmp_path):
        st = _make_store(tmp_path)
        try:
            st.obs = Observer()
            writes, reads = _do_ops(st)
            for _ in range(3):
                st.collect_telemetry()
            assert st.worker_probe.read_hist.count == reads
            assert st.worker_probe.write_hist.count == writes
        finally:
            st.close()

    def test_close_drains_the_final_delta(self, tmp_path):
        st = _make_store(tmp_path)
        try:
            st.obs = Observer()
            writes, reads = _do_ops(st)
        finally:
            st.close()
        # no explicit pull before close: the shutdown drain delivered it
        assert st.worker_probe.read_hist.count == reads
        assert st.worker_probe.write_hist.count == writes

    def test_disarm_stops_worker_recording(self, tmp_path):
        st = _make_store(tmp_path)
        try:
            st.obs = Observer()
            writes, reads = _do_ops(st)
            st.collect_telemetry()
            st.obs = None  # disarms the workers
            _do_ops(st)
            st.collect_telemetry()
            assert st.worker_probe.read_hist.count == reads
            assert st.worker_probe.write_hist.count == writes
        finally:
            st.close()


class TestBothLanesRecording:
    """The worker's two service lanes record into one ``_WorkerTelemetry``
    at once; nothing is lost or counted twice."""

    def test_concurrent_reads_and_writes_count_exactly(self, tmp_path):
        rounds = 60
        before = sys.getswitchinterval()
        # Forked workers inherit the interval: their lanes preempt each
        # other inside a recording, where a lost update would happen.
        sys.setswitchinterval(1e-5)
        try:
            st = _make_store(tmp_path)
        finally:
            sys.setswitchinterval(before)
        sp = SpanRecorder()
        try:
            st.obs = obs = Observer(spans=sp)
            _do_ops(st)

            # Over the same items: a read behind a write of its item is
            # served on the write lane, so each direction's counters are
            # themselves recorded from both lanes.
            def reader():
                outs = [(i, np.empty(SHAPE)) for i in range(N_ITEMS)] * 2
                for _ in range(rounds):
                    for ticket in st.read_batch(outs):
                        ticket.wait()

            def writer():
                data = [(i, np.ones(SHAPE)) for i in range(N_ITEMS)] * 2
                for _ in range(rounds):
                    for ticket in st.write_batch(data):
                        ticket.wait()

            threads = [threading.Thread(target=fn, daemon=True)
                       for fn in (reader, writer)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
            assert not any(t.is_alive() for t in threads)
            reads = writes = N_ITEMS + rounds * N_ITEMS * 2

            st.collect_telemetry()
            per = st.per_shard_counts().values()
            # worker histograms == client completions, per direction
            assert st.worker_probe.read_hist.count == reads \
                == sum(v["reads"] for v in per) == obs.probe.read_hist.count
            assert st.worker_probe.write_hist.count == writes \
                == sum(v["writes"] for v in per) == obs.probe.write_hist.count
            assert st.worker_probe.read_bytes == reads * ITEM_BYTES
            assert st.worker_probe.write_bytes == writes * ITEM_BYTES
            assert st.wire_read_hist.count == reads
            assert st.wire_write_hist.count == writes
            # no span lost below the cap, every id distinct
            assert st.worker_span_drops() == 0
            assert st.export_spans_into(sp) == reads + writes
            ids = [rec.span_id for _name, records, _off in sp.tracks()
                   for rec in records]
            assert len(set(ids)) == len(ids) == reads + writes
        finally:
            st.close()


class TestMetricsIntegration:
    def test_scrape_pulls_and_merges_worker_histograms(self, tmp_path):
        st = _make_store(tmp_path)
        mx = MetricsRegistry()
        try:
            st.obs = Observer(metrics=mx)  # registers the collector, arms workers
            writes, reads = _do_ops(st)
            snap = mx.snapshot()  # scrape: gauges + OP_TELEMETRY pull
            hists = snap["histograms"]
            assert hists["shard_disk_read_seconds"]["count"] == reads
            assert hists["shard_disk_write_seconds"]["count"] == writes
            assert hists["shard_wire_seconds"]["count"] == reads + writes
            assert hists["shard_reply_seconds"]["count"] == reads + writes
            assert snap["counters"]["shard_telemetry_pulls"] >= SHARDS
            # labelled counters decompose the same totals by shard
            assert mx.labeled_sum("backing_reads") == reads
            assert mx.labeled_sum("backing_writes") == writes
        finally:
            st.close()

    def test_live_shard_gauges_have_one_series_per_shard(self, tmp_path):
        st = _make_store(tmp_path)
        mx = MetricsRegistry()
        try:
            st.obs = Observer(metrics=mx)
            _do_ops(st)
            labeled = mx.snapshot()["labeled"]
            want = {f'shard="{s}"' for s in range(SHARDS)}
            assert set(labeled["shard_inflight"]) == want
            assert set(labeled["shard_oldest_pending_seconds"]) == want
            # quiesced between ops: nothing in flight at scrape time
            assert all(v == 0 for v in labeled["shard_inflight"].values())
        finally:
            st.close()


class TestSpanLinks:
    def test_worker_spans_parented_by_client_request_spans(self, tmp_path):
        st = _make_store(tmp_path)
        sp = SpanRecorder()
        try:
            st.obs = Observer(spans=sp)  # arms workers, enables trace headers
            writes, reads = _do_ops(st)
            st.collect_telemetry()
            exported = st.export_spans_into(sp)
            assert exported == reads + writes
            assert st.worker_span_drops() == 0

            client = {r.span_id: r for r in sp.records()
                      if r.name in ("shard_read", "shard_write")}
            assert len(client) == reads + writes
            assert all(sid != 0 for sid in client)
            tracks = sp.tracks()
            assert [name for name, _, _ in tracks] == \
                sorted({f"shard-worker-{st.shard_of_item(i)}"
                        for i in range(N_ITEMS)})
            pair = {"shard_disk_read": "shard_read",
                    "shard_disk_write": "shard_write"}
            for _name, records, _off in tracks:
                for rec in records:
                    # every worker disk span names a retained client span
                    assert rec.parent in client
                    assert client[rec.parent].name == pair[rec.name]
                    assert rec.args == {"item": client[rec.parent].args["item"]}
        finally:
            st.close()

    def test_trace_scope_sets_client_span_parent(self, tmp_path):
        st = _make_store(tmp_path)
        sp = SpanRecorder()
        try:
            st.obs = Observer(spans=sp)
            with st.trace_scope(4242):
                st.write(0, np.zeros(SHAPE))
            st.write(1, np.zeros(SHAPE))  # outside the scope
            by_item = {r.args["item"]: r for r in sp.records()
                       if r.name == "shard_write"}
            assert by_item[0].parent == 4242
            assert by_item[1].parent == 0
        finally:
            st.close()

    def test_chrome_trace_links_worker_tracks_with_flows(self, tmp_path):
        st = _make_store(tmp_path)
        sp = SpanRecorder()
        try:
            st.obs = Observer(spans=sp)
            writes, reads = _do_ops(st)
            st.collect_telemetry()
            st.export_spans_into(sp)
        finally:
            st.close()
        doc = sp.to_chrome_trace()
        assert doc["otherData"]["tracks"] == SHARDS
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert pids == set(range(1, SHARDS + 2))
        flows = [e for e in doc["traceEvents"] if e["ph"] in ("s", "f")]
        # one s/f pair per worker disk span, rooted in pid 1
        assert len(flows) == 2 * (reads + writes)
        assert all(e["pid"] == 1 for e in flows if e["ph"] == "s")
        assert all(e["pid"] != 1 for e in flows if e["ph"] == "f")


class TestWrappedShardedStore:
    """The one ``obs`` is forwarded to ``inner`` by every wrapper, so a
    sharded store keeps its client spans (and its workers stay parented)
    however deep it sits — with per-sink plumbing the wrappers forwarded
    ``probe``/``metrics`` only and every shard span was lost."""

    @pytest.fixture(scope="class")
    def dataset(self):
        # 32 taxa: at 3 slots a full traversal re-reads evicted children.
        tree = yule_tree(32, seed=3)
        model = GTR((1.0, 2.5, 1.2, 0.8, 3.0, 1.0), (0.3, 0.2, 0.25, 0.25))
        rates = RateModel.gamma(0.8, 4)
        return tree, simulate_alignment(tree, model, 120, rates=rates,
                                        seed=1), model, rates

    @staticmethod
    def shard_spans(config, dataset, tmp_path, wrap=None):
        """Run traced; ``(worker spans, {client span id: name})``, the
        client spans already checked against the physical I/O counters."""
        tree, alignment, model, rates = dataset
        overrides = {}
        if wrap is not None:
            overrides["backing"] = wrap(ShardedBackingStore(
                tmp_path / "sh", *clv_geometry(tree, alignment, model, rates),
                num_shards=config.shards))
        engine = LikelihoodEngine(tree.copy(), alignment, model, rates,
                                  config, workdir=tmp_path, **overrides)
        obs = Observer(metrics=True, spans=True).attach(engine)
        try:
            engine.full_traversals(2)
            engine.store.drain()
            physical = (engine.stats.physical_reads,
                        engine.stats.physical_writes)
            sharded = _find_sharded(engine.store.backing)
            assert sharded.obs is obs
            sharded.collect_telemetry()
            assert sharded.export_spans_into(obs.spans) == sum(physical)
            assert sharded.worker_span_drops() == 0
            probe = sharded.worker_probe
            assert (probe.read_hist.count, probe.write_hist.count) == physical
        finally:
            engine.close()
        client = {r.span_id: r.name for r in obs.spans.records()
                  if r.name in ("shard_read", "shard_write")}
        workers = [rec for _name, records, _off in obs.spans.tracks()
                   for rec in records]
        names = list(client.values())
        assert (names.count("shard_read"), names.count("shard_write")) \
            == physical
        assert min(physical) > 0
        return workers, client

    @pytest.mark.parametrize("wrapper",
                             ["none", "retrying", "fault-injecting",
                              "prefetching"])
    def test_client_spans_recorded_and_worker_parents_resolve(
            self, tmp_path, dataset, wrapper):
        from repro.core.faults import FaultInjectingBackingStore

        # "prefetching": write-behind writes and prefetched reads in
        # flight together — both lanes of a worker record at once, and
        # the spans must still add up to IoStats' physical totals.
        config = EngineConfig(num_slots=3, policy="lru", backing="sharded",
                              shards=SHARDS, writeback_depth=4,
                              backing_retries=2 if wrapper == "retrying" else 0,
                              **({"io_threads": 2, "prefetch_depth": 4}
                                 if wrapper == "prefetching" else {}))
        # all fault rates 0: a pure pass-through wrapper
        wrap = (FaultInjectingBackingStore if wrapper == "fault-injecting"
                else None)
        workers, client = self.shard_spans(config, dataset, tmp_path, wrap)
        pair = {"shard_disk_read": "shard_read",
                "shard_disk_write": "shard_write"}
        assert len(workers) == len(client)
        for rec in workers:
            assert client[rec.parent] == pair[rec.name]
