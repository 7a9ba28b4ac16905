"""Tests for the observability layer (``repro.obs``) and ``repro.profile``.

The central invariant: observation is passive. Attaching an observer must
never change which slots are allocated or any demand counter — traced and
untraced runs are bit-identical (no prefetch; with a prefetch thread the
victim choice is scheduling-dependent either way). The second: every
measurement is reported once, by name, and ``ROUTES`` alone decides which
sinks record it (``TestReportingSeam``).
"""

import json
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro import (
    GTR,
    LikelihoodEngine,
    RateModel,
    simulate_alignment,
    yule_tree,
)
from repro.config import EngineConfig
from repro.core.vecstore import AncestralVectorStore
from repro.errors import OutOfCoreError
from repro.obs import (
    ENGINE_PHASES,
    EVENT_TYPES,
    ROUTES,
    LogHistogram,
    Observer,
    Route,
    TraceRecord,
    Tracer,
    records_to_jsonl,
    slot_timeline,
    validate_profile,
)
from repro.core.stats import PARITY_COUNTERS
from repro.profile import main as profile_main

SHAPE = (4,)


def run_store_workload(store, accesses):
    for item, write_only in accesses:
        arr = store.get(item, write_only=write_only)
        if write_only:
            arr[:] = float(item)


WORKLOAD = [(0, True), (1, True), (2, True), (3, True),
            (0, False), (1, False), (4, True), (0, False),
            (2, False), (4, False), (3, False), (1, True)]


class TestTracer:
    def test_capacity_validated(self):
        with pytest.raises(OutOfCoreError, match="capacity"):
            Tracer(0)

    def test_emit_and_query(self):
        tr = Tracer(16)
        tr.emit("get", item=3)
        tr.emit("miss", item=3, slot=1)
        tr.emit("get", item=5)
        assert tr.emitted == 3
        assert len(tr) == 3
        assert tr.dropped == 0
        assert tr.by_type() == {"get": 2, "miss": 1}
        rec = tr.records()[0]
        assert isinstance(rec, TraceRecord)
        assert (rec.etype, rec.item, rec.slot) == ("get", 3, -1)

    def test_ring_overflow_drops_oldest(self):
        tr = Tracer(4)
        for i in range(10):
            tr.emit("get", item=i)
        assert tr.emitted == 10
        assert len(tr) == 4
        assert tr.dropped == 6
        assert [r.item for r in tr.records()] == [6, 7, 8, 9]

    def test_timestamps_monotone(self):
        tr = Tracer(8)
        for _ in range(5):
            tr.emit("hit")
        ts = [r.ts for r in tr.records()]
        assert ts == sorted(ts)

    def test_clear(self):
        tr = Tracer(8)
        tr.emit("get")
        tr.clear()
        assert (tr.emitted, len(tr), tr.dropped) == (0, 0, 0)


class TestLogHistogram:
    def test_empty(self):
        h = LogHistogram()
        d = h.to_dict()
        assert d["count"] == 0
        assert d["buckets"] == []

    def test_bucketing(self):
        h = LogHistogram(min_seconds=1e-7)
        h.record(1e-7)   # bucket 0: le 2e-7
        h.record(1.5e-7)
        h.record(1e-6)   # ~2^3.32 above min -> bucket 3
        d = h.to_dict()
        assert d["count"] == 3
        les = [b["le"] for b in d["buckets"]]
        assert les == sorted(les)
        assert sum(b["count"] for b in d["buckets"]) == 3

    def test_below_min_goes_to_first_bucket(self):
        h = LogHistogram(min_seconds=1e-7)
        h.record(0.0)
        h.record(1e-12)
        assert h.to_dict()["buckets"][0]["count"] == 2

    def test_percentile(self):
        h = LogHistogram()
        for _ in range(99):
            h.record(1e-6)
        h.record(1.0)
        assert h.percentile(50) <= 4e-6  # upper bucket bound estimate
        assert h.percentile(100) == pytest.approx(h.to_dict()["max"])

    def test_mean_and_sum(self):
        h = LogHistogram()
        h.record(0.25)
        h.record(0.75)
        d = h.to_dict()
        assert d["sum"] == pytest.approx(1.0)
        assert d["mean"] == pytest.approx(0.5)


class TestStoreTracing:
    def make_store(self, obs=None, **kw):
        store = AncestralVectorStore(6, SHAPE, num_slots=3, policy="lru", **kw)
        store.attach(obs)
        return store

    def test_events_mirror_counters(self):
        store = self.make_store(Observer(1 << 12))
        tr = store.obs.tracer
        run_store_workload(store, WORKLOAD)
        store.drain()
        by = tr.by_type()
        st = store.stats
        assert by["get"] and by["read_skip"]  # the workload exercises both
        for etype, counter in EVENT_TYPES.items():
            if counter is not None:
                assert by.get(etype, 0) == getattr(st, counter), etype
        assert by.get("evict", 0) == st.writes + st.write_skips

    def test_demand_read_records_duration(self):
        store = self.make_store(Observer(1 << 12))
        run_store_workload(store, WORKLOAD)
        reads = [r for r in store.obs.tracer.records()
                 if r.etype == "demand_read"]
        assert reads
        assert all(r.dur >= 0.0 for r in reads)

    def test_attach_after_construction(self):
        store = self.make_store()
        store.get(0)
        obs = Observer(64)
        store.attach(obs)
        assert store.obs is store.backing.obs is obs
        store.get(1)
        assert obs.tracer.by_type().get("get") == 1
        store.attach(None)
        store.get(2)
        assert obs.tracer.by_type().get("get") == 1

    def test_tracing_is_passive(self):
        """Bit-identical counters traced vs untraced (no prefetch)."""
        bare = self.make_store()
        run_store_workload(bare, WORKLOAD)
        bare.drain()
        traced = self.make_store(Observer(1 << 12))
        run_store_workload(traced, WORKLOAD)
        traced.drain()
        assert traced.stats._counters() == bare.stats._counters()

    def test_writeback_events(self):
        store = AncestralVectorStore(8, SHAPE, num_slots=2, policy="lru",
                                     writeback_depth=2)
        store.attach(Observer(1 << 12))
        try:
            run_store_workload(store, WORKLOAD)
            store.drain()
        finally:
            store.close()
        by = store.obs.tracer.by_type()
        # every eviction write is staged exactly once (coalesced or fresh)
        assert by.get("writeback_enqueue", 0) == store.stats.writes
        assert by.get("writeback_drain", 0) == store.stats.writeback_writes


class TestObserver:
    def build(self, small_tree, small_alignment, small_model, **kw):
        return LikelihoodEngine(small_tree.copy(), small_alignment,
                                small_model, num_slots=4, **kw)

    def test_attach_detach_roundtrip(self, small_tree, small_alignment,
                                     small_model):
        eng = self.build(small_tree, small_alignment, small_model)
        obs = Observer(capacity=1 << 12)
        obs.attach(eng)
        assert eng.obs is eng.store.obs is eng.store.backing.obs is obs
        eng.full_traversals(1)
        obs.detach(eng)
        assert eng.obs is eng.store.obs is eng.store.backing.obs is None

    def test_phase_timers_populate(self, small_tree, small_alignment,
                                   small_model):
        eng = self.build(small_tree, small_alignment, small_model)
        obs = Observer().attach(eng)
        eng.full_traversals(2)
        totals = obs.phase_totals()
        assert set(totals) == set(ENGINE_PHASES)
        for phase in ENGINE_PHASES:
            assert totals[phase]["calls"] > 0
            assert totals[phase]["seconds"] >= 0.0

    @pytest.mark.parametrize("layout", [
        {}, {"layout": "block", "block_sites": 64}])
    def test_every_store_request_is_a_store_wait_lap(
            self, small_tree, small_alignment, small_model, layout):
        """Branch optimisation and per-site evaluation fetch through the
        timed path too: one ``store_wait`` lap per store request."""
        eng = self.build(small_tree, small_alignment, small_model, **layout)
        obs = Observer().attach(eng)
        inner = eng.tree.num_tips + 1
        u, v = inner, eng.tree.neighbors(inner)[0]
        for work in (lambda: eng.optimize_branch(u, v),
                     eng.site_loglikelihoods):
            laps, requests = obs.timers.count("store_wait"), eng.stats.requests
            work()
            assert eng.stats.requests > requests
            assert (obs.timers.count("store_wait") - laps
                    == eng.stats.requests - requests)
        eng.close()

    def test_backing_probe_sees_demand_reads(self, small_tree,
                                             small_alignment, small_model):
        eng = self.build(small_tree, small_alignment, small_model)
        obs = Observer().attach(eng)
        eng.full_traversals(3)
        hists = obs.histograms()
        assert hists["backing_read"]["count"] == eng.stats.physical_reads
        assert hists["backing_write"]["count"] == eng.stats.physical_writes

    def test_observer_is_passive_on_engine(self, small_tree, small_alignment,
                                           small_model):
        bare = self.build(small_tree, small_alignment, small_model)
        bare.full_traversals(2)
        traced = self.build(small_tree, small_alignment, small_model)
        Observer().attach(traced)
        traced.full_traversals(2)
        assert traced.stats._counters() == bare.stats._counters()

    def test_event_summary_shape(self, small_tree, small_alignment,
                                 small_model):
        eng = self.build(small_tree, small_alignment, small_model)
        obs = Observer().attach(eng)
        eng.full_traversals(1)
        summary = obs.event_summary()
        assert summary["emitted"] == summary["captured"] + summary["dropped"]
        assert set(summary["by_type"]) <= set(EVENT_TYPES)


def routes_table():
    """``ROUTES`` rendered as the markdown table DESIGN.md carries."""
    def cell(value):
        return f"`{value}`" if value else "—"

    rows = ["| reported name | tracer event | latency histogram "
            "| catalogue histogram | span | phase timer "
            "| per-shard counters |",
            "|---|---|---|---|---|---|---|"]
    for name, route in ROUTES.items():
        hist = {"read": "probe.read_hist", "write": "probe.write_hist",
                "drain": "drain_hist", None: None}[route.hist]
        shard = (f"`{route.ops}` +1, `{route.bytes}` +nbytes"
                 if route.ops else "—")
        rows.append(f"| `{name}` | {cell(route.event)} | {cell(hist)} "
                    f"| {cell(route.metric)} | {'yes' if route.span else '—'} "
                    f"| {cell(route.timer)} | {shard} |")
    return "\n".join(rows)


class CountingObserver(Observer):
    """An observer that also tallies what was reported, by name."""

    def __init__(self):
        super().__init__(capacity=1 << 18, metrics=True, spans=True)
        self.reports = Counter()
        self._tally = threading.Lock()  # reports arrive from I/O threads too

    def event(self, name, item=-1, slot=-1):
        with self._tally:
            self.reports[name] += 1
        super().event(name, item, slot)

    def timed(self, name, t0, dt, **kw):
        with self._tally:
            self.reports[name] += 1
        super().timed(name, t0, dt, **kw)


class TestReportingSeam:
    """One ``obs`` per component, one report per measurement, and
    ``ROUTES`` — nothing else — decides which sinks record it."""

    PIPELINES = {"sync": {}, "async": {"writeback_depth": 4,
                                       "prefetch_depth": 2}}

    @pytest.fixture(scope="class")
    def dataset(self, small_model):
        """32 taxa: at 3 slots a full traversal re-reads evicted children
        (the shared 10-taxon tree never does)."""
        tree = yule_tree(32, seed=3)
        rates = RateModel.gamma(0.8, 4)
        return tree, simulate_alignment(tree, small_model, 120, rates=rates,
                                        seed=1), small_model, rates

    @staticmethod
    def run(config, dataset, workdir, obs=None):
        tree, alignment, model, rates = dataset
        engine = LikelihoodEngine(tree.copy(), alignment, model, rates,
                                  config, workdir=workdir)
        try:
            if obs is not None:
                obs.attach(engine)
            engine.full_traversals(2)
            engine.store.drain()
            row = dict(engine.stats.as_row())
            if obs is not None and engine.prefetcher is not None:
                TestReportingSeam.await_prefetch_load(engine, obs)
            snapshot = obs.metrics.snapshot() if obs is not None else None
            return engine, row, snapshot
        finally:
            if obs is not None:
                obs.detach(engine)
            engine.close()

    @staticmethod
    def await_prefetch_load(engine, obs):
        """The prefetch thread races the compute thread and, now and then,
        gets no turn in two traversals. Hand it one absent vector while the
        compute thread is idle and wait, with a deadline, for its first
        report (as ``test_spans::test_prefetch_thread_appears_on_timeline``
        does). Runs after the passivity row is taken: the load may evict."""
        if obs.reports["prefetch_load"]:
            return
        store = engine.store
        absent = next(item for item in range(store.num_items)
                      if not store.is_resident(item))
        engine.prefetcher.feed([(absent, (), False)])
        deadline = time.monotonic() + 5.0
        while not obs.reports["prefetch_load"]:
            assert time.monotonic() < deadline, "prefetcher never loaded"
            time.sleep(0.005)
        store.drain()

    def test_design_table_is_the_routing_table(self):
        """DESIGN.md documents the policy by quoting it: regenerate with
        ``print(tests.test_obs.routes_table())`` when ``ROUTES`` changes."""
        design = Path(__file__).resolve().parents[1] / "DESIGN.md"
        assert routes_table() in design.read_text()

    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    @pytest.mark.parametrize("backing",
                             ["memory", "file", "compressed", "sharded"])
    def test_every_report_reaches_every_routed_sink(
            self, tmp_path, dataset, backing, pipeline):
        config = EngineConfig(num_slots=3, policy="lru", backing=backing,
                              shards=2, **self.PIPELINES[pipeline])
        (tmp_path / "bare").mkdir()
        (tmp_path / "seen").mkdir()
        _, bare, _ = self.run(config, dataset, tmp_path / "bare")
        obs = CountingObserver()
        engine, seen, snapshot = self.run(config, dataset, tmp_path / "seen",
                                          obs)

        # (i) passivity: observing changed nothing the store decided.
        # PARITY_COUNTERS is DEMAND | EVICTION; the queue-timing counters
        # are scheduling noise on the asynchronous rows, observed or not.
        for key in PARITY_COUNTERS:
            assert seen[key] == bare[key], key
        if pipeline == "sync":
            assert seen == bare

        # (ii) completeness: what each sink holds is exactly what ROUTES
        # sends it, summed over the names that were reported.
        reports = obs.reports
        transfer = "shard" if backing == "sharded" else "backing"
        expected = {"get", "miss", "evict", "demand_read", "plan", "kernel",
                    "store_wait", "execute_plan", f"{transfer}_read",
                    f"{transfer}_write"}
        if pipeline == "async":
            expected |= {"writeback_enqueue", "writeback_drain",
                         "prefetch_load"}
        else:
            expected |= {"swap"}
        assert expected <= set(reports) <= set(ROUTES)

        def routed(field, target=True):
            return sum(n for name, n in reports.items()
                       if getattr(ROUTES[name], field) == target)

        assert obs.tracer.dropped == 0
        by_type = obs.tracer.by_type()
        for etype in {ROUTES[name].event for name in reports} - {None}:
            assert by_type.get(etype, 0) == routed("event", etype), etype
        assert obs.probe.read_hist.count == routed("hist", "read")
        assert obs.probe.write_hist.count == routed("hist", "write")
        assert obs.drain_hist.count == routed("hist", "drain")
        for phase in ENGINE_PHASES:
            assert obs.timers.count(phase) == routed("timer", phase), phase
        histograms = snapshot["histograms"]
        for metric in {ROUTES[name].metric for name in reports} - {None}:
            assert histograms[metric]["count"] == routed("metric", metric), \
                metric
        for field in ("ops", "bytes"):
            for metric in {getattr(ROUTES[name], field)
                           for name in reports} - {None}:
                per_op = 1 if field == "ops" else engine.store.item_bytes
                assert (obs.metrics.labeled_sum(metric)
                        == per_op * routed(field, metric)), metric
        span_names = obs.spans.by_name()
        assert obs.spans.dropped == 0
        for name, n in reports.items():
            assert span_names.get(name, 0) == (n if ROUTES[name].span else 0)
        # ... and the sinks agree with the authoritative counters.
        assert obs.probe.read_hist.count == engine.stats.physical_reads
        assert obs.probe.write_hist.count == engine.stats.physical_writes
        assert reports["store_wait"] == reports["get"] == seen["requests"]
        assert reports["writeback_drain"] == engine.stats.writeback_writes

        # (iii) detach left no observer and no collector behind.
        innermost = engine.store.backing
        while hasattr(innermost, "inner"):
            innermost = innermost.inner
        for component in (engine, engine.store, engine.store.writeback,
                          engine.prefetcher, engine.store.backing, innermost):
            assert component is None or component.obs is None
        assert obs.metrics._collectors == []

    def test_inflight_wait_is_one_span_on_the_waiting_thread(self):
        """The third cause of an asynchronous ``store_wait``: ``get`` found
        its item's load in flight. One report per wait, routed to the span
        recorder alone, carrying the item."""
        from tests.test_prefetch import GatedReads

        backing = GatedReads(8, (2,))
        store = AncestralVectorStore(8, (2,), num_slots=3, backing=backing)
        obs = CountingObserver()
        store.attach(obs)
        backing.shut()
        loader = threading.Thread(target=store.prefetch_load, args=(5,))
        demand = threading.Thread(target=store.get, args=(5,), name="demand")
        try:
            loader.start()
            assert backing.started.acquire(timeout=10.0)
            demand.start()
            demand.join(timeout=0.1)
            assert demand.is_alive()      # waiting for the load to land
        finally:
            backing.gate.set()
            loader.join(timeout=10.0)
            demand.join(timeout=10.0)
        assert not loader.is_alive() and not demand.is_alive()
        assert obs.reports["inflight_wait"] == 1
        (span,) = [r for r in obs.spans.records() if r.name == "inflight_wait"]
        assert span.thread == "demand" and span.args == {"item": 5}
        assert span.dur > 0.0
        assert ROUTES["inflight_wait"] == Route(span=True)
        assert store.stats.prefetch_hits == 1
        store.attach(None)


class TestExporters:
    def trace_engine(self, small_tree, small_alignment, small_model):
        eng = LikelihoodEngine(small_tree.copy(), small_alignment,
                               small_model, num_slots=4)
        obs = Observer().attach(eng)
        eng.full_traversals(2)
        return obs

    def test_records_to_jsonl(self, tmp_path, small_tree, small_alignment,
                              small_model):
        obs = self.trace_engine(small_tree, small_alignment, small_model)
        path = tmp_path / "events.jsonl"
        n = records_to_jsonl(obs.tracer.records(), path)
        lines = path.read_text().splitlines()
        assert n == len(lines) == len(obs.tracer)
        first = json.loads(lines[0])
        assert set(first) == {"ts", "etype", "item", "slot", "dur", "thread"}
        assert first["etype"] in EVENT_TYPES

    def test_slot_timeline_intervals(self, small_tree, small_alignment,
                                     small_model):
        obs = self.trace_engine(small_tree, small_alignment, small_model)
        intervals = slot_timeline(obs.tracer.records())
        assert intervals
        for iv in intervals:
            assert set(iv) == {"slot", "item", "start", "end"}
            assert iv["end"] >= iv["start"]
        # at most one resident item per slot at any instant
        by_slot = {}
        for iv in intervals:
            by_slot.setdefault(iv["slot"], []).append((iv["start"], iv["end"]))
        for spans in by_slot.values():
            spans.sort()
            for (_, e0), (s1, _) in zip(spans, spans[1:]):
                assert s1 >= e0

    def test_slot_timeline_synthetic(self):
        recs = [
            TraceRecord(1.0, "miss", 7, 0, 0.0, "t"),
            TraceRecord(2.0, "evict", 7, 0, 0.0, "t"),
            TraceRecord(3.0, "miss", 9, 0, 0.0, "t"),
            TraceRecord(4.0, "get", 9, 0, 0.0, "t"),
        ]
        tl = slot_timeline(recs)
        assert tl == [
            {"slot": 0, "item": 7, "start": 1.0, "end": 2.0},
            {"slot": 0, "item": 9, "start": 3.0, "end": 4.0},
        ]

    def test_validate_profile_accepts_real_doc(self, tmp_path):
        out = tmp_path / "p.json"
        rc = profile_main(["--workload", "full", "--simulate-taxa", "8",
                           "--simulate-length", "40", "--traversals", "1",
                           "--fraction", "0.5", "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_profile(doc) == []

    @staticmethod
    def _attribution(**overrides):
        summary = {"count": 0, "sum": 0.0, "p50": 0.0, "p95": 0.0,
                   "p99": 0.0}
        block = {
            "backing": "file",
            "window_wait": dict(summary),
            "ops": {op: {**summary, "stages": {"disk": dict(summary)}}
                    for op in ("read", "write")},
            "per_shard": {},
        }
        block.update(overrides)
        return block

    def test_validate_profile_rejects_damaged_docs(self):
        assert validate_profile([]) != []
        assert any("missing top-level" in p for p in validate_profile({}))
        doc = {"schema": "other/9", "workload": "full", "config": {},
               "phases": {"plan": {"seconds": 0.0, "calls": 1}},
               "counters": {}, "histograms": {}, "events": {},
               "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
               "attribution": self._attribution()}
        problems = validate_profile(doc)
        assert any("schema" in p for p in problems)
        assert any("counters missing" in p for p in problems)
        assert any("missing histogram" in p for p in problems)

    def test_validate_profile_checks_attribution_block(self):
        base = {"schema": "other/9", "workload": "full", "config": {},
                "phases": {"plan": {"seconds": 0.0, "calls": 1}},
                "counters": {}, "histograms": {}, "events": {},
                "metrics": {"counters": {}, "gauges": {}, "histograms": {}}}

        def problems_with(attr):
            return validate_profile({**base, "attribution": attr})

        assert any("attribution must be" in p for p in problems_with([]))
        assert any("backing" in p
                   for p in problems_with(self._attribution(backing="")))
        assert any("window_wait" in p for p in problems_with(
            self._attribution(window_wait={"count": 1})))
        broken = self._attribution()
        del broken["ops"]["write"]
        assert any("ops" in p and "write" in p
                   for p in problems_with(broken))
        broken = self._attribution()
        broken["ops"]["read"]["stages"]["disk"] = {"count": "nope"}
        assert any("stages" in p for p in problems_with(broken))
        # the full well-formed block passes
        assert not [p for p in problems_with(self._attribution())
                    if "attribution" in p]

    def test_validate_profile_checks_metrics_consistency(self):
        """The registry snapshot must agree with the counter block."""
        doc = {"schema": "other/9", "workload": "full", "config": {},
               "phases": {"plan": {"seconds": 0.0, "calls": 1}},
               "counters": {"requests": 10},
               "histograms": {}, "events": {"emitted": 5, "dropped": 0},
               "metrics": {"counters": {"requests": 7,
                                        "trace_events_emitted": 4},
                           "gauges": {}, "histograms": {}},
               "attribution": self._attribution()}
        problems = validate_profile(doc)
        assert any("disagrees with the metrics snapshot" in p
                   for p in problems)
        assert any("trace_events_emitted" in p for p in problems)
        # missing metrics block entirely is also a violation
        missing = {k: v for k, v in doc.items() if k != "metrics"}
        assert any("metrics" in p for p in validate_profile(missing))


class TestProfileCli:
    def test_full_workload_with_parity_and_dumps(self, tmp_path, capsys):
        out = tmp_path / "BENCH_profile.json"
        events = tmp_path / "events.jsonl"
        timeline = tmp_path / "timeline.json"
        rc = profile_main([
            "--workload", "full", "--simulate-taxa", "10",
            "--simulate-length", "60", "--traversals", "2",
            "--fraction", "0.3", "--backing", "file",
            "--writeback-depth", "2", "--check-parity",
            "--events", str(events), "--timeline", str(timeline),
            "-o", str(out),
        ])
        assert rc == 0
        assert "parity" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["workload"] == "full"
        assert doc["counters"]["requests"] > 0
        assert doc["phases"]["kernel"]["calls"] > 0
        assert doc["histograms"]["backing_read"]["count"] == \
            doc["counters"]["physical_reads"]
        assert events.exists() and timeline.exists()

    def test_search_workload(self, tmp_path):
        out = tmp_path / "p.json"
        rc = profile_main(["--workload", "search", "--simulate-taxa", "8",
                           "--simulate-length", "40", "--radius", "2",
                           "--fraction", "0.5", "-o", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["workload"] == "search"

    def test_validate_mode(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert profile_main(["--simulate-taxa", "8", "--simulate-length",
                             "40", "--traversals", "1", "-o", str(out)]) == 0
        assert profile_main(["--validate", str(out)]) == 0
        out.write_text(json.dumps({"schema": "bogus"}))
        assert profile_main(["--validate", str(out)]) == 1
        assert profile_main(["--validate", str(tmp_path / "nope.json")]) == 2

    def test_config_block_rebuilds_the_profiled_engine(self, tmp_path):
        """``config`` is ``EngineConfig.to_dict()`` verbatim (resolved
        geometry lives under ``run``): rebuilding from it reproduces the
        profile's lnL and demand/eviction counters."""
        from repro.cli import _parse_model
        from repro.config import EngineConfig
        from repro.core.stats import PARITY_COUNTERS
        from repro.profile import _dataset, build_parser

        out = tmp_path / "p.json"
        argv = ["--simulate-taxa", "8", "--simulate-length", "60",
                "--traversals", "2", "--num-slots", "4", "--layout", "block",
                "--block-sites", "16", "--policy", "random", "--seed", "9",
                "--backing", "compressed", "-o", str(out)]
        assert profile_main(argv) == 0
        doc = json.loads(out.read_text())
        config = EngineConfig.from_dict(doc["config"])
        assert config == EngineConfig(
            num_slots=4, layout="block", block_sites=16, policy="random",
            seed=9, backing="compressed")
        assert doc["run"]["num_slots"] == 4
        assert doc["run"]["layout"]["block_sites"] == 16

        args = build_parser().parse_args(argv)
        alignment, tree = _dataset(args)
        model, rates = _parse_model(args.model, alignment)
        engine = LikelihoodEngine(tree.copy(), alignment, model, rates,
                                  config, workdir=tmp_path)
        try:
            assert engine.full_traversals(2) == doc["log_likelihood"]
            row = engine.stats.as_row()
        finally:
            engine.close()
        for key in PARITY_COUNTERS:
            assert row[key] == doc["counters"][key], key

    def test_block_sites_without_block_layout_rejected(self, capsys):
        assert profile_main(["--block-sites", "16"]) == 2
        assert "block_sites" in capsys.readouterr().err

    def test_parity_with_prefetch_rejected(self, capsys):
        rc = profile_main(["--check-parity", "--prefetch-depth", "2"])
        assert rc == 2
        assert "prefetch" in capsys.readouterr().err
