"""Tests for the observability layer (``repro.obs``) and ``repro.profile``.

The central invariant: observation is passive. Attaching an observer must
never change which slots are allocated or any demand counter — traced and
untraced runs are bit-identical (no prefetch; with a prefetch thread the
victim choice is scheduling-dependent either way). The second: every
measurement is reported once, by name, lands once in the record ring and
at most once in the registry, and ``ROUTES`` alone decides where
(``TestReportingSeam``).
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
from repro.obs import (
    ENGINE_PHASES,
    METRIC_NAMES,
    PROFILE_SCHEMA,
    ROUTES,
    LogHistogram,
    Observer,
    Route,
    SpanRecord,
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
    """Instants: ``Observer.event`` leaves one ``dur = 0`` ring record."""

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            Observer(capacity=0)

    def test_emit_and_query(self):
        obs = Observer(capacity=16)
        obs.event("get", item=3)
        obs.event("miss", item=3, slot=1)
        obs.event("get", item=5)
        ring = obs.spans
        assert ring.emitted == 3
        assert len(ring) == 3
        assert ring.dropped == 0
        assert ring.by_name() == {"get": 2, "miss": 1}
        rec = ring.records()[0]
        assert isinstance(rec, SpanRecord)
        assert (rec.name, rec.item, rec.slot, rec.dur) == ("get", 3, -1, 0.0)
        assert rec.args is None

    def test_ring_overflow_drops_oldest(self):
        obs = Observer(capacity=4)
        for i in range(10):
            obs.event("get", item=i)
        assert obs.spans.emitted == 10
        assert len(obs.spans) == 4
        assert obs.spans.dropped == 6
        assert [r.item for r in obs.spans.records()] == [6, 7, 8, 9]

    def test_timestamps_monotone(self):
        obs = Observer(capacity=8)
        for _ in range(5):
            obs.event("hit")
        ts = [r.start for r in obs.spans.records()]
        assert ts == sorted(ts)

    def test_clear(self):
        obs = Observer(capacity=8)
        obs.event("get")
        obs.spans.clear()
        assert (obs.spans.emitted, len(obs.spans), obs.spans.dropped) \
            == (0, 0, 0)

    def test_failure_event_counts_and_carries_context(self):
        obs = Observer(capacity=8)
        obs.event("backing_retry", 7, attempt=2)
        obs.event("backing_retry", 9, attempt=3)
        first, second = obs.spans.records()
        assert (first.item, first.args) == (7, {"attempt": 2})
        assert (second.item, second.args) == (9, {"attempt": 3})
        assert obs.metrics.value("backing_retries") == 2


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
    def make_store(self, closing, obs=None, **kw):
        store = closing(AncestralVectorStore(6, SHAPE, num_slots=3,
                                             policy="lru", **kw))
        store.attach(obs)
        return store

    def test_events_mirror_counters(self, closing):
        store = self.make_store(closing, Observer(1 << 12))
        run_store_workload(store, WORKLOAD)
        store.drain()
        by = store.obs.spans.by_name()
        st = store.stats
        assert by["get"] and by["read_skip"]  # the workload exercises both
        for name, route in ROUTES.items():
            if route.mirrors is not None:
                assert by.get(name, 0) == getattr(st, route.mirrors), name
        assert by.get("evict", 0) == st.writes + st.write_skips

    def test_demand_read_records_duration(self, closing):
        store = self.make_store(closing, Observer(1 << 12))
        run_store_workload(store, WORKLOAD)
        reads = [r for r in store.obs.spans.records()
                 if r.name == "demand_read"]
        assert reads
        assert all(r.dur >= 0.0 for r in reads)

    def test_attach_after_construction(self, closing):
        store = self.make_store(closing)
        store.get(0)
        obs = Observer(64)
        store.attach(obs)
        assert store.obs is store.backing.obs is obs
        store.get(1)
        assert obs.spans.by_name().get("get") == 1
        store.attach(None)
        store.get(2)
        assert obs.spans.by_name().get("get") == 1

    def test_tracing_is_passive(self, closing):
        """Bit-identical counters traced vs untraced (no prefetch)."""
        bare = self.make_store(closing)
        run_store_workload(bare, WORKLOAD)
        bare.drain()
        traced = self.make_store(closing, Observer(1 << 12))
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
        by = store.obs.spans.by_name()
        # every eviction write is staged exactly once (coalesced or fresh)
        assert by.get("writeback_enqueue", 0) == store.stats.writes
        assert by.get("writeback_drain", 0) == store.stats.writeback_writes


class TestObserver:
    @pytest.fixture()
    def build(self, small_tree, small_alignment, small_model, closing):
        def build(**kw):
            return closing(LikelihoodEngine(small_tree.copy(), small_alignment,
                                            small_model, num_slots=4, **kw))
        return build

    def test_attach_detach_roundtrip(self, build):
        eng = build()
        obs = Observer(capacity=1 << 12)
        obs.attach(eng)
        assert eng.obs is eng.store.obs is eng.store.backing.obs is obs
        eng.full_traversals(1)
        obs.detach(eng)
        assert eng.obs is eng.store.obs is eng.store.backing.obs is None

    def test_phase_timers_populate(self, build):
        eng = build()
        obs = Observer().attach(eng)
        eng.full_traversals(2)
        hists = obs.metrics.snapshot()["histograms"]
        for phase in ENGINE_PHASES:
            lap = hists[ROUTES[phase].metric]
            assert lap["count"] > 0
            assert lap["sum"] >= 0.0

    @pytest.mark.parametrize("layout", [
        {}, {"layout": "block", "block_sites": 64}])
    def test_every_store_request_is_a_store_wait_lap(self, build, layout):
        """Branch optimisation and per-site evaluation fetch through the
        timed path too: every store request falls in exactly one
        ``store_wait`` lap — one lap per ``get`` or ``get_many`` call,
        carrying how many accesses it served."""
        eng = build(**layout)
        obs = Observer().attach(eng)
        inner = eng.tree.num_tips + 1
        u, v = inner, eng.tree.neighbors(inner)[0]
        def laps():
            return [r.args["accesses"] for r in obs.spans.records()
                    if r.name == "store_wait"]

        for work in (lambda: eng.optimize_branch(u, v),
                     eng.site_loglikelihoods):
            before, requests = len(laps()), eng.stats.requests
            work()
            assert eng.stats.requests > requests
            assert sum(laps()[before:]) == eng.stats.requests - requests
            assert len(laps()) == obs.metrics.snapshot()["histograms"][
                "store_wait_seconds"]["count"]

    def test_backing_probe_sees_demand_reads(self, build):
        eng = build()
        obs = Observer().attach(eng)
        eng.full_traversals(3)
        hists = obs.metrics.snapshot()["histograms"]
        assert hists["backing_read_seconds"]["count"] \
            == eng.stats.physical_reads
        assert hists["backing_write_seconds"]["count"] \
            == eng.stats.physical_writes

    def test_observer_is_passive_on_engine(self, build):
        bare = build()
        bare.full_traversals(2)
        traced = build()
        Observer().attach(traced)
        traced.full_traversals(2)
        assert traced.stats._counters() == bare.stats._counters()

    def test_event_summary_shape(self, build):
        eng = build()
        obs = Observer().attach(eng)
        eng.full_traversals(1)
        ring = obs.spans
        assert ring.emitted == len(ring) + ring.dropped
        assert set(ring.by_name()) <= set(ROUTES)


def routes_table():
    """``ROUTES`` rendered as the markdown table DESIGN.md carries."""
    def cell(value):
        return f"`{value}`" if value else "—"

    rows = ["| reported name | catalogue metric | record count mirrors |",
            "|---|---|---|"]
    for name, route in ROUTES.items():
        rows.append(f"| `{name}` | {cell(route.metric)} "
                    f"| {cell(route.mirrors)} |")
    return "\n".join(rows)


class CountingObserver(Observer):
    """An observer that also tallies what was reported, by name."""

    def __init__(self):
        super().__init__(capacity=1 << 18, metrics=True, spans=True)
        self.reports = Counter()
        self._tally = threading.Lock()  # reports arrive from I/O threads too

    def event(self, name, item=-1, slot=-1, **kw):
        with self._tally:
            self.reports[name] += 1
        super().event(name, item, slot, **kw)

    def timed(self, name, t0, dt, **kw):
        with self._tally:
            self.reports[name] += 1
        super().timed(name, t0, dt, **kw)


class TestReportingSeam:
    """One ``obs`` per component, one report per measurement, two sinks,
    and ``ROUTES`` — nothing else — decides what each report feeds."""

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

        # (ii) completeness: the ring holds one record per report, and
        # the registry exactly what ROUTES sends it, summed over the
        # names that were reported.
        reports = obs.reports
        expected = {"get", "miss", "evict", "demand_read", "plan", "kernel",
                    "store_wait", "execute_plan", "backing_read",
                    "backing_write"}
        if pipeline == "async":
            expected |= {"writeback_enqueue", "writeback_drain",
                         "prefetch_load"}
        assert expected <= set(reports) <= set(ROUTES)

        def routed(field, target):
            return sum(n for name, n in reports.items()
                       if getattr(ROUTES[name], field) == target)

        assert obs.spans.dropped == 0
        assert obs.spans.by_name() == dict(reports)
        histograms = snapshot["histograms"]
        for metric in {ROUTES[name].metric for name in reports} - {None}:
            assert histograms[metric]["count"] == routed("metric", metric), \
                metric
        # ... and both sinks agree with the authoritative counters.
        assert histograms["backing_read_seconds"]["count"] \
            == engine.stats.physical_reads
        assert histograms["backing_write_seconds"]["count"] \
            == engine.stats.physical_writes
        assert histograms["writeback_drain_seconds"]["count"] \
            == engine.stats.writeback_writes
        for name in reports:
            if ROUTES[name].mirrors is not None:
                assert reports[name] == getattr(
                    engine.stats, ROUTES[name].mirrors), name
        assert reports["get"] == seen["requests"]
        assert sum(r.args["accesses"] for r in obs.spans.records()
                   if r.name == "store_wait") == seen["requests"]

        # (iii) detach left no observer and no collector behind.
        innermost = engine.store.backing
        while hasattr(innermost, "inner"):
            innermost = innermost.inner
        for component in (engine, engine.store, engine.store.writeback,
                          engine.prefetcher, engine.store.backing, innermost):
            assert component is None or component.obs is None
        assert obs.metrics._collectors == []

    def test_inflight_wait_is_one_span_on_the_waiting_thread(self, closing):
        """The third cause of an asynchronous ``store_wait``: ``get`` found
        its item's load in flight. One report per wait, routed to the span
        recorder alone, carrying the item."""
        from tests.test_prefetch import GatedReads

        backing = GatedReads(8, (2,))
        store = closing(AncestralVectorStore(8, (2,), num_slots=3,
                                             backing=backing))
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
        assert span.thread == "demand" and span.item == 5
        assert span.dur > 0.0
        assert ROUTES["inflight_wait"] == Route()
        assert store.stats.prefetch_hits == 1
        store.attach(None)


class TestExporters:
    @pytest.fixture()
    def obs(self, small_tree, small_alignment, small_model):
        """The observer of a traced engine's two full traversals."""
        eng = LikelihoodEngine(small_tree.copy(), small_alignment,
                               small_model, num_slots=4)
        obs = Observer().attach(eng)
        eng.full_traversals(2)
        eng.close()
        return obs

    def test_records_to_jsonl(self, tmp_path, obs):
        path = tmp_path / "events.jsonl"
        n = records_to_jsonl(obs.spans.records(), path)
        lines = path.read_text().splitlines()
        assert n == len(lines) == len(obs.spans)
        rows = [json.loads(line) for line in lines]
        assert {"ts", "name", "item", "slot", "dur", "thread"} <= set(rows[0])
        assert {row["name"] for row in rows} <= set(ROUTES)
        # only a record with arguments carries them
        with_args = {row["name"] for row in rows if "args" in row}
        assert "plan" in with_args and "get" not in with_args

    def test_slot_timeline_intervals(self, obs):
        intervals = slot_timeline(obs.spans.records())
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
            SpanRecord("miss", 1.0, 0.0, "t", None, item=7, slot=0),
            SpanRecord("evict", 2.0, 0.0, "t", None, item=7, slot=0),
            # a timed record counts when it was reported: at its end
            SpanRecord("prefetch_issue", 2.5, 0.5, "t", None, item=9,
                       slot=0),
            SpanRecord("get", 4.0, 0.0, "t", None, item=9, slot=0),
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
    def _document(**overrides):
        """A minimal well-formed document (every name resolves)."""
        hist = {"count": 0, "sum": 0.0}
        doc = {
            "schema": PROFILE_SCHEMA, "workload": "full", "config": {},
            "derived": {"physical_reads": 0, "physical_writes": 0,
                        "swaps": 0},
            "records": {"emitted": 0, "captured": 0, "dropped": 0},
            "metrics": {"counters": {k: 0 for k in PARITY_COUNTERS},
                        "gauges": {},
                        "histograms": {"backing_read_seconds": hist,
                                       "backing_write_seconds": hist}},
        }
        doc.update(overrides)
        return doc

    def test_validate_profile_rejects_damaged_docs(self):
        assert validate_profile([]) != []
        assert any("missing top-level" in p for p in validate_profile({}))
        assert validate_profile(self._document()) == []
        problems = validate_profile(self._document(
            schema="other/9", derived={}, metrics={
                "counters": {}, "gauges": {}, "histograms": {}}))
        assert any("schema" in p for p in problems)
        assert any("derived missing" in p for p in problems)
        assert any("metrics.counters missing" in p for p in problems)

    def test_validate_profile_checks_metrics_consistency(self):
        """The metrics block is the registry snapshot: all three of its
        objects, and every parity counter among the counters."""
        doc = self._document()
        del doc["metrics"]["histograms"]
        assert validate_profile(doc) == [
            "metrics missing object 'histograms'"]
        doc = self._document()
        del doc["metrics"]["counters"]["requests"]
        assert validate_profile(doc) == [
            "metrics.counters missing integer 'requests'"]
        # missing metrics block entirely is also a violation
        missing = {k: v for k, v in doc.items() if k != "metrics"}
        assert any("metrics" in p for p in validate_profile(missing))

    def test_profile_document_holds_no_value_twice(self, tmp_path):
        """``repro-profile/5``: a counter, phase total or latency lives in
        the metrics snapshot and nowhere else in the document."""
        out = tmp_path / "p.json"
        assert profile_main(["--simulate-taxa", "10", "--simulate-length",
                             "60", "--traversals", "2", "--fraction", "0.3",
                             "--backing", "file", "--writeback-depth", "2",
                             "-o", str(out)]) == 0
        doc = json.loads(out.read_text())

        def keys(node):
            if isinstance(node, dict):
                for key, value in node.items():
                    yield key
                    yield from keys(value)

        # (``config`` is the input: its ``backing_retries`` is a budget)
        measured = METRIC_NAMES | {f"{phase}_calls" for phase in ENGINE_PHASES}
        for block, value in doc.items():
            if block not in ("metrics", "config"):
                assert not set(keys(value)) & measured, block
        assert not {"phases", "histograms", "events", "counters",
                    "attribution"} & set(doc)
        assert doc["metrics"]["histograms"]["kernel_seconds"]["count"] > 0


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
        metrics = doc["metrics"]
        assert metrics["counters"]["requests"] > 0
        assert metrics["histograms"]["kernel_seconds"]["count"] > 0
        assert metrics["histograms"]["backing_read_seconds"]["count"] == \
            doc["derived"]["physical_reads"]
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
            assert row[key] == doc["metrics"]["counters"][key], key

    def test_block_sites_without_block_layout_rejected(self, capsys):
        assert profile_main(["--block-sites", "16"]) == 2
        assert "block_sites" in capsys.readouterr().err

    def test_parity_with_prefetch_rejected(self, capsys):
        rc = profile_main(["--check-parity", "--prefetch-depth", "2"])
        assert rc == 2
        assert "prefetch" in capsys.readouterr().err
