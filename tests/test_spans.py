"""Span recorder semantics, engine/thread integration, Chrome trace export."""

from __future__ import annotations

import json
import time

import pytest

from repro.obs import Observer, SpanRecorder


class TestSpanRecorder:
    def test_complete_and_records(self):
        sp = SpanRecorder()
        sp.complete("kernel", 1.0, 0.5, {"node": 3})
        (rec,) = sp.records()
        assert rec.name == "kernel"
        assert rec.start == 1.0
        assert rec.dur == 0.5
        assert rec.args == {"node": 3}
        assert rec.thread  # current thread name captured

    def test_span_context_manager(self):
        sp = SpanRecorder()
        with sp.span("work", {"k": 1}):
            time.sleep(0.002)
        (rec,) = sp.records()
        assert rec.name == "work"
        assert rec.dur >= 0.002
        assert rec.args == {"k": 1}

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SpanRecorder(0)

    def test_overflow_drops_oldest_keeps_accounting(self):
        sp = SpanRecorder(capacity=4)
        for i in range(10):
            sp.complete(f"s{i}", float(i), 0.1)
        assert len(sp) == 4
        assert sp.emitted == 10
        assert sp.dropped == 6
        assert [r.name for r in sp.records()] == ["s6", "s7", "s8", "s9"]

    def test_clear(self):
        sp = SpanRecorder()
        sp.complete("x", 0.0, 1.0)
        sp.clear()
        assert len(sp) == 0
        assert sp.emitted == 0

    def test_by_name(self):
        sp = SpanRecorder()
        for _ in range(3):
            sp.complete("a", 0.0, 0.1)
        sp.complete("b", 0.0, 0.1)
        assert sp.by_name() == {"a": 3, "b": 1}

    def test_empty_recorder_is_still_attachable(self):
        """len()==0 must not make Observer discard a shared recorder."""
        shared = SpanRecorder()
        obs = Observer(spans=shared)
        assert obs.spans is shared


class TestChromeTrace:
    def test_document_shape(self, tmp_path):
        sp = SpanRecorder()
        sp.complete("kernel", 10.0, 0.25, {"node": 1})
        sp.complete("plan", 10.5, 0.125)
        doc = sp.to_chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {"emitted": 2, "dropped": 0}
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {"process_name", "thread_name"} <= {e["name"] for e in meta}
        # one process, one track per thread
        assert {e["pid"] for e in events} == {1}
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 2
        # timestamps are relative microseconds from the earliest span
        by_name = {e["name"]: e for e in complete}
        assert by_name["kernel"]["ts"] == 0.0
        assert by_name["kernel"]["dur"] == pytest.approx(250000.0)
        assert by_name["plan"]["ts"] == pytest.approx(500000.0)
        assert by_name["kernel"]["args"] == {"node": 1}

        out = tmp_path / "trace.json"
        sp.write_chrome_trace(str(out))
        assert json.loads(out.read_text()) == doc

    def test_per_thread_tids(self):
        import threading
        sp = SpanRecorder()
        sp.complete("main_work", 0.0, 0.1)
        t = threading.Thread(target=sp.complete, name="writeback-0",
                             args=("drain", 0.05, 0.1))
        t.start()
        t.join()
        doc = sp.to_chrome_trace()
        names = {e["args"]["name"]: e["tid"] for e in doc["traceEvents"]
                 if e["name"] == "thread_name"}
        assert "writeback-0" in names
        complete = {e["name"]: e["tid"] for e in doc["traceEvents"]
                    if e["ph"] == "X"}
        assert complete["drain"] == names["writeback-0"]
        assert complete["main_work"] != complete["drain"]


class TestEngineIntegration:
    def test_engine_spans_match_stopwatch(self, engine_factory):
        """One span per phase lap: the ring and the phase histograms
        count the same reports."""
        engine = engine_factory(fraction=0.3)
        obs = Observer(spans=True).attach(engine)
        try:
            engine.full_traversals(2)
            counts = obs.spans.by_name()
            hists = obs.metrics.snapshot()["histograms"]
            for phase in ("kernel", "plan", "store_wait"):
                assert counts[phase] == hists[f"{phase}_seconds"]["count"]
            assert counts["execute_plan"] >= 1
        finally:
            engine.close()

    def test_writeback_thread_appears_on_timeline(self, engine_factory):
        engine = engine_factory(fraction=0.3, writeback_depth=2)
        obs = Observer(spans=True).attach(engine)
        try:
            engine.full_traversals(2)
            engine.store.drain()
            recs = obs.spans.records()
            drains = [r for r in recs if r.name == "writeback_drain"]
            assert drains
            assert all(r.thread.startswith("writeback") for r in drains)
        finally:
            engine.close()

    def test_prefetch_thread_appears_on_timeline(self):
        import time as _time

        from repro.core.backing import SimulatedDiskBackingStore
        from repro.core.prefetch import ThreadedPrefetcher
        from repro.core.vecstore import AncestralVectorStore

        store = AncestralVectorStore(
            12, (4,), num_slots=4,
            backing=SimulatedDiskBackingStore(12, (4,)))
        sp = SpanRecorder()
        pf = ThreadedPrefetcher(store, depth=3)
        pf.obs = Observer(spans=sp)
        try:
            for i in range(12):
                store.get(i, write_only=True)[:] = i
            store.evict_all()
            store.stats.reset()
            pf.feed([(i, (), False) for i in range(12)])
            deadline = _time.monotonic() + 5.0
            while not sp.by_name().get("prefetch_load"):
                assert _time.monotonic() < deadline, "prefetcher never loaded"
                _time.sleep(0.005)
        finally:
            pf.stop()
            store.close()
        loads = [r for r in sp.records() if r.name == "prefetch_load"]
        assert loads
        assert all(r.thread == "prefetcher" for r in loads)
        assert all(r.item >= 0 for r in loads)

    def test_spans_are_passive(self, engine_factory):
        # Same surface as `repro.profile --check-parity`: the demand and
        # eviction counters (writeback_stalls etc. are queue-timing noise,
        # traced or not).
        from repro.core.stats import PARITY_COUNTERS

        bare = engine_factory(fraction=0.3, writeback_depth=2)
        try:
            bare.full_traversals(2)
            bare.store.drain()
            want = dict(bare.stats.as_row())
        finally:
            bare.close()
        engine = engine_factory(fraction=0.3, writeback_depth=2)
        obs = Observer(spans=True).attach(engine)
        try:
            engine.full_traversals(2)
            engine.store.drain()
            got = dict(engine.stats.as_row())
        finally:
            engine.close()
        for key in PARITY_COUNTERS:
            assert got[key] == want[key], key
        assert len(obs.spans) > 0

    def test_detach_stops_recording(self, engine_factory):
        engine = engine_factory(fraction=0.3)
        obs = Observer(spans=True).attach(engine)
        try:
            engine.full_traversals(1)
            obs.detach(engine)
            n = obs.spans.emitted
            engine.full_traversals(1)
            assert obs.spans.emitted == n
            assert engine.obs is None
        finally:
            engine.close()
