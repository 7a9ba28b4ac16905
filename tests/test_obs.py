"""Tests for the observability layer (``repro.obs``) and ``repro.profile``.

The central invariant: observation is passive. Attaching a tracer, probe
or histogram must never change which slots are allocated or any demand
counter — traced and untraced runs are bit-identical (no prefetch; with a
prefetch thread the victim choice is scheduling-dependent either way).
"""

import json

import numpy as np
import pytest

from repro import GTR, LikelihoodEngine
from repro.core.stats import EVENT_COUNTERS
from repro.core.vecstore import AncestralVectorStore
from repro.errors import OutOfCoreError
from repro.obs import (
    ENGINE_PHASES,
    EVENT_TYPES,
    LogHistogram,
    Observer,
    TraceRecord,
    Tracer,
    records_to_jsonl,
    slot_timeline,
    validate_profile,
)
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

    def test_taxonomy_matches_counter_mapping(self):
        # The analyzer enforces this statically (EVT002); keep a runtime
        # assertion too so a plain pytest run catches drift.
        assert set(EVENT_COUNTERS) == set(EVENT_TYPES)


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
    def make_store(self, **kw):
        return AncestralVectorStore(6, SHAPE, num_slots=3, policy="lru", **kw)

    def test_events_mirror_counters(self):
        tr = Tracer(1 << 12)
        store = self.make_store(tracer=tr)
        run_store_workload(store, WORKLOAD)
        store.drain()
        by = tr.by_type()
        st = store.stats
        assert by.get("get", 0) == st.requests
        assert by.get("hit", 0) == st.hits
        assert by.get("miss", 0) == st.misses
        assert by.get("demand_read", 0) == st.reads
        assert by.get("read_skip", 0) == st.read_skips
        assert by.get("evict", 0) == st.writes + st.write_skips

    def test_demand_read_records_duration(self):
        tr = Tracer(1 << 12)
        store = self.make_store(tracer=tr)
        run_store_workload(store, WORKLOAD)
        reads = [r for r in tr.records() if r.etype == "demand_read"]
        assert reads
        assert all(r.dur >= 0.0 for r in reads)

    def test_attach_tracer_after_construction(self):
        store = self.make_store()
        store.get(0)
        tr = Tracer(64)
        store.attach_tracer(tr)
        assert store.tracer is tr
        store.get(1)
        assert tr.by_type().get("get") == 1
        store.attach_tracer(None)
        store.get(2)
        assert tr.emitted == len([r for r in tr.records()])

    def test_tracing_is_passive(self):
        """Bit-identical counters traced vs untraced (no prefetch)."""
        bare = self.make_store()
        run_store_workload(bare, WORKLOAD)
        bare.drain()
        traced = self.make_store(tracer=Tracer(1 << 12))
        run_store_workload(traced, WORKLOAD)
        traced.drain()
        assert traced.stats._counters() == bare.stats._counters()

    def test_writeback_events(self):
        tr = Tracer(1 << 12)
        store = AncestralVectorStore(8, SHAPE, num_slots=2, policy="lru",
                                     writeback_depth=2, tracer=tr)
        try:
            run_store_workload(store, WORKLOAD)
            store.drain()
        finally:
            store.close()
        by = tr.by_type()
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
        assert eng.timers is obs.timers
        assert eng.store.tracer is obs.tracer
        assert eng.store.backing.probe is obs.probe
        eng.full_traversals(1)
        obs.detach(eng)
        assert eng.timers is None
        assert eng.store.tracer is None
        assert eng.store.backing.probe is None

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
        """Branch optimisation and ancestral reconstruction fetch through
        the timed path too: one ``store_wait`` lap per store request."""
        from repro.phylo.likelihood.ancestral import (
            marginal_ancestral_distribution,
        )

        eng = self.build(small_tree, small_alignment, small_model, **layout)
        obs = Observer().attach(eng)
        inner = eng.tree.num_tips + 1
        u, v = inner, eng.tree.neighbors(inner)[0]
        for work in (lambda: eng.optimize_branch(u, v),
                     lambda: marginal_ancestral_distribution(eng, inner)):
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
        assert set(summary["by_type"]) <= EVENT_TYPES


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
        from repro.profile import PARITY_COUNTERS, _dataset, build_parser

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
        engine = config.build(tree.copy(), alignment, model, rates,
                              workdir=tmp_path)
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
