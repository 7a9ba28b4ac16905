"""Metrics registry, store/engine integration and the /metrics endpoint."""

from __future__ import annotations

import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.errors import OutOfCoreError
from repro.obs import (
    METRIC_EXPOSITION,
    METRIC_NAMES,
    MetricsRegistry,
    MetricsServer,
    Observer,
)


def parse_prometheus(text: str) -> dict[str, float]:
    """``{sample_name_with_labels: value}`` from exposition text."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        samples[name] = float(value)
    return samples


class TestCatalogue:
    def test_kinds_and_help_are_sane(self):
        for name, (kind, help_text, _labeled) in METRIC_EXPOSITION.items():
            assert kind in ("counter", "gauge", "histogram"), name
            assert help_text

    def test_names_are_prometheus_suffixes(self):
        import re
        for name in METRIC_NAMES:
            assert re.fullmatch(r"[a-z][a-z0-9_]*", name), name


class TestMetricsRegistry:
    def test_counters(self):
        mx = MetricsRegistry()
        assert mx.value("requests") == 0
        mx.inc("requests")
        mx.inc("requests", 4)
        assert mx.value("requests") == 5
        mx.counter_set("hits", 17)
        assert mx.value("hits") == 17

    def test_gauges(self):
        mx = MetricsRegistry()
        mx.gauge_set("slots_occupied", 3)
        mx.gauge_add("slots_occupied", 2)
        mx.gauge_add("slots_occupied", -1)
        assert mx.value("slots_occupied") == 4

    def test_histograms(self):
        mx = MetricsRegistry()
        for dt in (0.001, 0.002, 0.004):
            mx.observe("backing_read_seconds", dt)
        hist = mx.snapshot()["histograms"]["backing_read_seconds"]
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(0.007)

    def test_unknown_name_rejected(self):
        mx = MetricsRegistry()
        with pytest.raises(OutOfCoreError, match="unknown metric"):
            mx.inc("requests_typo")

    def test_kind_mismatch_rejected(self):
        mx = MetricsRegistry()
        with pytest.raises(OutOfCoreError, match="is a gauge"):
            mx.inc("slots_occupied")
        with pytest.raises(OutOfCoreError, match="is a counter"):
            mx.gauge_set("requests", 1)
        with pytest.raises(OutOfCoreError, match="is a histogram"):
            mx.counter_set("backing_read_seconds", 1)

    def test_collectors_run_on_snapshot(self):
        mx = MetricsRegistry()
        calls = []

        def collect():
            calls.append(1)
            mx.counter_set("requests", len(calls))

        mx.register_collector(collect)
        assert mx.snapshot()["counters"]["requests"] == 1
        assert mx.value("requests") == 2  # value() collects too
        mx.unregister_collector(collect)
        mx.unregister_collector(collect)  # idempotent
        n = len(calls)
        mx.snapshot()
        assert len(calls) == n

    def test_prometheus_exposition_format(self):
        mx = MetricsRegistry()
        mx.inc("requests", 9)
        mx.gauge_set("slots_occupied", 4)
        mx.observe("backing_read_seconds", 0.003)
        mx.observe("backing_read_seconds", 0.3)
        text = mx.to_prometheus()
        assert "# HELP repro_requests" in text
        assert "# TYPE repro_requests counter" in text
        samples = parse_prometheus(text)
        assert samples["repro_requests"] == 9
        assert samples["repro_slots_occupied"] == 4
        assert samples["repro_backing_read_seconds_count"] == 2
        # cumulative buckets: +Inf equals the observation count, and
        # bucket counts never decrease as le grows
        buckets = [(name, v) for name, v in samples.items()
                   if name.startswith("repro_backing_read_seconds_bucket")]
        assert buckets
        inf = [v for name, v in buckets if 'le="+Inf"' in name]
        assert inf == [2]
        counts = [v for _, v in buckets]
        assert counts == sorted(counts)


class TestLabeledCounters:
    def test_inc_and_sum_over_labels(self):
        mx = MetricsRegistry()
        mx.inc_labeled("backing_reads", {"shard": "0"})
        mx.inc_labeled("backing_reads", {"shard": "0"})
        mx.inc_labeled("backing_reads", {"shard": "3"}, 5)
        assert mx.labeled("backing_reads") == {'shard="0"': 2, 'shard="3"': 5}
        assert mx.labeled_sum("backing_reads") == 7
        # value() on a labelled counter is the sum over its label sets.
        assert mx.value("backing_reads") == 7

    def test_plain_inc_on_labeled_name_rejected(self):
        mx = MetricsRegistry()
        with pytest.raises(OutOfCoreError, match="inc_labeled"):
            mx.inc("backing_reads")
        with pytest.raises(OutOfCoreError, match="inc\\(\\)"):
            mx.inc_labeled("requests", {"shard": "0"})

    def test_unknown_name_rejected(self):
        mx = MetricsRegistry()
        with pytest.raises(OutOfCoreError):
            mx.inc_labeled("no_such_metric", {"shard": "0"})

    def test_snapshot_has_labeled_section(self):
        mx = MetricsRegistry()
        mx.inc_labeled("backing_writes", {"shard": "1"}, 3)
        snap = mx.snapshot()
        assert snap["labeled"]["backing_writes"] == {'shard="1"': 3}
        # Labelled counters never appear in the plain counters block.
        assert "backing_writes" not in snap["counters"]

    def test_prometheus_renders_label_sets(self):
        mx = MetricsRegistry()
        mx.inc_labeled("backing_bytes_written", {"shard": "0"}, 1024)
        mx.inc_labeled("backing_bytes_written", {"shard": "2"}, 512)
        samples = parse_prometheus(mx.to_prometheus())
        assert samples['repro_backing_bytes_written{shard="0"}'] == 1024
        assert samples['repro_backing_bytes_written{shard="2"}'] == 512


class TestLabeledGauges:
    def test_set_and_sum_over_labels(self):
        mx = MetricsRegistry()
        mx.gauge_set_labeled("shard_inflight", {"shard": "0"}, 3)
        mx.gauge_set_labeled("shard_inflight", {"shard": "1"}, 5)
        mx.gauge_set_labeled("shard_inflight", {"shard": "0"}, 2)  # live value
        assert mx.labeled("shard_inflight") == {'shard="0"': 2, 'shard="1"': 5}
        # value() on a labelled gauge is the sum over its label sets
        # (total in-flight across shards).
        assert mx.value("shard_inflight") == 7

    def test_plain_gauge_set_on_labeled_name_rejected(self):
        mx = MetricsRegistry()
        with pytest.raises(OutOfCoreError, match="gauge_set_labeled"):
            mx.gauge_set("shard_inflight", 1)
        with pytest.raises(OutOfCoreError, match="gauge_set\\(\\)"):
            mx.gauge_set_labeled("slots_occupied", {"shard": "0"}, 1)

    def test_kind_and_name_checked(self):
        mx = MetricsRegistry()
        with pytest.raises(OutOfCoreError, match="unknown metric"):
            mx.gauge_set_labeled("no_such_gauge", {"shard": "0"}, 1)
        with pytest.raises(OutOfCoreError, match="is a counter"):
            mx.gauge_set_labeled("backing_reads", {"shard": "0"}, 1)

    def test_snapshot_and_prometheus_render_label_sets(self):
        mx = MetricsRegistry()
        mx.gauge_set_labeled("shard_oldest_pending_seconds",
                             {"shard": "2"}, 0.25)
        snap = mx.snapshot()
        assert snap["labeled"]["shard_oldest_pending_seconds"] == \
            {'shard="2"': 0.25}
        assert "shard_oldest_pending_seconds" not in snap["gauges"]
        samples = parse_prometheus(mx.to_prometheus())
        key = 'repro_shard_oldest_pending_seconds{shard="2"}'
        assert samples[key] == 0.25


class TestMergeHistogram:
    def test_merge_worker_state_delta(self):
        from repro.obs.histogram import LogHistogram

        worker = LogHistogram()
        for dt in (0.001, 0.002, 0.004):
            worker.record(dt)
        mx = MetricsRegistry()
        mx.observe("shard_disk_read_seconds", 0.008)
        mx.merge_histogram("shard_disk_read_seconds", worker.drain_state())
        hist = mx.snapshot()["histograms"]["shard_disk_read_seconds"]
        assert hist["count"] == 4
        assert hist["sum"] == pytest.approx(0.015)
        # the drain reset the worker side: a second pull adds nothing
        mx.merge_histogram("shard_disk_read_seconds", worker.drain_state())
        assert mx.snapshot()["histograms"]["shard_disk_read_seconds"][
            "count"] == 4

    def test_merge_rejects_unknown_and_non_histogram(self):
        from repro.obs.histogram import LogHistogram

        mx = MetricsRegistry()
        state = LogHistogram().state()
        with pytest.raises(OutOfCoreError, match="unknown metric"):
            mx.merge_histogram("no_such_hist", state)
        with pytest.raises(OutOfCoreError, match="is a counter"):
            mx.merge_histogram("requests", state)

    def test_merge_rejects_geometry_mismatch(self):
        from repro.obs.histogram import LogHistogram

        mx = MetricsRegistry()
        foreign = LogHistogram(min_seconds=1e-3, num_buckets=8)
        foreign.record(0.01)
        with pytest.raises(OutOfCoreError, match="bucket geometry"):
            mx.merge_histogram("shard_wire_read_seconds", foreign.state())


class TestPrometheusEdgeCases:
    def test_empty_registry_exposes_every_name(self):
        """A fresh registry still emits HELP/TYPE for the full catalogue."""
        text = MetricsRegistry().to_prometheus()
        for name in METRIC_NAMES:
            assert f"# HELP repro_{name} " in text
            assert f"# TYPE repro_{name} " in text

    def test_labeled_series_with_zero_shards_has_no_samples(self):
        """No label sets -> HELP/TYPE only; an unlabelled zero sample
        must never shadow the (absent) per-shard series."""
        text = MetricsRegistry().to_prometheus()
        samples = parse_prometheus(text)
        for name in ("backing_reads", "shard_inflight"):
            assert f"# TYPE repro_{name}" in text
            assert not [s for s in samples if s.startswith(f"repro_{name}")]

    def test_empty_histogram_exposes_inf_bucket_sum_count(self):
        samples = parse_prometheus(MetricsRegistry().to_prometheus())
        assert samples['repro_shard_wire_read_seconds_bucket{le="+Inf"}'] == 0
        assert samples["repro_shard_wire_read_seconds_sum"] == 0
        assert samples["repro_shard_wire_read_seconds_count"] == 0

    def test_single_observation_bucket_exposition(self):
        mx = MetricsRegistry()
        mx.observe("shard_window_wait_seconds", 0.01)
        samples = parse_prometheus(mx.to_prometheus())
        buckets = {name: v for name, v in samples.items()
                   if name.startswith("repro_shard_window_wait_seconds_bucket")}
        # exactly one finite bucket plus +Inf, both cumulative at 1
        assert len(buckets) == 2
        assert sorted(buckets.values()) == [1, 1]
        assert samples["repro_shard_window_wait_seconds_count"] == 1


class TestStoreIntegration:
    def test_snapshot_mirrors_iostats(self, engine_factory):
        engine = engine_factory(fraction=0.3, writeback_depth=2)
        obs = Observer(metrics=True).attach(engine)
        try:
            engine.full_traversals(2)
            engine.store.drain()
            snap = obs.metrics.snapshot()
            stats = engine.stats
            row = stats.as_row()
            for key in ("requests", "hits", "misses", "reads", "read_skips",
                        "writes", "write_skips", "bytes_read",
                        "bytes_written"):
                assert snap["counters"][key] == row[key], key
            assert snap["gauges"]["slots_total"] == engine.store.num_slots
            assert 0 <= snap["gauges"]["slots_occupied"] \
                <= engine.store.num_slots
            assert snap["histograms"]["kernel_seconds"]["count"] > 0
        finally:
            engine.close()

    def test_metrics_are_passive(self, engine_factory):
        bare = engine_factory(fraction=0.3)
        try:
            bare.full_traversals(2)
            want = dict(bare.stats.as_row())
        finally:
            bare.close()
        engine = engine_factory(fraction=0.3)
        obs = Observer(metrics=True, spans=True).attach(engine)
        try:
            engine.full_traversals(2)
            obs.metrics.snapshot()  # scrapes mid-lifetime must not perturb
            got = dict(engine.stats.as_row())
        finally:
            engine.close()
        assert got == want

    def test_detach_unregisters(self, engine_factory):
        engine = engine_factory(fraction=0.3)
        obs = Observer(metrics=True).attach(engine)
        try:
            engine.full_traversals(1)
            obs.detach(engine)
            assert engine.store.obs is None
            assert engine.obs is None
            snap = obs.metrics.snapshot()  # stale data kept, no collectors
            assert snap["counters"]["requests"] == 0  # store never scraped in
        finally:
            engine.close()


class TestMetricsServer:
    def test_scrape_under_concurrent_traffic(self, engine_factory):
        engine = engine_factory(fraction=0.3)
        obs = Observer(metrics=True).attach(engine)
        done = threading.Event()

        def work():
            try:
                engine.full_traversals(3)
            finally:
                done.set()

        worker = threading.Thread(target=work)
        try:
            with MetricsServer(obs.metrics) as server:
                worker.start()
                seen = []
                while not done.is_set() or not seen:
                    with urllib.request.urlopen(
                            server.url, timeout=5) as resp:
                        assert resp.status == 200
                        assert "text/plain" in resp.headers["Content-Type"]
                        body = resp.read().decode("utf-8")
                    samples = parse_prometheus(body)
                    seen.append(samples["repro_requests"])
                worker.join()
                with urllib.request.urlopen(
                        server.url, timeout=5) as resp:
                    final = parse_prometheus(resp.read().decode("utf-8"))
            # counters are monotone across scrapes and settle at the
            # authoritative IoStats totals
            assert seen == sorted(seen)
            assert final["repro_requests"] == engine.stats.requests
            assert final["repro_misses"] == engine.stats.misses
        finally:
            if not worker.is_alive() and not done.is_set():
                worker.start()
            worker.join(timeout=10)
            engine.close()

    def test_unknown_path_is_404(self):
        mx = MetricsRegistry()
        with MetricsServer(mx) as server:
            base = server.url.rsplit("/metrics", 1)[0]
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/nope", timeout=5)
            assert err.value.code == 404

    def test_root_serves_metrics_too(self):
        mx = MetricsRegistry()
        mx.inc("requests", 3)
        with MetricsServer(mx) as server:
            base = server.url.rsplit("/metrics", 1)[0]
            with urllib.request.urlopen(f"{base}/", timeout=5) as resp:
                body = resp.read().decode("utf-8")
        assert parse_prometheus(body)["repro_requests"] == 3

    def test_healthz_answers_without_running_collectors(self):
        """Liveness must not depend on (or trigger) registry collectors."""
        mx = MetricsRegistry()
        calls = []
        mx.register_collector(lambda: calls.append(1))
        with MetricsServer(mx) as server:
            base = server.url.rsplit("/metrics", 1)[0]
            with urllib.request.urlopen(f"{base}/healthz", timeout=5) as resp:
                assert resp.status == 200
                assert resp.read() == b"ok\n"
            assert calls == []
            urllib.request.urlopen(server.url, timeout=5).close()
            assert calls == [1]

    def test_close_is_idempotent(self):
        server = MetricsServer(MetricsRegistry()).start()
        urllib.request.urlopen(server.url, timeout=5).close()
        server.close()
        server.close()  # second close must be a no-op, not an error

    def test_scrape_racing_shutdown(self):
        """Regression: scrapes hammering the endpoint while close() runs
        must either be served or refused — never wedge the shutdown."""
        mx = MetricsRegistry()
        server = MetricsServer(mx).start()
        url = server.url
        stop = threading.Event()
        served = []
        errors = []

        def scrape_loop():
            while not stop.is_set():
                try:
                    with urllib.request.urlopen(url, timeout=5) as resp:
                        resp.read()
                    served.append(1)
                except (urllib.error.URLError, ConnectionError, OSError):
                    # refused mid/post-shutdown: the acceptable outcome
                    pass
                except Exception as exc:  # pragma: no cover - regression
                    errors.append(exc)
                    return

        scraper = threading.Thread(target=scrape_loop)
        scraper.start()
        try:
            deadline = 50
            while not served and deadline:
                deadline -= 1
                threading.Event().wait(0.01)
            assert served, "scraper never reached the endpoint"
            server.close()  # must return promptly despite live scrapes
        finally:
            stop.set()
            scraper.join(timeout=10)
        assert not scraper.is_alive()
        assert not errors
        # the socket is actually released: a fresh scrape is refused
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            urllib.request.urlopen(url, timeout=1).close()
