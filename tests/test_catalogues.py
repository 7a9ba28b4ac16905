"""Golden test: the derived catalogues hold the values the hand-kept ones did.

The counter, event and metric catalogues are each declared once and
everything else derives from that declaration. The literals below were
copied from the commit that still kept the copies by hand (8f02098) and
moved with the two-sink observer (the event table became the ``ROUTES``
mirrors column; phase counters became phase histograms); a declaration
edit that changes one of them must change it here too, on purpose.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core import stats
from repro.core.stats import PARITY_COUNTERS, IoStats
from repro.obs import ENGINE_PHASES, METRIC_EXPOSITION, METRIC_NAMES, ROUTES
from repro.obs.metrics import MetricsRegistry

COUNTERS = [
    "requests", "hits", "misses", "reads", "read_skips", "writes",
    "write_skips", "write_drops", "bytes_read", "bytes_written",
    "prefetch_reads",
    "prefetch_bytes", "prefetch_hits", "prefetch_unused", "writeback_writes",
    "writeback_bytes", "writeback_stalls", "writeback_read_hits",
]

OWNERS = {
    "DEMAND_COUNTERS": {"requests", "hits", "misses", "reads", "read_skips",
                        "bytes_read"},
    "EVICTION_COUNTERS": {"writes", "write_skips", "write_drops",
                          "bytes_written"},
    "PREFETCH_COUNTERS": {"prefetch_reads", "prefetch_bytes", "prefetch_hits",
                          "prefetch_unused"},
    "WRITEBACK_COUNTERS": {"writeback_writes", "writeback_bytes",
                           "writeback_stalls", "writeback_read_hits"},
}

PARITY = ("requests", "hits", "misses", "reads", "read_skips",
          "writes", "write_skips", "write_drops", "bytes_read",
          "bytes_written")

#: reported name -> the IoStats counter its record count mirrors (the
#: event table's rows, plus the back-pressure stall it used to fold in)
EVENTS = {
    "get": "requests",
    "hit": "hits",
    "miss": "misses",
    "demand_read": "reads",
    "read_skip": "read_skips",
    "prefetch_issue": "prefetch_reads",
    "prefetch_hit": "prefetch_hits",
    "writeback_drain": "writeback_writes",
    "writeback_stall": "writeback_stalls",
}

#: name -> kind
METRICS = {
    **{name: "counter" for name in COUNTERS},
    "backing_retries": "counter",
    "backing_faults": "counter",
    "compress_bytes_raw": "counter",
    "compress_bytes_stored": "counter",
    "compress_compactions": "counter",
    "slots_total": "gauge",
    "slots_occupied": "gauge",
    "slots_dirty": "gauge",
    "writeback_queue_depth": "gauge",
    "compress_heap_leaked_bytes": "gauge",
    "loads_inflight": "gauge",
    "prefetch_untouched": "gauge",
    "plan_seconds": "histogram",
    "kernel_seconds": "histogram",
    "backing_read_seconds": "histogram",
    "backing_write_seconds": "histogram",
    "writeback_drain_seconds": "histogram",
    "store_wait_seconds": "histogram",
}


def test_counter_registry_keys_and_order():
    block = IoStats()
    assert list(block._counters()) == COUNTERS
    assert list(block.as_row()) == [*COUNTERS, "miss_rate", "read_rate", "swaps"]


def test_reset_zeroes_every_counter_and_nothing_else():
    block = IoStats(writeback_enabled=True)
    for i, name in enumerate(COUNTERS, start=1):
        setattr(block, name, i)
    block.reset()
    assert set(block._counters().values()) == {0}
    assert block.writeback_enabled


def test_owner_buckets():
    for name, members in OWNERS.items():
        assert getattr(stats, name) == members, name
    assert sum(len(m) for m in OWNERS.values()) == len(COUNTERS)


def test_parity_counters_are_one_tuple_in_declaration_order():
    assert PARITY_COUNTERS == PARITY


def test_event_table():
    assert {name: route.mirrors for name, route in ROUTES.items()
            if route.mirrors is not None} == EVENTS


def test_engine_phases_come_from_the_routes():
    assert ENGINE_PHASES == ("plan", "kernel", "store_wait")
    assert [ROUTES[phase].metric for phase in ENGINE_PHASES] == [
        "plan_seconds", "kernel_seconds", "store_wait_seconds"]


def test_metric_catalogue():
    assert len(METRICS) == 36
    assert {name: row.kind
            for name, row in METRIC_EXPOSITION.items()} == METRICS
    assert METRIC_NAMES == set(METRICS)


def test_fresh_registry_exposition_is_byte_identical():
    golden = Path(__file__).parent / "fixtures" / "fresh_registry.prom"
    assert MetricsRegistry().to_prometheus() == golden.read_text(encoding="utf-8")


def _import_stats_with(tmp_path, name, field_line):
    """Import a copy of ``repro.core.stats`` with one more field line."""
    source = Path(stats.__file__).read_text(encoding="utf-8")
    anchor = "    writeback_enabled: bool = False\n"
    assert source.count(anchor) == 1
    path = tmp_path / f"{name}.py"
    path.write_text(source.replace(anchor, f"    {field_line}\n{anchor}"),
                    encoding="utf-8")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module      # dataclasses resolves annotations here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


@pytest.mark.parametrize("declaration", [
    pytest.param("= 0", id="no-owner"),
    pytest.param('= _counter("nobody", "an orphan")', id="unknown-owner"),
])
def test_a_counter_without_a_known_owner_fails_the_import(tmp_path, declaration):
    with pytest.raises(TypeError, match=r"IoStats\.orphans: counter owner"):
        _import_stats_with(tmp_path, "stats_orphan", f"orphans: int {declaration}")


def test_one_field_line_declares_a_counter(tmp_path):
    grown = _import_stats_with(
        tmp_path, "stats_grown", 'adopted: int = _counter("demand", "Adopted")')
    assert "adopted" in grown.DEMAND_COUNTERS
    assert grown.PARITY_COUNTERS[-1] == "adopted"
    assert grown.COUNTER_HELP["adopted"] == "Adopted"
    block = grown.IoStats(adopted=3)
    assert block._counters()["adopted"] == 3
    block.reset()
    assert block.adopted == 0
