"""Benchmark — the observability layer must be (nearly) free when attached.

`repro.obs` promises passivity in *results* (demand counters bit-identical
traced vs untraced — asserted here too) and cheapness in *time*: an
Observer is a metrics registry plus one record ring (a GIL-atomic deque
append per report) and every reporting site is guarded by a single
``is None`` check, so the overhead of an attached Observer on a full
out-of-core traversal must stay under ``GATE`` (1.5x), and a detached
store (the default) pays nothing measurable.
Each ratio is a ratio of medians over ``PAIRS`` alternating bare/observed
runs (the shape of ``obs.overhead_ratio`` in ``benchmarks/ooc/layers.py``),
so CPU drift on the box hits both sides alike and cannot trip the gate.

Reported tables: wall time for N full traversals with (a) no observer,
(b) an attached Observer, on the whole-vector and the site-block layout,
plus (c) an Observer whose ring is deliberately tiny (constant overflow)
to show the drop path costs nothing extra; and the same over a 2-shard
backing tier with its workers armed.
"""

import statistics
import tempfile
import time

import numpy as np

from benchmarks.conftest import report
from repro.core.stats import PARITY_COUNTERS
from repro.obs import Observer

SLOT_FRACTION = 0.25
TRAVERSALS = 3
SHARDS = 2
PAIRS = 5     # alternating bare/observed runs per ratio
GATE = 1.5    # observed / bare, ratio of median walls


def _median_wall(runs):
    return statistics.median(run[0] for run in runs)


def _timed_layout_run(ds, observer=None, layout="whole", block_sites=None):
    """Wall time and counters of ``TRAVERSALS`` full traversals on one
    layout, observed by ``observer`` if given."""
    kw = dict(fraction=SLOT_FRACTION, policy="lru")
    if layout == "block":
        kw.update(layout="block", block_sites=block_sites)
    engine = ds.engine(**kw)
    if observer is not None:
        observer.attach(engine)
    t0 = time.perf_counter()
    engine.full_traversals(TRAVERSALS)
    wall = time.perf_counter() - t0
    counters = engine.store.stats._counters()
    engine.close()
    return wall, counters


def test_full_telemetry_overhead_both_layouts(benchmark, ds1288):
    """An attached Observer stays bounded on both layouts.

    The registry's collectors only run at scrape time and every report is
    one ``is None`` guard plus one routed fan-out, so an attached
    Observer must stay under the gate on the whole-vector AND the
    site-block layout — with a tiny ring dropping constantly as well —
    and must leave the demand counters bit-identical (passivity).
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    lines = [f"{TRAVERSALS} full traversals, f={SLOT_FRACTION}, lru; "
             f"median of {PAIRS} alternating runs"]
    for layout, block_sites in (("whole", None), ("block", 256)):
        bare, full, tiny_ring = [], [], []
        for _ in range(PAIRS):
            bare.append(_timed_layout_run(
                ds1288, layout=layout, block_sites=block_sites))
            obs = Observer(capacity=1 << 18)
            full.append(_timed_layout_run(
                ds1288, observer=obs, layout=layout, block_sites=block_sites))
            tiny = Observer(capacity=64)  # constant ring overflow
            tiny_ring.append(_timed_layout_run(
                ds1288, observer=tiny, layout=layout,
                block_sites=block_sites))

        # passivity: observing never changes what the store did
        assert all(counters == bare[0][1]
                   for _, counters in bare + full + tiny_ring), layout
        assert len(obs.spans) > 0 and obs.spans.dropped == 0
        assert tiny.spans.dropped > 0
        snap = obs.metrics.snapshot()
        assert snap["counters"]["requests"] == bare[0][1]["requests"]

        bare_wall, full_wall, tiny_wall = map(_median_wall,
                                              (bare, full, tiny_ring))
        overhead = full_wall / bare_wall
        lines.append(
            f"{layout:>8} layout | bare {bare_wall:7.3f}s | "
            f"observed {full_wall:7.3f}s | {overhead:5.2f}x | "
            f"tiny ring {tiny_wall / bare_wall:5.2f}x | "
            f"{obs.spans.emitted} records")
        assert overhead < GATE, (
            f"observer overhead {overhead:.2f}x exceeds {GATE}x "
            f"on the {layout} layout")
    report("bench_obs_overhead_full", lines)


def _timed_sharded_run(ds, lay, observer=None):
    """One traversal workload over a 2-shard backing tier in a temp dir."""
    from repro.core.sharded import ShardedBackingStore

    with tempfile.TemporaryDirectory(prefix="bench-obs-shard-") as td:
        backing = ShardedBackingStore.from_layout(td, lay, np.float64,
                                                  num_shards=SHARDS)
        engine = ds.engine(layout=lay, fraction=SLOT_FRACTION, policy="lru",
                           backing=backing, writeback_depth=4)
        if observer is not None:
            observer.attach(engine)
        t0 = time.perf_counter()
        engine.full_traversals(TRAVERSALS)
        engine.store.drain()
        wall = time.perf_counter() - t0
        stats = engine.store.stats
        counters = stats._counters()
        physical = (stats.physical_reads, stats.physical_writes)
        worker = None
        if observer is not None:
            hists = observer.metrics.snapshot()["histograms"]  # pulls
            worker = (hists["shard_disk_read_seconds"]["count"],
                      hists["shard_disk_write_seconds"]["count"])
        engine.close()
    return wall, counters, physical, worker


def test_sharded_full_telemetry_overhead(benchmark, ds1288):
    """Cross-process telemetry over the sharded tier stays bounded.

    Arming the worker-side disk and wire histograms and span shipping
    (OP_TELEMETRY pulls plus the 16 extra trace-context header bytes per
    frame) must keep the same gate as in-process telemetry, leave the
    demand counters bit-identical to the untraced sharded run, and the
    workers' own histograms must count exactly the parent's physical
    ops — nothing lost or double-counted across the wire.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    from repro.core.layout import make_layout

    lay = make_layout("whole", *ds1288.geometry())

    bare, full = [], []
    for _ in range(PAIRS):
        bare.append(_timed_sharded_run(ds1288, lay))
        obs = Observer(capacity=1 << 18)
        full.append(_timed_sharded_run(ds1288, lay, observer=obs))

    for _, counters, physical, worker in bare + full:
        # passivity across runs: demand/eviction counters only. Physical
        # totals (reads served from staging, coalesced writes) and the
        # writeback_* counters depend on writer-thread timing under an
        # async drain, traced or not.
        for key in PARITY_COUNTERS:
            assert counters[key] == bare[0][1][key], key
        # cross-process agreement within a run: worker histogram counts
        # == this run's IoStats physical totals, bit-exact
        assert worker is None or worker == physical, (
            f"worker-side histogram counts {worker} disagree with parent "
            f"IoStats physical totals {physical}")
    assert obs.spans.emitted > 0

    bare_wall, full_wall = _median_wall(bare), _median_wall(full)
    overhead = full_wall / bare_wall
    _, _, full_phys, worker = full[-1]
    report("bench_obs_overhead_sharded", [
        f"{TRAVERSALS} full traversals, f={SLOT_FRACTION}, lru, "
        f"{SHARDS}-shard backing, writeback depth 4; "
        f"median of {PAIRS} alternating runs",
        f"{'bare sharded':>24} | {bare_wall:8.3f}s |   1.00x",
        f"{'full telemetry':>24} | {full_wall:8.3f}s | {overhead:6.2f}x",
        f"worker ops (r, w): {worker} == parent physical {full_phys}",
    ])
    assert overhead < GATE, (
        f"sharded full-telemetry overhead {overhead:.2f}x exceeds {GATE}x")
