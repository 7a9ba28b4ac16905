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
to show the drop path costs nothing extra.
"""

import statistics
import time

from benchmarks.conftest import report
from repro.obs import Observer

SLOT_FRACTION = 0.25
TRAVERSALS = 3
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

