"""Benchmark — the race sanitizer must be pay-for-play.

``repro.analysis.race`` promises the same two properties as the tracer
and the observer stack:

* **passivity** — with the detector armed, every demand/eviction counter
  and the log-likelihood stay bit-identical to an uninstrumented run
  (the hooks observe; they never reorder store traffic);
* **pay-for-play** — with ``REPRO_SANITIZE`` unset every hook site is a
  single ``is None`` test and the lock/thread factories return plain
  :mod:`threading` primitives, so the off-mode run *is* the baseline
  (asserted structurally below), and the armed detector's slowdown on a
  fig5-style batched out-of-core traversal stays within a small constant
  factor.
"""

import threading
import time

from benchmarks.conftest import report
from repro.analysis.race import make_lock, race_detector, sanitizer

SLOT_FRACTION = 0.25
TRAVERSALS = 3

#: Counters that are a pure function of the request stream — updated
#: synchronously on the planner thread, so they must be bit-identical
#: across runs. The prefetch_*/writeback_* counters measure how far the
#: async workers got relative to demand, which varies run to run with OS
#: scheduling (sanitizer or not) and is deliberately excluded.
DETERMINISTIC = ("requests", "hits", "misses", "reads", "read_skips",
                 "writes", "write_skips", "bytes_read", "bytes_written")

#: The fig5-style pipeline: async write-behind + prefetch + batched
#: kernels — every instrumented population at once.
PIPELINE = dict(writeback_depth=4, io_threads=2, prefetch_depth=3,
                batch=-1)


def _timed_run(ds):
    slots = max(4, round(SLOT_FRACTION * ds.geometry()[0]))
    engine = ds.engine(num_slots=slots, policy="lru", **PIPELINE)
    t0 = time.perf_counter()
    lnl = engine.full_traversals(TRAVERSALS)
    wall = time.perf_counter() - t0
    drain = getattr(engine.store, "drain", None)
    if drain is not None:
        drain()
    counters = engine.store.stats._counters()
    engine.close()
    return wall, lnl, counters


def test_race_sanitizer_overhead_and_parity(benchmark, ds1288):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    # pay-for-play, structurally: off mode hands out plain primitives.
    assert race_detector() is None, "REPRO_SANITIZE must be unset for this bench"
    assert type(make_lock()) is type(threading.RLock())

    off_wall, off_lnl, off_counters = _timed_run(ds1288)

    with sanitizer() as rc:
        on_wall, on_lnl, on_counters = _timed_run(ds1288)
    rc.assert_clean()

    # passivity: the armed detector changes nothing but wall time.
    assert on_lnl == off_lnl
    for key in DETERMINISTIC:
        assert on_counters[key] == off_counters[key], key

    overhead = on_wall / off_wall
    report("bench_race_overhead", [
        f"{TRAVERSALS} full traversals, f={SLOT_FRACTION}, lru, batched "
        f"pipeline (writeback + prefetch)",
        f"{'configuration':>24} | wall (s) | vs off",
        f"{'sanitizer off':>24} | {off_wall:8.3f} |   1.00x",
        f"{'sanitizer armed':>24} | {on_wall:8.3f} | {overhead:6.2f}x",
        f"deterministic counters bit-identical: True, "
        f"lnL bit-identical: True, findings: {rc.finding_count()}",
    ])
    # The armed detector takes the GIL at every hook; generous bound.
    assert overhead < 5.0, f"sanitizer overhead {overhead:.2f}x exceeds 5x"
