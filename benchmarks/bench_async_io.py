"""Benchmark — the asynchronous I/O pipeline vs the paper's synchronous path.

The paper's ``getxvector()`` serialises every swap: the likelihood compute
stalls for the victim write *and* the demand read (§3.2), and §5 proposes a
prefetch thread as future work. This bench measures what the implemented
pipeline (write-behind queue + threaded prefetcher) actually buys.

Methodology: :class:`SimulatedDiskBackingStore` with ``sleep=True`` turns
the paper's HDD model (8 ms access, 100 MB/s) into a wall-clock-faithful
slow device — each transfer really blocks its calling thread. The
synchronous configuration therefore pays every transfer inline, while the
asynchronous one hides eviction writes behind the writer threads and read
latency behind the prefetcher. Geometry is the paper's worst case:
``f = 0.25``, LRU.

A second, report-only table repeats the comparison on a real
:class:`FileBackingStore`, where the OS page cache makes transfers so fast
that overlap is within noise — included to show the pipeline does no harm
on fast devices.
"""

import time

from benchmarks.conftest import report
from repro import AncestralVectorStore, FileBackingStore, SimulatedDiskBackingStore

SLOT_FRACTION = 0.25


def _timed_traversal(ds, backing_factory, *, writeback_depth, prefetch_depth,
                     io_threads=2):
    num_inner, shape = ds.geometry()
    backing = backing_factory(num_inner, shape)
    slots = max(3, round(SLOT_FRACTION * num_inner))
    store = AncestralVectorStore(num_inner, shape, num_slots=slots,
                                 policy="lru", backing=backing,
                                 writeback_depth=writeback_depth,
                                 io_threads=io_threads)
    engine = ds.engine(store=store, prefetch_depth=prefetch_depth)
    t0 = time.perf_counter()
    lnl = engine.loglikelihood()      # one full out-of-core traversal
    store.drain()                     # async writes must be durable to count
    wall = time.perf_counter() - t0
    stats = store.stats
    engine.close()
    return wall, lnl, stats


def test_async_beats_sync_on_slow_disk(benchmark, ds1288):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def slow_disk(n, shape):
        return SimulatedDiskBackingStore(n, shape, sleep=True)

    sync_wall, sync_lnl, sync_stats = _timed_traversal(
        ds1288, slow_disk, writeback_depth=0, prefetch_depth=0)
    async_wall, async_lnl, async_stats = _timed_traversal(
        ds1288, slow_disk, writeback_depth=8, prefetch_depth=4)

    lines = [
        f"{'pipeline':>14} {'wall s':>8} {'demand reads':>13} "
        f"{'demand writes':>14} {'physical writes':>16} {'prefetch reads':>15}",
        f"{'synchronous':>14} {sync_wall:>8.3f} {sync_stats.reads:>13} "
        f"{sync_stats.writes:>14} {sync_stats.physical_writes:>16} "
        f"{sync_stats.prefetch_reads:>15}",
        f"{'write-behind+PF':>14} {async_wall:>8.3f} {async_stats.reads:>13} "
        f"{async_stats.writes:>14} {async_stats.physical_writes:>16} "
        f"{async_stats.prefetch_reads:>15}",
        f"speedup: {sync_wall / async_wall:.2f}x",
    ]
    report("async_io_slow_disk", lines)

    assert async_lnl == sync_lnl, "async pipeline must stay bit-identical"
    # the demand stream is accounted as if the pipeline were transparent:
    # identical trace -> identical miss/read rates (Fig. 2–4 comparability)
    assert async_stats.requests == sync_stats.requests
    assert async_stats.miss_rate == sync_stats.miss_rate
    assert async_stats.read_rate == sync_stats.read_rate
    assert async_stats.read_skips == sync_stats.read_skips
    assert async_stats.writes == sync_stats.writes
    assert async_wall < sync_wall, \
        "hiding eviction writes and prefetching reads must beat sync I/O"


def test_async_harmless_on_fast_file(benchmark, ds1288, tmp_path):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def file_store(n, shape):
        return FileBackingStore(tmp_path / f"clv-{n}.bin", n, shape)

    results = {}
    for label, wb, pf in (("synchronous", 0, 0), ("write-behind+PF", 8, 4)):
        wall, lnl, stats = _timed_traversal(
            ds1288, file_store, writeback_depth=wb, prefetch_depth=pf)
        results[label] = (wall, lnl, stats)

    lines = [f"{'pipeline':>14} {'wall s':>8} {'reads':>7} {'writes':>7}"]
    for label, (wall, _lnl, stats) in results.items():
        lines.append(f"{label:>14} {wall:>8.3f} {stats.reads:>7} "
                     f"{stats.writes:>7}")
    report("async_io_fast_file", lines)

    assert results["synchronous"][1] == results["write-behind+PF"][1]
