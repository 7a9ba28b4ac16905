"""Ablation — the paper's §5 future-work direction, measured.

**Prefetching**: a prefetch thread should hide swap-in latency behind
computation. Eight re-rooting evaluations run against a wall-clock-faithful
modelled SSD (``SimulatedDiskBackingStore(disk=DiskModel.ssd(),
sleep=True)``) with the engine's own prefetch thread at
``prefetch_depth`` ∈ {0, 3, 6}; the table reports their wall seconds, their
demand reads (counted as if prefetching were transparent, so equal at
every depth) and how many of those found their vector already
prefetched. On the HDD model an 8 ms read is priced above recomputing
any vector this tree has, so the planner reads nothing there and there
is nothing to prefetch; a 0.1 ms SSD access leaves the reads of deep
subtrees standing.
"""

import time

from benchmarks.conftest import report
from repro import AncestralVectorStore, SimulatedDiskBackingStore
from repro.vm.disk import DiskModel

SLOT_FRACTION = 0.25
DEPTHS = (0, 3, 6)
#: Re-rooting evaluations per depth, at tips spread over the tree: each
#: reads about two vectors on the SSD model, and a threaded prefetcher
#: that the compute thread outruns to one of them still gets others.
REROOTS = 8


def _reroot(ds, depth):
    """Far-tip evaluations after a full traversal, each from an empty
    store: ``(wall s, lnLs, IoStats)`` summed over them."""
    num_inner, shape = ds.geometry()
    store = AncestralVectorStore(
        num_inner, shape, fraction=SLOT_FRACTION, policy="lru",
        backing=SimulatedDiskBackingStore(num_inner, shape,
                                          disk=DiskModel.ssd(), sleep=True))
    engine = ds.engine(store=store, prefetch_depth=depth)
    try:
        engine.full_traversals(1)        # make every vector valid on disk
        tips = engine.tree.num_tips
        wall, lnls = 0.0, []
        store.stats.reset()
        for tip in range(tips - 1, 0, -(tips // REROOTS))[:REROOTS]:
            (nbr,) = engine.tree.neighbors(tip)
            store.evict_all()
            t0 = time.perf_counter()
            lnls.append(engine.edge_loglikelihood(tip, nbr))
            wall += time.perf_counter() - t0
        return wall, tuple(lnls), store.stats
    finally:
        engine.close()


def test_prefetch_depth_table(benchmark, ds1288):
    """Prefetch ahead of a re-rooting traversal — the paper's §5 scenario.

    After a full traversal every CLV is valid; evaluating a *different*
    edge recomputes only the reoriented path and **reads** the valid
    vectors it borders, which (with f = 0.25, after ``evict_all``) live on
    disk — those whose subtree costs more kernel time than one SSD read;
    the cheaper ones, cherries first, are recomputed. Those demand reads
    are what a prefetch thread can genuinely move
    ahead of the kernels — unlike a full recompute, whose vectors are
    about to be overwritten and gain nothing from prefetching. With one
    prefetch worker (the store's default ``io_threads``) the reads still
    run one after another, so wall time can drop by at most the compute
    they overlap. It is reported, not asserted: threaded residency may
    drift run to run.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [f"{'depth':>6} {'wall s':>8} {'demand reads':>13} "
             f"{'prefetch hits':>14}"]
    runs = {}
    for depth in DEPTHS:
        wall, lnl, stats = runs[depth] = _reroot(ds1288, depth)
        lines.append(f"{depth:>6} {wall:>8.4f} {stats.reads:>13} "
                     f"{stats.prefetch_hits:>14}")
    report("ablation_prefetch", lines)

    assert len({lnl for _, lnl, _ in runs.values()}) == 1, \
        "prefetching must not move a bit of the likelihood"
    assert runs[0][2].prefetch_hits == 0
    for depth in DEPTHS[1:]:
        assert runs[depth][2].prefetch_hits > 0, \
            f"demand must land on prefetched slots at depth {depth}"
