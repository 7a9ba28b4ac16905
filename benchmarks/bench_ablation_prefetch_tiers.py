"""Ablation — the paper's §5 future-work direction, measured.

**Prefetching**: a prefetch thread should hide swap-in latency behind
computation. We model overlap ∈ {0, 0.5, 1.0} on a simulated disk and
report the visible I/O wait of a full traversal.
"""

from benchmarks.conftest import report
from repro import (
    AncestralVectorStore,
    Prefetcher,
    SimulatedDiskBackingStore,
)

SLOT_FRACTION = 0.25


def _ooc_engine_with_disk(ds, **store_kwargs):
    num_inner, shape = ds.geometry()
    disk = SimulatedDiskBackingStore(num_inner, shape)
    slots = max(3, round(SLOT_FRACTION * num_inner))
    store = AncestralVectorStore(num_inner, shape, num_slots=slots,
                                 policy="lru", backing=disk, **store_kwargs)
    return ds.engine(store=store), store, disk


def test_prefetch_overlap_table(benchmark, ds1288):
    """Prefetch ahead of a re-rooting traversal — the paper's §5 scenario.

    After a full traversal every CLV is valid; evaluating a *different*
    edge recomputes only the reoriented path and **reads** the valid
    vectors it borders, which (with f = 0.25) live on disk. Those demand
    reads are what a prefetch thread can genuinely move ahead of the
    kernels — unlike a full recompute, whose vectors are about to be
    overwritten and gain nothing from prefetching.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [f"{'overlap':>8} {'visible I/O s':>14} {'hidden s':>9} "
             f"{'prefetch hits':>13}"]
    baselines = {}
    for overlap in (0.0, 0.5, 1.0):
        engine, store, disk = _ooc_engine_with_disk(ds1288)
        engine.full_traversals(1)        # make every vector valid on disk
        far_tip = engine.tree.num_tips - 1
        (nbr,) = engine.tree.neighbors(far_tip)
        plan = engine.plan(far_tip, nbr)
        store.evict_all()
        disk.simulated_seconds = 0.0
        store.stats.reset()
        prefetcher = Prefetcher(store, depth=3, overlap=overlap)
        prefetcher.run_schedule(engine.plan_accesses(plan))
        engine.edge_loglikelihood(far_tip, nbr)
        baselines[overlap] = (disk.simulated_seconds, prefetcher.hidden_seconds,
                              store.stats.prefetch_hits)
        lines.append(f"{overlap:>8.1f} {disk.simulated_seconds:>14.4f} "
                     f"{prefetcher.hidden_seconds:>9.4f} "
                     f"{store.stats.prefetch_hits:>13}")
    report("ablation_prefetch", lines)

    v0, v5, v10 = (baselines[k][0] for k in (0.0, 0.5, 1.0))
    assert v10 < v5 < v0, "more overlap must hide more I/O wait"
    assert baselines[1.0][2] > 0, "demand must land on prefetched slots"
