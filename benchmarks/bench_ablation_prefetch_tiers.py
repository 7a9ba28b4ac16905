"""Ablation — the paper's §5 future-work directions, measured.

1. **Prefetching**: a prefetch thread should hide swap-in latency behind
   computation. We model overlap ∈ {0, 0.5, 1.0} on a simulated disk and
   report the visible I/O wait of a full traversal.
2. **Three-layer storage** (accelerator ⇄ RAM ⇄ disk): per-tier transfer
   rates for a likelihood workload, confirming the hierarchy filters
   traffic (device misses ≥ host misses).
"""

from benchmarks.conftest import report
from repro import (
    AncestralVectorStore,
    Prefetcher,
    SimulatedDiskBackingStore,
    TieredVectorStore,
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


def test_tiered_transfer_rates(benchmark, ds1288):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    num_inner, shape = ds1288.geometry()
    reference = ds1288.engine().full_traversals(2)
    tiers = TieredVectorStore(num_inner, shape,
                              device_slots=max(3, num_inner // 10),
                              host_slots=max(4, num_inner // 3))
    engine = ds1288.engine(store=tiers)
    assert engine.full_traversals(2) == reference

    d, h = tiers.device_stats, tiers.host_stats
    lines = [
        f"{'tier':>8} {'requests':>9} {'miss rate':>10} {'meaning':>18}",
        f"{'device':>8} {d.requests:>9} {d.miss_rate:>10.2%} {'PCIe transfers':>18}",
        f"{'host':>8} {h.requests:>9} {h.miss_rate:>10.2%} {'disk transfers':>18}",
    ]
    report("ablation_tiered", lines)
    assert h.misses <= d.misses, "each tier must filter traffic for the next"


def test_tiered_evaluation_speed(benchmark, ds1288):
    num_inner, shape = ds1288.geometry()
    tiers = TieredVectorStore(num_inner, shape,
                              device_slots=max(3, num_inner // 10),
                              host_slots=max(4, num_inner // 3))
    engine = ds1288.engine(store=tiers)

    def run():
        engine.invalidate_all()
        return engine.loglikelihood()

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert result < 0.0
