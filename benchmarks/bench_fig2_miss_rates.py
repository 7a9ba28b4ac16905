"""Figure 2 — vector miss rates per replacement strategy and RAM fraction.

Paper result (1288-taxon DNA dataset, tree search under GTR+Γ4):

* with only 25% of the ancestral probability vectors memory-mapped, miss
  rates stay **below 10%** for every strategy except LFU;
* Random, LRU and Topological perform "almost equally well";
* LFU is clearly worst;
* miss rates converge to zero as f grows.

The shape assertions below encode exactly those claims. The timed portion
benchmarks a real out-of-core evaluation at f = 0.25 per strategy, so the
pytest-benchmark table doubles as a policy-overhead comparison (the paper's
argument for preferring Random/LRU over Topological).
"""

import pytest

from benchmarks.conftest import PAPER_FRACTIONS, PAPER_POLICIES, fraction_header, report

LFU_EXCESS_FACTOR = 1.5  # LFU must be at least this much worse at f=0.25


def test_fig2_miss_rate_table(benchmark, shadow_grid):
    """Regenerate the Fig. 2 series and assert the paper's shape."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # analysis test: timing lives in the *_speed benches
    lines = [
        f"dataset {shadow_grid.dataset}: lazy-SPR search, "
        f"{shadow_grid.requests} vector requests, lnL {shadow_grid.search_lnl:.2f}",
        "miss rate (% of total vector requests)",
        fraction_header(),
    ]
    rates = {}
    for policy in PAPER_POLICIES:
        row = [shadow_grid.get(policy, f).miss_rate for f in PAPER_FRACTIONS]
        rates[policy] = row
        lines.append(f"{policy:>12} | " + " | ".join(f"{r:6.2%}" for r in row))
    report("fig2_miss_rates", lines)

    # -- the paper's claims, as assertions ---------------------------------
    for policy in ("random", "lru", "topological"):
        assert rates[policy][0] < 0.10, (
            f"{policy}: miss rate at f=0.25 should be below 10% (paper Fig. 2)"
        )
    assert rates["lfu"][0] > LFU_EXCESS_FACTOR * max(
        rates["random"][0], rates["lru"][0], rates["topological"][0]
    ), "LFU should be clearly the worst strategy (paper Fig. 2)"
    for policy in PAPER_POLICIES:
        r = rates[policy]
        assert r[0] >= r[1] >= r[2], (
            f"{policy}: miss rate must fall as f grows (paper Fig. 2)"
        )
    close = [rates[p][0] for p in ("random", "lru", "topological")]
    assert max(close) - min(close) < 0.06, (
        "Random, LRU and Topological should perform almost equally well"
    )


def test_fig2_f1_has_no_capacity_misses(benchmark, ds1288):
    """The trivial case f = 1.0: only cold misses, zero capacity misses."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # analysis test: timing lives in the *_speed benches
    engine = ds1288.engine(fraction=1.0)
    engine.full_traversals(2)
    stats = engine.stats
    assert stats.misses == engine.num_inner  # one cold load per vector


@pytest.mark.parametrize("policy", PAPER_POLICIES)
def test_fig2_policy_overhead(benchmark, ds1288, policy):
    """Time a full out-of-core evaluation at f = 0.25 per strategy."""
    engine = ds1288.engine(fraction=0.25, policy=policy, seed=3)

    def run():
        engine.invalidate_all()
        return engine.loglikelihood()

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert result < 0.0


def test_fig2_block_size_sweep(benchmark, ds1288):
    """Sub-vector paging: miss rate and bytes-in-RAM per site-block size.

    The paper's slot arena can never hold less than one whole ancestral
    vector. A :class:`~repro.core.layout.SiteBlockLayout` lifts that
    floor: this sweep runs the f-z workload at a slot budget of *half a
    vector's worth of blocks* per block size, showing RAM footprints the
    whole-vector design cannot express, while the log-likelihood stays
    bit-identical to the in-core run (§4.1 extended to layouts).
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # analysis test: timing lives in the *_speed benches
    incore = ds1288.engine(fraction=1.0)
    base_lnl = incore.full_traversals(1)
    vector_bytes = int(incore.store.item_shape[0]
                       * incore.store.item_shape[1]
                       * incore.store.item_shape[2]) * incore.dtype.itemsize
    incore.close()

    lines = [
        f"dataset {ds1288.name}: full traversal, one whole vector = "
        f"{vector_bytes} bytes",
        f"{'block_sites':>12} | {'blocks/vec':>10} | {'slots':>5} | "
        f"{'RAM bytes':>10} | {'of 1 vec':>8} | {'miss rate':>9}",
    ]
    for block_sites in (16, 32, 64):
        engine = ds1288.engine(layout="block", block_sites=block_sites,
                               num_slots=1, policy="lru")
        bpn = engine.layout.blocks_per_node
        engine.close()
        slots = max(3, bpn // 2)
        engine = ds1288.engine(layout="block", block_sites=block_sites,
                               num_slots=slots, policy="lru")
        lnl = engine.full_traversals(1)
        assert lnl == base_lnl, (
            f"block_sites={block_sites}: lnL must be bit-identical in-core"
        )
        ram = engine.store.ram_bytes()
        assert ram < vector_bytes, (
            f"block_sites={block_sites}: {slots} slots of {block_sites} "
            "sites should undercut one whole vector"
        )
        rate = engine.stats.miss_rate
        lines.append(
            f"{block_sites:>12} | {bpn:>10} | {slots:>5} | {ram:>10} | "
            f"{ram / vector_bytes:>8.2%} | {rate:>9.2%}"
        )
        engine.close()
    report("fig2_block_size_sweep", lines)
