"""Figure 4 — miss rate as f is repeatedly halved, Random strategy.

Paper result (1288-taxon dataset, Random replacement): starting from
f = 0.75 and dividing f by two per run, down to only **five** ancestral-
vector slots in RAM, the miss rate grows — but "the most extreme case with
only five RAM slots still exhibits a comparatively low miss rate of 20%",
thanks to the locality of the RAxML search (branch-length optimization
touches only the two vectors at a branch's ends, §4.2).
"""

import pytest

from benchmarks.conftest import _fig4_slot_counts, report


def test_fig4_miss_rate_vs_fraction(benchmark, shadow_grid):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # analysis test: timing lives in the *_speed benches
    counts = _fig4_slot_counts(shadow_grid.num_inner)
    lines = [
        f"dataset {shadow_grid.dataset}: Random replacement, f halved per row",
        f"{'slots m':>8} {'fraction f':>11} {'miss rate':>10}",
    ]
    series = []
    for m in counts:
        stats = shadow_grid.get_slots(m)
        f = m / shadow_grid.num_inner
        series.append((m, f, stats.miss_rate))
        lines.append(f"{m:>8} {f:>11.4f} {stats.miss_rate:>10.2%}")
    report("fig4_fraction_sweep", lines)

    # -- shape assertions ------------------------------------------------------
    rates = [r for _, _, r in series]
    assert all(a <= b + 1e-9 for a, b in zip(rates, rates[1:])), (
        "miss rate must be monotone non-decreasing as f shrinks (paper Fig. 4)"
    )
    five_slot_rate = series[-1][2]
    assert series[-1][0] == 5
    assert five_slot_rate < 0.35, (
        "even with five slots the miss rate should stay comparatively low "
        f"(paper: ~20%); measured {five_slot_rate:.1%}"
    )
    assert five_slot_rate > series[0][2], "pressure must actually increase"


def test_fig4_branch_optimization_locality(benchmark, ds1288):
    """The §4.2 explanation: Newton–Raphson branch optimization touches only
    the two vectors at the branch ends, so it runs miss-free in 3 slots."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # analysis test: timing lives in the *_speed benches
    from repro.phylo.likelihood.branch_opt import optimize_branch

    engine = ds1288.engine(num_slots=3, policy="lru")
    u, v = engine.tree.internal_edges()[0]
    engine.edge_loglikelihood(u, v)  # bring both end vectors in
    engine.stats.reset()
    optimize_branch(engine, u, v)
    assert engine.stats.misses == 0, (
        "branch-length optimization must hit the two resident end vectors"
    )


def test_fig4_five_slots_live(benchmark, ds1288):
    """A *live* five-slot engine (not a shadow): the extreme of Fig. 4."""
    engine = ds1288.engine(num_slots=5, policy="random", seed=11,
                           poison_skipped_reads=True)

    def run():
        engine.invalidate_all()
        return engine.loglikelihood()

    lnl = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    reference = ds1288.engine().loglikelihood()
    assert lnl == reference  # §4.1 bit-identical even at 5 slots
