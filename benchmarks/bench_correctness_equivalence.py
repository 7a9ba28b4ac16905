"""§4.1 correctness — standard vs out-of-core results, plus layer overhead.

"For each run, we verified that the standard version and the out-of-core
version produced exactly the same results." This bench re-verifies the
bit-identity across the whole policy × fraction grid on a real workload
and times the pure bookkeeping overhead of the out-of-core layer when no
capacity pressure exists (f = 1.0 in-core vs. the indirection-free ideal).
"""

import pytest

from benchmarks.conftest import PAPER_FRACTIONS, PAPER_POLICIES, report
from repro.phylo.likelihood.branch_opt import smooth_all_branches


def test_equivalence_grid(benchmark, ds1288):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # analysis test: timing lives in the *_speed benches
    reference = ds1288.engine()
    ref_lnl = reference.full_traversals(2)
    lines = [f"reference lnL (standard, in-core): {ref_lnl:.10f}",
             f"{'policy':>12} {'fraction':>9} {'lnL delta':>10} {'miss rate':>10}"]
    for policy in PAPER_POLICIES:
        for f in PAPER_FRACTIONS:
            eng = ds1288.engine(
                fraction=f, policy=policy, seed=5, poison_skipped_reads=True,
            )
            lnl = eng.full_traversals(2)
            assert lnl == ref_lnl, (policy, f)
            lines.append(f"{policy:>12} {f:>9.2f} {'0 (exact)':>10} "
                         f"{eng.stats.miss_rate:>10.2%}")
    report("correctness_equivalence", lines)


def test_equivalence_through_branch_optimization(benchmark, ds1288):
    """Deterministic equality must survive a full optimization workload."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # analysis test: timing lives in the *_speed benches
    e_std = ds1288.engine()
    e_ooc = ds1288.engine(fraction=0.25, policy="lru",
                          poison_skipped_reads=True)
    l_std = smooth_all_branches(e_std, passes=1)
    l_ooc = smooth_all_branches(e_ooc, passes=1)
    assert l_std == l_ooc
    for u, v in e_std.tree.edges():
        assert e_std.tree.branch_length(u, v) == e_ooc.tree.branch_length(u, v)


@pytest.mark.parametrize("fraction", [1.0, 0.5, 0.25])
def test_overhead_vs_fraction(benchmark, ds1288, fraction):
    """Layer overhead: evaluation time as capacity shrinks (memory backing,
    so measured cost is bookkeeping + data copies, not disk)."""
    engine = ds1288.engine(fraction=fraction, policy="lru")

    def run():
        engine.invalidate_all()
        return engine.loglikelihood()

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert result < 0.0
