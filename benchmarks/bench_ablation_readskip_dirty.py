"""Ablation — I/O operation counts: read skipping × dirty-eviction tracking.

Quantifies §3.4's accounting on a real search workload:

* read skipping removes the read half of a swap for write-only first
  accesses (the paper's technique);
* clean-eviction tracking (beyond the paper; the store's default) removes
  the *write* half for vectors that were only read since load.

The table reports total vector I/O operations for the four combinations;
each passes both options explicitly, so the first two rows are the
paper's always-write accounting.
"""

import pytest

from benchmarks.conftest import report
from repro.phylo.search import lazy_spr_round

CONFIGS = [
    ("baseline (no skip, no dirty)", dict(read_skipping=False, track_dirty=False)),
    ("read skipping (paper §3.4)", dict(read_skipping=True, track_dirty=False)),
    ("dirty tracking only", dict(read_skipping=False, track_dirty=True)),
    ("skip + dirty (store default)", dict(read_skipping=True, track_dirty=True)),
]


@pytest.fixture(scope="module")
def io_results(ds1288):
    out = {}
    for label, kwargs in CONFIGS:
        engine = ds1288.engine(fraction=0.25, policy="lru", **kwargs)
        lazy_spr_round(engine, radius=3)
        out[label] = engine.stats
    return out


def test_io_operation_table(benchmark, io_results):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [f"{'configuration':>30} {'reads':>8} {'writes':>8} "
             f"{'total I/O':>10} {'saved':>7}"]
    base = None
    for label, _ in CONFIGS:
        s = io_results[label]
        total = s.reads + s.writes
        if base is None:
            base = total
        lines.append(f"{label:>30} {s.reads:>8} {s.writes:>8} {total:>10} "
                     f"{1 - total / base:>7.1%}")
    report("ablation_readskip_dirty", lines)

    base_stats = io_results["baseline (no skip, no dirty)"]
    skip = io_results["read skipping (paper §3.4)"]
    both = io_results["skip + dirty (store default)"]
    # identical access pattern in all configs
    assert skip.misses == base_stats.misses
    # the paper's claim: >50% of reads, hence >25% of all I/O, elided
    assert skip.reads < 0.5 * base_stats.reads
    assert (skip.reads + skip.writes) < 0.75 * (base_stats.reads + base_stats.writes)
    # stacking both optimizations is at least as good as either alone
    assert (both.reads + both.writes) <= (skip.reads + skip.writes)


def test_correctness_of_all_combinations(benchmark, ds1288):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    reference = ds1288.engine().full_traversals(2)
    for label, kwargs in CONFIGS:
        engine = ds1288.engine(fraction=0.25, policy="lru", **kwargs)
        assert engine.full_traversals(2) == reference, label
