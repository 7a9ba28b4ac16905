#!/usr/bin/env python3
"""Compare the paper's four replacement strategies on a live tree search.

Reproduces the experimental design of §4.1 (Figures 2 and 3) at laptop
scale: a maximum-likelihood SPR search runs once, and *shadow stores*
observe the identical ancestral-vector access stream under every
(strategy, fraction) combination — Random, LRU, LFU, Topological at
f = 0.25 / 0.50 / 0.75 — reporting miss rates and (with read skipping)
actual read rates.

Run:  python examples/replacement_strategies.py [num_taxa] [num_sites]
"""

import sys

from repro import (
    GTR,
    AncestralVectorStore,
    LikelihoodEngine,
    RateModel,
    ShadowStore,
    TeeStore,
    simulate_alignment,
    yule_tree,
)
from repro.core.vecstore import slots_for_fraction
from repro.phylo.search import lazy_spr_round


def main(num_taxa: int = 48, num_sites: int = 400) -> None:
    tree = yule_tree(num_taxa, seed=7)
    model = GTR((1.0, 2.5, 0.9, 1.2, 2.8, 1.0), (0.27, 0.23, 0.25, 0.25))
    rates = RateModel.gamma(0.9, 4)
    alignment = simulate_alignment(tree, model, num_sites, rates=rates, seed=8)
    start = yule_tree(num_taxa, seed=99, names=tree.names)  # scrambled start

    num_inner = start.num_inner
    shape = (alignment.num_patterns, 4, 4)
    primary = AncestralVectorStore(num_inner, shape)  # all-resident primary

    fractions = (0.25, 0.50, 0.75)
    strategies = ("random", "lru", "lfu", "topological")
    shadows = []
    for policy in strategies:
        for f in fractions:
            m = slots_for_fraction(f, num_inner)
            shadows.append(ShadowStore(num_inner, m, policy,
                                       label=f"{policy}:{f:.2f}",
                                       policy_kwargs={"seed": 1}
                                       if policy == "random" else None))
    # The engine binds the Topological shadows to its live tree (§3.3).
    engine = LikelihoodEngine(start, alignment, model, rates,
                              store=TeeStore(primary, shadows))

    print(f"running one lazy-SPR round on {num_taxa} taxa "
          f"({alignment.num_patterns} patterns) ...")
    result = lazy_spr_round(engine, radius=5)
    print(f"search: lnL {result.lnl:.2f}, {result.moves_applied} moves applied, "
          f"{result.moves_evaluated} evaluated, "
          f"{primary.stats.requests} vector requests\n")

    header = f"{'strategy':>12} | " + " | ".join(f"f={f:.2f}" for f in fractions)
    print("Miss rate (% of total vector requests)      [paper Fig. 2]")
    print(header)
    for policy in strategies:
        row = [next(s for s in shadows if s.label == f"{policy}:{f:.2f}")
               for f in fractions]
        print(f"{policy:>12} | " +
              " | ".join(f"{s.stats.miss_rate:6.2%}" for s in row))

    print("\nRead rate with read skipping (% of requests) [paper Fig. 3]")
    print(header)
    for policy in strategies:
        row = [next(s for s in shadows if s.label == f"{policy}:{f:.2f}")
               for f in fractions]
        print(f"{policy:>12} | " +
              " | ".join(f"{s.stats.read_rate:6.2%}" for s in row))

    skipped = sum(s.stats.read_skips for s in shadows)
    print(f"\nread skipping elided {skipped} vector reads across all shadows "
          "(without it, read rate == miss rate)")


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    main(*args)
