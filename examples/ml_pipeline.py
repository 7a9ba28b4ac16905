#!/usr/bin/env python3
"""A complete maximum-likelihood analysis pipeline, out-of-core end to end.

The workflow a RAxML user would run, built from this library's pieces:

1. read (here: simulate) a DNA alignment;
2. build a starting tree — Neighbor Joining on JC-corrected distances
   (the paper's §2 baseline) and randomized stepwise-addition parsimony;
3. run the lazy-SPR maximum-likelihood search under GTR+Γ with the
   ancestral vectors held out-of-core in a real binary file on disk;
4. optimize the Γ shape parameter and branch lengths;
5. write the final tree as Newick and report I/O statistics.

Run:  python examples/ml_pipeline.py
"""

import tempfile
from pathlib import Path

from repro import (
    GTR,
    LikelihoodEngine,
    RateModel,
    optimize_alpha,
    simulate_alignment,
    stepwise_addition_tree,
    write_newick,
    yule_tree,
)
from repro.nj.neighbor_joining import nj_tree
from repro.phylo.parsimony import alignment_fitch_score
from repro.phylo.search import ml_search
from repro.utils.timing import format_bytes


def main() -> None:
    # --- data --------------------------------------------------------------
    truth = yule_tree(20, seed=5)
    gen_model = GTR((1.0, 3.2, 0.7, 0.9, 3.6, 1.0), (0.31, 0.19, 0.23, 0.27))
    alignment = simulate_alignment(truth, gen_model, 800,
                                   rates=RateModel.gamma(0.6, 4), seed=6)
    print(f"alignment: {alignment!r}")

    # --- starting trees ------------------------------------------------------
    nj = nj_tree(alignment)
    pars = stepwise_addition_tree(alignment, seed=7)
    print(f"NJ start        : parsimony score {alignment_fitch_score(nj, alignment):.0f}, "
          f"RF to truth {nj.robinson_foulds(truth)}")
    print(f"parsimony start : parsimony score {alignment_fitch_score(pars, alignment):.0f}, "
          f"RF to truth {pars.robinson_foulds(truth)}")
    start = nj if alignment_fitch_score(nj, alignment) <= \
        alignment_fitch_score(pars, alignment) else pars

    # --- ML search with on-disk ancestral vectors ----------------------------
    model = GTR((1.0, 2.0, 1.0, 1.0, 2.0, 1.0),
                tuple(alignment.empirical_frequencies()))
    rates = RateModel.gamma(1.0, 4)
    with tempfile.TemporaryDirectory() as tmp:
        engine = LikelihoodEngine(start, alignment, model, rates,
                                  fraction=0.25, policy="lru", backing="file",
                                  workdir=tmp)
        vector_file = Path(engine.store.backing.path)
        print(f"\nout-of-core store: {engine.store.num_slots} slots of "
              f"{format_bytes(engine.ancestral_vector_bytes())} "
              f"({format_bytes(engine.store.ram_bytes())} RAM), "
              f"spill file {vector_file.name}")

        result = ml_search(engine, radius=5, max_rounds=8, do_alpha=False)
        alpha = optimize_alpha(engine)
        final_lnl = engine.loglikelihood()

        print(f"search   : {result.rounds} rounds, {result.moves_applied} moves, "
              f"lnL {result.lnl:.3f}")
        print(f"alpha    : {alpha:.3f}  ->  final lnL {final_lnl:.3f}")
        print(f"topology : RF distance to generating tree = "
              f"{engine.tree.robinson_foulds(truth)}")
        s = engine.stats
        print(f"I/O      : {s.requests} requests, miss rate {s.miss_rate:.2%}, "
              f"read rate {s.read_rate:.2%}, "
              f"{format_bytes(s.io_bytes)} moved, file size "
              f"{format_bytes(vector_file.stat().st_size)}")
        print("\nfinal tree (Newick):")
        print(write_newick(engine.tree, precision=4))
        engine.close()


if __name__ == "__main__":
    main()
