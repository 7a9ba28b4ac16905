#!/usr/bin/env python3
"""Three-layer vector storage: accelerator memory ⇄ RAM ⇄ disk.

The paper's conclusion (§5) envisions ancestral probability vectors
"partially resid[ing] on disk, in RAM, or the memory of an accelerator
card". This example builds that architecture with
:class:`~repro.core.tiered.TieredVectorStore`: a small fast device tier in
front of a mid-size host tier in front of a simulated disk, and shows the
per-tier traffic for a likelihood workload — the device-tier miss rate is
the PCIe transfer rate, the host-tier miss rate is the disk transfer rate.

Run:  python examples/accelerator_tiers.py
"""

from repro import (
    GTR,
    LikelihoodEngine,
    RateModel,
    SimulatedDiskBackingStore,
    TieredVectorStore,
    clv_geometry,
    simulate_alignment,
    yule_tree,
)
from repro.phylo.likelihood.branch_opt import smooth_all_branches
from repro.utils.timing import format_bytes


def main() -> None:
    tree = yule_tree(40, seed=3)
    model = GTR()
    rates = RateModel.gamma(0.8, 4)
    alignment = simulate_alignment(tree, model, 600, rates=rates, seed=4)

    reference_lnl = LikelihoodEngine(tree.copy(), alignment, model,
                                     rates).loglikelihood()
    num_inner, shape = clv_geometry(tree, alignment, model, rates)

    disk = SimulatedDiskBackingStore(num_inner, shape)
    tiers = TieredVectorStore(
        num_inner, shape,
        device_slots=4,            # tiny accelerator memory
        host_slots=num_inner // 3,  # a third of the vectors fit in RAM
        device_policy="lru",
        host_policy="lru",
        backing=disk,
    )
    engine = LikelihoodEngine(tree.copy(), alignment, model, rates, store=tiers)

    print(f"{num_inner} ancestral vectors of "
          f"{format_bytes(engine.ancestral_vector_bytes())}")
    print(f"device tier : {tiers.device.num_slots:3d} slots "
          f"({format_bytes(tiers.device.ram_bytes())})")
    print(f"host tier   : {tiers.host.num_slots:3d} slots "
          f"({format_bytes(tiers.host.ram_bytes())})")

    engine.full_traversals(2)
    lnl = engine.loglikelihood()
    status = "identical to in-core" if lnl == reference_lnl else "MISMATCH!"
    print(f"\nlnL through three tiers: {lnl:.4f}  [{status}]")
    smooth_all_branches(engine)

    d, h = tiers.device_stats, tiers.host_stats
    print("\ntier traffic:")
    print(f"  device (accelerator): {d.requests:6d} requests, "
          f"miss rate {d.miss_rate:6.2%}  -> PCIe transfers")
    print(f"  host   (CPU RAM)    : {h.requests:6d} requests, "
          f"miss rate {h.miss_rate:6.2%}  -> disk transfers")
    print(f"  PCIe moved          : {format_bytes(tiers.link.bytes_moved)}")
    print(f"  disk moved          : {format_bytes(h.io_bytes)}, "
          f"simulated disk time {disk.simulated_seconds:.3f}s")
    print("\nThe fast tier absorbs most requests; only its misses reach RAM, "
          "and only RAM misses reach disk — the paper's envisioned hierarchy.")


if __name__ == "__main__":
    main()
