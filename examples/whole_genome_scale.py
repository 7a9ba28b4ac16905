#!/usr/bin/env python3
"""Out-of-core vs. OS paging when the data no longer fits in RAM.

A laptop-scale rendition of the paper's §4.3 experiment (Figure 5): a
fixed tree, alignments of growing width, and five full tree traversals —
the worst case for vector locality. The "machine" has a simulated RAM
budget; the standard engine pages 4 KiB pages through a simulated OS page
cache, while the out-of-core engine swaps whole ancestral vectors through
the same disk model. Reported times are real numpy compute plus the
simulated I/O wait (see DESIGN.md, substitution 3).

Run:  python examples/whole_genome_scale.py [num_taxa]
"""

import sys
import time

import numpy as np

from repro import (
    GTR,
    AncestralVectorStore,
    DiskModel,
    JC69,
    LikelihoodEngine,
    PagedStandardStore,
    RateModel,
    SimulatedDiskBackingStore,
    clv_geometry,
    simulate_alignment,
    yule_tree,
)
from repro.utils.timing import format_bytes, format_seconds

TRAVERSALS = 5  # the paper computes five full tree traversals


def run_point(tree, alignment, model, rates, ram_bytes, disk):
    """One dataset size: (standard+paging, ooc-LRU) -> rows of metrics."""
    rows = []
    num_inner, shape = clv_geometry(tree, alignment, model, rates)
    w = int(np.prod(shape)) * 8  # bytes per float64 vector
    footprint = num_inner * w

    # -- standard implementation relying on (simulated) OS paging ---------
    paged = PagedStandardStore(num_inner, shape, ram_bytes=ram_bytes, disk=disk)
    eng = LikelihoodEngine(tree.copy(), alignment, model, rates, store=paged)
    t0 = time.perf_counter()
    lnl_std = eng.full_traversals(TRAVERSALS)
    compute = time.perf_counter() - t0
    rows.append({
        "config": "standard(paging)",
        "lnl": lnl_std,
        "compute_s": compute,
        "io_s": paged.simulated_seconds,
        "elapsed_s": compute + paged.simulated_seconds,
        "faults": paged.faults,
    })

    # -- out-of-core with a 'ram_bytes' slot budget ------------------------
    for policy in ("lru", "random"):
        backing = SimulatedDiskBackingStore(num_inner, shape, disk=disk)
        slots = max(3, ram_bytes // w)
        store = AncestralVectorStore(num_inner, shape, num_slots=slots,
                                     policy=policy, backing=backing,
                                     policy_kwargs={"seed": 5}
                                     if policy == "random" else None)
        eng = LikelihoodEngine(tree.copy(), alignment, model, rates, store=store)
        t0 = time.perf_counter()
        lnl_ooc = eng.full_traversals(TRAVERSALS)
        compute = time.perf_counter() - t0
        assert lnl_ooc == lnl_std, "out-of-core result must be bit-identical"
        rows.append({
            "config": f"ooc-{policy}",
            "lnl": lnl_ooc,
            "compute_s": compute,
            "io_s": backing.simulated_seconds,
            "elapsed_s": compute + backing.simulated_seconds,
            "faults": store.stats.swaps,
        })
    return footprint, rows


def main(num_taxa: int = 128) -> None:
    tree = yule_tree(num_taxa, seed=17)
    model = GTR()
    rates = RateModel.gamma(1.0, 4)
    disk = DiskModel.hdd()
    # Simulated "physical RAM" for ancestral vectors; dataset widths are
    # chosen so the footprint spans ~0.5x .. 8x of it (the paper: 1-32 GB
    # against 2 GB => 0.5x .. 16x).
    ram = 4 * 1024 * 1024
    print(f"tree: {num_taxa} taxa | simulated RAM for vectors: {format_bytes(ram)} "
          f"| disk: {disk.name}\n")
    print("elapsed = compute + sim I/O (device-busy seconds). For the ooc rows "
          "that is an upper\nbound: the store overlaps a miss's write-out with "
          "its read-in, so the real wait is\nshorter by up to reads x one "
          "transfer time (about 2 reads per traversal).\n")
    print(f"{'footprint':>10} {'pressure':>8} {'config':>17} {'elapsed':>10} "
          f"{'compute':>9} {'sim I/O':>9} {'faults/swaps':>12}")

    for sites in (200, 400, 800, 1600, 3200):
        alignment = simulate_alignment(tree, model, sites, rates=rates,
                                       seed=1000 + sites)
        footprint, rows = run_point(tree, alignment, model, rates, ram, disk)
        pressure = footprint / ram
        for row in rows:
            print(f"{format_bytes(footprint):>10} {pressure:7.1f}x "
                  f"{row['config']:>17} {format_seconds(row['elapsed_s']):>10} "
                  f"{format_seconds(row['compute_s']):>9} "
                  f"{format_seconds(row['io_s']):>9} {row['faults']:>12}")
        std = rows[0]["elapsed_s"]
        best = min(r["elapsed_s"] for r in rows[1:])
        if std > best:
            print(f"{'':>19} -> out-of-core is {std / best:.1f}x faster here")
        print()


if __name__ == "__main__":
    main(*[int(a) for a in sys.argv[1:2]])
