"""The benchmark's fixed points: geometries, workloads, protocol constants.

Imports nothing heavy, so the parent process can read the table without
loading numpy or the program under test. Workload names are permanent:
later issues cite them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

#: D128x4k, the geometry every number is quoted at, and the smoke geometry
#: that runs the same code in seconds. One SPR pass is ``spr_slices`` calls
#: of ``lazy_spr_round``, each over prune points whose regraft candidates
#: total ``spr_slice_evaluations``; one re-rooting pass evaluates
#: ``reroot_ops`` edges chosen to cost ``reroot_transfers`` vector
#: transfers; ``disk`` names the ``DiskModel`` the modelled device sleeps
#: for.
GEOMETRIES = {
    "D128x4k": {"taxa": 128, "sites": 4000, "spr_slices": 4,
                "spr_slice_evaluations": 36, "reroot_ops": 32,
                "reroot_transfers": 128, "block_sites": 256, "disk": "hdd"},
    "smoke": {"taxa": 16, "sites": 400, "spr_slices": 3,
              "spr_slice_evaluations": 12, "reroot_ops": 16,
              "reroot_transfers": 60, "block_sites": 64, "disk": "ssd"},
}
FRACTION = 0.25
SPR_RADIUS = 2
#: Hop distance from one evaluated edge to the next, cycled. Re-rooting
#: recomputes the vectors along that path, so the distances set the
#: compute of a pass; the seed picks *which* edge at each distance. Of
#: this many seeded candidate sequences the one whose modelled transfer
#: count is nearest the geometry's ``reroot_transfers`` is used, so the
#: device work of a pass does not depend on the seed either.
REROOT_HOPS = (2, 4, 7, 3, 10, 3, 6, 11)
REROOT_CANDIDATES = 24
#: Set-up (backing, engine, warm pass) is repeated up to this many times,
#: as long as the repeats so far took less than the budget; the median
#: is reported.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 3.0
MIN_PASSES = 5
TRACE_BASE_PASSES = 2
#: The speed probe: this many rounds of a fixed numpy contraction on a
#: CLV-sized array, and what they take on this class of box when it is
#: quiet. Only ratios of calibrated times mean anything, so the nominal
#: value sets the scale and nothing else.
PROBE_ROUNDS = 40
PROBE_NOMINAL_S = 0.0150

_ASYNC = {"writeback_depth": 8, "io_threads": 2, "prefetch_depth": 4}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "full" | "reroot" | "spr": what one op is
    backing: str              # "memory" | "file" | "simulated" | "sharded"
    engine: dict = field(default_factory=dict)   # LikelihoodEngine keywords
    traversals: int = 0       # "full" only: traversals (ops) per pass
    synchronous: bool = True  # no background I/O: counters repeat exactly
    fresh_engine: bool = False  # a new engine for every pass (built untimed)


#: Why each one exists is recorded in ``BENCHMARK.json`` and ``README.md``.
WORKLOADS = (
    # every vector resident: kernels + orchestration only; baseline and twin
    Workload("full_incore", "full", "memory",
             engine={"fraction": 1.0}, traversals=10),
    # the paper's Fig. 5 configuration on the default execution path
    Workload("full_whole_file", "full", "file",
             engine={"fraction": FRACTION}, traversals=10),
    # site blocks + batched schedule, no device: store bookkeeping dominates
    Workload("full_block_mem", "full", "memory",
             engine={"fraction": FRACTION, "layout": "block", "batch": -1},
             traversals=3),
    # lazy SPR: the store as a hit path, branch optimisation dominates
    Workload("search_spr_file", "spr", "file",
             engine={"fraction": FRACTION}, fresh_engine=True),
    # synchronous swaps against a modelled HDD: device wait dominates
    Workload("reroot_hdd_sync", "reroot", "simulated",
             engine={"fraction": FRACTION}),
    # the same operations with write-behind and prefetch on
    Workload("reroot_hdd_async", "reroot", "simulated",
             engine={"fraction": FRACTION, **_ASYNC}, synchronous=False),
    # ... over two shard worker processes
    Workload("reroot_hdd_sharded", "reroot", "sharded",
             engine={"fraction": FRACTION, **_ASYNC}, synchronous=False),
)
BY_NAME = {w.name: w for w in WORKLOADS}
KINDS = ("full", "reroot", "spr")



def cache_sizes() -> dict[str, int]:
    """Bytes of each cache cpu0 reports (``L1d``, ``L2u``, ``L3u``, ...)."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()[0].lower()
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1], 1)
        sizes[f"L{level}{kind}"] = int(text.rstrip("KM")) * scale
    return sizes


def llc_bytes() -> int:
    """The last-level cache, or 32 MiB when the box does not say."""
    return max(cache_sizes().values(), default=32 << 20)
