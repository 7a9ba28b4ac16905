"""Shared benchmark infrastructure: scaled datasets and the shadow grid.

Scaling. The paper's experiments use 1288/1908-taxon real alignments and
8192-taxon simulated matrices up to 32 GB — far beyond what a pure-Python
PLF should grind through per benchmark run. Benchmarks therefore run at a
*scaled geometry* by default and honour ``REPRO_BENCH_SCALE``:

* ``quick`` (default): ~1/16 of the paper's taxon counts; seconds per bench.
* ``medium``: ~1/4 scale; minutes.
* ``full``: the paper's taxon counts; hours (pure Python) — provided for
  completeness.

Miss/read rates are properties of the tree-search access pattern, which is
shaped by the search algorithm, not by absolute taxon counts, so the scaled
runs reproduce the paper's *figures' shape* faithfully (see DESIGN.md,
substitution 2).

The Figure 2/3/4 benches share a single instrumented search run (the
``shadow_grid`` fixture): the engine's vector access stream is broadcast to
one bookkeeping shadow per (strategy, capacity) point, which is both faster
and exactly equivalent to running each configuration live (§4.1
determinism). The same run's access trace is recorded beside the shadows
for the offline ablations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro import (
    GTR,
    AccessTrace,
    AncestralVectorStore,
    LikelihoodEngine,
    RateModel,
    ShadowStore,
    TeeStore,
    clv_geometry,
    simulate_alignment,
    yule_tree,
)
from repro.core.vecstore import slots_for_fraction
from repro.phylo.search import lazy_spr_round

OUT_DIR = Path(__file__).parent / "out"

SCALES = {
    # (taxa for the 1288 dataset, sites), (taxa for 1908, sites), fig5 taxa
    "quick": ((80, 300), (120, 356), 64),
    "medium": ((322, 600), (477, 712), 128),
    "full": ((1288, 1200), (1908, 1424), 8192),
}


def bench_scale() -> str:
    scale = os.environ.get("REPRO_BENCH_SCALE", "quick")
    if scale not in SCALES:
        raise ValueError(f"REPRO_BENCH_SCALE must be one of {sorted(SCALES)}")
    return scale


@dataclass
class Dataset:
    """A simulated stand-in for one of the paper's test datasets."""

    name: str
    tree: object
    start_tree: object
    alignment: object
    model: object
    rates: object

    def engine(self, **kwargs) -> LikelihoodEngine:
        tree = kwargs.pop("tree", None) or self.start_tree.copy()
        return LikelihoodEngine(tree, self.alignment, self.model, self.rates,
                                **kwargs)

    def geometry(self) -> tuple[int, tuple[int, int, int]]:
        """``(num_inner, clv_shape)`` of every engine on this dataset."""
        return clv_geometry(self.start_tree, self.alignment, self.model,
                            self.rates)


def _build_dataset(name: str, num_taxa: int, num_sites: int, seed: int) -> Dataset:
    tree = yule_tree(num_taxa, seed=seed)
    model = GTR((1.0, 2.7, 0.8, 1.1, 3.1, 1.0), (0.29, 0.21, 0.24, 0.26))
    rates = RateModel.gamma(0.85, 4)  # the paper's Γ with 4 discrete rates
    alignment = simulate_alignment(tree, model, num_sites, rates=rates,
                                   seed=seed + 1)
    start = yule_tree(num_taxa, seed=seed + 2, names=tree.names)
    return Dataset(name, tree, start, alignment, model, rates)


@pytest.fixture(scope="session")
def ds1288() -> Dataset:
    """Scaled analogue of the paper's 1288-taxon / 1200-site DNA dataset."""
    taxa, sites = SCALES[bench_scale()][0]
    return _build_dataset("d1288", taxa, sites, seed=1288)


@pytest.fixture(scope="session")
def ds1908() -> Dataset:
    """Scaled analogue of the 1908-taxon / 1424-site supplement dataset."""
    taxa, sites = SCALES[bench_scale()][1]
    return _build_dataset("d1908", taxa, sites, seed=1908)


# ---------------------------------------------------------------------------
# the instrumented search run shared by Figs. 2, 3 and 4


PAPER_POLICIES = ("random", "lru", "lfu", "topological")
PAPER_FRACTIONS = (0.25, 0.50, 0.75)


@dataclass
class ShadowGrid:
    """Results of one search run observed by the full shadow grid."""

    dataset: str
    search_lnl: float
    moves_applied: int
    requests: int
    stats: dict  # label -> IoStats
    num_inner: int
    trace: AccessTrace  # the run's own access sequence

    def get(self, policy: str, fraction: float):
        return self.stats[f"{policy}:{fraction:.4f}"]

    def get_slots(self, num_slots: int):
        return self.stats[f"random:m{num_slots}"]


def _fig4_slot_counts(num_inner: int) -> list[int]:
    """f = 0.75 halved repeatedly down to 5 slots (paper Fig. 4)."""
    counts = []
    m = max(5, round(0.75 * num_inner))
    while m > 5:
        counts.append(m)
        m = max(5, m // 2)
    counts.append(5)
    return counts


def run_shadow_grid(dataset: Dataset, radius: int = 5) -> ShadowGrid:
    """One lazy-SPR search observed by every (policy, capacity) shadow and
    recorded by an :class:`AccessTrace` beside them."""
    num_inner, shape = dataset.geometry()
    primary = AncestralVectorStore(num_inner, shape)

    shadows: list[ShadowStore] = []
    for policy in PAPER_POLICIES:
        for f in PAPER_FRACTIONS:
            m = slots_for_fraction(f, num_inner)
            shadows.append(
                ShadowStore(num_inner, m, policy, label=f"{policy}:{f:.4f}",
                            policy_kwargs={"seed": 7} if policy == "random" else None)
            )
    for m in _fig4_slot_counts(num_inner):
        shadows.append(ShadowStore(num_inner, m, "random",
                                   label=f"random:m{m}",
                                   policy_kwargs={"seed": 11}))
    trace = AccessTrace(num_inner)
    engine = dataset.engine(store=TeeStore(primary, [*shadows, trace]))
    result = lazy_spr_round(engine, radius=radius)
    return ShadowGrid(
        dataset=dataset.name,
        search_lnl=result.lnl,
        moves_applied=result.moves_applied,
        requests=primary.stats.requests,
        stats={s.label: s.stats for s in shadows},
        num_inner=num_inner,
        trace=trace,
    )


@pytest.fixture(scope="session")
def shadow_grid(ds1288) -> ShadowGrid:
    return run_shadow_grid(ds1288)


@pytest.fixture(scope="session")
def shadow_grid_1908(ds1908) -> ShadowGrid:
    return run_shadow_grid(ds1908)


# ---------------------------------------------------------------------------
# reporting helpers


def report(name: str, lines: list[str]) -> None:
    """Print a result table and persist it under benchmarks/out/."""
    text = "\n".join(lines)
    print(f"\n===== {name} =====\n{text}\n")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")


def fraction_header() -> str:
    return f"{'strategy':>12} | " + " | ".join(
        f"f={f:.2f}" for f in PAPER_FRACTIONS
    )
