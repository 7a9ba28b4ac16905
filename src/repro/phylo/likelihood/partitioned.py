"""Partitioned likelihood: one tree, several genes, per-partition models.

Genome-scale analyses — exactly the workloads whose memory footprint
motivates the paper — are usually *partitioned*: different genes (alignment
slices) evolve under different substitution models and Γ shapes, while
sharing one topology and one set of branch lengths. The total
log-likelihood is the sum over partitions.
"""

from __future__ import annotations

from repro.config import EngineConfig
from repro.core.layout import ConcatenatedLayout, SharedStoreView, make_layout
from repro.core.stats import IoStats
from repro.core.vecstore import AncestralVectorStore
from repro.errors import LikelihoodError
from repro.phylo.likelihood.engine import (
    LikelihoodEngine,
    build_store,
    clv_geometry,
)
from repro.phylo.likelihood.evaluator import Evaluator
from repro.phylo.models.rates import RateModel
from repro.phylo.msa import Alignment


def split_alignment(alignment: Alignment, boundaries: list[int]) -> list[Alignment]:
    """Slice an alignment into partitions at site ``boundaries``.

    ``boundaries`` are the start sites of each partition after the first,
    e.g. ``[300, 800]`` splits 1000 sites into ``[0:300)``, ``[300:800)``,
    ``[800:1000)``.
    """
    cuts = [0, *boundaries, alignment.num_sites]
    if sorted(cuts) != cuts or len(set(cuts)) != len(cuts):
        raise LikelihoodError(f"boundaries must be increasing within "
                              f"(0, {alignment.num_sites}): {boundaries}")
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        out.append(Alignment(alignment.names,
                             alignment.codes[:, lo:hi],
                             alignment.alphabet))
    return out


class PartitionedEngine(Evaluator):
    """Joint likelihood over partitions sharing one tree + branch lengths.

    Evaluation, moves and branch optimization are the
    :class:`~repro.phylo.likelihood.evaluator.Evaluator`'s, over one
    :class:`~repro.phylo.likelihood.engine.LikelihoodEngine` per partition
    (``engines``), all holding the same ``tree`` object; this class only
    builds them and reports on them.

    Parameters
    ----------
    tree:
        The shared topology (every partition engine gets this same object,
        so an edit made once is seen by all).
    partitions:
        ``(alignment, model, rates)`` triples.
    store_kwargs:
        **Per-partition stores** (default): the
        :class:`~repro.phylo.likelihood.engine.LikelihoodEngine` keywords
        of each partition's engine (``fraction=...``, ``policy=...``, any
        :class:`~repro.config.EngineConfig` field) — one dict applied to
        all, or a list with one dict per partition. Each partition keeps
        its own slot budget, policy and backing: the paper's single-matrix
        design, partition-wise.
    shared_store:
        **One shared store** instead, described by the same keywords. The
        per-partition layouts (``layout`` defaults to ``"block"`` here —
        unequal pattern counts need padded site blocks to share an item
        geometry) are concatenated and served by a single
        :class:`~repro.core.vecstore.AncestralVectorStore` with ONE slot
        budget, policy and backing, so a hot gene can claim slots a cold
        gene is not using. ``fraction`` is relative to the TOTAL block
        count. Each engine addresses the store through a
        :class:`~repro.core.layout.SharedStoreView`, which mirrors its
        demand counters per partition.
    """

    def __init__(self, tree, partitions, store_kwargs=None, *,
                 shared_store=None) -> None:
        if not partitions:
            raise LikelihoodError("need at least one partition")
        if shared_store is not None and store_kwargs is not None:
            raise LikelihoodError(
                "pass either store_kwargs (per-partition stores) or "
                "shared_store (one store for all), not both")
        super().__init__(tree)
        self.engines: list[LikelihoodEngine] = []
        #: The single shared store, or ``None`` with per-partition stores.
        self.shared_store: AncestralVectorStore | None = None
        self.shared_layout: ConcatenatedLayout | None = None
        try:
            if shared_store is not None:
                self._build_shared(tree, partitions, dict(shared_store))
                return
            # One store per partition: the budget applies partition-wise.
            if not isinstance(store_kwargs, list):
                store_kwargs = [store_kwargs or {}] * len(partitions)
            if len(store_kwargs) != len(partitions):
                raise LikelihoodError(f"{len(store_kwargs)} store configs "
                                      f"for {len(partitions)} partitions")
            for (alignment, model, rates), kwargs in zip(partitions,
                                                         store_kwargs):
                self.engines.append(
                    LikelihoodEngine(tree, alignment, model, rates, **kwargs))
        except BaseException:
            # A later partition failed: what the earlier ones already own
            # (writer threads, backing files, the shared store) goes too.
            self.close()
            raise

    def _build_shared(self, tree, partitions, cfg: dict) -> None:
        """One slot arena for every partition (single global budget)."""
        options = {key: cfg.pop(key) for key in
                   ("workdir", "track_dirty", "poison_skipped_reads")
                   if key in cfg}
        config = EngineConfig().override(**{"layout": "block", **cfg})
        layouts = []
        for alignment, model, rates in partitions:
            num_inner, shape = clv_geometry(
                tree, alignment, model,
                rates if rates is not None else RateModel.gamma(1.0, 4))
            layouts.append(make_layout(config.layout, num_inner, shape,
                                       block_sites=config.block_sites))
        self.shared_layout = ConcatenatedLayout(layouts)
        self.shared_store = build_store(config, self.shared_layout, **options)
        for i, (alignment, model, rates) in enumerate(partitions):
            view = SharedStoreView(self.shared_store,
                                   self.shared_layout.view(i))
            self.engines.append(
                LikelihoodEngine(tree, alignment, model, rates, store=view,
                                 dtype=config.dtype, batch=config.batch,
                                 prefetch_depth=config.prefetch_depth)
            )

    def _parts(self) -> list[LikelihoodEngine]:
        return self.engines

    def total_ancestral_bytes(self) -> int:
        return sum(e.total_ancestral_bytes() for e in self.engines)

    @property
    def partition_stats(self) -> list[IoStats]:
        """Per-partition I/O statistics.

        With per-partition stores these are the full store counters; with
        a shared store each entry is that partition's
        :class:`~repro.core.layout.SharedStoreView` mirror, which carries
        the demand counters only (evictions and async traffic are global
        decisions of the shared store — see :meth:`stats`).
        """
        return [e.stats for e in self.engines]

    def stats(self) -> IoStats:
        """Aggregated I/O statistics, reported like a single-engine run.

        With a shared store this is the store's own global counter block
        (its demand traffic equals the sum of the per-partition mirrors);
        with per-partition stores it is the element-wise sum of the
        per-partition blocks.
        """
        if self.shared_store is not None:
            return self.shared_store.stats
        return IoStats.merged(self.partition_stats)

    def close(self) -> None:
        """Close every partition engine and (once) the shared store."""
        for e in self.engines:
            e.close()
        if self.shared_store is not None:
            self.shared_store.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.shared_store is not None:
            store = self.shared_store
            desc = (f"shared store: {store.num_slots} slots over "
                    f"{store.num_items} blocks of {store.item_shape}, "
                    f"policy={getattr(store.policy, 'name', '?')}")
        else:
            slots = sum(getattr(e.store, "num_slots", 0) for e in self.engines)
            desc = f"per-partition stores: {slots} slots total"
        patterns = sum(e.num_patterns for e in self.engines)
        return (f"PartitionedEngine({len(self.engines)} partitions, "
                f"{self.tree.num_tips} taxa, {patterns} patterns, {desc})")
