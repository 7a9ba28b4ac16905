"""Partitioned likelihood: one tree, several genes, per-partition models.

Genome-scale analyses — exactly the workloads whose memory footprint
motivates the paper — are usually *partitioned*: different genes (alignment
slices) evolve under different substitution models and Γ shapes, while
sharing one topology and one set of branch lengths. The total
log-likelihood is the sum over partitions.

:class:`PartitionedEngine` composes per-partition
:class:`~repro.phylo.likelihood.engine.LikelihoodEngine` instances on one
shared :class:`~repro.phylo.tree.Tree`, with two storage arrangements:

* **per-partition stores** (default): each partition keeps its own
  out-of-core vector store (its own slot budget, policy and backing), so
  the memory limit applies partition-wise — the natural generalization of
  the paper's single-matrix design;
* **one shared store** (``shared_store=...``): every partition's blocks
  live in a single :class:`~repro.core.vecstore.AncestralVectorStore`
  over a :class:`~repro.core.layout.ConcatenatedLayout`, so ONE global
  slot budget (and one policy, one backing file) governs all partitions
  — a hot gene can claim slots a cold gene is not using, which the
  fragmented per-partition budgets cannot do. Partitions with unequal
  pattern counts require a block layout (padded site blocks give every
  partition the same item geometry).
"""

from __future__ import annotations

import numpy as np

from repro.core.layout import (
    DEFAULT_BLOCK_SITES,
    ConcatenatedLayout,
    SharedStoreView,
    make_layout,
)
from repro.core.stats import IoStats
from repro.core.vecstore import AncestralVectorStore
from repro.errors import LikelihoodError
from repro.phylo.likelihood.engine import LikelihoodEngine
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


class PartitionedEngine:
    """Joint likelihood over partitions sharing one tree + branch lengths.

    Parameters
    ----------
    tree:
        The shared topology (each partition engine gets this same object,
        so a topological edit propagates to all partitions).
    partitions:
        ``(alignment, model, rates)`` triples.
    store_kwargs:
        Per-partition store configuration forwarded to each engine
        (``fraction=...``, ``policy=...``, ...); one dict applied to all,
        or a list with one dict per partition. Mutually exclusive with
        ``shared_store``.
    shared_store:
        One store configuration dict for ALL partitions: the engine
        builds per-partition layouts (``layout``/``block_sites`` keys,
        default ``"block"`` with :data:`~repro.core.layout.DEFAULT_BLOCK_SITES`
        sites), concatenates them, and opens a single
        :class:`~repro.core.vecstore.AncestralVectorStore` whose remaining
        keys (``num_slots``/``fraction``/``policy``/``backing``/
        ``read_skipping``/... , plus ``dtype``) apply globally. Note
        ``fraction`` is relative to the TOTAL block count across
        partitions. Each partition engine addresses the store through a
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
        self.tree = tree
        self.engines: list[LikelihoodEngine] = []
        self._shared_store: AncestralVectorStore | None = None
        self.shared_layout: ConcatenatedLayout | None = None
        if shared_store is not None:
            self._build_shared(tree, partitions, dict(shared_store))
            return
        if store_kwargs is None:
            store_kwargs = {}
        if isinstance(store_kwargs, dict):
            store_kwargs = [dict(store_kwargs) for _ in partitions]
        if len(store_kwargs) != len(partitions):
            raise LikelihoodError(
                f"{len(store_kwargs)} store configs for {len(partitions)} partitions"
            )
        for (alignment, model, rates), kwargs in zip(partitions, store_kwargs):
            self.engines.append(
                LikelihoodEngine(tree, alignment, model, rates, **kwargs)
            )

    def _build_shared(self, tree, partitions, cfg: dict) -> None:
        """One slot arena for every partition (single global budget)."""
        layout_kind = cfg.pop("layout", "block")
        block_sites = cfg.pop("block_sites", None)
        if layout_kind == "block" and block_sites is None:
            block_sites = DEFAULT_BLOCK_SITES
        dtype = np.dtype(cfg.pop("dtype", np.float64))
        num_inner = tree.num_inner
        layouts = []
        for alignment, model, rates in partitions:
            patterns = alignment.compress().num_patterns
            cats = (rates if rates is not None
                    else RateModel.gamma(1.0, 4)).num_categories
            shape = (patterns, cats, model.num_states)
            layouts.append(make_layout(layout_kind, num_inner, shape,
                                       block_sites=block_sites))
        self.shared_layout = ConcatenatedLayout(layouts)
        self._shared_store = AncestralVectorStore(
            layout=self.shared_layout, dtype=dtype, **cfg)
        for i, (alignment, model, rates) in enumerate(partitions):
            view = SharedStoreView(self._shared_store,
                                   self.shared_layout.view(i))
            self.engines.append(
                LikelihoodEngine(tree, alignment, model, rates,
                                 store=view, dtype=dtype)
            )

    @property
    def num_partitions(self) -> int:
        return len(self.engines)

    @property
    def shared_store(self) -> AncestralVectorStore | None:
        """The single shared store, or ``None`` with per-partition stores."""
        return self._shared_store

    def loglikelihood(self) -> float:
        """Sum of per-partition log-likelihoods (shared virtual root)."""
        u, v = self.engines[0].default_edge()
        return sum(e.edge_loglikelihood(u, v) for e in self.engines)

    def edge_loglikelihood(self, u: int, v: int) -> float:
        return sum(e.edge_loglikelihood(u, v) for e in self.engines)

    # -- shared-tree mutations: applied once, invalidated per partition -------

    def set_branch_length(self, u: int, v: int, length: float) -> None:
        self.tree.set_branch_length(u, v, length)
        for e in self.engines:
            e.orientation.after_branch_change(u, v)

    def apply_spr(self, prune_node: int, subtree_neighbor: int, target_edge):
        undo = self.tree.spr_move(prune_node, subtree_neighbor, target_edge)
        for e in self.engines:
            e.orientation.after_spr(prune_node, undo.old_a, undo.old_b,
                                    undo.target_u, undo.target_v)
        return undo

    def undo_spr(self, undo) -> None:
        self.tree.undo_spr(undo)
        for e in self.engines:
            e.orientation.after_spr(undo.prune_node, undo.target_u,
                                    undo.target_v, undo.old_a, undo.old_b)

    def apply_nni(self, edge, variant: int = 0):
        undo = self.tree.nni(edge, variant)
        for e in self.engines:
            e.orientation.after_nni(undo.u, undo.v, undo.swapped_u,
                                    undo.swapped_v)
        return undo

    def undo_nni(self, undo) -> None:
        self.tree.undo_nni(undo)
        for e in self.engines:
            e.orientation.after_nni(undo.u, undo.v, undo.swapped_v,
                                    undo.swapped_u)

    def optimize_branch(self, u: int, v: int) -> float:
        """Joint Newton–Raphson over all partitions for one branch.

        Builds one sumtable per partition; the joint derivative is the sum
        of per-partition derivatives (branch lengths are shared).
        """
        from repro.phylo.likelihood import kernels
        from repro.phylo.likelihood.branch_opt import (
            MAX_BRANCH_LENGTH,
            MIN_BRANCH_LENGTH,
        )

        tables = []
        for e in self.engines:
            e.make_edge_current(u, v)
            tables.append(e._edge_sumtable(u, v))

        t = float(np.clip(self.tree.branch_length(u, v),
                          MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH))
        for _ in range(32):
            d1 = d2 = 0.0
            for e, table in zip(self.engines, tables):
                _, p1, p2 = kernels.branch_lnl_and_derivatives(
                    table, e.model.eigenvalues, e.rates.rates,
                    e.rates.weights, e.pattern_weights, t,
                )
                if not np.isfinite(p1):
                    p1, p2 = 0.0, -1.0
                d1 += p1
                d2 += p2
            if abs(d1) < 1e-9:
                break
            step = -d1 / d2 if d2 < 0 else (t if d1 > 0 else -t / 2)
            t_new = float(np.clip(t + step, MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH))
            if abs(t_new - t) < 1e-10:
                t = t_new
                break
            t = t_new
        self.set_branch_length(u, v, t)
        return t

    def optimize_all_branches(self, passes: int = 1) -> float:
        for _ in range(passes):
            for u, v in list(self.tree.edges()):
                self.optimize_branch(u, v)
        return self.loglikelihood()

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
        if self._shared_store is not None:
            return self._shared_store.stats
        return IoStats.merged(self.partition_stats)

    def close(self) -> None:
        """Close every partition engine and (once) the shared store."""
        for e in self.engines:
            e.close()
        if self._shared_store is not None:
            self._shared_store.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._shared_store is not None:
            store = self._shared_store
            desc = (f"shared store: {store.num_slots} slots over "
                    f"{store.num_items} blocks of {store.item_shape}, "
                    f"policy={getattr(store.policy, 'name', '?')}")
        else:
            slots = sum(getattr(e.store, "num_slots", 0) for e in self.engines)
            desc = f"per-partition stores: {slots} slots total"
        patterns = sum(e.num_patterns for e in self.engines)
        return (f"PartitionedEngine({self.num_partitions} partitions, "
                f"{self.tree.num_tips} taxa, {patterns} patterns, {desc})")
