"""The likelihood engine: RAxML's evaluate/newview machinery over any store.

:class:`LikelihoodEngine` owns a tree, an alignment, a substitution model
and a rate model, and computes log-likelihoods by Felsenstein pruning. All
ancestral-vector traffic flows through a single indirection — the paper's
``getxvector()`` — so the same engine runs:

* **in-core** (``fraction=1.0``, the "standard RAxML" configuration),
* **out-of-core** with any slot fraction / replacement policy / backing
  store (the paper's contribution),
* against the **paging simulator** (the Figure-5 "standard with paging"
  baseline) by passing a :class:`~repro.vm.standardstore.PagedStandardStore`.

Correctness contract: for a fixed tree, data and model, the returned
log-likelihood is bit-identical across all of these configurations
(paper §4.1).

The class is two halves that meet at that indirection:
:class:`~repro.phylo.likelihood.executor.Executor` (plan → schedule →
kernels over slot views) and
:class:`~repro.phylo.likelihood.evaluator.Evaluator` (edges, moves, branch
optimisation), of which an engine is the one-alignment case. What is left
here is the constructor and the setters of what an engine has one of.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.layout import StorageLayout, WholeVectorLayout, make_layout
from repro.core.vecstore import AncestralVectorStore
from repro.errors import LikelihoodError
from repro.phylo.likelihood.evaluator import Evaluator
from repro.phylo.likelihood.executor import Executor, clv_geometry
from repro.phylo.models.base import ReversibleModel
from repro.phylo.models.rates import RateModel
from repro.phylo.msa import Alignment
from repro.phylo.tree import Tree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.config import EngineConfig

__all__ = ["LikelihoodEngine", "clv_geometry"]


class LikelihoodEngine(Evaluator, Executor):
    """Compute the PLF on ``tree`` × ``alignment`` under ``model`` + ``rates``.

    Parameters
    ----------
    tree:
        An unrooted binary :class:`Tree`; tip ``i`` corresponds to taxon
        ``tree.names[i]``, which must exist in the alignment.
    alignment:
        The :class:`Alignment` (site patterns are compressed internally).
    model:
        A :class:`ReversibleModel` over the alignment's alphabet size.
    rates:
        A :class:`RateModel`; defaults to Γ4 with α = 1 (the paper's setup).
    store:
        Anything with the vector-store ``get(item, pins, write_only)``
        protocol. If omitted, an :class:`AncestralVectorStore` is built from
        ``fraction`` / ``num_slots`` / ``policy`` / ``backing`` /
        ``read_skipping`` — ``fraction=1.0`` keeps every vector resident.
    layout / block_sites:
        Storage layout for the built store (ignored with an explicit
        ``store``, whose own layout governs): ``"whole"`` (default — one
        paged item per CLV, the paper's design), ``"block"`` (each CLV's
        pattern axis split into site blocks of ``block_sites`` patterns,
        paged independently), or a :class:`~repro.core.layout.StorageLayout`
        instance. Kernels then run blocked over per-block slices; results
        are bit-identical across layouts (§4.1 contract).
    writeback_depth / io_threads:
        Forwarded to the built store: ``writeback_depth > 0`` makes
        evictions asynchronous (a write-behind queue). ``io_threads`` is
        the number of background I/O threads per direction: that many
        writers drain the queue, that many prefetch workers issue reads.
        Only valid when the engine builds its own store (an explicit
        store brings its own ``io_threads``).
    prefetch_depth:
        ``> 0`` attaches a :class:`~repro.core.prefetch.ThreadedPrefetcher`
        that is fed each operation's access sequence (the paper's §5
        prefetch thread) and keeps the next ``prefetch_depth`` accesses'
        read items resident or in flight; reads overlap the likelihood
        kernels. Works with an explicit ``store`` too, provided it is an
        :class:`AncestralVectorStore`.
    batch:
        Group cap of the traversal schedule
        (:mod:`repro.phylo.likelihood.schedule`): ``0``/``None`` (default)
        = groups of one, each (step, block) update executed in place;
        ``-1`` ("auto") groups up to ``num_slots // 3`` independent
        updates per fused kernel call — the residency-safe cap; a positive
        value sets the cap explicitly. The store access sequence, all
        demand/eviction counters and the CLV bits are the same for every
        cap (§4.1). A cap above 1 requires a store with the out-of-band
        ``fill`` protocol (:class:`AncestralVectorStore`).
    dtype:
        ``float64`` (default) or ``float32`` for the single-precision mode.
    """

    def __init__(
        self,
        tree: Tree,
        alignment: Alignment,
        model: ReversibleModel,
        rates: RateModel | None = None,
        *,
        store=None,
        fraction: float | None = None,
        num_slots: int | None = None,
        layout: str | StorageLayout = "whole",
        block_sites: int | None = None,
        policy="lru",
        backing=None,
        read_skipping: bool = True,
        track_dirty: bool = False,
        poison_skipped_reads: bool = False,
        policy_kwargs: dict | None = None,
        writeback_depth: int = 0,
        io_threads: int = 1,
        prefetch_depth: int = 0,
        batch: int | str | None = None,
        dtype=np.float64,
    ) -> None:
        Evaluator.__init__(self, tree)
        Executor.__init__(self, tree, alignment, model, rates, dtype)
        #: The EngineConfig this engine was built from (set by
        #: EngineConfig.build, None when constructed directly) — what
        #: save_checkpoint records so a resume rebuilds the same pipeline.
        self.config: EngineConfig | None = None

        # Every argument is checked before anything that owns a thread, a
        # file descriptor or a worker process exists, so a rejected call
        # has nothing to leak; the store is built last, and whatever still
        # runs after it runs under the try that closes it.
        if batch in (None, 0):
            cap: int | None = 1
        elif batch == -1 or batch == "auto":
            cap = None  # default_group_cap(num_slots), once the store exists
        elif isinstance(batch, int) and batch > 0:
            cap = int(batch)
        else:
            raise LikelihoodError(
                f"batch must be None/0 (groups of one), -1/'auto' or a "
                f"positive group cap, got {batch!r}"
            )
        if store is not None:
            if fraction is not None or num_slots is not None:
                raise LikelihoodError(
                    "pass either an explicit store or a geometry, not both")
            if writeback_depth:
                raise LikelihoodError(
                    "writeback_depth configures the built store; with an "
                    "explicit store, construct it with writeback_depth yourself"
                )
            if layout != "whole" or block_sites is not None:
                raise LikelihoodError(
                    "layout/block_sites configure the built store; with an "
                    "explicit store, construct it over a layout yourself"
                )
            if prefetch_depth and not isinstance(store, AncestralVectorStore):
                raise LikelihoodError(
                    "prefetch_depth needs an AncestralVectorStore "
                    f"(got {type(store).__name__})"
                )
            if cap != 1 and not hasattr(store, "fill"):
                raise LikelihoodError(
                    "batch needs a store with the out-of-band fill protocol "
                    f"(got {type(store).__name__})"
                )
            # The explicit store's own layout governs; stores predating the
            # layout abstraction (e.g. PagedStandardStore) page whole CLVs.
            found = getattr(store, "layout", None)
            if found is None:
                found = WholeVectorLayout(self.num_inner, self.clv_shape)
            elif (found.num_nodes != self.num_inner
                    or found.node_shape != self.clv_shape):
                raise LikelihoodError(
                    f"store layout covers {found.num_nodes} nodes of shape "
                    f"{found.node_shape}; this engine needs {self.num_inner} "
                    f"of {self.clv_shape}"
                )
            store_layout, built = found, store
        else:
            store_layout = make_layout(layout, self.num_inner, self.clv_shape,
                                       block_sites=block_sites)
            built = AncestralVectorStore(
                layout=store_layout,
                dtype=self.dtype,
                fraction=fraction,
                num_slots=num_slots,
                policy=policy,
                backing=backing,
                read_skipping=read_skipping,
                track_dirty=track_dirty,
                poison_skipped_reads=poison_skipped_reads,
                policy_kwargs=policy_kwargs,
                writeback_depth=writeback_depth,
                io_threads=io_threads,
            )
        try:
            self.attach_store(built, store_layout, cap, prefetch_depth)
        except BaseException:
            # A store built here has no other owner: release its writer
            # threads and its backing (fd, shard workers) with it.
            if store is None:
                built.close()
            raise

    def _parts(self) -> tuple[Executor, ...]:
        return (self,)

    def site_loglikelihoods(self) -> np.ndarray:
        """Per-original-site log-likelihoods (expanded from patterns)."""
        u, v = self.root_edge
        self.make_edge_current(u, v)
        site_l, counts = self.edge_site_likelihoods(u, v)
        per_pattern = np.log(site_l) - counts * self.scaling.log_multiplier
        return per_pattern[self.alignment.compress().pattern_of_site]

    # -- what an engine has one of: model, rates, pattern weights ----------------------

    def set_rates(self, rates: RateModel) -> None:
        """Swap the rate model (same category count); invalidates all CLVs."""
        if rates.num_categories != self.rates.num_categories:
            raise LikelihoodError(
                "category count is fixed by the CLV geometry; rebuild the engine "
                f"to go from {self.rates.num_categories} to {rates.num_categories}"
            )
        self.rates = rates
        self._drop_operators()
        self.invalidate_all()

    def set_model(self, model: ReversibleModel) -> None:
        """Swap the substitution model; invalidates all CLVs."""
        if model.num_states != self.model.num_states:
            raise LikelihoodError("state count is fixed by the CLV geometry")
        self.model = model
        self._drop_operators()
        self.invalidate_all()

    def set_pattern_weights(self, weights) -> None:
        """Override the per-pattern multiplicities (bootstrap resampling).

        A nonparametric bootstrap replicate is exactly the original pattern
        set with multinomially resampled weights
        (:func:`repro.phylo.bootstrap.bootstrap_weights`), so swapping the
        weight vector re-targets the engine to a replicate without touching
        any CLV: conditional likelihoods are weight-independent — only the
        final weighted sum changes. Zero weights are allowed (patterns
        absent from the replicate).
        """
        weights = np.ascontiguousarray(np.asarray(weights, dtype=np.float64))
        if weights.shape != (self.num_patterns,):
            raise LikelihoodError(
                f"need {self.num_patterns} pattern weights, got {weights.shape}"
            )
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise LikelihoodError("pattern weights must be finite and >= 0")
        self.pattern_weights = weights

    def reset_pattern_weights(self) -> None:
        """Restore the alignment's original pattern multiplicities."""
        self.pattern_weights = self.alignment.compress().weights.astype(np.float64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LikelihoodEngine({self.tree.num_tips} taxa, {self.num_patterns} patterns, "
            f"{self.model.name}+{self.rates.num_categories}cat, store={self.store!r})"
        )
