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

import os

import numpy as np

from repro.config import EngineConfig
from repro.core.backing import PATH_KINDS, make_backing
from repro.core.faults import RetryingBackingStore
from repro.core.layout import StorageLayout, make_layout
from repro.core.vecstore import AncestralVectorStore
from repro.errors import BackingStoreError, LikelihoodError
from repro.phylo.likelihood.evaluator import Evaluator
from repro.phylo.likelihood.executor import Executor, clv_geometry
from repro.phylo.models.base import ReversibleModel
from repro.phylo.models.rates import RateModel
from repro.phylo.msa import Alignment
from repro.phylo.tree import Tree

__all__ = ["LikelihoodEngine", "build_store", "clv_geometry"]


def build_store(config: EngineConfig, layout: StorageLayout, *,
                workdir: "str | os.PathLike[str] | None" = None,
                **store_options: bool | None) -> AncestralVectorStore:
    """Slot budget → backing → store over ``layout``, as ``config`` says.

    The one place a configuration becomes a store: the engine's own.
    ``workdir`` is where a path-owning backing kind puts its scratch file
    (the caller owns the directory; such a kind without one is a
    :class:`~repro.errors.BackingStoreError` before anything is built);
    ``store_options`` are ``track_dirty`` / ``poison_skipped_reads``, and
    one left ``None`` takes the store's own default. The store owns its
    backing — a ready-made one included — and closes it.
    """
    backing = config.backing
    if isinstance(backing, str) and backing in PATH_KINDS and workdir is None:
        raise BackingStoreError(
            f"{backing!r} backing needs a path: pass workdir=, a directory "
            f"the caller owns, for its files")
    options = {key: value for key, value in store_options.items()
               if value is not None}
    dtype = np.dtype(config.dtype)
    num_slots = config.num_slots
    if config.memory_limit is not None:
        # The store clamps to [MIN_SLOTS, num_items] like any slot count.
        item_bytes = int(np.prod(layout.item_shape)) * dtype.itemsize
        num_slots = config.memory_limit // item_bytes
    if isinstance(backing, str):
        path = (None if workdir is None
                else os.path.join(workdir, f"vectors.{backing}"))
        backing = make_backing(
            backing, layout.num_items, layout.item_shape, dtype, path=path,
            **({"num_shards": config.shards} if backing == "sharded" else {}))
    if config.backing_retries:
        backing = RetryingBackingStore(backing, retries=config.backing_retries)
    try:
        return AncestralVectorStore(
            layout=layout, dtype=dtype, fraction=config.fraction,
            num_slots=num_slots, policy=config.policy,
            policy_kwargs=({"seed": config.seed}
                           if config.policy == "random" else None),
            backing=backing, read_skipping=config.read_skipping,
            writeback_depth=config.writeback_depth,
            io_threads=config.io_threads, **options)
    except BaseException:
        backing.close()
        raise


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
    config / overrides:
        The :class:`~repro.config.EngineConfig` to build from (default: all
        defaults, i.e. in-core) and any of its field names as keywords on
        top — ``LikelihoodEngine(..., fraction=0.25, policy="lfu")``. See
        ``EngineConfig`` for what each field means and accepts; the
        resolved configuration is kept as ``self.config``.
    store:
        Anything with the vector-store protocol — ``get_many`` over
        ``(item, pins, write_only)`` accesses, ``get`` for one — used
        instead of building one; its own layout governs and the
        store-building fields must then be at their defaults.
    workdir:
        Where a path-owning backing kind puts its scratch file; such a
        kind needs one (the constructor makes no temporary directory).
    track_dirty / poison_skipped_reads:
        Options of the built store that no front end declares; left
        ``None``, the store's defaults (dirty tracking on, no poisoning).
        ``track_dirty=False`` is the paper's always-write accounting.
    """

    def __init__(
        self,
        tree: Tree,
        alignment: Alignment,
        model: ReversibleModel,
        rates: RateModel | None = None,
        config: EngineConfig | None = None,
        *,
        store=None,
        workdir: "str | os.PathLike[str] | None" = None,
        track_dirty: bool | None = None,
        poison_skipped_reads: bool | None = None,
        **overrides,
    ) -> None:
        # The configuration is checked in full before anything that owns a
        # thread or a file descriptor exists, so a rejected call has
        # nothing to leak; the store is built last, and whatever still
        # runs after it runs under the try that closes it.
        config = (config or EngineConfig()).override(**overrides)
        if store is not None:
            config.check_store(store)
        Evaluator.__init__(self, tree)
        Executor.__init__(self, tree, alignment, model, rates, config.dtype)
        #: What this engine was built from — what save_checkpoint records
        #: so a resume rebuilds the same pipeline.
        self.config = config

        if store is not None:
            # The explicit store's own layout governs; stores predating the
            # layout abstraction (e.g. PagedStandardStore) page whole CLVs.
            layout = getattr(store, "layout", None)
            if layout is None:
                layout = StorageLayout(self.num_inner, self.clv_shape)
            elif (layout.num_nodes != self.num_inner
                    or layout.node_shape != self.clv_shape):
                raise LikelihoodError(
                    f"store layout covers {layout.num_nodes} nodes of shape "
                    f"{layout.node_shape}; this engine needs {self.num_inner} "
                    f"of {self.clv_shape}"
                )
            built = store
        else:
            layout = make_layout(config.layout, self.num_inner, self.clv_shape,
                                 block_sites=config.block_sites)
            built = build_store(config, layout, workdir=workdir,
                                track_dirty=track_dirty,
                                poison_skipped_reads=poison_skipped_reads)
        try:
            self.attach_store(
                built, layout,
                None if config.batch == -1 else max(config.batch, 1),
                config.prefetch_depth)
        except BaseException:
            # A store built here has no other owner: release its writer
            # threads and its backing (its fds) with it.
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
