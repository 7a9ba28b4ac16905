"""The executor: plan → schedule → kernels over slot views.

:class:`Executor` is everything below the paper's ``getxvector()`` line
(§3.2): it holds one alignment's geometry, tip tables and operator
caches, remembers which way every ancestral vector looks
(``orientation``), and turns "make edge ``(u, v)`` current" into store
calls and kernel calls. It reads the tree and never edits it; what RAxML
does on top — moves, ``makenewz``, the search — is the
:class:`~repro.phylo.likelihood.evaluator.Evaluator`'s job, which never
learns where a vector lives.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.core.layout import StorageLayout
from repro.core.shadow import TeeStore
from repro.errors import LikelihoodError
from repro.phylo.likelihood import kernels
from repro.phylo.likelihood.schedule import (
    BatchedSchedule,
    BatchGroup,
    BatchMember,
    ScheduleCache,
    default_group_cap,
)
from repro.phylo.likelihood.traversal import (
    OrientationState,
    TraversalPlan,
    plan_edge_traversal,
)
from repro.phylo.likelihood.siteclasses import BlockClasses, ClassMaps, SiteClasses
from repro.phylo.models.base import ReversibleModel
from repro.phylo.models.rates import RateModel
from repro.phylo.msa import Alignment
from repro.phylo.tree import Tree


def _valid(view: np.ndarray, span: int) -> np.ndarray:
    """The meaningful rows of a fetched block.

    A ragged last block stores padding past ``span``; kernels must only
    see the live rows. When the block is full-width the view is returned
    untouched — under the whole-vector layout this keeps the exact
    object the store handed out (so the slot-borrow sanitizer still
    guards kernel accesses, and the path is bit-for-bit the pre-layout
    one).
    """
    return view if span == view.shape[0] else view[:span]


def clv_geometry(tree: Tree, alignment: Alignment, model: ReversibleModel,
                 rates: RateModel) -> tuple[int, tuple[int, int, int]]:
    """``(num_inner, clv_shape)`` of the engine these arguments would build.

    What a caller needs to size a layout or a backing store *before* the
    engine exists — without constructing a throw-away in-core engine
    (slot arena plus backing: twice the full CLV footprint) to ask it.
    """
    return tree.num_inner, (alignment.compress().num_patterns,
                            rates.num_categories, model.num_states)


class Executor:
    """Felsenstein pruning of one alignment on ``tree``, through a vector store.

    Construction is pure state — geometry, tip tables, caches, an all-stale
    ``orientation`` — and owns no thread, file or process; the store (and
    the prefetcher feeding it) arrives through :meth:`attach_store` and
    leaves through :meth:`close`.
    """

    def __init__(self, tree: Tree, alignment: Alignment,
                 model: ReversibleModel, rates: RateModel | None,
                 dtype) -> None:
        if tree.num_tips < 3:
            raise LikelihoodError("the PLF engine needs at least 3 taxa")
        if alignment.alphabet.num_states != model.num_states:
            raise LikelihoodError(
                f"model has {model.num_states} states but alphabet "
                f"{alignment.alphabet.name} has {alignment.alphabet.num_states}"
            )
        self.tree = tree
        self.alignment = alignment
        self.model = model
        self.rates = rates if rates is not None else RateModel.gamma(1.0, 4)
        self.dtype = np.dtype(dtype)
        self.scaling = kernels.ScalingScheme(self.dtype)

        comp = alignment.compress()
        self.num_patterns = comp.num_patterns
        self.pattern_weights = comp.weights.astype(np.float64)
        # Tip i of the tree maps to the alignment row with the same name.
        taxa = [alignment.index_of(name) for name in tree.names]
        # Tips are kept as dense indices into the codes actually present:
        # tip tables are then (distinct codes) rows, not the alphabet's
        # 2^S (a million for protein), and the indicator rows come from
        # the bitmask codes directly, never from the full code matrix.
        codes = alignment.pattern_codes()[taxa]
        present = np.unique(codes)
        self._tip_codes = np.searchsorted(present, codes)
        bits = np.arange(model.num_states, dtype=present.dtype)
        self._code_matrix = ((present[:, None] >> bits) & 1).astype(self.dtype)

        self.num_inner, self.clv_shape = clv_geometry(tree, alignment, model,
                                                      self.rates)

        # Per-site underflow-scaling counters stay in RAM (like tips, they
        # are small compared to the CLVs themselves — paper §3.1).
        self.scale_counts = np.zeros((self.num_inner, self.num_patterns), dtype=np.int32)
        self.orientation = OrientationState(tree)
        # Transition matrices are tiny relative to CLVs; caching them per
        # exact branch length is free memory-wise and saves eigen work on
        # repeated traversals. Exact float keys keep results bit-identical,
        # and LRU eviction past _P_CACHE_LIMIT keeps long searches with
        # churning branch lengths from degrading to a cold cache.
        self._p_cache: OrderedDict[float, kernels.BranchOperator] = OrderedDict()
        self._eigen_ops: tuple | None = None
        self._reducer: np.ndarray | None = None
        # A lowered operator is (C·S)² numbers — 51 KB for protein Γ4 —
        # so the entry bound also caps the cache near 32 MB.
        width = self.clv_shape[1] * self.clv_shape[2]
        self._P_CACHE_LIMIT = max(64, min(
            self._P_CACHE_LIMIT,
            (32 << 20) // (width * width * self.dtype.itemsize)))
        #: Kernel work space (a propagated child, the compare mask, a
        #: group's stacks): reused by every call, so a traversal in steady
        #: state allocates nothing.
        self._scratch = kernels.Scratch()
        #: ``(node, block)`` -> the class rows of a ghost (a valid vector
        #: recomputed outside the store, see :meth:`execute_plan`), held
        #: until its parent's update has consumed them.
        self._ghosts: dict[tuple[int, int], np.ndarray] = {}
        #: The planner's pricing arguments (:meth:`_pricing`), built once
        #: per store.
        self._priced: dict[str, Any] | None = None
        #: Beside them, the price of writing ``k`` class rows of a vector,
        #: or ``None`` where the store is never told what it may drop
        #: (:meth:`execute_plan`), and each node's subtree price: every
        #: step below and at it, as if all of them were recomputed.
        self._write_price: Callable[[int], float] | None = None
        self._subtree_price: list[float] = []
        #: Whether the store's standing ``declare_reproduced`` names any
        #: item (an empty one need not be repeated).
        self._reproducing = False
        #: The attached repro.obs.Observer (default off): the engine
        #: reports each "plan" / "kernel" / "store_wait" lap and every
        #: execute_plan to it. Purely passive; numerics are unaffected.
        self.obs = None
        self._schedule_cache = ScheduleCache()

    # -- wiring ---------------------------------------------------------------------

    def attach_store(self, store, layout: StorageLayout, group_cap: int | None,
                     prefetch_depth: int = 0) -> None:
        """Run over ``store`` (anything with the ``get_many`` / ``get``
        protocol), laid out by ``layout``.

        ``group_cap=None`` is the residency-safe :func:`default_group_cap`
        of the store's slot count; ``prefetch_depth > 0`` starts the
        prefetcher. On a raise the store is still the caller's to close.
        """
        self.store = store
        self.layout = layout
        self.prefetcher = None
        self._classes = None
        self._priced = None
        self._write_price = None
        self._reproducing = False
        self._bind_topological_policy()
        #: Group cap of the traversal schedule; 1 = every update in place.
        self.batch_members = (default_group_cap(store.num_slots)
                              if group_cap is None else group_cap)
        if prefetch_depth:
            from repro.core.prefetch import ThreadedPrefetcher

            self.prefetcher = ThreadedPrefetcher(
                store, depth=prefetch_depth, workers=store.io_threads)

    def _bind_topological_policy(self) -> None:
        """Give every unbound Topological policy the store reaches its
        tree-distance provider (§3.3): the store's own, and each
        :class:`~repro.core.shadow.TeeStore` observer's. A policy built
        with a provider keeps it.

        The policy sees *item* ids, so node-level hop distances are mapped
        through the layout: every block of a node inherits that node's
        distance. ``store_item_nodes()`` spans the store's full item space,
        so the provider is total over whatever ids the policy encounters.
        """
        reached = [self.store]
        if isinstance(self.store, TeeStore):
            reached += self.store.observers
        policies = [getattr(s, "policy", None) for s in reached]
        unbound = [p for p in policies
                   if getattr(p, "name", "") == "topological"
                   and getattr(p, "distance_provider", None) is None]
        if not unbound:
            return
        # The provider holds the tree, not the engine: the store must not
        # keep its engine alive through a cycle, or the engine and its
        # store outlive their last reference until a GC.
        tree = self.tree
        n = tree.num_tips
        item_nodes = self.layout.store_item_nodes()

        def distances(requested_item: int) -> np.ndarray:
            node = int(item_nodes[requested_item])
            d_nodes = tree.hop_distances_from(n + node)[n:]
            return d_nodes[item_nodes]

        for policy in unbound:
            policy.distance_provider = distances

    def item(self, node: int) -> int:
        """Dense index of an inner node (tips have no ancestral vector).

        This is the node-space index (the ``scale_counts`` row and, under
        the whole-vector layout, also the store item id); block-granular
        store ids come from ``layout.item_of(self.item(node), block)``.
        """
        if self.tree.is_tip(node):
            raise LikelihoodError(f"tip {node} has no ancestral vector")
        return node - self.tree.num_tips

    @property
    def classes(self) -> ClassMaps:
        """The site-class map of every stored vector (:mod:`.siteclasses`),
        built from the tip codes at the first traversal."""
        if self._classes is None:
            layout = self.layout
            self._classes = ClassMaps(
                self._tip_codes, len(self._code_matrix),
                [layout.block_bounds(b) for b in range(layout.blocks_per_node)],
                self.num_inner)
        return self._classes

    @property
    def stats(self):
        """The store's :class:`~repro.core.stats.IoStats`."""
        return self.store.stats

    # -- transition matrices -----------------------------------------------------------

    _P_CACHE_LIMIT = 8192

    def _P(self, u: int, v: int) -> kernels.BranchOperator:
        """The lowered operator of branch ``(u, v)``, cached per length.

        One :class:`~repro.phylo.likelihood.kernels.BranchOperator` per
        exact branch length: the frozen ``P`` stack, its block-diagonal
        GEMM form and (once a tip hangs off a branch of that length) its
        tip table — everything a kernel call needs, lowered once.
        """
        t = self.tree.branch_length(u, v)
        branch = self._p_cache.get(t)
        if branch is None:
            P = self.model.transition_matrices(t, self.rates.rates)
            # Always copy before freezing: astype(copy=False) /
            # ascontiguousarray may return the model's own array, and
            # setflags(write=False) would freeze the caller's buffer.
            P = np.array(P, dtype=self.dtype, order="C")
            P.setflags(write=False)
            branch = self._p_cache[t] = kernels.BranchOperator(
                P, self._code_matrix)
            if len(self._p_cache) > self._P_CACHE_LIMIT:
                self._p_cache.popitem(last=False)
        else:
            self._p_cache.move_to_end(t)
        return branch

    def _eigen_operators(self) -> tuple:
        """The model's two sumtable operators (makenewz phase 1), lowered
        once per model/rate change."""
        if self._eigen_ops is None:
            model = self.model
            self._eigen_ops = kernels.eigen_operators(
                model.eigenvectors.astype(self.dtype),
                model.inv_eigenvectors.astype(self.dtype),
                model.frequencies.astype(self.dtype),
                self.rates.num_categories, self._code_matrix)
        return self._eigen_ops

    def _site_reducer(self) -> np.ndarray:
        """The site-likelihood reducer, lowered once per model/rate change."""
        if self._reducer is None:
            self._reducer = kernels.site_reducer(
                self.model.frequencies.astype(self.dtype),
                self.rates.weights.astype(self.dtype))
        return self._reducer

    def _drop_operators(self) -> None:
        self._p_cache.clear()
        self._eigen_ops = None
        self._reducer = None

    # -- traversal execution ---------------------------------------------------------

    def plan(self, u: int, v: int, full: bool = False) -> TraversalPlan:
        """Plan the CLV recomputations needed to evaluate edge ``(u, v)``.

        Out of core, a valid vector none of whose items is resident is
        recomputed from its resident frontier rather than read when that
        is priced below the read (a cherry always): the plan's
        ``refresh`` and ``ghost``. ``full`` plans recompute every vector
        anyway and never ask for a price; their valid nodes are declared
        reproduced when the plan runs, like a refresh
        (:meth:`execute_plan`).
        """
        priced = {} if full else self._pricing()
        ob = self.obs
        if ob is None:
            return plan_edge_traversal(self.tree, self.orientation, u, v, full,
                                       **priced)
        t0 = time.perf_counter()
        out = plan_edge_traversal(self.tree, self.orientation, u, v, full,
                                  **priced)
        ob.timed("plan", t0, time.perf_counter() - t0, steps=len(out.steps))
        return out

    def _pricing(self) -> dict[str, Any]:
        """The planner's ``absent``, ``read_price`` and ``step_price``, or
        nothing for a store that holds every item, where nothing is ever
        read back.

        ``absent(node)``: no item of the node is resident (a load in
        flight counts as resident), or one that is not resident is
        unbacked. Both prices are declared, never clocked, and read a
        valid node's committed class map: a read costs the backing's
        ``read_price`` of each item's live bytes — infinite if an item is
        unbacked, whose stored copy is stale — an update
        ``kernels.STEP_PRICE_S`` per block plus
        ``kernels.ROW_PRICE_S · (C·S / 16)²`` per class row. A backing
        that declares no price, or prices a whole vector's read at 0
        (prices grow with the bytes), gets no ``read_price``: the planner
        then asks no price, and the store is told nothing it may drop.
        Over a priced one the same ``read_price`` of ``k`` class rows is
        :attr:`_write_price` (the modelled device is symmetric).
        """
        if self._priced is not None:
            return self._priced
        store = self.store
        if store.num_slots >= store.num_items:
            self._priced = {}
            return self._priced
        is_resident, items_of = store.is_resident, self.layout.items_of
        n = self.tree.num_tips
        current = self.classes.current
        step = kernels.STEP_PRICE_S
        width = self.clv_shape[1] * self.clv_shape[2]
        per_row = kernels.ROW_PRICE_S * (width / 16) ** 2
        row_bytes = self.ancestral_vector_bytes() // self.clv_shape[0]
        price = getattr(getattr(store, "backing", None), "read_price", None)

        def absent(node: int) -> bool:
            return not any(map(is_resident, items_of(node - n)))

        def step_price(node: int) -> float:
            return sum(step + per_row * b.k for b in current[node].blocks)

        self._priced = {"absent": absent, "step_price": step_price,
                        "read_price": None}
        if price is None or price(self.ancestral_vector_bytes()) <= 0.0:
            return self._priced
        is_unbacked = store.is_unbacked

        def absent_or_unbacked(node: int) -> bool:
            items = items_of(node - n)
            resident = [is_resident(i) for i in items]
            # A block dropped while its node stayed partly resident: only
            # a recomputation of the node brings it back.
            return not any(resident) or any(
                not r and is_unbacked(i) for i, r in zip(items, resident))

        def read_price(node: int) -> float:
            if any(map(is_unbacked, items_of(node - n))):
                return math.inf
            return sum(price(b.k * row_bytes) for b in current[node].blocks)

        self._priced.update(absent=absent_or_unbacked, read_price=read_price)
        self._write_price = lambda k: price(k * row_bytes)
        if not self._subtree_price:
            self._subtree_price = [0.0] * n + [math.inf] * self.tree.num_inner
        return self._priced

    def _timed_get(self, item: int, pins: tuple = (),
                   write_only: bool = False) -> np.ndarray:
        """``store.get`` with the wait charged to the ``store_wait`` phase."""
        ob = self.obs
        if ob is None:
            return self.store.get(item, pins=pins, write_only=write_only)
        t0 = time.perf_counter()
        out = self.store.get(item, pins=pins, write_only=write_only)
        ob.timed("store_wait", t0, time.perf_counter() - t0, item=int(item),
                 accesses=1)
        return out

    def _timed_get_many(self, accesses) -> list:
        """``store.get_many`` with the wait charged to the ``store_wait``
        phase: one interval for the whole run."""
        ob = self.obs
        if ob is None:
            return self.store.get_many(accesses)
        t0 = time.perf_counter()
        out = self.store.get_many(accesses)
        ob.timed("store_wait", t0, time.perf_counter() - t0,
                 item=int(accesses[0][0]), accesses=len(accesses))
        return out

    def _timed_kernel(self, kernel, *args, **span_args) -> None:
        """``kernel(*args)`` with the time charged to the ``kernel`` phase."""
        ob = self.obs
        if ob is None:
            kernel(*args)
            return
        k0 = time.perf_counter()
        kernel(*args)
        ob.timed("kernel", k0, time.perf_counter() - k0, **span_args)

    def _schedule(self, plan: TraversalPlan) -> BatchedSchedule:
        return self._schedule_cache.get(
            plan, self.layout, self.tree.num_tips, self.batch_members)

    def plan_accesses(self, plan: TraversalPlan) -> list[tuple[int, tuple, bool]]:
        """The store access sequence a plan will generate (for prefetching).

        Returns ``(item, pins, write_only)`` triples in execution order —
        computable ahead of time because the plan fixes the order (§3.4).
        """
        return self._schedule(plan).accesses() if plan.steps else []

    def edge_accesses(
            self, u: int, v: int) -> Iterator[tuple[int, tuple[int, ...], bool]]:
        """The store accesses that fetch the two end vectors of edge ``(u, v)``.

        Block by block, each inner end read pinning the other end's
        same-numbered block; a tip end has no vector and is omitted. Both
        :meth:`_edge_blocks` (to issue its ``get`` calls) and
        :meth:`make_edge_current` (to feed the prefetcher) iterate this one
        generator, so what is fed and what is issued cannot drift apart.
        """
        layout = self.layout
        n = self.tree.num_tips
        for b in range(layout.blocks_per_node):
            u_item = layout.item_of(u - n, b) if u >= n else -1
            v_item = layout.item_of(v - n, b) if v >= n else -1
            if u_item >= 0:
                yield u_item, ((v_item,) if v_item >= 0 else ()), False
            if v_item >= 0:
                yield v_item, ((u_item,) if u_item >= 0 else ()), False

    def make_edge_current(self, u: int, v: int, full: bool = False) -> None:
        """Bring both end CLVs of edge ``(u, v)`` current toward it.

        Recomputes exactly the stale vectors on both sides (all of them
        with ``full=True``). Every edge-evaluating entry point starts here
        and then reads the ends through :meth:`_edge_blocks`, so the
        whole operation — the plan's schedule *and* the end reads — is
        what a prefetcher is fed and what the store is told the
        operation reads.
        """
        self.execute_plan(self.plan(u, v, full=full), self.edge_accesses(u, v))

    def execute_plan(self, plan: TraversalPlan,
                     then: Iterable[tuple[int, tuple, bool]] = ()) -> None:
        """Run every pruning step of a plan through the vector store.

        The plan's schedule (:mod:`repro.phylo.likelihood.schedule`) lists
        every (step, block) update with its store calls: the two child
        vectors are fetched (pinning each other and the target), then the
        target is fetched **write-only** — the read-skipping hook (§3.2,
        §3.4). Under a block layout a step is one update per site block:
        block ``b`` of the target needs only block ``b`` of each child
        (per-site independence). The access sequence, followed by
        ``then`` — the accesses the caller issues right after the plan's
        own (an edge's end reads), which an empty plan still has — is the
        operation's: a prefetcher is fed it, so swap-ins overlap the
        kernel arithmetic (§5), and over a priced backing its reads are
        declared to the store (``store.declare_reads``) before any access.
        At the end every stored node the plan computed whose subtree
        recomputation — the step prices of the node and of everything
        below it — is priced below writing its class rows is declared
        ``store.mark_recomputable``: a dirty victim that is, and that no
        running operation reads, is dropped instead of written
        (DESIGN.md, "Write only what a read wants").

        Out of core, before the first access the store is also told which
        writes reproduce the stored bits (``store.declare_reproduced``,
        :meth:`_declare_reproduced`): those of every step whose node is
        still valid toward the step's neighbour — each refreshed node, and
        under ``full=True`` every node that was current that way. The
        store leaves such a write as clean as the backing copy was, so a
        full traversal writes back only what changed.

        A ghost (a node in ``plan.ghost``) is computed into a buffer of
        its ``k`` class rows that its parent's update then consumes and
        drops: it makes no access, takes no slot and pins nothing, and
        under the sanitizer its rows are compared with its stored copy
        (``store.check_copy``). A recomputed valid node — ghost or
        refresh — reuses its committed class map.

        Each group's calls are one ``store.get_many``: the same gets, in
        exactly the schedule's order whatever the group cap, so
        demand/eviction counters agree bit for bit under every
        replacement policy; the views it lends stay valid until the next
        ``get_many``, except what a later access of the same run evicted
        (a private copy for a child, ``None`` for a target — see
        :meth:`_compute_group`). Either way a member computes only its
        block's site classes (:mod:`.siteclasses`: the map is looked up
        per member before its ``get_many`` and committed with the
        orientation) into rows ``[0, k)`` of the target, and its write
        access declares those ``k`` live rows — all that any later
        transfer of the target moves. A group of one runs in place
        (:meth:`_update_in_place`); a larger group shares one fused
        product + rescale over all its members' class rows
        (:meth:`_compute_group`) — bit-identical because both run the
        same row-independent :mod:`~repro.phylo.likelihood.kernels`
        calls. Both stay because
        each wins somewhere: fusing pays off once many small blocks share
        a call, while groups of one pushed through the fused path
        measured 10–28 % slower than in place (DESIGN.md, "Batched kernel
        schedule"). Orientation is committed after each node's last block
        so a failure leaves a consistent state.
        """
        # Empty plans stay out of the schedule cache: they must not evict.
        schedule = self._schedule(plan) if plan.steps else None
        self._pricing()
        write_price = self._write_price
        if self.prefetcher is not None or write_price is not None:
            fed = [] if schedule is None else schedule.accesses()
            fed.extend(then)
            if self.prefetcher is not None and fed:
                self.prefetcher.feed(fed)
            if write_price is not None:
                self.store.declare_reads(
                    [item for item, _, write_only in fed if not write_only])
        if schedule is None:
            return
        self._declare_reproduced(plan)
        ob = self.obs
        exec_t0 = time.perf_counter() if ob is not None else 0.0
        n = self.tree.num_tips
        lookup, current = self.classes.lookup, self.classes.current
        recomputed = plan.refresh | plan.ghost
        if write_price is not None:
            step_price = self._priced["step_price"]
            subtree = self._subtree_price
            cheap: list[int] = []
        self._ghosts.clear()
        for gi, group in enumerate(schedule.groups):
            # Every member's children finished in earlier groups, so their
            # maps are committed.
            classes = [current[m.node] if m.node in recomputed
                       else lookup(m.node, m.left, m.right)
                       for m in group.members]
            if len(group.members) == 1:
                self._update_in_place(group.members[0], classes[0])
            else:
                views = self._timed_get_many([
                    access for m, c in zip(group.members, classes)
                    for access in m.writing(c.blocks[m.block].k)])
                self._timed_kernel(self._compute_group, group, classes, views,
                                   group=gi, members=len(group.members))
            for m, node_classes in zip(group.members, classes):
                if m.last_block:
                    self.orientation.set(m.node, m.toward)
                    self.classes.commit(m.node, node_classes)
                    if write_price is not None:
                        price = subtree[m.node] = (step_price(m.node)
                                                   + subtree[m.left]
                                                   + subtree[m.right])
                        if not m.ghost:
                            cheap.extend(
                                item for item, block in zip(
                                    self.layout.items_of(m.node - n),
                                    node_classes.blocks)
                                if price < write_price(block.k))
        if write_price is not None and cheap:
            self.store.mark_recomputable(cheap)
        if ob is not None:
            # The enclosing interval: kernel/store_wait spans nest inside
            # it on the compute-thread track of the exported timeline.
            ob.timed("execute_plan", exec_t0, time.perf_counter() - exec_t0,
                     steps=len(plan.steps), groups=len(schedule.groups))

    def _declare_reproduced(self, plan: TraversalPlan) -> None:
        """Tell an out-of-core store the items of every stored step whose
        node is valid toward the step's neighbour as the plan starts:
        validity says every operand below it is unchanged, so its
        recomputation reproduces the stored bits (a ghost's never reaches
        the store). A store that holds every item evicts nothing and is
        told nothing; an empty declaration is not repeated."""
        store = self.store
        if store.num_slots >= store.num_items:
            return
        orient = self.orientation.orient
        items_of = self.layout.items_of
        n = self.tree.num_tips
        ghost = plan.ghost
        items = [item for s in plan.steps
                 if orient[s.node] == s.toward and s.node not in ghost
                 for item in items_of(s.node - n)]
        if items or self._reproducing:
            store.declare_reproduced(items)
            self._reproducing = bool(items)

    def _operands(self, m: BatchMember, block: BlockClasses, views) -> tuple:
        """``(clv, codes)`` of ``m``'s two children at its classes.

        An inner child's rows are gathered from its view into scratch
        (taken as they are when both it and ``m`` are the identity), a
        tip's are its codes at the classes; ``views`` yields the stored
        inner children's views in fetch order, and a ghost child's rows
        are taken (and dropped) from the ghost buffers.
        """
        rows = block.rows if m.left < m.right else block.rows[::-1]
        ghosts = self._ghosts
        out = []
        for side, (child, child_item, child_rows) in enumerate(
                ((m.left, m.left_item, rows[0]),
                 (m.right, m.right_item, rows[1]))):
            if child_item < 0:
                out.append((None, child_rows))
                continue
            view = ghosts.pop((child, m.block), None) if ghosts else None
            if view is None:
                view = next(views)
            if child_rows is None:
                out.append((_valid(view, block.k), None))
            else:
                gathered = self._scratch.get(
                    ("rows", side), (block.k, *self.clv_shape[1:]), self.dtype)
                np.take(view, child_rows, axis=0, out=gathered, mode="clip")
                out.append((gathered, None))
        return out

    def _class_counts(self, m: BatchMember, block: BlockClasses,
                      out: np.ndarray) -> np.ndarray:
        """``out`` set to the summed scale counts of ``m``'s children at
        its classes — what the rescale of its class rows starts from.
        Class-equal sites have class-equal children, so a class's
        representative site speaks for all of its sites."""
        out.fill(0)
        n = self.tree.num_tips
        for child in (m.left, m.right):
            if child >= n:
                counts = self.scale_counts[child - n][m.lo:m.hi]
                out += counts if block.rep is None else counts[block.rep]
        return out

    def _spread_counts(self, m: BatchMember, block: BlockClasses,
                       counts: np.ndarray) -> None:
        """The rescaled class counts of ``m`` at every site of its block."""
        row = self.scale_counts[m.node - self.tree.num_tips][m.lo:m.hi]
        if block.cls is None:
            row[:] = counts
        else:
            np.take(counts, block.cls, out=row, mode="clip")

    def _update_in_place(self, m: BatchMember, classes: SiteClasses) -> None:
        """One (step, block) update written straight into the store's slot.

        The member's accesses are one ``get_many``; the kernel reads the
        children's rows at ``m``'s classes and fills rows ``[0, k)`` of
        the write-only target view. The three accesses pin each other,
        so no view of the run is spilled. A ghost's target is a new
        buffer of ``k`` rows instead, kept for its parent.
        """
        block = classes.blocks[m.block]
        accesses = m.writing(block.k)
        views = iter(self._timed_get_many(accesses) if accesses else ())
        (l_clv, l_codes), (r_clv, r_codes) = self._operands(m, block, views)
        if m.ghost:
            out = np.empty((block.k, *self.clv_shape[1:]), dtype=self.dtype)
        else:
            out = next(views)[:block.k]
        counts = self._class_counts(
            m, block, self._scratch.get("class_counts", (block.k,), np.int32))
        self._timed_kernel(
            kernels.update_clv, out,
            self._P(m.node, m.left), self._P(m.node, m.right),
            l_clv, r_clv, l_codes, r_codes, self._code_matrix,
            counts, self.scaling, self._scratch,
            node=m.node, block=m.block)
        self._spread_counts(m, block, counts)
        if m.ghost:
            self.store.check_copy(m.out_item, out)
            self._ghosts[m.node, m.block] = out

    def _compute_group(self, group: BatchGroup, classes: list[SiteClasses],
                       views: list) -> None:
        """A fused group over the views its ``get_many`` lent.

        One reused ``(2, 1, rows, C, S)`` scratch stack holds every
        member's class rows back to back: each child is propagated across
        its branch into its side's stretch — an inner child from its
        gathered rows, a tip by a table gather, by the very calls the
        in-place path makes, so the rows carry the same bits — then one
        fused product + rescale, each result copied into rows ``[0, k)``
        of its target's view, or landed with ``store.fill`` when the run
        spilled that target (``None``: evicted by a later access).
        """
        blocks = [c.blocks[m.block] for m, c in zip(group.members, classes)]
        total = sum(block.k for block in blocks)
        stack = self._scratch.get("group", (2, 1, total, *self.clv_shape[1:]),
                                  self.dtype)
        counts = self._scratch.get("group_counts", (total,), np.int32)
        node = -1
        at = lo = 0
        for m, block in zip(group.members, blocks):
            if m.node != node:  # a node's blocks are consecutive
                node = m.node
                branches = (self._P(node, m.left), self._P(node, m.right))
            hi = lo + block.k
            operands = self._operands(m, block,
                                      iter(views[at:at + len(m.fetches)]))
            for side, (clv, codes) in enumerate(operands):
                if clv is not None:
                    kernels.propagate_inner(branches[side], clv,
                                            stack[side, 0, lo:hi], self._scratch)
                else:
                    kernels.propagate_tip(branches[side], codes,
                                          self._code_matrix, stack[side, 0, lo:hi])
            self._class_counts(m, block, counts[lo:hi])
            at += len(m.fetches)
            lo = hi
        left, right = stack
        kernels.combine_and_rescale_batch(left, right, left, [counts],
                                          self.scaling, self._scratch)
        at = lo = 0
        for m, block in zip(group.members, blocks):
            hi = lo + block.k
            at += len(m.fetches)
            result = left[0, lo:hi]
            target = views[at - 1]
            if target is None:
                self.store.fill(m.out_item, result)
            else:
                target[:block.k] = result
            self._spread_counts(m, block, counts[lo:hi])
            lo = hi

    # -- likelihood evaluation ----------------------------------------------------------

    def _edge_blocks(self, u: int, v: int, kernel, tail: tuple = ()) -> np.ndarray:
        """``kernel(out, u_clv, v_clv, u_codes, v_codes)`` over edge ``(u, v)``.

        The one place the two end vectors of an edge are fetched: block
        by block through :meth:`_timed_get`, in the order and with the pins
        :meth:`edge_accesses` lists; a tip end contributes its codes (and a
        ``None`` CLV) instead. Both end CLVs must be current (run
        :meth:`make_edge_current` first). The kernel fills its block's rows of
        one ``(patterns, *tail)`` RAM array, so downstream cross-pattern
        reductions run unblocked on the same contiguous memory whatever
        the layout — their summation order, and hence the bits, are
        layout-independent.
        """
        layout = self.layout
        n = self.tree.num_tips
        out = np.empty((self.num_patterns, *tail), dtype=self.dtype)
        ends = self.edge_accesses(u, v)
        for b in range(layout.blocks_per_node):
            lo, hi = layout.block_bounds(b)
            u_clv = v_clv = u_codes = v_codes = None
            if u >= n:
                u_clv = self._site_rows(u, b, self._timed_get(*next(ends)), 0)
            else:
                u_codes = self._tip_codes[u][lo:hi]
            if v >= n:
                v_clv = self._site_rows(v, b, self._timed_get(*next(ends)), 1)
            else:
                v_codes = self._tip_codes[v][lo:hi]
            kernel(out[lo:hi], u_clv, v_clv, u_codes, v_codes)
        return out

    def _site_rows(self, node: int, block: int, view: np.ndarray,
                   side: int) -> np.ndarray:
        """Block ``block`` of ``node``'s vector at every site: its class
        rows gathered to full width (into scratch), or the view's live
        rows as they are when every site is its own class."""
        classes = self.classes.current[node].blocks[block]
        if classes.cls is None:
            return _valid(view, classes.k)
        out = self._scratch.get(("rows", side),
                                (len(classes.cls), *self.clv_shape[1:]),
                                self.dtype)
        return np.take(view, classes.cls, axis=0, out=out, mode="clip")

    def edge_reduce(self, u: int, v: int, reducer: np.ndarray,
                    columns: int) -> np.ndarray:
        """``(U ∘ P·V) @ reducer`` over edge ``(u, v)``: the first
        ``columns`` columns (the rest is GEMM padding), per pattern."""
        branch = self._P(u, v)

        def kernel(out, *ends):
            out[...] = kernels.edge_reduce(
                branch, reducer, *ends, self._code_matrix,
                self._scratch)[:, :columns]

        return self._edge_blocks(u, v, kernel, (columns,))

    def edge_site_likelihoods(self, u: int, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-pattern likelihoods and scale counts across edge ``(u, v)``."""
        counts = np.zeros(self.num_patterns, dtype=np.int64)
        for x in (u, v):
            if not self.tree.is_tip(x):
                counts += self.scale_counts[self.item(x)]
        return self.edge_reduce(u, v, self._site_reducer(), 1)[:, 0], counts

    def edge_sumtable(self, u: int, v: int) -> np.ndarray:
        """Eigen-basis sumtable across edge ``(u, v)`` (makenewz phase 1):
        one ``(patterns, categories, states)`` RAM array."""
        left, right = self._eigen_operators()

        def kernel(out, *ends):
            kernels.child_product(out, left, right, *ends, self._code_matrix,
                                  self._scratch)

        return self._edge_blocks(u, v, kernel, self.clv_shape[1:])

    def edge_term(self, u: int, v: int, full: bool = False) -> float:
        """This alignment's log-likelihood with the virtual root on edge
        ``(u, v)``: the stale CLVs on both sides recomputed (all of them
        with ``full=True``), the two end vectors combined across the branch."""
        self.make_edge_current(u, v, full=full)
        site_l, counts = self.edge_site_likelihoods(u, v)
        return kernels.log_likelihood_from_sites(
            site_l, self.pattern_weights, counts, self.scaling)

    def branch_table(self, u: int, v: int) -> tuple[kernels.BranchTable, np.ndarray]:
        """What Newton's loop needs of this alignment to optimize branch
        ``(u, v)``: its sumtable bound to the rate spectrum, and the
        pattern weights. Fetches the two end vectors once; the loop itself
        touches no ancestral vector."""
        self.make_edge_current(u, v)
        table = kernels.BranchTable(
            self.edge_sumtable(u, v), self.model.eigenvalues,
            self.rates.rates, self.rates.weights)
        return table, self.pattern_weights

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """Stop the prefetch thread (if any) and close the store.

        Drains pending write-behind traffic first, so the backing store is
        durable when this returns.
        """
        if self.prefetcher is not None:
            self.prefetcher.stop()
            self.prefetcher = None
        close = getattr(self.store, "close", None)
        if close is not None:
            close()

    # -- memory accounting --------------------------------------------------------------

    def ancestral_vector_bytes(self) -> int:
        """Width ``w`` of one ancestral vector in bytes (paper §3.1)."""
        return int(np.prod(self.clv_shape)) * self.dtype.itemsize

    def total_ancestral_bytes(self) -> int:
        """``(n-2) · w`` — the footprint the out-of-core store bounds."""
        return self.num_inner * self.ancestral_vector_bytes()

