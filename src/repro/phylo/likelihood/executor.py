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

import time
from collections import OrderedDict
from typing import Iterable, Iterator

import numpy as np

from repro.core.layout import StorageLayout
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
        #: The attached repro.obs.Observer (default off): the engine
        #: reports each "plan" / "kernel" / "store_wait" lap and every
        #: execute_plan to it. Purely passive; numerics are unaffected.
        self.obs = None
        self._schedule_cache = ScheduleCache()

    # -- wiring ---------------------------------------------------------------------

    def attach_store(self, store, layout: StorageLayout, group_cap: int | None,
                     prefetch_depth: int = 0) -> None:
        """Run over ``store`` (anything with the ``get(item, pins,
        write_only)`` protocol), laid out by ``layout``.

        ``group_cap=None`` is the residency-safe :func:`default_group_cap`
        of the store's slot count; ``prefetch_depth > 0`` starts the
        prefetcher. On a raise the store is still the caller's to close.
        """
        self.store = store
        self.layout = layout
        self.prefetcher = None
        self._bind_topological_policy()
        #: Group cap of the traversal schedule; 1 = every update in place.
        self.batch_members = (default_group_cap(store.num_slots)
                              if group_cap is None else group_cap)
        if prefetch_depth:
            from repro.core.prefetch import ThreadedPrefetcher

            self.prefetcher = ThreadedPrefetcher(
                store, depth=prefetch_depth, workers=store.io_threads)

    def _bind_topological_policy(self) -> None:
        """Give a Topological policy its tree-distance provider (§3.3).

        The policy sees *item* ids, so node-level hop distances are mapped
        through the layout: every block of a node inherits that node's
        distance. ``store_item_nodes()`` spans the store's full item space
        (global ids under a shared partitioned store), so the provider is
        total over whatever ids the policy encounters.
        """
        policy = getattr(self.store, "policy", None)
        if (policy is not None and getattr(policy, "name", "") == "topological"
                and getattr(policy, "distance_provider", None) is None):
            n = self.tree.num_tips
            item_nodes = self.layout.store_item_nodes()

            def distances(requested_item: int) -> np.ndarray:
                node = int(item_nodes[requested_item])
                d_nodes = self.tree.hop_distances_from(n + node)[n:]
                return d_nodes[item_nodes]

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

    def _drop_operators(self) -> None:
        self._p_cache.clear()
        self._eigen_ops = None

    # -- traversal execution ---------------------------------------------------------

    def plan(self, u: int, v: int, full: bool = False) -> TraversalPlan:
        """Plan the CLV recomputations needed to evaluate edge ``(u, v)``."""
        ob = self.obs
        if ob is None:
            return plan_edge_traversal(self.tree, self.orientation, u, v, full)
        t0 = time.perf_counter()
        out = plan_edge_traversal(self.tree, self.orientation, u, v, full)
        ob.timed("plan", t0, time.perf_counter() - t0, steps=len(out.steps))
        return out

    def _timed_get(self, item: int, pins: tuple = (),
                   write_only: bool = False) -> np.ndarray:
        """``store.get`` with the wait charged to the ``store_wait`` phase."""
        ob = self.obs
        if ob is None:
            return self.store.get(item, pins=pins, write_only=write_only)
        t0 = time.perf_counter()
        out = self.store.get(item, pins=pins, write_only=write_only)
        ob.timed("store_wait", t0, time.perf_counter() - t0, item=int(item))
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
        and then reads the ends through :meth:`_edge_blocks`, so a
        prefetcher is fed the whole operation: the plan's schedule *and*
        the end reads.
        """
        plan = self.plan(u, v, full=full)
        ends = () if self.prefetcher is None else self.edge_accesses(u, v)
        self.execute_plan(plan, ends)

    def execute_plan(self, plan: TraversalPlan,
                     then: Iterable[tuple[int, tuple, bool]] = ()) -> None:
        """Run every pruning step of a plan through the vector store.

        The plan's schedule (:mod:`repro.phylo.likelihood.schedule`) lists
        every (step, block) update with its store calls: the two child
        vectors are fetched (pinning each other and the target), then the
        target is fetched **write-only** — the read-skipping hook (§3.2,
        §3.4). Under a block layout a step is one update per site block:
        block ``b`` of the target needs only block ``b`` of each child
        (per-site independence). With a prefetcher attached, the access
        sequence is handed to it first — followed by ``then``, the
        accesses the caller issues right after the plan's own (an edge's
        end reads), which an empty plan still feeds — so swap-ins overlap
        the kernel arithmetic (§5). Store calls are issued on this thread
        in exactly that order whatever the group cap, so demand/eviction
        counters agree bit for bit under every replacement policy.

        How a group is computed follows from its size. A group of one
        runs in place (:meth:`_update_in_place`); a larger group
        propagates each child into a scratch stack at fetch time and
        shares one fused product + rescale whose results land out-of-band
        via ``store.fill`` — bit-identical because both run the same
        row-independent :mod:`~repro.phylo.likelihood.kernels` calls.
        Both stay because each wins somewhere: fusing pays off once many
        small blocks share a call (64-site blocks: 230 vs 275 ms per
        D128x4k traversal), while groups of one pushed through
        gather/fuse/fill measured 10–28 % slower than in place (DESIGN.md,
        "Kernel lowering"). Orientation is committed after each node's
        last block so a failure leaves a consistent state.
        """
        # Empty plans stay out of the schedule cache: they must not evict.
        schedule = self._schedule(plan) if plan.steps else None
        if self.prefetcher is not None:
            fed = [] if schedule is None else schedule.accesses()
            fed.extend(then)
            if fed:
                self.prefetcher.feed(fed)
        if schedule is None:
            return
        ob = self.obs
        exec_t0 = time.perf_counter() if ob is not None else 0.0
        for gi, group in enumerate(schedule.groups):
            if len(group.members) == 1:
                self._update_in_place(group.members[0])
            else:
                self._timed_kernel(self._compute_group, group,
                                   self._gather_group(group),
                                   group=gi, members=len(group.members))
            for m in group.members:
                if m.last_block:
                    self.orientation.set(m.node, m.toward)
        if ob is not None:
            # The enclosing interval: kernel/store_wait spans nest inside
            # it on the compute-thread track of the exported timeline.
            ob.timed("execute_plan", exec_t0, time.perf_counter() - exec_t0,
                     steps=len(plan.steps), groups=len(schedule.groups))

    def _scale_row(self, m: BatchMember) -> np.ndarray:
        """The scale-count row of ``m``'s block, ready for its rescale.

        A node's first block resets the whole row to the sum of its
        children's counts, before any block of the node is rescaled
        (the children finished in earlier groups).
        """
        counts = self.scale_counts[self.item(m.node)]
        if m.first_block:
            counts.fill(0)
            for child in (m.left, m.right):
                if not self.tree.is_tip(child):
                    counts += self.scale_counts[self.item(child)]
        return counts[m.lo:m.hi]

    def _update_in_place(self, m: BatchMember) -> None:
        """One (step, block) update written straight into the store's slot.

        The kernel reads the children's views and fills the write-only
        target view the store handed out — no operand copy, no ``fill`` —
        which also makes this the path for stores without ``fill``
        (:class:`~repro.vm.standardstore.PagedStandardStore`, shared-store
        views, trace stores). The three mutually pinned fetches keep all
        operands resident until the kernel returns.
        """
        span = m.hi - m.lo
        fetches = iter(m.fetches)
        l_clv = r_clv = l_codes = r_codes = None
        if m.left_item >= 0:
            l_clv = _valid(self._timed_get(*next(fetches)), span)
        else:
            l_codes = self._tip_codes[m.left][m.lo:m.hi]
        if m.right_item >= 0:
            r_clv = _valid(self._timed_get(*next(fetches)), span)
        else:
            r_codes = self._tip_codes[m.right][m.lo:m.hi]
        out = _valid(self._timed_get(*next(fetches)), span)
        self._timed_kernel(
            kernels.update_clv, out,
            self._P(m.node, m.left), self._P(m.node, m.right),
            l_clv, r_clv, l_codes, r_codes, self._code_matrix,
            self._scale_row(m), self.scaling, self._scratch,
            node=m.node, block=m.block)

    def _gather_group(self, group: BatchGroup) -> list[dict]:
        """Issue the group's store accesses in order; propagate each child.

        Members are partitioned into *span classes* (full blocks vs the
        ragged last block), each with one reused ``(2, members, span, C,
        S)`` scratch stack. A child is propagated across its branch
        straight into its ``[side, position]`` row as soon as it is in
        hand — an inner child from its slot view right after its ``get``,
        before any later access can evict the slot (the GEMM that reads
        it *is* the copy out of the store); a tip by a table gather — by
        the very calls the in-place path makes, so the rows carry the same
        bits.
        """
        classes: dict[int, dict] = {}
        rows = []  # per member: (its span class, its position there)
        for m in group.members:
            cls = classes.setdefault(m.span, {"members": []})
            rows.append((cls, len(cls["members"])))
            cls["members"].append(m)
        for span, cls in classes.items():
            cls["stack"] = self._scratch.get(
                ("group", span), (2, len(cls["members"]), span, *self.clv_shape[1:]),
                self.dtype)

        for m, (cls, pos) in zip(group.members, rows):
            fetches = iter(m.fetches)
            for side, child, child_item in ((0, m.left, m.left_item),
                                            (1, m.right, m.right_item)):
                dest = cls["stack"][side, pos]
                if child_item >= 0:
                    view = self._timed_get(*next(fetches))
                    self._timed_kernel(
                        kernels.propagate_inner, self._P(m.node, child),
                        view[:m.span], dest, self._scratch,
                        node=m.node, block=m.block)
                else:
                    self._timed_kernel(
                        kernels.propagate_tip, self._P(m.node, child),
                        self._tip_codes[child][m.lo:m.hi], self._code_matrix,
                        dest, node=m.node, block=m.block)
            self._timed_get(*next(fetches))  # the target: view deferred to fill
        return list(classes.values())

    def _compute_group(self, group: BatchGroup, stacks: list[dict]) -> None:
        """One fused product + rescale per span class, then out-of-band fills."""
        # Every row is readied before any rescale: span classes reorder
        # members, and a node's first block resets its whole row.
        rows = {m.out_item: self._scale_row(m) for m in group.members}
        for cls in stacks:
            left, right = cls["stack"]
            kernels.combine_and_rescale_batch(
                left, right, left,
                [rows[m.out_item] for m in cls["members"]], self.scaling,
                self._scratch)
            for pos, m in enumerate(cls["members"]):
                self.store.fill(m.out_item, left[pos])

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
                u_clv = _valid(self._timed_get(*next(ends)), hi - lo)
            else:
                u_codes = self._tip_codes[u][lo:hi]
            if v >= n:
                v_clv = _valid(self._timed_get(*next(ends)), hi - lo)
            else:
                v_codes = self._tip_codes[v][lo:hi]
            kernel(out[lo:hi], u_clv, v_clv, u_codes, v_codes)
        return out

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
        reducer = kernels.site_reducer(
            self.model.frequencies.astype(self.dtype),
            self.rates.weights.astype(self.dtype))
        return self.edge_reduce(u, v, reducer, 1)[:, 0], counts

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

