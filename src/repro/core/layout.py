"""Storage layouts: how logical CLVs map onto paged store items.

The paper's unit of residency is a whole ancestral probability vector —
one slot holds one full CLV (§3.2). That puts a hard floor under the
memory footprint: a store with ``m`` slots can never use less RAM than
``m`` whole vectors, and a single vector larger than RAM is unrunnable.
Related work computes the PLF over *partial* likelihood structures
(Sumner & Charleston's partial likelihood tensors; Bryant et al.'s
column-wise recomputation), which motivates this layer: the paged unit
becomes configurable.

A :class:`StorageLayout` maps the *node space* (``num_nodes`` logical
CLVs, each of ``node_shape = (patterns, categories, states)``) onto the
*item space* the :class:`~repro.core.vecstore.AncestralVectorStore`
actually pages (``num_items`` blocks of ``item_shape``): each CLV's
pattern axis is split into independently resident/evictable/prefetchable
*site blocks* of ``block_sites`` patterns. ``block_sites=None`` is the
whole vector — one block holding every pattern, so item ids equal node
ids: today's (and the paper's) behaviour, bit-for-bit.

Each layout spans one engine's dense item space; a partitioned analysis
gives every partition its own engine, layout and store.

Site blocks are independent because every PLF kernel is per-site: site
``i`` of a parent CLV depends only on site ``i`` of its children, so a
blocked Felsenstein step needs just the three *blocks* of the current
(parent, left, right) triple resident — the store's ``m >= 3`` floor now
bounds *blocks*, not vectors, and a slot budget smaller than one whole
vector becomes expressible.

Item ids are dense integers, so every downstream consumer — replacement
policies, the write-behind queue, the prefetcher, access traces and
:func:`~repro.core.trace.simulate_policy_on_trace` replay, the obs event
stream — operates at block granularity without modification; consumers
that need tree semantics (the Topological policy's distance function)
map an item back to its node through :meth:`StorageLayout.node_of`.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import OutOfCoreError

#: Default site-block size for ``layout="block"`` when none is given.
DEFAULT_BLOCK_SITES = 64


class StorageLayout:
    """The node-space ⇄ item-space mapping: site blocks of ``block_sites``.

    Node ``n``'s block ``b`` is item ``n · blocks_per_node + b`` and
    covers patterns ``[b·B, min(patterns, (b+1)·B))``. Every slot (and
    every backing-store record) has room for a full ``(B, categories,
    states)`` block; the ragged last block's tail rows are padding —
    never consumed by a kernel and never moved (they are past the item's
    live rows), so their contents are irrelevant to correctness.

    ``block_sites=None`` is the whole vector (:attr:`name` ``"whole"``):
    ``B`` is the pattern count, so there is one block per node and no
    padding. An explicit ``block_sites`` (:attr:`name` ``"block"``) is not
    clamped to the pattern count: an item is ``block_sites`` rows whatever
    the CLV's length, so a CLV shorter than one block is a single padded
    block.
    """

    def __init__(self, num_nodes: int, node_shape: tuple[int, ...],
                 block_sites: int | None = None) -> None:
        if num_nodes < 1:
            raise OutOfCoreError(f"need at least one node, got {num_nodes}")
        if len(node_shape) < 1 or int(node_shape[0]) < 1:
            raise OutOfCoreError(f"bad node shape {node_shape!r}")
        if block_sites is not None and block_sites < 1:
            raise OutOfCoreError(f"block_sites must be >= 1, got {block_sites}")
        self.num_nodes = int(num_nodes)
        self.node_shape = tuple(int(d) for d in node_shape)
        patterns = self.node_shape[0]
        self.name = "whole" if block_sites is None else "block"
        self.block_sites = patterns if block_sites is None else int(block_sites)
        #: Items per node; uniform because every node shares ``node_shape``.
        self.blocks_per_node = -(-patterns // self.block_sites)  # ceil div
        self.num_items = self.num_nodes * self.blocks_per_node
        self.item_shape = (self.block_sites, *self.node_shape[1:])

    # -- mapping -----------------------------------------------------------------

    def item_of(self, node: int, block: int) -> int:
        """Item id of site-block ``block`` of logical CLV ``node``."""
        self._check_node(node)
        if not 0 <= block < self.blocks_per_node:
            raise OutOfCoreError(
                f"block {block} out of range [0, {self.blocks_per_node})")
        return node * self.blocks_per_node + block

    def items_of(self, node: int) -> range:
        """All item ids composing logical CLV ``node`` (block order)."""
        self._check_node(node)
        start = node * self.blocks_per_node
        return range(start, start + self.blocks_per_node)

    def node_of(self, item: int) -> int:
        """Logical CLV a paged item belongs to (inverse of ``item_of``)."""
        self._check_item(item)
        return item // self.blocks_per_node

    def block_of(self, item: int) -> int:
        """Block index of ``item`` within its node (0-based)."""
        self._check_item(item)
        return item % self.blocks_per_node

    def block_bounds(self, block: int) -> tuple[int, int]:
        """Half-open pattern range ``[lo, hi)`` covered by block ``block``.

        ``hi - lo`` is the number of *meaningful* rows in the block's
        slot; a ragged last block additionally stores
        ``item_shape[0] - (hi - lo)`` rows of padding.
        """
        if not 0 <= block < self.blocks_per_node:
            raise OutOfCoreError(
                f"block {block} out of range [0, {self.blocks_per_node})")
        lo = block * self.block_sites
        return (lo, min(self.node_shape[0], lo + self.block_sites))

    def item_sites(self, item: int) -> tuple[int, int]:
        """Pattern range of ``item`` — ``block_bounds(block_of(item))``."""
        return self.block_bounds(self.block_of(item))

    def store_item_nodes(self) -> np.ndarray:
        """``int64`` array mapping every item id (``num_items`` entries)
        to its node."""
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64),
                         self.blocks_per_node)

    # -- geometry ----------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """JSON-ready summary (recorded in ``BENCH_profile.json``)."""
        return {
            "layout": self.name,
            "num_nodes": self.num_nodes,
            "num_items": self.num_items,
            "blocks_per_node": self.blocks_per_node,
            "block_sites": self.block_sites,
        }

    # -- validation helpers ------------------------------------------------------

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise OutOfCoreError(
                f"node {node} out of range [0, {self.num_nodes})")

    def _check_item(self, item: int) -> None:
        if not 0 <= item < self.num_items:
            raise OutOfCoreError(
                f"item {item} out of range [0, {self.num_items})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StorageLayout({self.name}, nodes={self.num_nodes}, "
                f"items={self.num_items}, item_shape={self.item_shape})")


def make_layout(kind: "str | StorageLayout", num_nodes: int,
                node_shape: tuple[int, ...],
                block_sites: int | None = None) -> StorageLayout:
    """Build (or validate) a layout for a ``num_nodes × node_shape`` CLV set.

    ``kind`` is ``"whole"``, ``"block"`` (with ``block_sites``, default
    :data:`DEFAULT_BLOCK_SITES`) or an existing :class:`StorageLayout`
    instance, which is geometry-checked and returned unchanged.
    """
    if isinstance(kind, StorageLayout):
        if (kind.num_nodes != int(num_nodes)
                or kind.node_shape != tuple(int(d) for d in node_shape)):
            raise OutOfCoreError(
                f"layout {kind!r} describes {kind.num_nodes} nodes of shape "
                f"{kind.node_shape}, need {num_nodes} of {tuple(node_shape)}"
            )
        return kind
    if kind == "whole":
        if block_sites is not None:
            raise OutOfCoreError("block_sites only applies to layout='block'")
        return StorageLayout(num_nodes, node_shape)
    if kind == "block":
        b = DEFAULT_BLOCK_SITES if block_sites is None else int(block_sites)
        return StorageLayout(num_nodes, node_shape, b)
    raise OutOfCoreError(
        f"unknown layout {kind!r}; choose 'whole', 'block' or pass a "
        "StorageLayout instance"
    )


def only_view(views: Sequence[np.ndarray | None]) -> np.ndarray:
    """What ``get`` returns of its run of one ``get_many`` access: the
    view, never spilled — nothing of the run follows it."""
    (view,) = views
    assert view is not None
    return view
