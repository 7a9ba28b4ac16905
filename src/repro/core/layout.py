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
actually pages (``num_items`` blocks of ``item_shape``):

* :class:`WholeVectorLayout` — the identity: one item per node, today's
  (and the paper's) behaviour, bit-for-bit;
* :class:`SiteBlockLayout` — each CLV's pattern axis is split into
  independently resident/evictable/prefetchable *site blocks* of
  ``block_sites`` patterns; the last block is ragged (only its first
  ``patterns - (blocks_per_node-1)·block_sites`` rows are meaningful,
  the tail is padding that is stored but never read by kernels);
* :class:`ConcatenatedLayout` — several per-partition layouts glued
  into one item id space, so one shared store (one global slot budget)
  can serve every partition of a :class:`PartitionedEngine`.

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

import zlib
from bisect import bisect_right
from typing import Any, Sequence

import numpy as np

from repro.core.stats import DEMAND_COUNTERS, IoStats
from repro.errors import OutOfCoreError

#: Default site-block size for ``layout="block"`` when none is given.
DEFAULT_BLOCK_SITES = 64


class StorageLayout:
    """Base class: the node-space ⇄ item-space mapping.

    Subclasses populate the geometry attributes in ``__init__`` and
    implement the mapping methods. All layouts shipped here use dense,
    contiguous item ids (``items_of`` returns a :class:`range`), which
    the store's file backing exploits for sequential placement.
    """

    name = "base"

    num_nodes: int
    node_shape: tuple[int, ...]
    num_items: int
    item_shape: tuple[int, ...]
    #: Items per node; uniform because every node shares ``node_shape``.
    blocks_per_node: int

    # -- mapping -----------------------------------------------------------------

    def item_of(self, node: int, block: int) -> int:
        """Item id of site-block ``block`` of logical CLV ``node``."""
        raise NotImplementedError

    def items_of(self, node: int) -> range:
        """All item ids composing logical CLV ``node`` (block order)."""
        raise NotImplementedError

    def node_of(self, item: int) -> int:
        """Logical CLV a paged item belongs to (inverse of ``item_of``)."""
        raise NotImplementedError

    def block_of(self, item: int) -> int:
        """Block index of ``item`` within its node (0-based)."""
        raise NotImplementedError

    def block_bounds(self, block: int) -> tuple[int, int]:
        """Half-open pattern range ``[lo, hi)`` covered by block ``block``.

        ``hi - lo`` is the number of *meaningful* rows in the block's
        slot; a ragged last block additionally stores
        ``item_shape[0] - (hi - lo)`` rows of padding.
        """
        raise NotImplementedError

    def item_sites(self, item: int) -> tuple[int, int]:
        """Pattern range of ``item`` — ``block_bounds(block_of(item))``."""
        return self.block_bounds(self.block_of(item))

    def store_item_nodes(self) -> np.ndarray:
        """``int64`` array mapping every *store* item id to its node.

        For plain layouts this covers ``num_items`` entries; a
        :class:`PartitionLayoutView` returns its parent's full-store
        array, so policies that receive global item ids (one shared
        store across partitions) can always index it directly.
        """
        raise NotImplementedError

    # -- geometry ----------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """JSON-ready summary (recorded in ``BENCH_profile.json``)."""
        return {
            "layout": self.name,
            "num_nodes": self.num_nodes,
            "num_items": self.num_items,
            "blocks_per_node": self.blocks_per_node,
            "block_sites": int(self.item_shape[0]),
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
        return (f"{type(self).__name__}(nodes={self.num_nodes}, "
                f"items={self.num_items}, item_shape={self.item_shape})")


class WholeVectorLayout(StorageLayout):
    """The identity layout — one item per node, the paper's design.

    Strictly a no-op relative to the pre-layout code: item ids equal
    node ids, ``item_shape == node_shape``, and a single block spans the
    whole pattern axis, so demand/eviction counters, policy decisions
    and log-likelihoods are bit-identical to the unlayered store.
    """

    name = "whole"

    def __init__(self, num_nodes: int, node_shape: tuple[int, ...]) -> None:
        if num_nodes < 1:
            raise OutOfCoreError(f"need at least one node, got {num_nodes}")
        if len(node_shape) < 1 or int(node_shape[0]) < 1:
            raise OutOfCoreError(f"bad node shape {node_shape!r}")
        self.num_nodes = int(num_nodes)
        self.node_shape = tuple(int(d) for d in node_shape)
        self.num_items = self.num_nodes
        self.item_shape = self.node_shape
        self.blocks_per_node = 1

    def item_of(self, node: int, block: int) -> int:
        self._check_node(node)
        if block != 0:
            raise OutOfCoreError(f"whole-vector layout has one block, got {block}")
        return node

    def items_of(self, node: int) -> range:
        self._check_node(node)
        return range(node, node + 1)

    def node_of(self, item: int) -> int:
        self._check_item(item)
        return item

    def block_of(self, item: int) -> int:
        self._check_item(item)
        return 0

    def block_bounds(self, block: int) -> tuple[int, int]:
        if block != 0:
            raise OutOfCoreError(f"whole-vector layout has one block, got {block}")
        return (0, self.node_shape[0])

    def store_item_nodes(self) -> np.ndarray:
        return np.arange(self.num_items, dtype=np.int64)


class SiteBlockLayout(StorageLayout):
    """Pattern axis split into fixed-size site blocks (last one ragged).

    Node ``n``'s block ``b`` is item ``n · blocks_per_node + b`` and
    covers patterns ``[b·B, min(patterns, (b+1)·B))``. Every slot (and
    every backing-store record) holds a full ``(B, categories, states)``
    block; the ragged last block's tail rows are padding — written out
    and read back like data, but never consumed by a kernel, so their
    contents are irrelevant to correctness.
    """

    name = "block"

    def __init__(self, num_nodes: int, node_shape: tuple[int, ...],
                 block_sites: int) -> None:
        if num_nodes < 1:
            raise OutOfCoreError(f"need at least one node, got {num_nodes}")
        if len(node_shape) < 1 or int(node_shape[0]) < 1:
            raise OutOfCoreError(f"bad node shape {node_shape!r}")
        if block_sites < 1:
            raise OutOfCoreError(f"block_sites must be >= 1, got {block_sites}")
        self.num_nodes = int(num_nodes)
        self.node_shape = tuple(int(d) for d in node_shape)
        patterns = self.node_shape[0]
        # Deliberately NOT clamped to the pattern count: a shared
        # (concatenated) store needs every partition to page identically
        # shaped blocks, so a partition with fewer patterns than one block
        # simply gets a single padded block.
        self.block_sites = int(block_sites)
        self.blocks_per_node = -(-patterns // self.block_sites)  # ceil div
        self.num_items = self.num_nodes * self.blocks_per_node
        self.item_shape = (self.block_sites, *self.node_shape[1:])

    def item_of(self, node: int, block: int) -> int:
        self._check_node(node)
        if not 0 <= block < self.blocks_per_node:
            raise OutOfCoreError(
                f"block {block} out of range [0, {self.blocks_per_node})")
        return node * self.blocks_per_node + block

    def items_of(self, node: int) -> range:
        self._check_node(node)
        start = node * self.blocks_per_node
        return range(start, start + self.blocks_per_node)

    def node_of(self, item: int) -> int:
        self._check_item(item)
        return item // self.blocks_per_node

    def block_of(self, item: int) -> int:
        self._check_item(item)
        return item % self.blocks_per_node

    def block_bounds(self, block: int) -> tuple[int, int]:
        if not 0 <= block < self.blocks_per_node:
            raise OutOfCoreError(
                f"block {block} out of range [0, {self.blocks_per_node})")
        lo = block * self.block_sites
        return (lo, min(self.node_shape[0], lo + self.block_sites))

    def store_item_nodes(self) -> np.ndarray:
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64),
                         self.blocks_per_node)


class PartitionLayoutView(StorageLayout):
    """One partition's layout re-addressed into a shared store's item space.

    Wraps a per-partition layout and adds the partition's item offset,
    so an engine holding this view generates *global* item ids directly
    — no translation layer sits on the store's hot path. The node space
    stays partition-local (it is the shared tree's inner-node space,
    identical across partitions).
    """

    name = "partition-view"

    def __init__(self, inner: StorageLayout, offset: int,
                 parent: "ConcatenatedLayout") -> None:
        self.inner = inner
        self.offset = int(offset)
        self.parent = parent
        self.num_nodes = inner.num_nodes
        self.node_shape = inner.node_shape
        self.num_items = parent.num_items
        self.item_shape = inner.item_shape
        self.blocks_per_node = inner.blocks_per_node

    def item_of(self, node: int, block: int) -> int:
        return self.offset + self.inner.item_of(node, block)

    def items_of(self, node: int) -> range:
        local = self.inner.items_of(node)
        return range(self.offset + local.start, self.offset + local.stop)

    def node_of(self, item: int) -> int:
        return self.inner.node_of(item - self.offset)

    def block_of(self, item: int) -> int:
        return self.inner.block_of(item - self.offset)

    def block_bounds(self, block: int) -> tuple[int, int]:
        return self.inner.block_bounds(block)

    def store_item_nodes(self) -> np.ndarray:
        return self.parent.store_item_nodes()


class ConcatenatedLayout(StorageLayout):
    """Several per-partition layouts in one dense item id space.

    All parts must describe the *same* node set (the shared tree's inner
    nodes) and produce the *same* ``item_shape`` — the single slot arena
    has one block geometry. With :class:`SiteBlockLayout` parts sharing
    ``block_sites`` (and models sharing a state/category count) this
    holds even when partitions have different pattern counts, because
    every block is padded to ``block_sites`` rows; whole-vector parts
    concatenate only when their pattern counts happen to be equal.

    Node-level methods (``item_of``/``items_of``/``block_bounds``) are
    ambiguous across partitions and raise; engines address the store
    through a per-partition :meth:`view` instead. Item-level methods
    (``node_of``/``block_of``/``item_sites``) resolve the owning
    partition by offset, so a shared store's policies and traces work on
    global ids.
    """

    name = "concat"

    def __init__(self, parts: Sequence[StorageLayout]) -> None:
        if not parts:
            raise OutOfCoreError("need at least one layout to concatenate")
        first = parts[0]
        for i, part in enumerate(parts):
            if part.item_shape != first.item_shape:
                raise OutOfCoreError(
                    f"partition {i} pages items of shape {part.item_shape}, "
                    f"partition 0 pages {first.item_shape}; a shared store "
                    "needs one block geometry — use a SiteBlockLayout with a "
                    "common block_sites (and matching category/state counts)"
                )
            if part.num_nodes != first.num_nodes:
                raise OutOfCoreError(
                    f"partition {i} has {part.num_nodes} nodes, partition 0 "
                    f"has {first.num_nodes}; all partitions must share one "
                    "tree's inner-node set"
                )
        self.parts = list(parts)
        self.offsets = [0]
        for part in self.parts:
            self.offsets.append(self.offsets[-1] + part.num_items)
        self.num_nodes = first.num_nodes
        self.node_shape = first.node_shape
        self.num_items = self.offsets[-1]
        self.item_shape = first.item_shape
        self.blocks_per_node = first.blocks_per_node

    @property
    def num_partitions(self) -> int:
        return len(self.parts)

    def view(self, partition: int) -> PartitionLayoutView:
        """The globally-addressed layout of one partition."""
        if not 0 <= partition < len(self.parts):
            raise OutOfCoreError(
                f"partition {partition} out of range [0, {len(self.parts)})")
        return PartitionLayoutView(self.parts[partition],
                                   self.offsets[partition], self)

    def partition_of(self, item: int) -> int:
        """Which partition owns global item id ``item``."""
        self._check_item(item)
        return bisect_right(self.offsets, item) - 1

    def item_of(self, node: int, block: int) -> int:
        raise OutOfCoreError(
            "item_of is ambiguous on a concatenated layout; use view(p)")

    def items_of(self, node: int) -> range:
        raise OutOfCoreError(
            "items_of is ambiguous on a concatenated layout; use view(p)")

    def block_bounds(self, block: int) -> tuple[int, int]:
        raise OutOfCoreError(
            "block_bounds is ambiguous on a concatenated layout; use view(p)")

    def node_of(self, item: int) -> int:
        p = self.partition_of(item)
        return self.parts[p].node_of(item - self.offsets[p])

    def block_of(self, item: int) -> int:
        p = self.partition_of(item)
        return self.parts[p].block_of(item - self.offsets[p])

    def item_sites(self, item: int) -> tuple[int, int]:
        p = self.partition_of(item)
        return self.parts[p].item_sites(item - self.offsets[p])

    def store_item_nodes(self) -> np.ndarray:
        return np.concatenate([p.store_item_nodes() for p in self.parts])

    def describe(self) -> dict[str, Any]:
        doc = super().describe()
        doc["partitions"] = [p.describe() for p in self.parts]
        return doc


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
        return WholeVectorLayout(num_nodes, node_shape)
    if kind == "block":
        b = DEFAULT_BLOCK_SITES if block_sites is None else int(block_sites)
        return SiteBlockLayout(num_nodes, node_shape, b)
    raise OutOfCoreError(
        f"unknown layout {kind!r}; choose 'whole', 'block' or pass a "
        "StorageLayout instance"
    )


#: Counters a :class:`SharedStoreView` mirrors per partition: the demand
#: stream, which is the only per-partition-attributable traffic (evictions
#: and async I/O are global decisions of the shared store).
MIRRORED_COUNTERS: tuple[str, ...] = tuple(sorted(DEMAND_COUNTERS))


class SharedStoreView:
    """Per-partition front door onto one shared vector store.

    Engines holding a :class:`PartitionLayoutView` already emit *global*
    item ids, so ``get`` forwards verbatim — the view adds exactly two
    things:

    * a per-partition :class:`~repro.core.stats.IoStats` mirror of the
      demand counters (computed as before/after deltas of the shared
      stats around each forwarded ``get``; exact because demand counters
      move only on the calling compute thread), so partitioned runs can
      attribute demand traffic per partition while one global slot
      budget serves everyone;
    * a no-op ``close`` — the shared store is owned and closed once by
      the composer (:class:`~repro.phylo.likelihood.partitioned.PartitionedEngine`),
      not by each partition engine.

    Everything else (``is_resident``, ``policy``, ``drain`` …) resolves
    on the shared store through ``__getattr__``.
    """

    def __init__(self, store: Any, layout: StorageLayout) -> None:
        self._store = store
        self.layout = layout
        self.stats = IoStats()

    def get(self, item: int, pins: tuple = (),
            write_only: bool = False) -> np.ndarray:
        shared = self._store.stats
        before = [getattr(shared, key) for key in MIRRORED_COUNTERS]
        out = self._store.get(item, pins=pins, write_only=write_only)
        mine = self.stats
        for key, base in zip(MIRRORED_COUNTERS, before):
            setattr(mine, key, getattr(mine, key)
                    + getattr(shared, key) - base)
        return out

    @property
    def shared_stats(self) -> IoStats:
        """The shared store's global counters."""
        stats: IoStats = self._store.stats
        return stats

    def close(self) -> None:
        """No-op: the shared store outlives any single partition engine."""

    def __getattr__(self, name: str) -> Any:
        return getattr(self._store, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedStoreView({self._store!r})"


# -- shard placement ---------------------------------------------------------
#
# The layout layer is the single source of shard placement for the sharded
# multi-process backing tier (repro.core.sharded): it already owns the
# node-space -> item-space mapping, and the shard map is simply the next
# stage of the same address translation.  Placement is a pure function of
# the item id, so every process — front-end clients, shard workers, a
# reattaching run after a crash — derives the identical map with no
# coordination and no persisted table.

def shard_of(item: int, num_shards: int) -> int:
    """The shard that owns ``item``: stable ``crc32(item) % num_shards``.

    ``zlib.crc32`` over the decimal item id is the repo's seeded,
    order-independent hashing idiom (cf. :mod:`repro.core.faults`); unlike
    ``item % num_shards`` it decorrelates placement from the layout's
    block-interleaving structure, so consecutive site blocks of one CLV
    spread across shards instead of striping onto one worker.
    """
    if num_shards < 1:
        raise OutOfCoreError(f"need at least 1 shard, got {num_shards}")
    if num_shards == 1:
        return 0
    return zlib.crc32(str(int(item)).encode()) % num_shards


def shard_items(num_items: int, num_shards: int) -> list[list[int]]:
    """Per-shard ascending item lists for a dense ``[0, num_items)`` space.

    Workers address their private stores by *local* index (the rank of the
    item within its shard's list), so each shard file is dense regardless
    of how the hash scatters the global ids.
    """
    groups: list[list[int]] = [[] for _ in range(num_shards)]
    for item in range(int(num_items)):
        groups[shard_of(item, num_shards)].append(item)
    return groups
