"""Site classes: which rows of an ancestral vector are distinct, from topology alone.

A node's conditional row at site ``s`` is a function of its two children's
rows at ``s`` (and of the two branch operators, which are the same for
every site). Two sites whose children agree therefore agree at the node,
bit for bit: :func:`~repro.phylo.likelihood.kernels.gemm` is
row-independent, and the rescale decision is per row. So a block of a
vector has as many distinct rows as it has distinct *pairs* of child
classes — the site-repeats idea of Kobert, Stamatakis & Flouri (2017).
At a tip the class of a site is its dense state code; at an inner node it
is the id of the pair (class at one child, class at the other).

A :class:`SiteClasses` is that map for one stored vector, one
:class:`BlockClasses` per site block of the layout (the whole-vector
layout is the one-block case). The executor computes and stores only the
``k`` class rows of each block, in rows ``[0, k)`` of its slot, and
gathers them back to per-site width only where per-site values are
consumed (the two end vectors of an evaluation edge).

Maps depend on the topology below a vector and on nothing else — not on
branch lengths, the model, the rates or the pattern weights — so
:class:`ClassMaps` caches them per node and reuses one whenever the
children's maps are the very maps it was built from.
"""

from __future__ import annotations

import itertools
import time
from typing import Sequence

import numpy as np

#: How many maps a node keeps: one per orientation of an unchanged
#: neighbourhood (the three ways to pick its two children).
MAPS_PER_NODE = 3


class BlockClasses:
    """The site classes of one block of one vector.

    ``k`` is the number of classes. ``cls`` (``int32``, one entry per site
    of the block) is each site's class, and ``rep`` one representative
    site per class (any site of a class will do: class-equal rows are
    bit-identical). ``rows`` holds, for each child in the map's child
    order, the child's row of every class: an index into the child's
    stored class rows, or the child's dense tip code. When every site is
    its own class in site order (the *identity* map) ``cls`` and ``rep``
    are ``None`` and ``rows`` are the children's per-site classes, where
    ``None`` is a child that is itself the identity. A tip's block has the
    tip's codes as ``cls``, the number of codes as ``k`` and no ``rows``.
    """

    __slots__ = ("k", "cls", "rep", "rows")

    def __init__(self, k: int, cls: np.ndarray | None, rep: np.ndarray | None,
                 rows: tuple) -> None:
        self.k = k
        self.cls = cls
        self.rep = rep
        self.rows = rows

    def expand(self, class_rows: np.ndarray) -> np.ndarray:
        """``class_rows`` (one row per class) at every site of the block."""
        return class_rows if self.cls is None else class_rows[self.cls]


class SiteClasses:
    """The class map of one stored vector: one :class:`BlockClasses` per
    block. ``serial`` names this map among its :class:`ClassMaps`'; ``key``
    is the serials of the two child maps it was built from (lower child
    node id first), ``None`` for a tip."""

    __slots__ = ("serial", "key", "blocks")

    def __init__(self, serial: int, key: tuple[int, int] | None,
                 blocks: list[BlockClasses]) -> None:
        self.serial = serial
        self.key = key
        self.blocks = blocks


def tip_blocks(codes: np.ndarray, bounds: Sequence[tuple[int, int]],
               num_codes: int) -> list[BlockClasses]:
    """A tip's blocks: its dense codes, ``num_codes`` classes each."""
    return [BlockClasses(num_codes, codes[lo:hi], None, ()) for lo, hi in bounds]


def _whole(a: BlockClasses, b: BlockClasses, span: int) -> BlockClasses:
    """The identity map over children ``a`` and ``b``."""
    return BlockClasses(span, None, None, (a.cls, b.cls))


def _block(a: BlockClasses, b: BlockClasses, span: int) -> BlockClasses:
    # A block with at least half as many classes as sites is stored whole:
    # the gathers compaction costs would outweigh the rows it saves. A
    # node has at least as many classes as either child, so a child past
    # that bound (an identity child above all: k = span) decides it unbuilt.
    if 2 * max(a.k, b.k) >= span:
        return _whole(a, b, span)
    size = a.k * b.k
    ids = a.cls.astype(np.intp) * b.k
    ids += b.cls
    if size <= 4 * span:
        # A dense pair table: one scatter, one scan, one remap.
        seen = np.zeros(size, dtype=np.bool_)
        seen[ids] = True
        pairs = np.flatnonzero(seen)
        k = len(pairs)
        if 2 * k >= span:
            return _whole(a, b, span)
        remap = np.empty(size, dtype=np.int32)
        remap[pairs] = np.arange(k, dtype=np.int32)
        cls = remap[ids]
        rep = np.empty(k, dtype=np.intp)
        rep[cls] = np.arange(span)
    else:
        # Too many pairs for a table: sort the ids, and a class starts
        # wherever the sorted run changes.
        order = np.argsort(ids)
        ids = ids[order]
        starts = np.empty(span, dtype=np.bool_)
        starts[0] = True
        np.not_equal(ids[1:], ids[:-1], out=starts[1:])
        k = int(np.count_nonzero(starts))
        if 2 * k >= span:
            return _whole(a, b, span)
        cls = np.empty(span, dtype=np.int32)
        cls[order] = np.cumsum(starts, dtype=np.int32) - 1
        pairs, rep = ids[starts], order[starts]
    return BlockClasses(k, cls, rep, tuple(np.divmod(pairs, b.k)))


def build(a: SiteClasses, b: SiteClasses,
          bounds: Sequence[tuple[int, int]]) -> list[BlockClasses]:
    """The blocks of a vector whose children have maps ``a`` and ``b``."""
    return [_block(x, y, hi - lo)
            for x, y, (lo, hi) in zip(a.blocks, b.blocks, bounds)]


class ClassMaps:
    """The map of every stored vector, and a few cached per inner node.

    ``current[node]`` is the map of the vector now stored at ``node`` (a
    tip's is fixed). :meth:`lookup` answers for a recomputation of
    ``node`` from two children: a cached map built from the children's
    current maps, or a new one (counted in ``builds``, timed in
    ``build_s``); a node keeps :data:`MAPS_PER_NODE`, oldest out.
    :meth:`commit` records that the node's vector now has it. A valid
    vector's subtree is unchanged, so its map is current whatever
    happened elsewhere; nothing needs invalidating.
    """

    def __init__(self, tip_codes: np.ndarray, num_codes: int,
                 bounds: Sequence[tuple[int, int]], num_inner: int) -> None:
        self.bounds = list(bounds)
        self.num_tips = len(tip_codes)
        self._serials = itertools.count()
        self.current: list[SiteClasses | None] = [
            SiteClasses(next(self._serials), None,
                        tip_blocks(codes, self.bounds, num_codes))
            for codes in tip_codes]
        self.current.extend([None] * num_inner)
        self._cached: list[list[SiteClasses]] = [[] for _ in range(num_inner)]
        self.builds = 0
        self.build_s = 0.0

    def lookup(self, node: int, left: int, right: int) -> SiteClasses:
        """The map of ``node`` recomputed from children ``left``/``right``
        (in either order: a map lists its children by node id)."""
        if right < left:
            left, right = right, left
        a, b = self.current[left], self.current[right]
        key = (a.serial, b.serial)
        cached = self._cached[node - self.num_tips]
        for found in cached:
            if found.key == key:
                return found
        t0 = time.perf_counter()
        found = SiteClasses(next(self._serials), key, build(a, b, self.bounds))
        self.build_s += time.perf_counter() - t0
        self.builds += 1
        cached.append(found)
        if len(cached) > MAPS_PER_NODE:
            del cached[0]
        return found

    def commit(self, node: int, classes: SiteClasses) -> None:
        self.current[node] = classes
