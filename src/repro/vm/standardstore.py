"""Vector-store façade for the "standard version using paging" baseline.

Standard RAxML allocates *all* ancestral vectors in one big block and lets
the OS page it (paper §4.3). :class:`PagedStandardStore` reproduces that:
it satisfies the engine's store protocol with every vector always
"resident" (a plain full-size array), while charging each access to a
:class:`~repro.vm.pagedarena.PagedArena`, which simulates the page cache
and accumulates fault counts and paging time. Plugging this store into a
:class:`~repro.phylo.likelihood.engine.LikelihoodEngine` yields the exact
compute of the standard implementation plus the simulated cost of paging.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.layout import only_view
from repro.core.stats import IoStats
from repro.errors import OutOfCoreError
from repro.vm.disk import DiskModel
from repro.vm.pagedarena import PagedArena


class PagedStandardStore:
    """All vectors in one arena; accesses charged to a simulated pager.

    Parameters
    ----------
    num_items, item_shape, dtype:
        Vector geometry (same as :class:`AncestralVectorStore`).
    ram_bytes:
        Simulated physical memory available (the paper's 2 GB, scaled).
    disk:
        Swap-device model.
    """

    def __init__(self, num_items: int, item_shape: tuple[int, ...],
                 *, dtype=np.float64, ram_bytes: int,
                 disk: DiskModel | None = None,
                 page_bytes: int = 4096, readahead_pages: int = 8) -> None:
        if num_items < 1:
            raise OutOfCoreError(f"need at least one item, got {num_items}")
        self.num_items = int(num_items)
        self.num_slots = self.num_items  # every vector has its place in RAM
        self.item_shape = tuple(item_shape)
        self.dtype = np.dtype(dtype)
        self.item_bytes = int(np.prod(self.item_shape)) * self.dtype.itemsize
        self._data = np.zeros((self.num_items, *self.item_shape), dtype=self.dtype)
        self.arena = PagedArena(self.num_items, self.item_bytes, ram_bytes,
                                disk, page_bytes, readahead_pages)
        self.stats = IoStats()
        self.policy = None  # engine introspects this for topological wiring

    def get(self, item: int, pins: tuple = (), write_only: bool = False) -> np.ndarray:
        """Return the vector (always a RAM hit) and charge the pager."""
        return only_view(self.get_many(((item, pins, write_only),)))

    def get_many(self, accesses: Sequence) -> list[np.ndarray]:
        """:meth:`get` for each access in order; nothing is ever evicted,
        so no view is spilled."""
        views = []
        for item, _pins, write_only, *_ in accesses:
            if not 0 <= item < self.num_items:
                raise OutOfCoreError(
                    f"item {item} out of range [0, {self.num_items})")
            self.stats.requests += 1
            self.stats.hits += 1
            self.arena.access_item(item, write=write_only)
            views.append(self._data[item])
        return views

    @property
    def faults(self) -> int:
        return self.arena.faults

    @property
    def simulated_seconds(self) -> float:
        return self.arena.simulated_seconds

    def ram_bytes(self) -> int:
        return self._data.nbytes

    def flush(self) -> None:  # protocol completeness; nothing to do
        pass

    def close(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PagedStandardStore(n={self.num_items}, w={self.item_bytes}B, "
            f"ram={self.arena.cache.capacity_pages * self.arena.cache.page_bytes}B)"
        )
