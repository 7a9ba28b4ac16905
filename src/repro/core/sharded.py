"""The ``sharded`` backing kind: :class:`MultiFileBackingStore`'s stripes,
each a file, compressed-file or modelled-disk store.

The paper spreads evicted vectors over several files as an option and
found the difference from one file minimal (§3.2). A shard is such a
stripe: item ``i`` lives in shard ``i % N`` under local id ``i // N``,
in this process. Backing calls release the GIL (positioned I/O, zlib,
``time.sleep``), so the write-behind and prefetch threads keep transfers
to distinct items concurrent across shards without worker processes.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np
from numpy.typing import DTypeLike

from repro.core.backing import BackingStore, MultiFileBackingStore, make_backing
from repro.errors import BackingStoreError
from repro.vm.disk import DiskModel

#: Store kinds a shard may be, and the extension of a shard's file.
SHARD_KINDS = {"file": "bin", "compressed": "czb", "simulated": "bin"}


class _Done:
    """The ticket of a transfer that has completed: ``wait()`` returns."""

    done = True

    def wait(self) -> None:
        """Nothing to wait for."""


class ShardedBackingStore(MultiFileBackingStore):
    """``num_shards`` stripes of ``kind`` under ``directory``.

    For ``kind="simulated"``, ``disk`` is the modelled device's
    ``(access_latency, bandwidth)`` (default :meth:`DiskModel.hdd`) and
    ``sleep`` whether a transfer blocks its caller; each shard is its own
    device. The simulated kind keeps its data in RAM.
    """

    def __init__(self, directory: str | os.PathLike[str], num_items: int,
                 item_shape: tuple[int, ...], dtype: DTypeLike = np.float64,
                 *, num_shards: int = 4, kind: str = "file",
                 disk: tuple[float, float] | None = None,
                 sleep: bool = False) -> None:
        if kind not in SHARD_KINDS:
            raise BackingStoreError(
                f"unknown shard kind {kind!r}; expected one of {list(SHARD_KINDS)}")
        self.kind = kind
        self._options: dict[str, Any] = {}
        if kind == "simulated":
            self._options["sleep"] = bool(sleep)
            if disk is not None:
                self._options["disk"] = DiskModel(float(disk[0]), float(disk[1]))
        super().__init__(directory, num_items, item_shape, dtype, num_shards)
        self.num_shards = self.num_files

    def _stripe(self, f: int, num_items: int) -> BackingStore:
        path = os.path.join(self.directory, f"shard_{f}.{SHARD_KINDS[self.kind]}")
        return make_backing(self.kind, num_items, self.item_shape, self.dtype,
                            path=path, **self._options)

    def read_batch(self, items: list[tuple[int, np.ndarray]]) -> list[_Done]:
        """Read each ``(item, out)`` in turn; the tickets are already done."""
        for item, out in items:
            self.read(item, out)
        return [_Done() for _ in items]
