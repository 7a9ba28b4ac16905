"""Transparent per-item compression in the backing layer.

Ancestral probability vectors are highly compressible — long runs of
repeated site patterns, saturated clades, padded block tails — so
compressing each item before it hits the device multiplies effective
backing bandwidth and capacity. The paper's fixed-offset addressing
(vector ``i`` at byte ``i*w``) cannot hold once payloads vary in size;
:class:`CompressedFileBackingStore` therefore replaces it with a
per-item *extent table* (offset, stored length, reserved capacity) kept
in memory and persisted as a sidecar index so a store can be reattached.

A record holds what the last write of its item was handed — the item's
leading ``k`` live rows, not the whole item — so the stale rows of a slot
are never compressed.

Framing: the data file is a heap of variable-length records. An item
overwrite reuses its extent when the new payload fits the reserved
capacity, else appends a fresh extent at the end of the heap (the old
extent leaks until a future compaction — crash-safe by construction,
because the index is only republished *after* the payload is durable;
see DESIGN.md "Durability & failure model").

The codec is stdlib DEFLATE at level 6 (:data:`CODEC`, recorded in the
index). Decompression is exact: CLVs round-trip bit-identically, so
likelihoods are unchanged to the last ulp.
"""

from __future__ import annotations

import contextlib
import json
import os
import zlib
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import DTypeLike

from repro.analysis.race import make_lock
from repro.core.backing import (
    ReportedBackingStore,
    row_bytes,
    transfer_bytes,
    write_buffer,
)
from repro.errors import BackingStoreError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.core.layout import StorageLayout

INDEX_VERSION = 1

_ZLIB_LEVEL = 6
#: The index's name for the one codec: ``zlib`` DEFLATE at level 6.
CODEC = f"zlib:{_ZLIB_LEVEL}"

#: ``flush()`` compacts the heap once stranded bytes exceed this fraction.
COMPACT_THRESHOLD = 0.5

#: Extents are rounded up to this granularity so slightly-larger rewrites
#: of the same item reuse their extent instead of leaking heap space.
_CAPACITY_QUANTUM = 64


def fsync_dir(path: str) -> None:
    """fsync the directory entry so a rename survives a crash."""
    dfd = os.open(os.path.dirname(os.path.abspath(path)) or ".", os.O_RDONLY)
    try:
        os.fsync(dfd)
    finally:
        os.close(dfd)


class CompressedFileBackingStore(ReportedBackingStore):
    """One binary heap file of per-item compressed records + sidecar index.

    Parameters
    ----------
    path:
        The data-heap file. The index lives beside it at ``path + ".idx"``;
        if both exist, the store *reattaches* (geometry and codec are
        verified against the index) with all previously flushed items
        readable.
    num_items, item_shape, dtype:
        Logical geometry, as for
        :class:`~repro.core.backing.FileBackingStore`.

    Concurrency: extent-table lookups/placements take a leaf lock, the
    positioned I/O itself runs outside it (extents of distinct items are
    disjoint, and the vector store never issues concurrent I/O for one
    item). ``flush()`` is the durability barrier: payload fsync, then the
    index republished via write-to-temp + fsync + atomic rename.
    """

    def __init__(self, path: str | os.PathLike[str], num_items: int,
                 item_shape: tuple[int, ...], dtype: DTypeLike = np.float64) -> None:
        self.path = os.fspath(path)
        self.index_path = self.path + ".idx"
        self.num_items = int(num_items)
        self.item_shape = tuple(item_shape)
        self.dtype = np.dtype(dtype)
        self.item_bytes = int(np.prod(self.item_shape)) * self.dtype.itemsize
        self.row_bytes = row_bytes(self.item_shape, self.dtype)
        #: per-item (offset, stored_length, capacity); None = never written
        self._extents: list[tuple[int, int, int] | None]
        self._cursor = 0
        self.raw_bytes = 0      # logical payload bytes moved (both directions)
        self.stored_bytes = 0   # physical compressed bytes moved
        self.raw_bytes_written = 0     # write-side slice of raw_bytes
        self.stored_bytes_written = 0  # write-side slice of stored_bytes
        #: heap capacity stranded by grow-rewrites; reclaimed by compact()
        self.leaked_bytes = 0          # guarded-by: _lock
        self.compactions = 0           # guarded-by: _lock
        self._lock = make_lock("CompressedFileBackingStore")
        self._closed = False
        #: heap handles retired by compact(); a concurrent reader that
        #: captured (fd, extent) before the swap still resolves against
        #: the old inode, so these stay open until close().
        self._retired: list[object] = []  # guarded-by: _lock
        reattach = os.path.exists(self.path) and os.path.exists(self.index_path)
        if reattach:
            self._load_index()
            self._fh = open(self.path, "r+b", buffering=0)  # noqa: SIM115
        else:
            self._extents = [None] * self.num_items
            self._fh = open(self.path, "w+b", buffering=0)  # noqa: SIM115
        self._fd = self._fh.fileno()

    @classmethod
    def from_layout(cls, path: "str | os.PathLike[str]", layout: "StorageLayout",
                    dtype: DTypeLike = np.float64) -> "CompressedFileBackingStore":
        """Backing sized for a layout's item space (blocks, not nodes)."""
        return cls(path, layout.num_items, layout.item_shape, dtype)

    # -- sidecar index --------------------------------------------------------

    def _load_index(self) -> None:
        with open(self.index_path) as fh:
            doc = json.load(fh)
        if doc.get("version") != INDEX_VERSION:
            raise BackingStoreError(
                f"unsupported index version {doc.get('version')!r} "
                f"in {self.index_path}")
        if (doc["num_items"] != self.num_items
                or doc["item_bytes"] != self.item_bytes
                or doc["dtype"] != self.dtype.name):
            raise BackingStoreError(
                f"index geometry mismatch in {self.index_path}: "
                f"{doc['num_items']}x{doc['item_bytes']}B ({doc['dtype']}) "
                f"vs {self.num_items}x{self.item_bytes}B ({self.dtype.name})")
        if doc["codec"] != CODEC:
            raise BackingStoreError(
                f"index codec mismatch in {self.index_path}: "
                f"{doc['codec']!r} vs {CODEC!r}")
        self._extents = [tuple(e) if e is not None else None  # type: ignore[misc]
                         for e in doc["extents"]]
        self._cursor = int(doc["cursor"])
        self.leaked_bytes = int(doc.get("leaked", 0))  # lockfree-ok: construction-time, no concurrent access yet
        # A crash mid-compact leaves the index naming the freshly built
        # heap ("heap": "<base>.compact") while the canonical path still
        # holds the old one. Finish the interrupted rename here: the
        # published extents are valid only against the compact heap. If
        # the compact file is gone, the rename itself already happened
        # (os.replace is atomic) and the canonical path IS the new heap.
        heap = str(doc.get("heap") or os.path.basename(self.path))
        if heap != os.path.basename(self.path):
            cand = os.path.join(
                os.path.dirname(os.path.abspath(self.path)), heap)
            if os.path.exists(cand):
                os.replace(cand, self.path)
                fsync_dir(self.path)
            self._publish_index()  # republish with the canonical heap name

    def _index_doc(self, heap: str | None = None) -> dict[str, object]:  # holds: _lock
        return {
            "version": INDEX_VERSION,
            "codec": CODEC,
            "num_items": self.num_items,
            "item_bytes": self.item_bytes,
            "dtype": self.dtype.name,
            "cursor": self._cursor,
            "leaked": self.leaked_bytes,
            "heap": heap if heap is not None else os.path.basename(self.path),
            "extents": [list(e) if e is not None else None
                        for e in self._extents],
        }

    def _publish_index_for(self, heap: str) -> None:
        """Publish an index whose extents resolve against ``heap``."""
        tmp = self.index_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self._index_doc(heap), fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.index_path)
        fsync_dir(self.index_path)

    def _publish_index(self) -> None:
        """Write-to-temp + fsync + atomic rename + directory fsync."""
        self._publish_index_for(os.path.basename(self.path))

    # -- BackingStore interface ----------------------------------------------

    def _check(self, item: int) -> None:
        if self._closed:
            raise BackingStoreError("backing store is closed")
        if not 0 <= item < self.num_items:
            raise BackingStoreError(
                f"item {item} out of range [0, {self.num_items})")

    def _read(self, item: int, out: np.ndarray) -> int | None:
        """Returns the stored (compressed) byte count, or ``None`` for a
        never-written item (zero-filled, no I/O to report). ``out`` is the
        item's leading rows; rows past what the last write stored read as
        zeros, like a never-written item."""
        nbytes = transfer_bytes(out, self.item_bytes, self.row_bytes)
        ob = self.obs
        self._check(item)
        with self._lock:
            # The fd must be captured together with the extent: compact()
            # swaps both atomically, and this extent's offsets are only
            # meaningful against the heap generation it was taken from.
            extent = self._extents[item]
            fd = self._fd
        flat = out.reshape(-1).view(np.uint8)
        if extent is None:
            flat[:] = 0  # parity with the preallocated-file zeros
            return None
        offset, length, _cap = extent
        payload = bytearray(length)
        view = memoryview(payload)
        done = 0
        while done < length:
            try:
                got = os.preadv(fd, [view[done:]], offset + done)
            except InterruptedError:
                continue
            if got <= 0:
                raise BackingStoreError(
                    f"short read for item {item}: {done}/{length} bytes")
            done += got
        raw = zlib.decompress(bytes(payload))
        if len(raw) > self.item_bytes:
            raise BackingStoreError(
                f"decompressed item {item} is {len(raw)} bytes, wider than "
                f"the item's {self.item_bytes}")
        stored = min(len(raw), nbytes)
        flat[:stored] = np.frombuffer(raw, dtype=np.uint8, count=stored)
        flat[stored:] = 0
        with self._lock:
            self.raw_bytes += nbytes
            self.stored_bytes += length
            if ob is not None:
                ob.count("compress_bytes_raw", nbytes)
                ob.count("compress_bytes_stored", length)
        return length

    def _write(self, item: int, data: np.ndarray) -> int:
        """Returns the stored (compressed) byte count. Only ``data`` — the
        item's leading rows — is stored: the record replaces the item."""
        data = write_buffer(data, self.dtype, self.item_bytes, self.row_bytes)
        ob = self.obs
        self._check(item)
        payload = zlib.compress(data.tobytes(), _ZLIB_LEVEL)
        length = len(payload)
        with self._lock:
            extent = self._extents[item]
            if extent is not None and length <= extent[2]:
                offset, capacity = extent[0], extent[2]
            else:
                if extent is not None:
                    # Grow-rewrite: the old extent's reserved capacity is
                    # stranded in the heap until compact() reclaims it.
                    self.leaked_bytes += extent[2]
                capacity = -(-length // _CAPACITY_QUANTUM) * _CAPACITY_QUANTUM
                offset = self._cursor
                self._cursor += capacity
            self._extents[item] = (offset, length, capacity)
            fd = self._fd  # same capture rule as read(): fd + extent together
            self.raw_bytes += data.nbytes
            self.stored_bytes += length
            self.raw_bytes_written += data.nbytes
            self.stored_bytes_written += length
            if ob is not None:
                ob.count("compress_bytes_raw", data.nbytes)
                ob.count("compress_bytes_stored", length)
                ob.gauge("compress_heap_leaked_bytes", self.leaked_bytes)
        view = memoryview(payload)
        done = 0
        zeros = 0
        while done < length:
            try:
                put = os.pwritev(fd, [view[done:]], offset + done)
            except InterruptedError:
                continue
            if put <= 0:
                zeros += 1
                if zeros >= 16:
                    raise BackingStoreError(
                        f"write for item {item} made no progress: "
                        f"{done}/{length} bytes")
                continue
            zeros = 0
            done += put
        return length

    @property
    def compression_ratio(self) -> float:
        """Logical/physical byte ratio over all traffic so far (>= 1 is a win)."""
        with self._lock:
            if self.stored_bytes == 0:
                return 1.0
            return self.raw_bytes / self.stored_bytes

    @property
    def leaked_ratio(self) -> float:
        """Fraction of the heap stranded by grow-rewrites (0 = dense)."""
        with self._lock:
            if self._cursor == 0:
                return 0.0
            return self.leaked_bytes / self._cursor

    def compact(self) -> None:
        """Rewrite live extents into a fresh dense heap; reclaim leaks.

        The already-compressed payloads are copied verbatim (no
        recompression), so reads after a compaction are bit-identical.
        Crash-safe by ordering: the new heap is built beside the old one
        and fsynced, the index is atomically republished *pointing at
        the compact file* (``"heap"`` field), only then is the compact
        file renamed over the canonical path and the index republished
        with the canonical name — a crash at any point leaves a
        consistent (heap, index) pair, and ``_load_index`` finishes an
        interrupted rename on reattach.

        Concurrency contract: callers must be quiesced with respect to
        writes (``flush()`` runs it after the write-behind drain
        barrier). Concurrent readers are safe — they capture
        ``(fd, extent)`` atomically and the retired heap handle stays
        open until ``close()``.
        """
        if self._closed:
            raise BackingStoreError("backing store is closed")
        ob = self.obs
        tmp_path = self.path + ".compact"
        with self._lock:
            new_fh = open(tmp_path, "w+b", buffering=0)  # noqa: SIM115
            new_fd = new_fh.fileno()
            new_extents: list[tuple[int, int, int] | None] = (
                [None] * self.num_items)
            cursor = 0
            for item, extent in enumerate(self._extents):
                if extent is None:
                    continue
                offset, length, _cap = extent
                payload = bytearray(length)
                view = memoryview(payload)
                done = 0
                while done < length:
                    try:
                        got = os.preadv(self._fd, [view[done:]], offset + done)
                    except InterruptedError:
                        continue
                    if got <= 0:
                        raise BackingStoreError(
                            f"short read compacting item {item}: "
                            f"{done}/{length} bytes")
                    done += got
                capacity = -(-length // _CAPACITY_QUANTUM) * _CAPACITY_QUANTUM
                done = 0
                while done < length:
                    try:
                        put = os.pwritev(new_fd, [view[done:]], cursor + done)
                    except InterruptedError:
                        continue
                    if put <= 0:
                        raise BackingStoreError(
                            f"short write compacting item {item}: "
                            f"{done}/{length} bytes")
                    done += put
                new_extents[item] = (cursor, length, capacity)
                cursor += capacity
            os.fsync(new_fd)
            # Swap the in-memory generation, then walk the index through
            # the two-step rename protocol described above.
            self._extents = new_extents
            self._cursor = cursor
            self.leaked_bytes = 0
            self._retired.append(self._fh)
            self._fh, self._fd = new_fh, new_fd
            self._publish_index_for(os.path.basename(tmp_path))
            os.replace(tmp_path, self.path)
            fsync_dir(self.path)
            self._publish_index()
            self.compactions += 1
            if ob is not None:
                ob.count("compress_compactions")
                ob.gauge("compress_heap_leaked_bytes", 0)

    def flush(self) -> None:
        """Durability barrier: payload fsync, then republish the index.

        Ordering matters — an extent must never be published before the
        bytes it points at are on the device, or a crash between the two
        would leave the index referencing garbage. When the stranded
        fraction of the heap exceeds :data:`COMPACT_THRESHOLD`, the
        barrier also runs :meth:`compact` (flush callers have already
        drained in-flight writes, which is the quiescence compaction
        needs).
        """
        if self._closed:
            return
        os.fsync(self._fd)
        with self._lock:
            need_compact = (self._cursor > 0 and self.leaked_bytes
                            > COMPACT_THRESHOLD * self._cursor)
            if not need_compact:
                self._publish_index()
        if need_compact:
            self.compact()

    def close(self) -> None:
        if not self._closed:
            self.flush()
            self._fh.close()
            retired = self._retired  # lockfree-ok: close is terminal; flush() above was the last concurrent access
            for fh in retired:
                with contextlib.suppress(Exception):
                    fh.close()  # type: ignore[attr-defined]
            self._closed = True

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        with contextlib.suppress(Exception):
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CompressedFileBackingStore(n={self.num_items}, "
                f"w={self.item_bytes}B, codec={CODEC}, "
                f"ratio={self.compression_ratio:.2f})")
