"""Backing stores: where evicted ancestral vectors live.

The paper stores "all ancestral probability vectors that do not fit into
RAM contiguously in a single binary file", with an option to spread them
over several files (§3.2, performance difference "minimal"). We implement
both, plus an in-memory backing (for miss-rate experiments where physical
I/O would only add noise) and a *simulated-latency disk* used by the
Figure-5 runtime benchmark, which charges an explicit seek + bandwidth cost
per transfer instead of performing real I/O — see DESIGN.md, substitution 3.

An item is ``w`` bytes at the fixed offset ``i·w``, and a transfer moves
its leading rows: the ``k`` live rows (site classes) of the vector or site
block, the first ``k`` rows' bytes from ``i·w`` on. Because one ancestral vector
is far larger than the 512 B–8 KiB hardware block (§3.1), every transfer
is still a single large sequential access, which is exactly the
amortization argument the paper makes.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import os
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Protocol

from numpy.typing import DTypeLike

import numpy as np

from repro.errors import BackingStoreError
from repro.vm.disk import DiskModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.core.layout import StorageLayout
    from repro.obs import Observer

#: Bound on consecutive zero-byte transfers before a write is declared
#: stuck. A zero return is a legitimate interruption (not an error), but
#: an endless run of them means the device is wedged.
_MAX_ZERO_TRANSFERS = 16


class BackingStore(Protocol):
    """Protocol for vector-granularity persistent storage.

    Implementations store ``num_items`` fixed-size vectors addressed by
    integer id. ``read`` fills a caller-provided buffer (no allocation on
    the hot path); ``write`` persists one. Either buffer is the leading
    rows of an item — C-contiguous, a whole number of rows along the
    item's first axis, at most the whole item — and the transfer moves
    exactly those bytes, leaving the rest of the item as it was
    (:func:`transfer_bytes`). ``flush`` is the
    durability barrier: after it returns, every completed ``write`` must
    survive a process crash (file-backed stores fsync; RAM-backed stores
    no-op because their durability domain is the process itself).
    """

    def read(self, item: int, out: np.ndarray) -> None: ...

    def write(self, item: int, data: np.ndarray) -> None: ...

    def flush(self) -> None: ...

    def close(self) -> None: ...

    def read_price(self, nbytes: int) -> float:
        """The declared seconds a read of ``nbytes`` costs, which the
        traversal planner weighs against recomputing the vector. A
        constant of the store, never a clock reading, so a plan stays a
        pure function of tree, residency and backing."""
        ...


class ReportedBackingStore:
    """``read``/``write`` for a store whose I/O lives in ``_read``/``_write``.

    A backing store is pure I/O: ``_read(item, out)`` / ``_write(item,
    data)`` validate, move the bytes and return how many they moved — or
    ``None`` when nothing was transferred and nothing should be reported.
    This base reports each transfer to ``obs``, and leaves it untimed
    while ``obs`` is ``None``.
    """

    #: The :class:`repro.obs.Observer` physical transfers are reported to
    #: (default off; set through ``AncestralVectorStore.attach``).
    obs: "Observer | None" = None
    _read: Callable[[int, np.ndarray], "int | None"]
    _write: Callable[[int, np.ndarray], "int | None"]

    def read(self, item: int, out: np.ndarray) -> None:
        self._reported("backing_read", self._read, item, out)

    def read_price(self, nbytes: int) -> float:
        """RAM and the file kinds declare a read free: a recomputation is
        then chosen only where it is free too (a cherry)."""
        return 0.0

    def write(self, item: int, data: np.ndarray) -> None:
        self._reported("backing_write", self._write, item, data)

    def _reported(self, name: str,
                  transfer: Callable[[int, np.ndarray], "int | None"],
                  item: int, buf: np.ndarray) -> None:
        obs = self.obs
        if obs is None:
            transfer(item, buf)
            return
        t0 = time.perf_counter()
        nbytes = transfer(item, buf)
        dt = time.perf_counter() - t0
        if nbytes is not None:
            obs.timed(name, t0, dt, item=item)


class MemoryBackingStore(ReportedBackingStore):
    """Backing store held in RAM — zero-latency stand-in for a disk.

    Used by the replacement-strategy experiments (Figs. 2–4): the metric
    there is the *miss/read rate*, a property of the access pattern alone,
    so physical disk traffic is unnecessary. The paper does the same thing
    by running on a 36 GB machine where everything fits ("the amount of
    available RAM was sufficient to hold all vectors in memory", §4.1).
    """

    def __init__(self, num_items: int, item_shape: tuple[int, ...], dtype: DTypeLike = np.float64) -> None:
        self.num_items = int(num_items)
        self.item_shape = tuple(item_shape)
        self.dtype = np.dtype(dtype)
        self.item_bytes = int(np.prod(self.item_shape)) * self.dtype.itemsize
        self.row_bytes = row_bytes(self.item_shape, self.dtype)
        self._data = np.zeros((self.num_items, *self.item_shape), dtype=self.dtype)
        self._bytes = _bytes_of(self._data)
        self._present = np.zeros(self.num_items, dtype=bool)
        self._closed = False

    @classmethod
    def from_layout(cls, layout: "StorageLayout",
                    dtype: DTypeLike = np.float64) -> "MemoryBackingStore":
        """Backing sized for a layout's item space (blocks, not nodes)."""
        return cls(layout.num_items, layout.item_shape, dtype)

    def _check(self, item: int) -> None:
        if self._closed:
            raise BackingStoreError("backing store is closed")
        if not 0 <= item < self.num_items:
            raise BackingStoreError(f"item {item} out of range [0, {self.num_items})")

    def _read(self, item: int, out: np.ndarray) -> int:
        self._check(item)
        nbytes = transfer_bytes(out, self.item_bytes, self.row_bytes)
        at = item * self.item_bytes
        _bytes_of(out)[:] = self._bytes[at:at + nbytes]
        return nbytes

    def _write(self, item: int, data: np.ndarray) -> int:
        self._check(item)
        data = write_buffer(data, self.dtype, self.item_bytes, self.row_bytes)
        at = item * self.item_bytes
        self._bytes[at:at + data.nbytes] = _bytes_of(data)
        self._present[item] = True
        return data.nbytes

    def has(self, item: int) -> bool:
        return bool(self._present[item])

    def flush(self) -> None:
        """No-op: RAM is this store's durability domain."""

    def close(self) -> None:
        self._closed = True


def row_bytes(item_shape: tuple[int, ...], dtype: DTypeLike) -> int:
    """Bytes of one row — one index along the first axis — of an item."""
    return math.prod(item_shape[1:]) * np.dtype(dtype).itemsize


def transfer_bytes(buf: np.ndarray, item_bytes: int, row: int,
                   kind: str = "read") -> int:
    """The bytes a ``kind`` transfer of ``buf`` moves: ``buf`` must be the
    leading rows of one item of ``item_bytes`` in rows of ``row`` bytes —
    C-contiguous, a whole number of rows, at most the whole item."""
    nbytes = buf.nbytes
    contiguous = buf.flags.c_contiguous
    if not contiguous or nbytes > item_bytes or nbytes % row:
        raise BackingStoreError(
            f"{kind} buffer mismatch: {nbytes} bytes is not the leading "
            f"rows of an item of {item_bytes} bytes in {row}-byte rows"
            + ("" if contiguous else " (not C-contiguous)"))
    return nbytes


def write_buffer(data: np.ndarray, dtype: np.dtype, item_bytes: int,
                 row: int) -> np.ndarray:
    """``data`` as the C-contiguous ``dtype`` array a write moves: the
    leading rows of one item (:func:`transfer_bytes`)."""
    if data.dtype != dtype or not data.flags.c_contiguous:
        data = np.ascontiguousarray(data, dtype=dtype)
    transfer_bytes(data, item_bytes, row, "write")
    return data


def _bytes_of(buf: np.ndarray) -> memoryview:
    """The bytes of a C-contiguous buffer, as a flat writable view."""
    return memoryview(buf).cast("B")


class FileBackingStore(ReportedBackingStore):
    """The paper's layout: all vectors contiguous in ONE binary file.

    Vector ``i`` lives at byte offset ``i * w`` where ``w`` is the vector
    width — the paper's ``nodemap`` offset field. A new file is
    preallocated (sparse where the OS allows) on construction; an
    *existing* file is reattached read-write with its contents intact, so
    a checkpointed run can resume against the vectors it already spilled.

    Transfers use positioned I/O (``os.pread``/``os.pwrite``), so there is
    no shared file-position cursor: concurrent reader and writer threads —
    the write-behind drainer and the prefetcher — cannot race each other
    through an interleaved ``seek``. Accesses to *distinct* items are fully
    thread-safe; the vector store never issues concurrent I/O for the same
    item (in-flight items are excluded from eviction).
    """

    def __init__(self, path: str | os.PathLike, num_items: int,
                 item_shape: tuple[int, ...], dtype: DTypeLike = np.float64) -> None:
        self.path = os.fspath(path)
        self.num_items = int(num_items)
        self.item_shape = tuple(item_shape)
        self.dtype = np.dtype(dtype)
        self.item_bytes = int(np.prod(self.item_shape)) * self.dtype.itemsize
        self.row_bytes = row_bytes(self.item_shape, self.dtype)
        # The handle intentionally outlives this scope (positioned I/O for
        # the store's whole lifetime); close() / __del__ release it.
        # "r+b" on an existing file: "w+b" would truncate a previous run's
        # spilled vectors to zeros on reattach.
        exists = os.path.exists(self.path)
        self._fh = open(self.path, "r+b" if exists else "w+b",  # noqa: SIM115
                        buffering=0)
        self._fd = self._fh.fileno()
        total = self.num_items * self.item_bytes
        if os.fstat(self._fd).st_size < total:
            self._fh.truncate(total)
        self._closed = False

    @classmethod
    def from_layout(cls, path: "str | os.PathLike[str]", layout: "StorageLayout",
                    dtype: DTypeLike = np.float64) -> "FileBackingStore":
        """Backing sized for a layout's item space; under a site-block
        :class:`~repro.core.layout.StorageLayout` block ``(n, b)`` lives
        at byte offset ``(n·blocks_per_node + b)·w`` with ``w`` the padded
        block width, preserving the paper's dense single-file placement."""
        return cls(path, layout.num_items, layout.item_shape, dtype)

    def _offset(self, item: int) -> int:
        if self._closed:
            raise BackingStoreError("backing store is closed")
        if not 0 <= item < self.num_items:
            raise BackingStoreError(f"item {item} out of range [0, {self.num_items})")
        return item * self.item_bytes

    def _transfer(self, syscall: Callable[[int, list[memoryview], int], int],
                  item: int, view: memoryview, offset: int, kind: str) -> int:
        """Drive a vectored positioned transfer to completion.

        ``view`` is the leading-rows prefix a transfer moves, landing at
        the item's fixed ``offset``. Reads and writes share one loop
        (``os.preadv``/``os.pwritev``)
        with symmetric interruption semantics: ``EINTR`` raised before any
        byte moved is retried, and a zero-byte *write* — a legitimately
        interrupted transfer on some kernels — is retried up to
        :data:`_MAX_ZERO_TRANSFERS` times rather than treated as an error.
        A zero-byte *read* stops the loop: inside the preallocated extent
        it means EOF, which the caller reports as a short read.
        """
        done = 0
        zeros = 0
        while done < view.nbytes:
            try:
                n = syscall(self._fd, [view[done:]], offset + done)
            except InterruptedError:
                continue  # EINTR before any byte moved: retry the call
            if n > 0:
                done += n
                zeros = 0
                continue
            if kind == "read":
                break  # EOF inside the extent; caller raises short-read
            zeros += 1
            if zeros >= _MAX_ZERO_TRANSFERS:
                raise BackingStoreError(
                    f"{kind} for item {item} made no progress after "
                    f"{zeros} attempts: {done}/{view.nbytes} bytes"
                )
        return done

    def _read(self, item: int, out: np.ndarray) -> int:
        nbytes = transfer_bytes(out, self.item_bytes, self.row_bytes)
        offset = self._offset(item)
        done = self._transfer(os.preadv, item, _bytes_of(out), offset, "read")
        if done < nbytes:
            # A zero-byte read inside the preallocated extent is EOF —
            # the file was truncated under us, not a retryable condition.
            raise BackingStoreError(
                f"short read for item {item}: {done}/{nbytes} bytes"
            )
        return nbytes

    def _write(self, item: int, data: np.ndarray) -> int:
        data = write_buffer(data, self.dtype, self.item_bytes, self.row_bytes)
        offset = self._offset(item)
        done = self._transfer(os.pwritev, item, _bytes_of(data), offset,
                              "write")
        if done < data.nbytes:
            raise BackingStoreError(
                f"short write for item {item}: {done}/{data.nbytes} bytes"
            )
        return data.nbytes

    def flush(self) -> None:
        if not self._closed:
            os.fsync(self._fd)

    def close(self) -> None:
        if not self._closed:
            self._fh.close()
            self._closed = True

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        with contextlib.suppress(Exception):
            self.close()


class MultiFileBackingStore(ReportedBackingStore):
    """Vectors striped round-robin across several binary files (§3.2).

    The paper "allows for storing individual vectors in several files" and
    found the single-file/multi-file difference minimal; this class exists
    to reproduce that comparison (see the ablation benchmark). Item ``i``
    lives in stripe ``i % N`` under local id ``i // N``; each stripe is
    the store :meth:`_stripe` builds (a :class:`FileBackingStore` here).
    A transfer is reported once, around the whole striped call; the
    per-stripe child stores keep their own ``obs`` at ``None``. Transfers
    to distinct items are as concurrent as the stripes' own.
    """

    def __init__(self, directory: str | os.PathLike, num_items: int,
                 item_shape: tuple[int, ...], dtype: DTypeLike = np.float64, num_files: int = 4) -> None:
        if num_files < 1:
            raise BackingStoreError(f"need at least 1 file, got {num_files}")
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.num_items = int(num_items)
        self.item_shape = tuple(int(d) for d in item_shape)
        self.dtype = np.dtype(dtype)
        self.item_bytes = int(np.prod(self.item_shape)) * self.dtype.itemsize
        self.row_bytes = row_bytes(self.item_shape, self.dtype)
        self.num_files = int(num_files)
        self._files: list[BackingStore] = []
        try:
            for f in range(self.num_files):
                # A stripe holds at least one item, even an empty one.
                self._files.append(self._stripe(
                    f, max(len(range(f, self.num_items, self.num_files)), 1)))
        except BaseException:
            self.close()
            raise

    def _stripe(self, f: int, num_items: int) -> BackingStore:
        """The store of stripe ``f``, over ``num_items`` local ids."""
        return FileBackingStore(os.path.join(self.directory, f"vectors_{f}.bin"),
                                num_items, self.item_shape, self.dtype)

    @classmethod
    def from_layout(cls, directory: "str | os.PathLike[str]",
                    layout: "StorageLayout", dtype: DTypeLike = np.float64,
                    **options: Any) -> "MultiFileBackingStore":
        """Backing sized for a layout's item space (blocks stripe round-robin)."""
        return cls(directory, layout.num_items, layout.item_shape, dtype,
                   **options)

    def read_price(self, nbytes: int) -> float:
        """A transfer is one stripe's: the stripes' price."""
        return self._files[0].read_price(nbytes)

    def _locate(self, item: int) -> tuple[BackingStore, int]:
        if not 0 <= item < self.num_items:
            raise BackingStoreError(f"item {item} out of range [0, {self.num_items})")
        return self._files[item % self.num_files], item // self.num_files

    def _read(self, item: int, out: np.ndarray) -> int:
        nbytes = transfer_bytes(out, self.item_bytes, self.row_bytes)
        fh, local = self._locate(item)
        fh.read(local, out)
        return nbytes

    def _write(self, item: int, data: np.ndarray) -> int:
        data = write_buffer(data, self.dtype, self.item_bytes, self.row_bytes)
        fh, local = self._locate(item)
        fh.write(local, data)
        return data.nbytes

    def flush(self) -> None:
        """Durability barrier: fsync every stripe file *concurrently*.

        Each stripe is an independent descriptor, so their fsyncs can
        overlap — one thread per stripe instead of a sequential sweep
        whose latency grows linearly with ``num_files``. The call still
        returns only after every stripe is durable, and the first
        failure is re-raised.
        """
        errors: list[BaseException] = []
        err_lock = threading.Lock()

        def _sync(fh: BackingStore) -> None:
            try:
                fh.flush()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                with err_lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=_sync, args=(fh,),
                             name=f"stripe-fsync-{i}", daemon=True)
            for i, fh in enumerate(self._files)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]

    def close(self) -> None:
        for fh in self._files:
            fh.close()


class SimulatedDiskBackingStore(ReportedBackingStore):
    """In-memory data with an explicit disk-time model.

    Every ``read``/``write`` completes instantly (a RAM copy) but charges
    ``DiskModel.transfer_time(nbytes, sequential=True)`` to
    :attr:`simulated_seconds`, where ``nbytes`` is what the call was
    handed: a transfer of an item's ``k`` live rows costs the access
    latency plus ``k`` rows at the bandwidth, not the whole item. The
    Figure-5 benchmark runs the real numpy PLF compute and adds this
    simulated I/O wait, reproducing the paper's out-of-core runtime curve
    without a 32 GB dataset or a 2 GB machine (DESIGN.md substitution 3).

    With ``sleep=True`` each transfer additionally *blocks the calling
    thread* for its modelled duration (``time.sleep``), turning the model
    into a wall-clock-faithful slow device. This is how the async-I/O
    benchmark measures real overlap: background writer/prefetcher threads
    sleep concurrently with likelihood compute, while the synchronous path
    waits out every miss (one transfer time: its write-out sleeps on the
    swap helper beside its read-in) — the model lets transfers proceed
    concurrently, where a single-spindle disk would partly serialise them.
    The latencies reported to ``obs`` are the modelled device's, not the
    RAM copy's. :attr:`simulated_seconds` is device-*busy* time, summed
    over transfers whichever thread made them; the accounting is
    thread-safe.
    """

    def __init__(self, num_items: int, item_shape: tuple[int, ...], dtype: DTypeLike = np.float64,
                 disk: DiskModel | None = None, sleep: bool = False) -> None:
        self._inner = MemoryBackingStore(num_items, item_shape, dtype)
        self.disk = disk if disk is not None else DiskModel.hdd()
        self.simulated_seconds = 0.0
        self.sleep = bool(sleep)
        self.num_items = self._inner.num_items
        self.item_bytes = int(np.prod(item_shape)) * np.dtype(dtype).itemsize
        self._time_lock = threading.Lock()

    @classmethod
    def from_layout(cls, layout: "StorageLayout",
                    dtype: DTypeLike = np.float64,
                    disk: DiskModel | None = None,
                    sleep: bool = False) -> "SimulatedDiskBackingStore":
        """Backing sized for a layout's item space. Note the modelled
        per-transfer cost shrinks with the item: site blocks amortize the
        seek less well than whole vectors, which is exactly the trade-off
        a block-size sweep measures."""
        return cls(layout.num_items, layout.item_shape, dtype,
                   disk=disk, sleep=sleep)

    def read_price(self, nbytes: int) -> float:
        """The modelled device's time for the transfer."""
        return self.disk.transfer_time(nbytes, sequential=True)

    def _charge(self, nbytes: int) -> None:
        cost = self.disk.transfer_time(nbytes, sequential=True)
        with self._time_lock:
            self.simulated_seconds += cost
        if self.sleep:
            time.sleep(cost)

    def _read(self, item: int, out: np.ndarray) -> int:
        self._inner.read(item, out)
        self._charge(out.nbytes)
        return out.nbytes

    def _write(self, item: int, data: np.ndarray) -> int:
        self._inner.write(item, data)
        self._charge(data.nbytes)
        return data.nbytes

    def flush(self) -> None:
        """No physical medium to sync; delegate to the RAM inner store."""
        self._inner.flush()

    def close(self) -> None:
        self._inner.close()


#: kind → (module, class, takes a leading ``path`` argument). The classes
#: outside this module import it, hence names rather than objects.
_BACKINGS: dict[str, tuple[str, str, bool]] = {
    "memory": (__name__, "MemoryBackingStore", False),
    "file": (__name__, "FileBackingStore", True),
    "multifile": (__name__, "MultiFileBackingStore", True),
    "simulated": (__name__, "SimulatedDiskBackingStore", False),
    "compressed": ("repro.core.compress", "CompressedFileBackingStore", True),
    "sharded": ("repro.core.sharded", "ShardedBackingStore", True),
}

#: Every kind :func:`make_backing` builds, in declaration order.
BACKING_KINDS = tuple(_BACKINGS)

#: The kinds that keep their vectors under a ``path`` (a file or directory).
PATH_KINDS = frozenset(kind for kind, (_, _, takes_path) in _BACKINGS.items()
                       if takes_path)


def make_backing(kind: str, num_items: int, item_shape: tuple[int, ...],
                 dtype: DTypeLike = np.float64, /, *,
                 path: "str | os.PathLike[str] | None" = None,
                 **options: Any) -> BackingStore:
    """Instantiate a backing store by kind (one of :data:`BACKING_KINDS`).

    ``path`` is the file (``file``, ``compressed``) or directory
    (``multifile``, ``sharded``) of the kinds that own one, and is ignored
    by the RAM-resident kinds; ``options`` are forwarded to the class
    (``disk=``/``sleep=`` for simulated, ``num_files=`` for multifile,
    ``num_shards=``/``kind=``/... for sharded — the leading parameters are
    positional-only so that the sharded kind's own ``kind=`` passes
    through).
    """
    try:
        module, name, takes_path = _BACKINGS[kind]
    except KeyError:
        raise BackingStoreError(
            f"unknown backing store kind {kind!r}; choose from "
            f"{list(BACKING_KINDS)}") from None
    cls = getattr(importlib.import_module(module), name)
    if not takes_path:
        return cls(num_items, item_shape, dtype, **options)
    if path is None:
        raise BackingStoreError(f"{kind!r} backing needs a path")
    return cls(path, num_items, item_shape, dtype, **options)
