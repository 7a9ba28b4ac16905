"""I/O accounting for the out-of-core vector store.

The paper's evaluation (§4.1–4.2) reports two ratios per run:

* **miss rate** — vector requests not already resident in RAM, over all
  requests (Figs. 2 and 4);
* **read rate** — requests that caused a *demand read*, over all
  requests; lower than the miss rate when read skipping (§3.4) elides
  reads of write-only vectors (Fig. 3).

Counter semantics (demand vs. prefetch vs. write-behind)
--------------------------------------------------------
The **demand counters** (``requests``/``hits``/``misses``/``reads``/
``read_skips``/``writes``/``write_skips``/``write_drops``/``bytes_read``/
``bytes_written``)
describe the *demand access stream as if prefetching and write-behind were
transparent*: they are functions of the access trace and the replacement
policy alone, so the Fig. 2–4 metrics stay comparable whether or not the
asynchronous I/O pipeline is enabled. Concretely:

* a demand request that lands on a slot filled ahead of time by a
  prefetcher counts as a **miss** and a **read** (that is exactly what it
  would have been without prefetch) and additionally as a
  ``prefetch_hits`` event; if that first touch is *write-only* under read
  skipping, it counts as a **miss** and a **read skip** instead, and the
  prefetched bytes are charged to ``prefetch_unused``;
* an eviction that stages its victim into the write-behind queue counts as
  a **write** at eviction time (that is when the synchronous path would
  have written); the physical drain is counted under ``writeback_writes``;
* every eviction is exactly one of ``writes``, ``write_skips`` (a clean
  victim) and ``write_drops`` (a dirty victim whose backing copy is left
  stale, see ``AncestralVectorStore``'s "Write only what a read wants").

The **prefetch counters** (``prefetch_*``) and **write-behind counters**
(``writeback_*``) record the physical asynchronous traffic:

* ``prefetch_reads``/``prefetch_bytes`` — loads issued ahead of demand;
* ``prefetch_hits`` — demand requests satisfied by a prefetched slot;
* ``prefetch_unused`` — prefetched vectors whose bytes were never
  consumed: evicted before any demand touch, or first touched by a
  write-only request (wasted prefetch I/O either way);
* ``writeback_writes``/``writeback_bytes`` — victims physically drained
  to the backing store by the writer thread(s); lower than ``writes``
  when re-evictions coalesce in the staging buffer;
* ``writeback_stalls`` — evictions that blocked on a full staging buffer
  (back-pressure events);
* ``writeback_read_hits`` — reads (demand or prefetch) served from the
  staging buffer instead of the backing store (read-your-writes).

:class:`IoStats` tracks these plus byte counts and swap counts and
pretty-prints as a table row.

Thread-safety: each counter has a single writer — the demand counters are
only touched by the compute thread, ``prefetch_*`` only by the prefetch
machinery and ``writeback_*`` only under the write-behind queue's lock —
so no additional synchronisation is required.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

#: Thread-ownership buckets, the first argument of :func:`_counter`.
#: ``demand`` counters move only on the compute thread's ``get()`` path —
#: they describe the access trace as if the async pipeline were transparent,
#: so code on the writer/prefetch thread paths must never mutate one
#: (``python -m repro.analysis`` rule CNT003). ``eviction`` counters are
#: charged when a victim leaves RAM, on whichever thread allocates the slot
#: (compute *or* prefetch), always under the store lock. ``prefetch`` and
#: ``writeback`` are the physical asynchronous traffic, moved by the
#: prefetch machinery and under the staging queue's lock respectively.
OWNERS = ("demand", "eviction", "prefetch", "writeback")


def _counter(owner: str, help: str) -> Any:
    """A counter field whose metadata is its declaration.

    This one line is all a new counter needs: ``reset()``, ``_counters()``,
    the ownership sets below and the counter's row in the metrics
    catalogue (``help`` is its ``# HELP`` text) derive from it.
    """
    return field(default=0, metadata={"owner": owner, "help": help})


@dataclass
class IoStats:
    """Mutable counter block for one :class:`AncestralVectorStore`."""

    requests: int = _counter("demand", "Demand get() calls on the vector store")
    hits: int = _counter("demand", "Requests satisfied from a resident slot")
    misses: int = _counter("demand", "Requests that required a slot placement")
    reads: int = _counter("demand", "Demand-charged vector reads")
    read_skips: int = _counter(
        "demand", "Reads elided by the write-only rule (§3.4)")
    writes: int = _counter(
        "eviction", "Demand write-backs at eviction/flush time")
    write_skips: int = _counter(
        "eviction", "Write-backs elided by clean-eviction tracking")
    write_drops: int = _counter(
        "eviction", "Dirty victims dropped unwritten: no running operation "
        "reads them and recomputing them is priced below the write")
    bytes_read: int = _counter(
        "demand", "Bytes demand-read from the backing store")
    bytes_written: int = _counter(
        "eviction", "Bytes written toward the backing store")
    prefetch_reads: int = _counter(
        "prefetch", "Physical reads issued ahead of demand")
    prefetch_bytes: int = _counter(
        "prefetch", "Bytes physically read ahead of demand")
    prefetch_hits: int = _counter(
        "prefetch", "Demand requests served by a prefetched slot")
    prefetch_unused: int = _counter(
        "prefetch", "Prefetched vectors never consumed")
    writeback_writes: int = _counter(
        "writeback", "Victims drained by the writer thread(s)")
    writeback_bytes: int = _counter(
        "writeback", "Bytes drained by the writer thread(s)")
    writeback_stalls: int = _counter(
        "writeback", "Evictions blocked on a full staging buffer")
    writeback_read_hits: int = _counter(
        "writeback", "Reads served from the staging buffer")
    #: Set by :class:`~repro.core.writebehind.WriteBehindQueue` on
    #: construction. A flag rather than a counter: :attr:`physical_writes`
    #: must report the drained count for *any* write-behind run — including
    #: one whose drains fully coalesced to zero or have not happened yet —
    #: so it cannot be inferred from ``writeback_writes`` being non-zero.
    writeback_enabled: bool = False

    # -- derived rates (paper's metrics) ----------------------------------------

    @property
    def miss_rate(self) -> float:
        """Fraction of vector requests that missed RAM (Fig. 2/4 metric)."""
        return self.misses / self.requests if self.requests else 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def read_rate(self) -> float:
        """Fraction of requests that caused a *demand* read (Fig. 3 metric).

        Equals :attr:`miss_rate` when read skipping is disabled (§3.4).
        Independent of whether a prefetcher moved the physical read ahead
        of the request (see the module docstring).
        """
        return self.reads / self.requests if self.requests else 0.0

    @property
    def swaps(self) -> int:
        """Total vector I/O operations (reads + writes), §3.4's target metric."""
        return self.reads + self.writes

    @property
    def io_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def physical_reads(self) -> int:
        """Reads that actually hit the backing store.

        Demand reads minus those satisfied by a prefetched slot or the
        write-behind staging buffer, plus the prefetcher's own reads.
        """
        return (self.reads - self.prefetch_hits + self.prefetch_reads
                - self.writeback_read_hits)

    @property
    def physical_writes(self) -> int:
        """Writes that actually hit the backing store.

        Equals :attr:`writes` on the synchronous path; with write-behind it
        is the drained count (coalescing can make it smaller — possibly all
        the way to zero, which is why this keys on :attr:`writeback_enabled`
        rather than on the drain counter being truthy).
        """
        return self.writeback_writes if self.writeback_enabled else self.writes

    # -- lifecycle ------------------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter; ``writeback_enabled`` is kept."""
        for name in _DECLARED:
            setattr(self, name, 0)

    @staticmethod
    def merged(blocks: "list[IoStats] | tuple[IoStats, ...]") -> "IoStats":
        """Element-wise sum of several stats blocks as a new block.

        Used by :class:`~repro.phylo.likelihood.partitioned.PartitionedEngine`
        to aggregate per-partition traffic; derived rates (miss/read rate)
        then weight each partition by its request volume, exactly as a
        single store serving the union of the traces would.
        """
        out = IoStats()
        for block in blocks:
            for key, value in block._counters().items():
                setattr(out, key, getattr(out, key) + value)
            out.writeback_enabled = out.writeback_enabled or block.writeback_enabled
        return out

    def _counters(self) -> dict:
        return {name: getattr(self, name) for name in _DECLARED}

    def as_row(self) -> dict:
        """Flat dict (counters + rates) for report tables."""
        row = self._counters()
        row["miss_rate"] = self.miss_rate
        row["read_rate"] = self.read_rate
        row["swaps"] = self.swaps
        return row

    def __str__(self) -> str:
        return (
            f"requests={self.requests} miss_rate={self.miss_rate:.4f} "
            f"read_rate={self.read_rate:.4f} reads={self.reads} writes={self.writes} "
            f"skipped_reads={self.read_skips}"
        )


#: Counter name -> field metadata, in declaration order: every ``int``
#: field is a counter, and one declared without :func:`_counter` or with
#: an owner outside :data:`OWNERS` fails the import.
_DECLARED = {f.name: f.metadata for f in fields(IoStats) if f.type == "int"}
for _name, _meta in _DECLARED.items():
    if _meta.get("owner") not in OWNERS:
        raise TypeError(f"IoStats.{_name}: counter owner is "
                        f"{_meta.get('owner')!r}, expected one of {OWNERS}")

#: Counter name -> help text: the rows :mod:`repro.obs.metrics` mirrors
#: one-to-one.
COUNTER_HELP: dict[str, str] = {n: m["help"] for n, m in _DECLARED.items()}


def _owned_by(*owners: str) -> tuple[str, ...]:
    return tuple(n for n, m in _DECLARED.items() if m["owner"] in owners)


DEMAND_COUNTERS = frozenset(_owned_by("demand"))
EVICTION_COUNTERS = frozenset(_owned_by("eviction"))
PREFETCH_COUNTERS = frozenset(_owned_by("prefetch"))
WRITEBACK_COUNTERS = frozenset(_owned_by("writeback"))

#: The counters the §4 evaluation metrics are computed from — the demand
#: trace and the eviction stream, in declaration order. A traced, striped,
#: batched or fault-injected run must reproduce them exactly, and every
#: result document carries them.
PARITY_COUNTERS = _owned_by("demand", "eviction")
