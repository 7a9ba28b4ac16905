"""Out-of-core ancestral-probability-vector machinery — the paper's contribution.

The central class is :class:`~repro.core.vecstore.AncestralVectorStore`,
the Python equivalent of the paper's ``map``/``nodemap`` bookkeeping
structures (§3.2): ``n`` logical vectors live either in one of ``m < n``
RAM *slots* or in a backing store (a single binary file in the paper), and
every access goes through :meth:`~repro.core.vecstore.AncestralVectorStore.get`
— the paper's ``getxvector()`` — which transparently swaps vectors, honours
pinned slots, applies a pluggable replacement strategy (§3.3) and the
read-skipping optimization (§3.4), and counts every hit, miss, read and
write for the evaluation (§4).
"""

from repro.core.backing import (
    BACKING_KINDS,
    AsyncBackingStore,
    BackingStore,
    FileBackingStore,
    IoTicket,
    MemoryBackingStore,
    MultiFileBackingStore,
    SimulatedDiskBackingStore,
    make_backing,
)
from repro.core.compress import (
    Codec,
    CompressedFileBackingStore,
    NullCodec,
    ZlibCodec,
    make_codec,
)
from repro.core.faults import (
    FaultInjectingBackingStore,
    InjectedFault,
    RetryingBackingStore,
    SimulatedCrash,
)
from repro.core.layout import (
    DEFAULT_BLOCK_SITES,
    ConcatenatedLayout,
    PartitionLayoutView,
    SharedStoreView,
    SiteBlockLayout,
    StorageLayout,
    WholeVectorLayout,
    make_layout,
    shard_items,
    shard_of,
)
from repro.core.sharded import ShardedBackingStore, ShardTicket
from repro.core.policies import (
    BeladyPolicy,
    FifoPolicy,
    LfuPolicy,
    LruPolicy,
    RandomPolicy,
    ReplacementPolicy,
    TopologicalPolicy,
    make_policy,
)
from repro.core.shadow import ShadowStore, TeeStore
from repro.core.stats import IoStats
from repro.core.trace import AccessTrace, TraceEvent, simulate_policy_on_trace
from repro.core.vecstore import AncestralVectorStore

__all__ = [
    "AncestralVectorStore",
    "BackingStore",
    "AsyncBackingStore",
    "IoTicket",
    "StorageLayout",
    "WholeVectorLayout",
    "SiteBlockLayout",
    "ConcatenatedLayout",
    "PartitionLayoutView",
    "SharedStoreView",
    "make_layout",
    "shard_of",
    "shard_items",
    "DEFAULT_BLOCK_SITES",
    "ShardedBackingStore",
    "ShardTicket",
    "MemoryBackingStore",
    "FileBackingStore",
    "MultiFileBackingStore",
    "SimulatedDiskBackingStore",
    "BACKING_KINDS",
    "make_backing",
    "CompressedFileBackingStore",
    "Codec",
    "ZlibCodec",
    "NullCodec",
    "make_codec",
    "FaultInjectingBackingStore",
    "RetryingBackingStore",
    "InjectedFault",
    "SimulatedCrash",
    "ReplacementPolicy",
    "RandomPolicy",
    "LruPolicy",
    "LfuPolicy",
    "FifoPolicy",
    "TopologicalPolicy",
    "BeladyPolicy",
    "make_policy",
    "IoStats",
    "ShadowStore",
    "TeeStore",
    "AccessTrace",
    "TraceEvent",
    "simulate_policy_on_trace",
]
