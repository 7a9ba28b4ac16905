"""One declared engine configuration: :class:`EngineConfig`.

The paper's design space is one small tuple — slots ``m = f·n``,
replacement strategy, one binary file vs. several, read skipping
(§3.2–3.4), plus the §5 prefetch/write-behind depths. It is declared once,
here: as dataclass fields, as command-line flags (``add_arguments`` /
``from_args``, shared by ``repro`` and ``repro.profile``), as a JSON block
(``to_dict`` / ``from_dict``, recorded verbatim in ``BENCH_profile.json``,
``BENCH_results.json`` and search checkpoints) and as the construction
path geometry → layout → backing → engine (``build``).

The dataclass is a *caller* of the engine constructor, not a second way
into it: ``track_dirty``, ``poison_skipped_reads``, free-form
``policy_kwargs`` and explicit ``store=`` objects stay constructor-only.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.backing import BACKING_KINDS, BackingStore, make_backing
from repro.core.faults import RetryingBackingStore
from repro.core.layout import make_layout
from repro.core.policies import policy_names
from repro.errors import ReproError
from repro.phylo.likelihood.engine import LikelihoodEngine, clv_geometry
from repro.phylo.models.base import ReversibleModel
from repro.phylo.models.rates import RateModel
from repro.phylo.msa import Alignment
from repro.phylo.tree import Tree

#: Replacement strategies selectable by name (Belady needs the future
#: access sequence, so it only exists in offline trace replay).
POLICIES = tuple(p for p in policy_names() if p != "belady")

#: The three spellings of the RAM budget; at most one may be set.
_BUDGETS = ("fraction", "num_slots", "memory_limit")


def _opt(default: Any, *flags: str, help: str, **kwargs: Any) -> Any:
    """A field whose metadata is its ``add_argument`` declaration."""
    return dataclasses.field(
        default=default, metadata={"flags": flags, "help": help, **kwargs})


@dataclass(frozen=True)
class EngineConfig:
    """Every engine setting some front end sets, validated once.

    With none of ``fraction`` / ``num_slots`` / ``memory_limit`` every
    vector stays resident (the in-core "standard" configuration).
    """

    fraction: float | None = _opt(
        None, "--fraction", type=float,
        help="fraction f of vectors held in RAM (paper §3.2)")
    num_slots: int | None = _opt(
        None, "--num-slots", type=int,
        help="absolute RAM slot count (with --layout block this can be "
             "smaller than one whole vector's worth of blocks)")
    memory_limit: int | None = _opt(
        None, "-L", "--memory-limit", type=int,
        help="max bytes of RAM for ancestral probability vectors (the "
             "paper's -L flag)")
    layout: str = _opt(
        "whole", "--layout", choices=("whole", "block"),
        help="storage layout: whole vectors (the paper's unit of paging) "
             "or site blocks")
    block_sites: int | None = _opt(
        None, "--block-sites", type=int,
        help="sites per block for --layout block (default: 64)")
    dtype: str = _opt(
        "float64", "--dtype", choices=("float64", "float32"),
        help="floating-point precision of the ancestral vectors")
    policy: str = _opt("lru", "--policy", choices=POLICIES,
                       help="replacement strategy (paper §3.3)")
    seed: int = _opt(
        42, "--seed", type=int,
        help="random seed (the random replacement strategy; front ends "
             "also seed their starting tree / simulator with it)")
    #: Paper §3.4; no front end exposes a flag, the Fig. 3 bench sets it.
    read_skipping: bool = True
    backing: str = _opt(
        "memory", "--backing", choices=BACKING_KINDS,
        help="backing store for evicted vectors (sharded: items "
             "hash-routed across worker processes)")
    shards: int = _opt(4, "--shards", type=int,
                       help="worker processes for --backing sharded")
    backing_retries: int = _opt(
        0, "--backing-retries", type=int,
        help="wrap the backing in a RetryingBackingStore with this retry "
             "budget (0 = no wrapper)")
    writeback_depth: int = _opt(
        0, "--writeback-depth", type=int,
        help="staging-buffer depth for asynchronous eviction write-behind "
             "(0 = synchronous writes, paper §3.2)")
    io_threads: int = _opt(
        1, "--io-threads", type=int,
        help="background I/O threads per direction (write-behind writers "
             "and prefetch workers)")
    prefetch_depth: int = _opt(
        0, "--prefetch-depth", type=int,
        help="look-ahead window of the prefetch workers, in store accesses "
             "(a pruning step is three; 0 = no prefetching, paper §5)")
    batch: int = _opt(
        0, "--batch", type=int,
        help="group cap of the traversal schedule: 0 = groups of one, "
             "executed in place, -1 = auto cap (num_slots // 3, never "
             "spills under LRU), N > 0 = explicit members-per-group cap")

    def __post_init__(self) -> None:
        object.__setattr__(self, "dtype", np.dtype(self.dtype).name)
        budgets = [b for b in _BUDGETS if getattr(self, b) is not None]
        if len(budgets) > 1:
            raise ReproError(f"{' and '.join(budgets)} are alternative "
                             "spellings of the RAM budget; pass one")
        if self.block_sites is not None and self.layout != "block":
            raise ReproError("block_sites only applies to layout='block'")
        for f in dataclasses.fields(self):
            choices = f.metadata.get("choices")
            if choices and getattr(self, f.name) not in choices:
                raise ReproError(f"{f.name} must be one of {list(choices)}, "
                                 f"got {getattr(self, f.name)!r}")

    @classmethod
    def add_arguments(cls, parser: argparse.ArgumentParser) -> None:
        """Declare every engine flag on ``parser`` (defaults = the fields')."""
        group = parser.add_argument_group("engine options")
        # argparse rejects two *explicit* budget flags; a parser-level
        # default on one of them (repro.profile's --fraction 0.25) does not
        # count as given, see from_args.
        budget = group.add_mutually_exclusive_group()
        for f in dataclasses.fields(cls):
            if f.metadata:
                meta = dict(f.metadata)
                if f.default is not None:
                    meta["help"] += " (default: %(default)s)"
                (budget if f.name in _BUDGETS else group).add_argument(
                    *meta.pop("flags"), dest=f.name, default=f.default, **meta)

    @classmethod
    def from_args(cls, ns: argparse.Namespace) -> "EngineConfig":
        """The configuration a namespace parsed via :meth:`add_arguments` names."""
        values = {f.name: getattr(ns, f.name)
                  for f in dataclasses.fields(cls) if f.metadata}
        if values["num_slots"] is not None or values["memory_limit"] is not None:
            # Only a parser default can sit next to an explicit budget flag
            # (the group is mutually exclusive): the explicit one wins.
            values["fraction"] = None
        return cls(**values)

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EngineConfig":
        try:
            return cls(**data)
        except TypeError as exc:  # a key that is not a field
            raise ReproError(f"not an engine configuration: {exc}") from None

    def build(self, tree: Tree, alignment: Alignment, model: ReversibleModel,
              rates: RateModel, workdir: "str | os.PathLike[str] | None" = None,
              backing: BackingStore | None = None) -> LikelihoodEngine:
        """Geometry → layout → backing → engine, on ``tree`` itself.

        ``workdir`` is where a path-owning backing kind puts its scratch
        files (the caller owns the directory's lifetime). A ready-made
        ``backing`` replaces the one ``self.backing`` names — for stores no
        kind name describes, e.g. shard workers over a sleeping disk model.
        """
        dtype = np.dtype(self.dtype)
        layout = make_layout(self.layout,
                             *clv_geometry(tree, alignment, model, rates),
                             block_sites=self.block_sites)
        num_slots = self.num_slots
        if self.memory_limit is not None:
            # The store clamps to [MIN_SLOTS, num_items] like any slot count.
            item_bytes = int(np.prod(layout.item_shape)) * dtype.itemsize
            num_slots = self.memory_limit // item_bytes
        if backing is None:
            path = (None if workdir is None
                    else os.path.join(workdir, f"vectors.{self.backing}"))
            backing = make_backing(
                self.backing, layout.num_items, layout.item_shape, dtype,
                path=path, **({"num_shards": self.shards}
                              if self.backing == "sharded" else {}))
        if self.backing_retries > 0:
            backing = RetryingBackingStore(backing,
                                           retries=self.backing_retries)
        try:
            engine = LikelihoodEngine(
                tree, alignment, model, rates, dtype=dtype, layout=layout,
                fraction=self.fraction, num_slots=num_slots,
                policy=self.policy,
                policy_kwargs=({"seed": self.seed}
                               if self.policy == "random" else None),
                backing=backing, read_skipping=self.read_skipping,
                writeback_depth=self.writeback_depth,
                io_threads=self.io_threads,
                prefetch_depth=self.prefetch_depth, batch=self.batch)
        except BaseException:
            backing.close()
            raise
        engine.config = self
        return engine
