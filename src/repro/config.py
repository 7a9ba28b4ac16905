"""One declared engine configuration: :class:`EngineConfig`.

The paper's design space is one small tuple — slots ``m = f·n``,
replacement strategy, one binary file vs. several, read skipping
(§3.2–3.4), plus the §5 prefetch/write-behind depths. It is declared once,
here: as dataclass fields, as command-line flags (``add_arguments`` /
``from_args``, shared by ``repro`` and ``repro.profile``), as a JSON block
(``to_dict`` / ``from_dict``, recorded verbatim in ``BENCH_profile.json``,
the matrix pin and search checkpoints) and as the parameter list
of the engine constructor: ``LikelihoodEngine(tree, alignment, model,
rates, config, **overrides)`` takes a configuration, field names as
keywords on top of it, or both, and ``engine.config`` is what it was
built from.

Every value is validated here, when the dataclass is made — before a
file or a thread exists — and every rejection is a
:class:`~repro.errors.ReproError`. This module knows nothing of the
engine; the engine imports it.
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.backing import BACKING_KINDS, BackingStore
from repro.core.layout import StorageLayout
from repro.core.policies import ReplacementPolicy, policy_names
from repro.core.vecstore import AncestralVectorStore
from repro.errors import ReproError

#: Replacement strategies selectable by name (Belady needs the future
#: access sequence, so it only exists in offline trace replay).
POLICIES = tuple(p for p in policy_names() if p != "belady")

#: The three spellings of the RAM budget; at most one may be set.
_BUDGETS = ("fraction", "num_slots", "memory_limit")

#: Fields that still apply beside an explicit ``store=`` (every other one
#: describes the store the engine would have built) and the smallest value
#: of each bounded integer field.
_ENGINE_FIELDS = ("dtype", "seed", "prefetch_depth", "batch")
_FLOORS = {"num_slots": 1, "memory_limit": 1, "block_sites": 1, "shards": 1,
           "io_threads": 1, "backing_retries": 0, "writeback_depth": 0,
           "prefetch_depth": 0}


def _opt(default: Any, *flags: str, help: str, **kwargs: Any) -> Any:
    """A field whose metadata is its ``add_argument`` declaration."""
    return dataclasses.field(
        default=default, metadata={"flags": flags, "help": help, **kwargs})


@dataclass(frozen=True)
class EngineConfig:
    """Every engine setting some front end sets, validated once.

    With none of ``fraction`` / ``num_slots`` / ``memory_limit`` every
    vector stays resident (the in-core "standard" configuration). The
    three fields that name a thing — ``layout``, ``policy``, ``backing`` —
    also take the thing itself, which the engine then uses as is.
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
    layout: str | StorageLayout = _opt(
        "whole", "--layout", choices=("whole", "block"),
        help="storage layout: whole vectors (the paper's unit of paging) "
             "or site blocks")
    block_sites: int | None = _opt(
        None, "--block-sites", type=int,
        help="sites per block for --layout block (default: 64)")
    dtype: str = _opt(
        "float64", "--dtype", choices=("float64", "float32"),
        help="floating-point precision of the ancestral vectors")
    policy: str | ReplacementPolicy = _opt("lru", "--policy", choices=POLICIES,
                       help="replacement strategy (paper §3.3)")
    seed: int = _opt(
        42, "--seed", type=int,
        help="random seed (the random replacement strategy; front ends "
             "also seed their starting tree / simulator with it)")
    #: Paper §3.4; no front end exposes a flag, the Fig. 3 bench sets it.
    read_skipping: bool = True
    backing: str | BackingStore = _opt(
        "memory", "--backing", choices=BACKING_KINDS,
        help="backing store for evicted vectors (sharded: items "
             "striped over --shards stores in this process)")
    shards: int = _opt(4, "--shards", type=int,
                       help="stripes of --backing sharded")
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
        if self.batch is None or self.batch == "auto":
            object.__setattr__(self, "batch", 0 if self.batch is None else -1)
        budgets = [b for b in _BUDGETS if getattr(self, b) is not None]
        if len(budgets) > 1:
            raise ReproError(f"{' and '.join(budgets)} are alternative "
                             "spellings of the RAM budget; pass one")
        if self.fraction is not None and not 0.0 < self.fraction <= 1.0:
            raise ReproError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.block_sites is not None and self.layout != "block":
            raise ReproError("block_sites only applies to layout='block'")
        if not isinstance(self.batch, int) or self.batch < -1:
            raise ReproError(
                "batch must be 0/None (groups of one), -1/'auto' or a "
                f"positive group cap, got {self.batch!r}")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            # A field that names a thing also takes the thing itself (a
            # StorageLayout, BackingStore or ReplacementPolicy), used as is.
            choices = f.metadata.get("choices")
            if choices and isinstance(value, str) and value not in choices:
                raise ReproError(f"{f.name} must be one of {list(choices)}, "
                                 f"got {value!r}")
            floor = _FLOORS.get(f.name)
            if floor is not None and value is not None and value < floor:
                raise ReproError(f"{f.name} must be >= {floor}, got {value!r}")

    def override(self, **overrides: Any) -> "EngineConfig":
        """This configuration with ``overrides`` (field names) on top.

        Naming the RAM budget replaces whichever spelling was set: resuming
        a ``num_slots`` run with ``fraction=`` is one keyword, not two.
        """
        unknown = sorted(set(overrides) - {f.name for f in dataclasses.fields(self)})
        if unknown:
            raise ReproError(f"unknown engine option {', '.join(unknown)}: "
                             "EngineConfig declares every one there is")
        if any(b in overrides for b in _BUDGETS):
            overrides = {**dict.fromkeys(_BUDGETS), **overrides}
        return dataclasses.replace(self, **overrides)

    def check_store(self, store: Any) -> None:
        """Reject what an explicit ``store=`` cannot honour: it brings its
        own budget, layout, policy and backing, so a field that would have
        built those must be at its default."""
        for f in dataclasses.fields(self):
            if f.name not in _ENGINE_FIELDS and getattr(self, f.name) != f.default:
                raise ReproError(
                    f"{f.name} configures the store the engine builds; with "
                    "an explicit store, construct it that way yourself")
        if self.prefetch_depth and not isinstance(store, AncestralVectorStore):
            raise ReproError("prefetch_depth needs an AncestralVectorStore "
                             f"(got {type(store).__name__})")

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
        """The JSON block. A thing handed in as itself cannot be written
        down (and results do not depend on it): it records the default."""
        plain = (str, int, float, type(None))
        return {f.name: value if isinstance(value, plain) else f.default
                for f in dataclasses.fields(self)
                for value in [getattr(self, f.name)]}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EngineConfig":
        return cls().override(**data)
