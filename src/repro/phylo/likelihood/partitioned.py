"""Partitioned likelihood: one tree, several genes, per-partition models.

Genome-scale analyses — exactly the workloads whose memory footprint
motivates the paper — are usually *partitioned*: different genes (alignment
slices) evolve under different substitution models and Γ shapes, while
sharing one topology and one set of branch lengths. The total
log-likelihood is the sum over partitions.
"""

from __future__ import annotations

from repro.core.stats import IoStats
from repro.errors import LikelihoodError
from repro.phylo.likelihood.engine import LikelihoodEngine
from repro.phylo.likelihood.evaluator import Evaluator
from repro.phylo.msa import Alignment


def split_alignment(alignment: Alignment, boundaries: list[int]) -> list[Alignment]:
    """Slice an alignment into partitions at site ``boundaries``.

    ``boundaries`` are the start sites of each partition after the first,
    e.g. ``[300, 800]`` splits 1000 sites into ``[0:300)``, ``[300:800)``,
    ``[800:1000)``.
    """
    cuts = [0, *boundaries, alignment.num_sites]
    if sorted(cuts) != cuts or len(set(cuts)) != len(cuts):
        raise LikelihoodError(f"boundaries must be increasing within "
                              f"(0, {alignment.num_sites}): {boundaries}")
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        out.append(Alignment(alignment.names,
                             alignment.codes[:, lo:hi],
                             alignment.alphabet))
    return out


#: Engine keywords whose value may be an object one engine owns and
#: mutates: such an object must not reach two partition engines.
_OWNED = ("store", "backing", "policy")


def _per_partition(store_kwargs, count: int) -> list[dict]:
    """One keyword dict per partition, each owned object in exactly one."""
    if not isinstance(store_kwargs, list):
        store_kwargs = [store_kwargs or {}] * count
    if len(store_kwargs) != count:
        raise LikelihoodError(f"{len(store_kwargs)} store configs "
                              f"for {count} partitions")
    owner: dict[int, int] = {}
    for k, kwargs in enumerate(store_kwargs):
        config = kwargs.get("config")
        for key in _OWNED:
            value = kwargs.get(key, getattr(config, key, None))
            if value is None or isinstance(value, str):
                continue
            first = owner.setdefault(id(value), k)
            if first != k:
                raise LikelihoodError(
                    f"partitions {first} and {k} get the same {key} object; "
                    "each partition engine needs its own (pass a list of "
                    "dicts, one per partition)")
    return store_kwargs


class PartitionedEngine(Evaluator):
    """Joint likelihood over partitions sharing one tree + branch lengths.

    Evaluation, moves and branch optimization are the
    :class:`~repro.phylo.likelihood.evaluator.Evaluator`'s, over one
    :class:`~repro.phylo.likelihood.engine.LikelihoodEngine` per partition
    (``engines``), all holding the same ``tree`` object; this class only
    builds them and reports on them.

    Parameters
    ----------
    tree:
        The shared topology (every partition engine gets this same object,
        so an edit made once is seen by all).
    partitions:
        ``(alignment, model, rates)`` triples.
    store_kwargs:
        The :class:`~repro.phylo.likelihood.engine.LikelihoodEngine`
        keywords of each partition's engine (``fraction=...``,
        ``policy=...``, any :class:`~repro.config.EngineConfig` field) —
        one dict applied to all, or a list with one dict per partition.
        Each partition keeps its own store, slot budget, policy and
        backing: the paper's single-matrix design, partition-wise. A
        ``store``, ``backing`` or ``policy`` *object* (given directly or
        inside a ``config``) is one engine's, so the same one reaching two
        partitions is a :class:`~repro.errors.LikelihoodError`; names such
        as ``"lru"`` and every other value are shared freely.
    """

    def __init__(self, tree, partitions, store_kwargs=None) -> None:
        if not partitions:
            raise LikelihoodError("need at least one partition")
        store_kwargs = _per_partition(store_kwargs, len(partitions))
        super().__init__(tree)
        self.engines: list[LikelihoodEngine] = []
        try:
            for (alignment, model, rates), kwargs in zip(partitions,
                                                         store_kwargs):
                self.engines.append(
                    LikelihoodEngine(tree, alignment, model, rates, **kwargs))
        except BaseException:
            # A later partition failed: what the earlier ones already own
            # (writer threads, backing files) goes too.
            self.close()
            raise

    def _parts(self) -> list[LikelihoodEngine]:
        return self.engines

    def total_ancestral_bytes(self) -> int:
        return sum(e.total_ancestral_bytes() for e in self.engines)

    @property
    def partition_stats(self) -> list[IoStats]:
        """Per-partition I/O statistics: each partition store's counters."""
        return [e.stats for e in self.engines]

    def stats(self) -> IoStats:
        """Aggregated I/O statistics, reported like a single-engine run:
        the element-wise sum of the per-partition blocks."""
        return IoStats.merged(self.partition_stats)

    def close(self) -> None:
        """Close every partition engine."""
        for e in self.engines:
            e.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        slots = sum(getattr(e.store, "num_slots", 0) for e in self.engines)
        patterns = sum(e.num_patterns for e in self.engines)
        return (f"PartitionedEngine({len(self.engines)} partitions, "
                f"{self.tree.num_tips} taxa, {patterns} patterns, "
                f"per-partition stores: {slots} slots total)")
