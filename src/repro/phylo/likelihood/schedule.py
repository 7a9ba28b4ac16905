"""The traversal schedule: every (step, block) update and its store accesses.

A :class:`TraversalPlan` fixes the order of ``getxvector`` calls before
any likelihood arithmetic runs (§3.2 pinning, §3.4 read skipping, §5
prefetch all rest on that). This module is the one place that order is
spelled out: :func:`build_batched_schedule` turns a plan plus a
:class:`~repro.core.layout.StorageLayout` into a :class:`BatchedSchedule`
— the plan's (step, block) updates in execution order (steps outer,
blocks inner), each carrying its exact ``(item, pins, write_only)`` store
calls, partitioned into *groups* whose members are mutually independent
(no member reads another member's output).
:meth:`LikelihoodEngine.execute_plan` is a single loop over those groups;
``plan_accesses`` and the prefetcher feed are the schedule's own
:meth:`~BatchedSchedule.accesses`.

The group cap decides how an update is computed, never which store
calls it makes. A group of one member runs in place: children fetched,
target fetched write-only, ``kernels.update_clv`` writes straight into
the store's view (cap 1 — ``batch=None`` — makes every group such a
group). A larger group propagates each child into a shared stack as
it is fetched and then shares one fused product + rescale
(:func:`repro.phylo.likelihood.kernels.combine_and_rescale_batch`),
which pays that part of the Python dispatch once per group rather than
once per site block.
Two properties keep every cap bit-compatible with cap 1 (the §4.1
criterion):

* **Access-sequence identity.** Groups are contiguous runs of the
  execution order, so the flattened access sequence is independent of
  the cap. Replacement decisions — and with them every demand/eviction
  counter — are a deterministic function of that sequence, so
  PARITY_COUNTERS match for every policy. In a fused group, child views
  are propagated into the batch stacks immediately at fetch time, and each
  member's output target is written back out-of-band after the group
  kernel (:meth:`AncestralVectorStore.fill`), so no view ever outlives
  the gets that follow it.
* **Residency-bounded groups.** A member's deferred output must survive
  in RAM (or be spilled and rewritten) until its group's kernel fills
  it. With ``max_members <= num_slots // 3`` a group issues at most
  ``num_slots`` gets, so under LRU every output is still younger than
  any eviction victim when its fill lands — zero spills. That is the
  default cap; a larger explicit cap trades occasional double-writes of
  evicted outputs (uncounted, policy-neutral) for more fusion.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.layout import StorageLayout
from repro.errors import LikelihoodError
from repro.phylo.likelihood.traversal import TraversalPlan


@dataclass(frozen=True)
class BatchMember:
    """One (step, block) update inside a batch group.

    ``fetches`` is the member's store-access run — each inner child
    fetched pinning the other child and the target, then the target
    fetched write-only pinning the children (§3.2; only the
    *same-numbered* block of the other operands is pinned, since block
    ``b`` of a parent touches exactly block ``b`` of its children, so
    the store's ``m >= 3`` floor bounds blocks, not whole vectors).
    ``left_item``/``right_item`` are ``-1`` for tip children (whose
    codes come from RAM, not the store).
    """

    node: int
    left: int
    right: int
    toward: int
    block: int
    lo: int
    hi: int
    out_item: int
    left_item: int
    right_item: int
    first_block: bool
    last_block: bool
    fetches: tuple[tuple[int, tuple[int, ...], bool], ...]

    @property
    def span(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class BatchGroup:
    """A maximal run of mutually independent members.

    Within a group no member's ``out_item`` appears among another
    member's child items (enforced at build time by flushing on
    dependency), and all items are distinct — so child copies taken at
    fetch time stay valid for the whole group and the fused kernel may
    compute members in any order or chunking.
    """

    members: tuple[BatchMember, ...]

    def __len__(self) -> int:
        return len(self.members)

    def accesses(self) -> list[tuple[int, tuple[int, ...], bool]]:
        return [f for m in self.members for f in m.fetches]


@dataclass(frozen=True)
class BatchedSchedule:
    """Ordered groups covering every (step, block) update of a plan."""

    groups: tuple[BatchGroup, ...]
    max_members: int
    num_members: int = field(default=0)

    def accesses(self) -> list[tuple[int, tuple[int, ...], bool]]:
        """The flattened ``(item, pins, write_only)`` sequence, in the
        order :meth:`LikelihoodEngine.execute_plan` issues it."""
        return [f for g in self.groups for f in g.accesses()]


def default_group_cap(num_slots: int) -> int:
    """The largest group size that cannot spill a deferred output.

    A group of ``G`` members issues at most ``3G`` gets; with
    ``3G <= num_slots`` every member's freshly fetched output is more
    recently used than ``num_slots - 1`` other items when the group
    ends, so an LRU store never evicts it before its fill (see module
    docstring). Other policies may still spill — the fill path handles
    that correctly, it is merely extra backing traffic.
    """
    return max(1, int(num_slots) // 3)


def build_batched_schedule(
    plan: TraversalPlan,
    layout: StorageLayout,
    num_tips: int,
    max_members: int,
) -> BatchedSchedule:
    """Partition a plan's (step, block) updates into batch groups.

    Iterates in execution order — steps outer, blocks inner — and
    closes the current group whenever (a) the next step reads a node
    some member of the group writes, or (b) the group is full.
    Post-order plans guarantee children precede parents, so rule (a)
    only ever fires at step boundaries and groups are contiguous runs of
    that order: the concatenated access sequence is the same for every
    ``max_members``.
    """
    if max_members < 1:
        raise LikelihoodError(f"max_members must be >= 1, got {max_members}")

    def item(node: int) -> int:
        return node - num_tips

    blocks = layout.blocks_per_node
    groups: list[BatchGroup] = []
    current: list[BatchMember] = []
    written: set[int] = set()  # nodes written by members of ``current``
    total = 0

    def flush() -> None:
        if current:
            groups.append(BatchGroup(tuple(current)))
            current.clear()
            written.clear()

    for step in plan.steps:
        node, left, right = step.node, step.left, step.right
        left_inner = left >= num_tips
        right_inner = right >= num_tips
        if left in written or right in written:
            flush()
        for b in range(blocks):
            if len(current) >= max_members:
                flush()
            lo, hi = layout.block_bounds(b)
            fetches: list[tuple[int, tuple[int, ...], bool]] = []
            l_item = r_item = -1
            if left_inner:
                l_item = layout.item_of(item(left), b)
                pins = ((layout.item_of(item(right), b),) if right_inner
                        else ()) + (layout.item_of(item(node), b),)
                fetches.append((l_item, pins, False))
            if right_inner:
                r_item = layout.item_of(item(right), b)
                pins = ((layout.item_of(item(left), b),) if left_inner
                        else ()) + (layout.item_of(item(node), b),)
                fetches.append((r_item, pins, False))
            out_item = layout.item_of(item(node), b)
            out_pins = tuple(layout.item_of(item(x), b)
                             for x in (left, right) if x >= num_tips)
            fetches.append((out_item, out_pins, True))
            current.append(BatchMember(
                node=node, left=left, right=right, toward=step.toward,
                block=b, lo=lo, hi=hi,
                out_item=out_item, left_item=l_item, right_item=r_item,
                first_block=(b == 0), last_block=(b == blocks - 1),
                fetches=tuple(fetches),
            ))
            written.add(node)
            total += 1
    flush()
    return BatchedSchedule(groups=tuple(groups), max_members=max_members,
                           num_members=total)


class ScheduleCache:
    """A small LRU of built schedules, keyed by plan identity.

    Full traversals re-plan the identical step sequence every iteration;
    rebuilding items, pins and group boundaries each time would charge
    every traversal the very Python overhead batching exists to remove. Keys
    are the plan's frozen contents (hashable dataclasses), so topology
    edits — which change the step tuples — miss naturally. Branch
    lengths are *not* part of the schedule (transition matrices are
    fetched at execution time), so length-only edits may reuse a cached
    schedule safely.
    """

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise LikelihoodError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._cache: OrderedDict[tuple, BatchedSchedule] = OrderedDict()

    def get(self, plan: TraversalPlan, layout: StorageLayout,
            num_tips: int, max_members: int) -> BatchedSchedule:
        key = (plan.root_u, plan.root_v, plan.steps, max_members)
        found = self._cache.get(key)
        if found is not None:
            self._cache.move_to_end(key)
            return found
        built = build_batched_schedule(plan, layout, num_tips, max_members)
        self._cache[key] = built
        if len(self._cache) > self.capacity:
            self._cache.popitem(last=False)
        return built
