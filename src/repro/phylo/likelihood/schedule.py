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
:meth:`Executor.execute_plan` is a single loop over those groups;
``plan_accesses`` and the prefetcher feed are the schedule's own
:meth:`~BatchedSchedule.accesses`.

The group cap decides how an update is computed, never which store
calls it makes. A group's calls are one
:meth:`~repro.core.vecstore.AncestralVectorStore.get_many`: the same
gets in order, their bookkeeping in one hold of the store lock. A group
of one member runs in place: children fetched, target fetched
write-only, ``kernels.update_clv`` writes straight into the store's view
(cap 1 — ``batch=None`` — makes every group such a group). A larger
group propagates each child from its view into a shared stack and then
shares one fused product + rescale
(:func:`repro.phylo.likelihood.kernels.combine_and_rescale_batch`),
whose results are copied into the targets' views; that pays that part
of the Python dispatch once per group rather than once per site block.
Two properties keep every cap bit-compatible with cap 1 (the §4.1
criterion):

* **Access-sequence identity.** Groups are contiguous runs of the
  execution order, so the flattened access sequence is independent of
  the cap. Replacement decisions — and with them every demand/eviction
  counter — are a deterministic function of that sequence, so
  PARITY_COUNTERS match for every policy.
* **Residency-bounded groups.** Every view ``get_many`` lends stays
  valid until the next demand call — unless a later access of the same
  run evicts its item: a read child then comes back as a private copy
  of its bytes, a write-only target as ``None``, whose result lands
  through :meth:`AncestralVectorStore.fill` (an uncounted backing
  write). With ``max_members <= num_slots // 3`` a group issues at most
  ``num_slots`` gets, so under LRU nothing it lent is evicted before
  the run ends — zero spills. That is the default cap; a larger explicit
  cap (or another policy) trades occasional spills for more fusion.
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
    codes come from RAM, not the store). A *ghost* member (its node in
    the plan's ``ghost``) computes into executor scratch: it has no target
    access, and neither it nor its consumer fetches or pins the ghost's
    item, so ``fetches`` holds only store-resident operands.
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
    last_block: bool
    fetches: tuple[tuple[int, tuple[int, ...], bool], ...]
    ghost: bool = False

    def writing(self, rows: int) -> tuple[tuple, ...]:
        """``fetches`` with the target's write access declaring the
        ``rows`` live rows it leaves (its block's class count), the run
        execution issues once the member's classes are looked up."""
        if self.ghost:
            return self.fetches
        item, pins, write_only = self.fetches[-1]
        return (*self.fetches[:-1], (item, pins, write_only, rows))


@dataclass(frozen=True)
class BatchGroup:
    """A maximal run of mutually independent members.

    Within a group no member's ``out_item`` appears among another
    member's child items (enforced at build time by flushing on
    dependency), and all items are distinct — so the children's views
    the group's ``get_many`` lends hold their inputs for the whole group
    and the fused kernel may compute members in any order or chunking.
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
    """The largest group size whose ``get_many`` cannot spill under LRU.

    A group of ``G`` members issues at most ``3G`` gets; with
    ``3G <= num_slots`` every item the run lends is more recently used
    than ``num_slots - 1`` others until the run ends, so an LRU store
    never evicts it within the call and every view is a slot (see the
    module docstring). Other policies may still spill — a private copy
    or a ``fill``, correct either way, merely extra copying and backing
    traffic.
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
    some member of the group writes, or (b) the group is full; (c) a
    member of a recomputed valid node (the plan's ``refresh`` or
    ``ghost``) is a group of its own. Post-order plans guarantee
    children precede parents, so rules (a) and (c) only ever fire at step
    boundaries and groups are contiguous runs of that order: the
    concatenated access sequence is the same for every ``max_members``.
    Rule (c) keeps the rest of it so too: a ghost runs in place, and a
    refreshed node's ``mark_clean`` follows its own update whatever the
    cap, so no later access of a shared group can evict it dirty first.
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

    ghost = plan.ghost
    for step in plan.steps:
        node, left, right = step.node, step.left, step.right
        is_ghost = node in ghost
        alone = is_ghost or node in plan.refresh
        # The operands that are store items: inner and not a ghost.
        left_stored = left >= num_tips and left not in ghost
        right_stored = right >= num_tips and right not in ghost
        if left in written or right in written or alone:
            flush()
        for b in range(blocks):
            if len(current) >= max_members:
                flush()
            lo, hi = layout.block_bounds(b)
            fetches: list[tuple[int, tuple[int, ...], bool]] = []
            l_item = layout.item_of(item(left), b) if left >= num_tips else -1
            r_item = layout.item_of(item(right), b) if right >= num_tips else -1
            out_item = layout.item_of(item(node), b)
            target = () if is_ghost else (out_item,)
            if left_stored:
                pins = ((r_item,) if right_stored else ()) + target
                fetches.append((l_item, pins, False))
            if right_stored:
                pins = ((l_item,) if left_stored else ()) + target
                fetches.append((r_item, pins, False))
            if not is_ghost:
                out_pins = ((l_item,) if left_stored else ()) + (
                    (r_item,) if right_stored else ())
                fetches.append((out_item, out_pins, True))
            current.append(BatchMember(
                node=node, left=left, right=right, toward=step.toward,
                block=b, lo=lo, hi=hi,
                out_item=out_item, left_item=l_item, right_item=r_item,
                last_block=(b == blocks - 1),
                fetches=tuple(fetches), ghost=is_ghost,
            ))
            written.add(node)
            total += 1
            if alone:
                flush()
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
        key = (plan.root_u, plan.root_v, plan.steps, plan.refresh, plan.ghost,
               max_members)
        found = self._cache.get(key)
        if found is not None:
            self._cache.move_to_end(key)
            return found
        built = build_batched_schedule(plan, layout, num_tips, max_members)
        self._cache[key] = built
        if len(self._cache) > self.capacity:
            self._cache.popitem(last=False)
        return built
