"""The candidates view and what rides on it: same victims, flat work per miss.

Three guards for the O(1)-per-miss store path:

* unit tests of :class:`~repro.core.policies.EvictableView` (``len``,
  ``in``, slot-order iteration and indexing over "resident minus
  excluded");
* a differential test — the seven ``choose_victim`` bodies as they stood
  before the view existed are frozen here as the reference and driven side
  by side with the live policies, same hooks, same traces, the reference on
  the materialised candidate list and the live policy on the view; the
  victim must be the same at every miss;
* a *work count* (not a timing): membership probes plus iteration steps
  per miss are bounded by a small constant whether the store has 32 slots
  or 1024.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.vecstore as vecstore_module
from repro.core.policies import (
    EvictableView,
    LruPolicy,
    ReplacementPolicy,
    make_policy,
    policy_names,
)
from repro.core.vecstore import AncestralVectorStore
from repro.errors import OutOfCoreError, PinnedSlotError
from repro.utils.rng import as_rng

# ---------------------------------------------------------------------------
# the view


class TestEvictableView:
    def view(self, excluded=()):
        slot_item = [7, -1, 3, 9, -1, 4]
        item_slot = {7: 0, 3: 2, 9: 3, 4: 5}
        return EvictableView(slot_item, item_slot, excluded)

    def test_is_resident_minus_excluded_in_slot_order(self):
        v = self.view(excluded=(3,))
        assert list(v) == [7, 9, 4]
        assert len(v) == 3
        assert [v[k] for k in range(3)] == [7, 9, 4]
        assert v[-1] == 4

    def test_membership(self):
        v = self.view(excluded=(3,))
        assert 7 in v and 9 in v and 4 in v
        assert 3 not in v       # excluded
        assert 5 not in v       # not resident
        assert -1 not in v      # the free-slot marker is not an item

    def test_excluding_nonresident_items_protects_and_counts_nothing(self):
        v = self.view(excluded=(100, 3, 3, 200))
        assert len(v) == 3 and list(v) == [7, 9, 4]

    def test_empty_is_falsy_and_index_checked(self):
        v = self.view(excluded=(7, 3, 9, 4))
        assert not v and len(v) == 0 and list(v) == []
        with pytest.raises(IndexError):
            _ = v[0]
        with pytest.raises(IndexError):
            _ = self.view()[4]

    def test_matches_the_comprehension_it_replaced(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(1, 40))
            items = rng.permutation(80)[:m]
            slot_item = [int(i) if rng.random() < 0.8 else -1 for i in items]
            item_slot = {it: s for s, it in enumerate(slot_item) if it >= 0}
            excluded = {int(x) for x in rng.integers(0, 80, size=6)}
            expected = [it for it in slot_item
                        if it >= 0 and it not in excluded]
            v = EvictableView(slot_item, item_slot, excluded)
            assert list(v) == expected and len(v) == len(expected)
            assert all((it in v) == (it in expected) for it in range(-1, 80))
            assert [v[k] for k in range(len(v))] == expected


# ---------------------------------------------------------------------------
# the reference: every policy's choose_victim (and, where the bookkeeping
# changed with it, its hooks) frozen as of the commit before the view


class RefRandom(ReplacementPolicy):
    name = "random"

    def __init__(self, seed=None):
        self._rng = as_rng(seed)

    def choose_victim(self, candidates, requested):
        return candidates[int(self._rng.integers(len(candidates)))]


class RefLru(ReplacementPolicy):
    name = "lru"

    def __init__(self):
        self._clock = 0
        self._stamp = {}

    def on_access(self, item, write_only):
        self._clock += 1
        self._stamp[item] = self._clock

    def on_evict(self, item):
        self._stamp.pop(item, None)

    def choose_victim(self, candidates, requested):
        return min(candidates, key=lambda it: self._stamp.get(it, -1))


class RefLfu(ReplacementPolicy):
    name = "lfu"

    def __init__(self):
        self._count = {}
        self._clock = 0
        self._stamp = {}

    def on_access(self, item, write_only):
        self._count[item] = self._count.get(item, 0) + 1
        self._clock += 1
        self._stamp[item] = self._clock

    def on_evict(self, item):
        self._stamp.pop(item, None)

    def choose_victim(self, candidates, requested):
        return min(
            candidates,
            key=lambda it: (self._count.get(it, 0), self._stamp.get(it, -1)),
        )


class RefFifo(ReplacementPolicy):
    name = "fifo"

    def __init__(self):
        self._clock = 0
        self._loaded_at = {}

    def on_load(self, item):
        self._clock += 1
        self._loaded_at[item] = self._clock

    def on_evict(self, item):
        self._loaded_at.pop(item, None)

    def choose_victim(self, candidates, requested):
        return min(candidates, key=lambda it: self._loaded_at.get(it, -1))


class RefTopological(ReplacementPolicy):
    name = "topological"

    def __init__(self, distance_provider=None):
        self.distance_provider = distance_provider
        self._clock = 0
        self._stamp = {}

    def on_access(self, item, write_only):
        self._clock += 1
        self._stamp[item] = self._clock

    def on_evict(self, item):
        self._stamp.pop(item, None)

    def choose_victim(self, candidates, requested):
        dist = self.distance_provider(requested)
        return max(candidates, key=lambda it: (dist[it], -self._stamp.get(it, 0)))


class RefClock(ReplacementPolicy):
    name = "clock"

    def __init__(self):
        self._ring = []
        self._referenced = {}
        self._hand = 0

    def on_load(self, item):
        self._ring.append(item)
        self._referenced[item] = True

    def on_access(self, item, write_only):
        if item in self._referenced:
            self._referenced[item] = True

    def on_evict(self, item):
        try:
            idx = self._ring.index(item)
        except ValueError:
            return
        self._ring.pop(idx)
        if idx < self._hand:
            self._hand -= 1
        self._referenced.pop(item, None)

    def choose_victim(self, candidates, requested):
        allowed = set(candidates)
        if not self._ring:
            return candidates[0]
        sweeps = 0
        while sweeps < 2 * len(self._ring) + 1:
            if self._hand >= len(self._ring):
                self._hand = 0
            item = self._ring[self._hand]
            if item in allowed:
                if self._referenced.get(item, False):
                    self._referenced[item] = False  # second chance
                else:
                    return item
            self._hand += 1
            sweeps += 1
        for offset in range(len(self._ring)):
            item = self._ring[(self._hand + offset) % len(self._ring)]
            if item in allowed:
                return item
        return candidates[0]


class RefBelady(ReplacementPolicy):
    name = "belady"

    def __init__(self, future_items=()):
        self._next_use = {}
        for pos, item in enumerate(future_items):
            self._next_use.setdefault(item, []).append(pos)
        self._cursor = 0

    def on_access(self, item, write_only):
        uses = self._next_use.get(item)
        if uses and uses[0] <= self._cursor:
            uses.pop(0)
        self._cursor += 1

    def _next(self, item):
        uses = self._next_use.get(item)
        while uses and uses[0] < self._cursor:
            uses.pop(0)
        return uses[0] if uses else 1 << 60

    def choose_victim(self, candidates, requested):
        return max(candidates, key=self._next)


REFERENCE = {
    "random": RefRandom, "lru": RefLru, "lfu": RefLfu, "fifo": RefFifo,
    "topological": RefTopological, "clock": RefClock, "belady": RefBelady,
}


def test_every_registered_policy_has_a_frozen_reference():
    assert sorted(REFERENCE) == policy_names()


def policy_kwargs(name, num_items, demand_items):
    """Constructor arguments giving reference and live policy equal inputs."""
    if name == "random":
        return {"seed": 1234}
    if name == "topological":
        # deterministic, tie-rich distances (ties fall to the stamps)
        table = np.random.default_rng(num_items).integers(
            0, 4, size=(num_items, num_items))
        return {"distance_provider": lambda req: table[req]}
    if name == "belady":
        return {"future_items": list(demand_items)}
    return {}


# ---------------------------------------------------------------------------
# differential victim sequence, policy level


class LockstepStore:
    """The store's slot bookkeeping, driving two policies in lockstep.

    Both policies get every hook; at every miss the reference chooses from
    the candidate *list*, built by the comprehension the store used to
    run, and the live policy from an :class:`EvictableView` over the same
    maps (or, with ``hand_list``, from that same plain list). One set of
    maps suffices because the victims are asserted equal before they are
    applied.
    """

    def __init__(self, num_slots, ref, live, hand_list):
        self.slot_item = [-1] * num_slots
        self.item_slot = {}
        self.free = list(range(num_slots - 1, -1, -1))
        self.policies = (ref, live)
        self.hand_list = hand_list
        self.active_pins = set()
        self.untouched = set()   # prefetched, not yet demanded
        self.victims = []

    def _allocate(self, item, excluded):
        if self.free:
            return self.free.pop()
        as_list = [it for it in self.slot_item
                   if it >= 0 and it not in excluded]
        if not as_list:
            return None
        view = EvictableView(self.slot_item, self.item_slot, excluded)
        assert list(view) == as_list and len(view) == len(as_list)
        ref, live = self.policies
        expected = ref.choose_victim(list(as_list), item)
        got = live.choose_victim(list(as_list) if self.hand_list else view, item)
        assert got == expected, (
            f"miss on {item}: reference evicts {expected}, "
            f"{live.name} evicts {got} from {as_list}")
        self.victims.append(got)
        slot = self.item_slot.pop(got)
        self.untouched.discard(got)
        for p in self.policies:
            p.on_evict(got)
        return slot

    def _publish(self, item, slot):
        self.slot_item[slot] = item
        self.item_slot[item] = slot

    def get(self, item, pins, write_only):
        self.active_pins = {item, *pins}
        self.untouched.discard(item)
        if item not in self.item_slot:
            slot = self._allocate(item, set(pins))
            if slot is None:
                return              # all pinned: the store would raise
            self._publish(item, slot)
            for p in self.policies:
                p.on_load(item)
        for p in self.policies:
            p.on_access(item, write_only)

    def prefetch(self, item, protect):
        if item in self.item_slot:
            return
        slot = self._allocate(
            item, set(protect) | self.active_pins | self.untouched)
        if slot is None:
            return
        self._publish(item, slot)
        self.untouched.add(item)
        for p in self.policies:
            p.on_load(item)
            p.on_access(item, False)

    def drop(self, item):
        """Evict ``item`` without a miss, as ``evict_all`` does slot by slot."""
        if item in self.item_slot:
            slot = self.item_slot.pop(item)
            self.slot_item[slot] = -1
            self.free.append(slot)
            self.untouched.discard(item)
            for p in self.policies:
                p.on_evict(item)

    def load_unannounced(self, item):
        """Make ``item`` resident behind the policies' backs (free slot only)."""
        if item not in self.item_slot and self.free:
            self._publish(item, self.free.pop())


OPS = st.lists(
    st.tuples(
        st.sampled_from(["get"] * 6 + ["write"] * 3
                        + ["prefetch", "prefetch", "drop", "bare"]),
        st.integers(0, 199),            # item
        st.integers(0, 199),            # first pin / protected item
        st.integers(0, 199),            # second pin / protected item
        st.integers(0, 2),              # how many pins
    ),
    min_size=200, max_size=400,
)


@pytest.mark.parametrize("name", sorted(REFERENCE))
@settings(max_examples=30, deadline=None)
@given(num_slots=st.integers(3, 64), spare=st.integers(1, 40),
       hand_list=st.booleans(), ops=OPS)
def test_victim_sequence_matches_frozen_reference(name, num_slots, spare,
                                                  hand_list, ops):
    num_items = num_slots + spare
    ops = [(kind, a % num_items, b % num_items, c % num_items, k)
           for kind, a, b, c, k in ops]
    demand = [a for kind, a, *_ in ops if kind in ("get", "write")]
    kwargs = policy_kwargs(name, num_items, demand)
    store = LockstepStore(num_slots, REFERENCE[name](**kwargs),
                          make_policy(name, **kwargs), hand_list)
    for kind, item, p1, p2, npins in ops:
        if kind == "prefetch":
            # protect names whatever the trace says, resident or not
            store.prefetch(item, protect=(p1, p2))
        elif kind == "drop":
            store.drop(item)
        elif kind == "bare" and hand_list:
            # An unstamped candidate: resident, never announced. The store
            # cannot produce one (validate() checks that), so it is only
            # ever offered in a plain list, where the policy checks.
            store.load_unannounced(item)
        elif kind in ("get", "write"):
            pins = tuple(p for p in (p1, p2)[:npins] if p != item)
            store.get(item, pins, write_only=(kind == "write"))


class TestOrderFallbacks:
    """When an order-keeping policy must not trust its order."""

    def view(self, resident, excluded=()):
        slot_item = list(resident)
        return EvictableView(slot_item, {it: s for s, it in enumerate(slot_item)},
                             excluded)

    def test_plain_list_with_unstamped_candidate(self):
        p = LruPolicy()
        for item in (1, 2, 3):
            p.on_access(item, False)
        assert p.choose_victim([1, 5], requested=9) == 5

    def test_view_longer_than_the_order(self):
        p = LruPolicy()
        p.on_access(2, False)
        assert p.choose_victim(self.view([1, 2, 3]), requested=9) == 1

    def test_order_holding_no_candidate(self):
        p = LruPolicy()
        for item in (1, 2):
            p.on_access(item, False)
        assert p.choose_victim(self.view([1, 2, 7, 8], excluded=(1, 2)),
                               requested=9) == 7

    def test_view_of_announced_residents_takes_the_oldest(self):
        p = LruPolicy()
        for item in (4, 5, 6, 4):
            p.on_access(item, False)
        assert p.choose_victim(self.view([4, 5, 6]), requested=9) == 5
        assert p.choose_victim(self.view([4, 5, 6], excluded=(5,)), 9) == 6


# ---------------------------------------------------------------------------
# differential victim sequence, store level: block-layout geometry


class ListFed:
    """Mixin: a frozen reference policy behind the live store.

    The store hands it a view; it materialises the list the store used to
    build and runs the frozen body on that.
    """

    def choose_victim(self, candidates, requested):
        return super().choose_victim(list(candidates), requested)


def block_traversal_accesses(inner=126, blocks=15, passes=2, seed=5):
    """(item, pins, write_only) of post-order traversals, block by block.

    ``inner × blocks`` items, as a 128-taxon tree paged in 15 site blocks
    has; a node's block is written after its inner children's blocks are
    read, all three mutually pinned — the paper's access pattern at the
    block layout's item count.
    """
    rng = np.random.default_rng(seed)
    roots, children = [], {}
    for node in range(inner):
        take = min(len(roots), int(rng.integers(0, 3)))
        children[node] = [roots.pop(int(rng.integers(len(roots))))
                          for _ in range(take)]
        roots.append(node)
    accesses = []
    for _ in range(passes):
        for node in range(inner):
            for b in range(blocks):
                kids = tuple(c * blocks + b for c in children[node])
                for k in kids:
                    accesses.append((k, tuple(x for x in kids if x != k), False))
                accesses.append((node * blocks + b, kids, True))
    return accesses


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_store_at_block_geometry_matches_reference(name):
    accesses = block_traversal_accesses()
    num_items = 126 * 15
    kwargs = policy_kwargs(name, num_items, [a[0] for a in accesses])
    frozen = type("Frozen", (ListFed, REFERENCE[name]), {})
    stores = []
    for policy in (frozen(**kwargs), make_policy(name, **kwargs)):
        store = AncestralVectorStore(num_items, (2,), num_slots=473,
                                     policy=policy)
        for item, pins, write_only in accesses:
            store.get(item, pins=pins, write_only=write_only)
        stores.append(store)
    before, after = stores
    assert before.stats.misses > 1000    # the geometry does page
    assert after.stats._counters() == before.stats._counters()
    assert after.resident_items() == before.resident_items()
    after.validate()


# ---------------------------------------------------------------------------
# work per miss is flat in the resident count


class CountingView(EvictableView):
    """An EvictableView that counts what is asked of it."""

    probes = 0      # membership tests
    steps = 0       # items produced by iteration or indexing

    def __contains__(self, item):
        CountingView.probes += 1
        return super().__contains__(item)

    def __iter__(self):
        for item in super().__iter__():
            CountingView.steps += 1
            yield item


class CountingList(list):
    iterations = 0

    def __iter__(self):
        CountingList.iterations += 1
        return super().__iter__()


@pytest.mark.parametrize("name", ["lru", "fifo", "clock"])
def test_work_per_miss_is_flat_in_the_resident_count(name, monkeypatch):
    monkeypatch.setattr(vecstore_module, "EvictableView", CountingView)
    npins = 2
    worst, mean = {}, {}
    for num_slots in (32, 1024):
        num_items = 2 * num_slots
        store = AncestralVectorStore(num_items, (2,), num_slots=num_slots,
                                     policy=name)
        store._slot_item = CountingList(store._slot_item)
        CountingList.iterations = 0
        per_miss = []
        for step in range(4 * num_items):      # cyclic sweep: every get misses
            item = step % num_items
            pins = tuple((item - d) % num_items for d in range(1, npins + 1))
            CountingView.probes = CountingView.steps = 0
            store.get(item, pins=pins, write_only=True)
            if step >= num_slots:
                per_miss.append(CountingView.probes + CountingView.steps)
        assert store.stats.misses == 4 * num_items
        assert CountingList.iterations == 0, "allocation walked _slot_item"
        store.validate()
        worst[num_slots] = max(per_miss)
        mean[num_slots] = sum(per_miss) / len(per_miss)
    # One probe by the store (is the victim a candidate?) and, by the
    # policy, one per item it has to step over (pins, loads in flight)
    # plus the victim.
    bound = npins + 2
    if name == "clock":
        # The hand also clears the reference bit every load sets — once per
        # load, so the *amortised* count is what stays constant.
        assert mean[32] <= bound + 1 and mean[1024] <= bound + 1
    else:
        assert worst[32] <= bound and worst[1024] <= bound


# ---------------------------------------------------------------------------
# PinnedSlotError says what actually held the slots. (Loads in flight no
# longer can: a demand miss waits for one to land —
# tests/test_prefetch.py::TestMoreLoadsInFlightNeverBecomeAnError.)


def test_pinned_slot_error_ignores_pins_that_hold_no_slot():
    store = AncestralVectorStore(8, (2,), num_slots=3)
    for item in range(3):
        store.get(item, write_only=True)
    with pytest.raises(PinnedSlotError, match=r"pins=\[0, 1, 2\]\); the store "
                                              r"needs at least 4 slots$"):
        store.get(3, pins=(0, 1, 2, 7))


# ---------------------------------------------------------------------------
# validate() covers the incremental state


class TestValidateCoversIncrementalState:
    def store(self, policy="lru"):
        s = AncestralVectorStore(8, (2,), num_slots=4, policy=policy)
        for item in range(6):
            s.get(item, write_only=True)
        s.validate()
        return s

    def test_resident_entry_without_slot(self):
        s = self.store()
        s._slot_item[s._item_slot[5]] = -1
        with pytest.raises(OutOfCoreError, match="mismatch"):
            s.validate()

    def test_free_slot_still_mapped(self):
        s = self.store()
        s._free.append(s._item_slot[5])
        with pytest.raises(OutOfCoreError, match="free-list"):
            s.validate()

    def test_inflight_item_not_resident(self):
        s = self.store()
        s._inflight.add(0)
        with pytest.raises(OutOfCoreError, match="not resident"):
            s.validate()

    @pytest.mark.parametrize("policy", ["lru", "fifo", "clock"])
    def test_policy_order_missed_an_eviction(self, policy):
        s = self.store(policy)
        victim = s.resident_items()[0]
        slot = s._item_slot.pop(victim)       # evicted, policy never told
        s._slot_item[slot] = -1
        s._free.append(slot)
        with pytest.raises(OutOfCoreError, match="out of step"):
            s.validate()

    @pytest.mark.parametrize("policy", ["lru", "fifo", "clock"])
    def test_policy_order_missed_a_load(self, policy):
        s = self.store(policy)
        s.policy.on_evict(s.resident_items()[0])  # forgotten, still resident
        with pytest.raises(OutOfCoreError, match="out of step"):
            s.validate()
