"""Unit tests for the replacement strategies of §3.3 (+ FIFO, Belady)."""

import numpy as np
import pytest

from repro.core.policies import (
    BeladyPolicy,
    ClockPolicy,
    FifoPolicy,
    LfuPolicy,
    LruPolicy,
    RandomPolicy,
    TopologicalPolicy,
    make_policy,
    policy_names,
)
from repro.core.trace import AccessTrace, simulate_policy_on_trace
from repro.core.vecstore import AncestralVectorStore
from repro.errors import OutOfCoreError

SHAPE = (3,)


class TestRegistry:
    def test_all_paper_policies_registered(self):
        names = policy_names()
        for required in ("random", "lru", "lfu", "topological"):
            assert required in names

    def test_make_policy_forwards_kwargs(self):
        p = make_policy("random", seed=7)
        assert isinstance(p, RandomPolicy)

    def test_unknown_name_rejected(self):
        with pytest.raises(OutOfCoreError, match="unknown replacement policy"):
            make_policy("arc")


class TestLru:
    def test_evicts_oldest_access(self):
        p = LruPolicy()
        for item in (1, 2, 3):
            p.on_access(item, False)
        p.on_access(1, False)  # refresh 1
        assert p.choose_victim([1, 2, 3], requested=9) == 2

    def test_never_accessed_is_oldest(self):
        p = LruPolicy()
        p.on_access(1, False)
        assert p.choose_victim([1, 5], requested=9) == 5

    def test_reset_clears_history(self):
        p = LruPolicy()
        p.on_access(1, False)
        p.reset()
        assert p._stamp == {}

    def test_exact_sequence_via_store(self):
        s = AncestralVectorStore(5, SHAPE, num_slots=3, policy="lru")
        for i in (0, 1, 2):
            s.get(i)
        s.get(0)          # order now 1, 2, 0
        s.get(3)          # evicts 1
        assert not s.is_resident(1)
        assert s.is_resident(0) and s.is_resident(2) and s.is_resident(3)


class TestLfu:
    def test_evicts_least_frequent(self):
        p = LfuPolicy()
        for _ in range(5):
            p.on_access(1, False)
        p.on_access(2, False)
        for _ in range(3):
            p.on_access(3, False)
        assert p.choose_victim([1, 2, 3], requested=9) == 2

    def test_tie_broken_by_recency(self):
        p = LfuPolicy()
        p.on_access(1, False)
        p.on_access(2, False)  # same count; 1 is older
        assert p.choose_victim([1, 2], requested=9) == 1

    def test_hot_items_stick(self):
        """The pathology the paper observed: early-hot vectors pin themselves."""
        s = AncestralVectorStore(6, SHAPE, num_slots=3, policy="lfu")
        for _ in range(10):
            s.get(0)
            s.get(1)
        for i in (2, 3, 4, 5, 2, 3, 4, 5):
            s.get(i)
        assert s.is_resident(0) and s.is_resident(1)


class TestFifo:
    def test_evicts_longest_resident(self):
        p = FifoPolicy()
        p.on_load(1)
        p.on_load(2)
        p.on_access(1, False)  # access does NOT refresh FIFO order
        assert p.choose_victim([1, 2], requested=9) == 1


class TestClock:
    def test_second_chance(self):
        p = ClockPolicy()
        for item in (1, 2, 3):
            p.on_load(item)
        # first sweep clears all reference bits; second evicts item 1
        assert p.choose_victim([1, 2, 3], requested=9) == 1

    def test_recently_referenced_survives_one_sweep(self):
        p = ClockPolicy()
        for item in (1, 2, 3):
            p.on_load(item)
        victim1 = p.choose_victim([1, 2, 3], requested=9)
        p.on_evict(victim1)
        p.on_access(2, False)  # re-reference 2
        # hand continues; 2 gets its second chance before eviction
        victim2 = p.choose_victim([x for x in (1, 2, 3) if x != victim1],
                                  requested=9)
        assert victim2 != 2 or victim1 == 2

    def test_respects_candidate_filter(self):
        p = ClockPolicy()
        for item in range(6):
            p.on_load(item)
        for _ in range(10):
            assert p.choose_victim([2, 4], requested=9) in (2, 4)
            # do not evict: selection must stay within candidates regardless

    def test_store_integration(self):
        s = AncestralVectorStore(8, SHAPE, num_slots=3, policy="clock")
        for i in range(8):
            s.get(i, write_only=True)[:] = i
        for i in range(8):
            assert (s.get(i) == i).all()
        s.validate()

    def test_reset(self):
        p = ClockPolicy()
        p.on_load(1)
        p.reset()
        assert p._ring == []


class TestRandom:
    def test_deterministic_with_seed(self):
        a = RandomPolicy(seed=5)
        b = RandomPolicy(seed=5)
        cands = list(range(20))
        assert [a.choose_victim(cands, 0) for _ in range(10)] == \
               [b.choose_victim(cands, 0) for _ in range(10)]

    def test_choices_are_spread(self):
        p = RandomPolicy(seed=1)
        cands = list(range(10))
        picks = {p.choose_victim(cands, 0) for _ in range(200)}
        assert len(picks) == 10


class TestTopological:
    def test_requires_distance_provider(self):
        p = TopologicalPolicy()
        with pytest.raises(OutOfCoreError, match="distance_provider"):
            p.choose_victim([1, 2], requested=0)

    def test_evicts_most_distant(self):
        distances = np.array([0, 5, 2, 9, 1])
        p = TopologicalPolicy(distance_provider=lambda req: distances)
        assert p.choose_victim([1, 2, 3, 4], requested=0) == 3

    def test_tie_broken_deterministically(self):
        distances = np.array([0, 4, 4, 4])
        p = TopologicalPolicy(distance_provider=lambda req: distances)
        p.on_access(1, False)
        p.on_access(2, False)
        p.on_access(3, False)
        # all at distance 4: least recently used (1) goes first
        assert p.choose_victim([1, 2, 3], requested=0) == 1


class TestBelady:
    def test_evicts_farthest_future_use(self):
        trace = [0, 1, 2, 1, 0, 2]
        p = BeladyPolicy(trace)
        for item in (0, 1, 2):
            p.on_access(item, False)  # cursor now 3
        # next uses: 1 -> pos 3, 0 -> pos 4, 2 -> pos 5
        assert p.choose_victim([0, 1, 2], requested=9) == 2

    def test_never_used_again_preferred(self):
        trace = [0, 1, 2, 0, 1]
        p = BeladyPolicy(trace)
        for item in (0, 1, 2):
            p.on_access(item, False)
        assert p.choose_victim([0, 1, 2], requested=9) == 2

    def test_belady_is_lower_bound_on_trace(self, rng):
        """OPT must not miss more than any implementable policy."""
        trace = AccessTrace(num_items=20)
        for _ in range(600):
            trace.access(int(rng.integers(20)), write_only=bool(rng.random() < 0.4))
        opt = simulate_policy_on_trace(trace, 5, "belady").misses
        for name in ("lru", "lfu", "fifo", "clock"):
            assert opt <= simulate_policy_on_trace(trace, 5, name).misses
        assert opt <= simulate_policy_on_trace(
            trace, 5, "random", policy_kwargs={"seed": 3}
        ).misses


class TestVictimContract:
    @pytest.mark.parametrize("name", ["random", "lru", "lfu", "fifo", "clock"])
    def test_victim_always_from_candidates(self, name, rng):
        p = make_policy(name, **({"seed": 0} if name == "random" else {}))
        for _ in range(200):
            cands = sorted({int(x) for x in rng.integers(0, 50, size=5)})
            p.on_load(cands[0])
            for c in cands:
                p.on_access(c, False)
            assert p.choose_victim(cands, requested=99) in cands


class TestEvictionPruning:
    """on_evict must drop per-item bookkeeping (satellite fix): the dicts
    stay bounded by the resident set instead of growing over a whole
    tree search. LFU is the documented exception — its counts define the
    policy's Fig. 2 behaviour — but its recency stamps are pruned and its
    count table is capped."""

    def test_lru_fifo_topological_drop_evicted_items(self):
        for policy, use_load_hook in ((LruPolicy(), False),
                                      (FifoPolicy(), True),
                                      (TopologicalPolicy(), False)):
            for item in range(50):
                if use_load_hook:
                    policy.on_load(item)
                else:
                    policy.on_access(item, False)
                if item >= 4:
                    policy.on_evict(item - 4)
            book = (policy._loaded_at if isinstance(policy, FifoPolicy)
                    else policy._stamp)
            assert len(book) == 4, policy.name

    def test_lfu_retains_counts_but_prunes_stamps(self):
        p = LfuPolicy()
        for item in range(50):
            p.on_access(item, False)
            if item >= 4:
                p.on_evict(item - 4)
        assert len(p._count) == 50    # behaviour-defining, kept (Fig. 2)
        assert len(p._stamp) == 4     # tie-breaker only, pruned

    def test_lfu_count_table_capped(self):
        p = LfuPolicy(max_tracked=4)
        for _ in range(3):
            p.on_access(0, False)
        for _ in range(2):
            p.on_access(1, False)
        for item in (2, 3, 4):
            p.on_access(item, False)
        assert len(p._count) <= 4
        assert 0 in p._count and 1 in p._count  # the hottest survive

    def test_lfu_max_tracked_validated(self):
        with pytest.raises(OutOfCoreError, match="max_tracked"):
            LfuPolicy(max_tracked=0)

    def test_store_bookkeeping_bounded_by_resident_set(self, rng):
        s = AncestralVectorStore(40, SHAPE, num_slots=5, policy="lru")
        for _ in range(500):
            s.get(int(rng.integers(40)), write_only=True)
        assert len(s.policy._stamp) <= 5
