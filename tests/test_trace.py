"""Unit tests for access-trace recording, replay and locality analysis."""

import contextlib
import numpy as np
import pytest

from repro import GTR, LikelihoodEngine
from repro.core.shadow import TeeStore
from repro.core.trace import (
    AccessTrace,
    lru_miss_curve,
    reuse_distance_profile,
    simulate_policy_on_trace,
)
from repro.core.vecstore import AncestralVectorStore
from repro.errors import OutOfCoreError, PinnedSlotError

SHAPE = (3,)


def make_trace(items, writes=None):
    t = AccessTrace(num_items=max(items) + 1)
    for i, item in enumerate(items):
        w = writes[i] if writes else False
        t.access(item, write_only=w)
    return t


class TestRecording:
    def test_proxy_forwards_and_records(self):
        """A trace observing a TeeStore records each access and each
        ``mark_clean`` the tee forwards."""
        base = AncestralVectorStore(6, SHAPE, num_slots=3, policy="lru")
        trace = AccessTrace(base.num_items)
        tee = TeeStore(base, [trace])
        v = tee.get(2, pins=(1,), write_only=True)
        assert v.shape == SHAPE
        tee.mark_clean(2)
        assert len(trace) == 2
        ev, clean = trace.events
        assert (ev.item, ev.pins, ev.write_only, ev.clean) == (2, (1,), True,
                                                               False)
        assert (clean.item, clean.clean) == (2, True)
        assert trace.items() == [2]

    def test_proxy_exposes_store_attributes(self):
        base = AncestralVectorStore(6, SHAPE, num_slots=3)
        tee = TeeStore(base, [AccessTrace(base.num_items)])
        assert tee.num_items == 6
        assert tee.stats is base.stats

    def test_trace_helpers(self):
        t = make_trace([0, 1, 0, 2])
        assert t.items() == [0, 1, 0, 2]
        assert t.unique_items() == {0, 1, 2}


class TestReplayFidelity:
    @pytest.mark.parametrize("policy", ["lru", "lfu", "fifo"])
    def test_replay_matches_live_store(self, policy, rng):
        """Replay must reproduce the live store's miss/read/write counts."""
        n, m = 15, 4
        live = AncestralVectorStore(n, SHAPE, num_slots=m, policy=policy)
        trace = AccessTrace(n)
        tee = TeeStore(live, [trace])
        for _ in range(500):
            item = int(rng.integers(n))
            pins = tuple(int(x) for x in rng.choice(n, 2, replace=False)
                         if int(x) != item)
            with contextlib.suppress(PinnedSlotError):
                tee.get(item, pins=pins, write_only=bool(rng.random() < 0.3))
        replayed = simulate_policy_on_trace(trace, m, policy)
        assert replayed.misses == live.stats.misses
        assert replayed.reads == live.stats.reads
        assert replayed.writes == live.stats.writes
        assert replayed.read_skips == live.stats.read_skips

    def test_replay_matches_live_engine_workload(self, small_tree,
                                                 small_alignment, small_model):
        base = AncestralVectorStore(small_tree.num_inner,
                                    (small_alignment.num_patterns, 4, 4),
                                    num_slots=4, policy="lru")
        trace = AccessTrace(base.num_items)
        tee = TeeStore(base, [trace])
        eng = LikelihoodEngine(small_tree.copy(), small_alignment, small_model,
                               store=tee)
        eng.full_traversals(2)
        replayed = simulate_policy_on_trace(trace, 4, "lru")
        assert replayed.misses == base.stats.misses
        assert replayed.miss_rate == base.stats.miss_rate

    @pytest.mark.parametrize("policy", ["lru", "random", "lfu"])
    @pytest.mark.parametrize("track_dirty", [False, True])
    def test_replay_of_a_trace_recorded_in_groups(self, policy, track_dirty,
                                                  small_tree, small_alignment,
                                                  small_model):
        """``batch=-1`` records one event per ``get_many`` access: the
        replay reproduces the live run's miss/read/write counts."""
        from repro.core.layout import make_layout

        layout = make_layout("block", small_tree.num_inner,
                             (small_alignment.num_patterns, 4, 4),
                             block_sites=32)
        base = AncestralVectorStore(layout=layout, num_slots=7, policy=policy,
                                    policy_kwargs=({"seed": 5}
                                                   if policy == "random"
                                                   else None),
                                    track_dirty=track_dirty)
        trace = AccessTrace(base.num_items)
        tee = TeeStore(base, [trace])
        eng = LikelihoodEngine(small_tree.copy(), small_alignment, small_model,
                               store=tee, batch=-1)
        eng.full_traversals(2)
        eng.optimize_branch(*eng.default_edge())
        assert eng.batch_members == 2
        replayed = simulate_policy_on_trace(
            trace, 7, policy, track_dirty=track_dirty,
            policy_kwargs={"seed": 5} if policy == "random" else None)
        for key in ("requests", "hits", "misses", "reads", "read_skips",
                    "writes", "write_skips"):
            assert getattr(replayed, key) == getattr(base.stats, key), key
        eng.close()

    def test_read_skipping_toggle(self):
        t = make_trace([0, 1, 2, 3], writes=[True, True, False, True])
        with_skip = simulate_policy_on_trace(t, 2, "lru", read_skipping=True)
        without = simulate_policy_on_trace(t, 2, "lru", read_skipping=False)
        assert with_skip.reads == 1
        assert without.reads == 4
        assert with_skip.misses == without.misses == 4

    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_track_dirty_replay_matches_live_store(self, policy, rng):
        """With ``track_dirty=True`` the replay must model write skips.

        Regression: the replay used to ignore dirty tracking entirely, so
        ``writes``/``write_skips`` never matched a ``track_dirty`` store.
        """
        n, m = 12, 4
        live = AncestralVectorStore(n, SHAPE, num_slots=m, policy=policy,
                                    track_dirty=True)
        trace = AccessTrace(n)
        tee = TeeStore(live, [trace])
        for _ in range(600):
            item = int(rng.integers(n))
            w = bool(rng.random() < 0.4)
            v = tee.get(item, write_only=w)
            if w:
                v[:] = float(item)
        replayed = simulate_policy_on_trace(trace, m, policy,
                                            track_dirty=True)
        for key in ("requests", "hits", "misses", "reads", "read_skips",
                    "writes", "write_skips"):
            assert getattr(replayed, key) == getattr(live.stats, key), key

    def test_track_dirty_replay_matches_live_engine(self, small_tree,
                                                    small_alignment,
                                                    small_model):
        base = AncestralVectorStore(small_tree.num_inner,
                                    (small_alignment.num_patterns, 4, 4),
                                    num_slots=4, policy="lru",
                                    track_dirty=True)
        trace = AccessTrace(base.num_items)
        tee = TeeStore(base, [trace])
        eng = LikelihoodEngine(small_tree.copy(), small_alignment, small_model,
                               store=tee)
        eng.full_traversals(2)
        replayed = simulate_policy_on_trace(trace, 4, "lru",
                                            track_dirty=True)
        assert replayed.writes == base.stats.writes
        assert replayed.write_skips == base.stats.write_skips

    def test_track_dirty_off_never_skips_writes(self):
        t = make_trace([0, 1, 2, 0, 1, 2])
        replayed = simulate_policy_on_trace(t, 2, "lru", track_dirty=False)
        assert replayed.write_skips == 0
        assert replayed.writes == replayed.misses - 2  # final residents stay

    def test_zero_slots_rejected(self):
        with pytest.raises(OutOfCoreError, match="at least one slot"):
            simulate_policy_on_trace(make_trace([0]), 0, "lru")

    def test_fully_pinned_replay_raises(self):
        t = AccessTrace(num_items=4)
        t.access(0)
        t.access(1)
        t.access(2, pins=(0, 1))
        with pytest.raises(PinnedSlotError):
            simulate_policy_on_trace(t, 2, "lru")


class TestReuseDistances:
    def test_first_touches_are_minus_one(self):
        assert reuse_distance_profile(make_trace([0, 1, 2])) == [-1, -1, -1]

    def test_immediate_reuse_is_zero(self):
        assert reuse_distance_profile(make_trace([0, 0])) == [-1, 0]

    def test_interleaved(self):
        # 0 1 2 0: distance of the second 0 is 2 (two distinct items between)
        assert reuse_distance_profile(make_trace([0, 1, 2, 0]))[-1] == 2

    def test_matches_naive_reference(self, rng):
        """The Fenwick-tree profile equals the quadratic textbook version."""
        def naive(trace):
            out, last = [], {}
            for t, ev in enumerate(trace.events):
                prev = last.get(ev.item)
                if prev is None:
                    out.append(-1)
                else:
                    between = {trace.events[j].item
                               for j in range(prev + 1, t)}
                    between.discard(ev.item)
                    out.append(len(between))
                last[ev.item] = t
            return out

        for _ in range(5):
            items = [int(rng.integers(15)) for _ in range(300)]
            trace = make_trace(items)
            assert reuse_distance_profile(trace) == naive(trace)

    def test_lru_miss_curve_matches_replay(self, rng):
        items = [int(rng.integers(12)) for _ in range(400)]
        trace = make_trace(items)
        curve = lru_miss_curve(trace, [2, 4, 8])
        for m, predicted in curve.items():
            actual = simulate_policy_on_trace(trace, m, "lru").miss_rate
            assert predicted == pytest.approx(actual)

    def test_curve_monotone_in_capacity(self, rng):
        items = [int(rng.integers(20)) for _ in range(500)]
        curve = lru_miss_curve(make_trace(items), [2, 5, 10, 20])
        vals = [curve[m] for m in (2, 5, 10, 20)]
        assert vals == sorted(vals, reverse=True)

    def test_empty_trace(self):
        assert lru_miss_curve(AccessTrace(1), [3]) == {3: 0.0}
