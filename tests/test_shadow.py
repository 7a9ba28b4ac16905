"""Tests for shadow stores: they must mirror real stores exactly."""

import pytest

from repro import GTR, LikelihoodEngine, RateModel
from repro.core.shadow import ShadowStore, TeeStore
from repro.core.vecstore import AncestralVectorStore
from repro.errors import OutOfCoreError, PinnedSlotError

SHAPE = (4, 2, 4)


class TestShadowFidelity:
    @pytest.mark.parametrize("policy", ["lru", "lfu", "fifo", "clock"])
    def test_counters_match_real_store(self, policy, rng):
        n, m = 14, 4
        real = AncestralVectorStore(n, SHAPE, num_slots=m, policy=policy)
        shadow = ShadowStore(n, m, policy)
        for _ in range(600):
            item = int(rng.integers(n))
            write = bool(rng.random() < 0.4)
            pins = tuple(int(x) for x in rng.choice(n, 2, replace=False)
                         if int(x) != item)
            real.get(item, pins=pins, write_only=write)
            shadow.access(item, pins=pins, write_only=write)
        for field in ("requests", "hits", "misses", "reads", "writes", "read_skips"):
            assert getattr(shadow.stats, field) == getattr(real.stats, field), field
        real.validate()

    def test_random_policy_same_seed_matches(self, rng):
        n, m = 10, 3
        real = AncestralVectorStore(n, SHAPE, num_slots=m, policy="random",
                                    policy_kwargs={"seed": 11})
        shadow = ShadowStore(n, m, "random", policy_kwargs={"seed": 11})
        for _ in range(300):
            item = int(rng.integers(n))
            real.get(item)
            shadow.access(item)
        assert shadow.stats.requests == real.stats.requests
        assert shadow.stats.misses >= 0
        # Identical RNG stream + identical candidate ordering (the shadow
        # keeps the store's slot order) = identical victims.
        for field in ("hits", "misses", "reads", "writes", "read_skips"):
            assert getattr(shadow.stats, field) == getattr(real.stats, field), field
        assert sorted(shadow._item_slot) == sorted(real.resident_items())

    def test_pin_protection(self):
        shadow = ShadowStore(5, 2, "lru")
        shadow.access(0)
        shadow.access(1)
        with pytest.raises(PinnedSlotError):
            shadow.access(2, pins=(0, 1))

    def test_geometry_validation(self):
        with pytest.raises(OutOfCoreError, match="at least one slot"):
            ShadowStore(5, 0, "lru")

    def test_slots_capped_at_items(self):
        shadow = ShadowStore(3, 10, "lru")
        assert shadow.num_slots == 3
        assert shadow.fraction == 1.0


class TestTeeStore:
    def test_engine_through_tee_identical_lnl(self, small_tree, small_alignment,
                                              small_model):
        rates = RateModel.gamma(0.8, 4)
        ref = LikelihoodEngine(small_tree.copy(), small_alignment,
                               small_model, rates).loglikelihood()
        shape = (small_alignment.num_patterns, 4, 4)
        primary = AncestralVectorStore(small_tree.num_inner, shape,
                                       num_slots=4, policy="lru")
        shadows = [ShadowStore(small_tree.num_inner, m, p, label=f"{p}@{m}")
                   for p in ("lru", "lfu") for m in (3, 5)]
        tee = TeeStore(primary, shadows)
        eng = LikelihoodEngine(small_tree.copy(), small_alignment, small_model,
                               rates, store=tee)
        assert eng.loglikelihood() == ref

    def test_shadow_at_same_geometry_matches_primary(self, small_tree,
                                                     small_alignment, small_model):
        """A shadow with the primary's policy/capacity mirrors its stats."""
        rates = RateModel.gamma(0.8, 4)
        shape = (small_alignment.num_patterns, 4, 4)
        primary = AncestralVectorStore(small_tree.num_inner, shape,
                                       num_slots=4, policy="lru")
        twin = ShadowStore(small_tree.num_inner, 4, "lru", label="twin")
        eng = LikelihoodEngine(small_tree.copy(), small_alignment, small_model,
                               rates, store=TeeStore(primary, [twin]))
        eng.full_traversals(3)
        assert twin.stats.misses == primary.stats.misses
        assert twin.stats.reads == primary.stats.reads
        assert twin.stats.writes == primary.stats.writes

    def test_results_keyed_by_label(self):
        primary = AncestralVectorStore(6, SHAPE, num_slots=3)
        tee = TeeStore(primary, [ShadowStore(6, 3, "lru", label="a"),
                                 ShadowStore(6, 4, "lfu", label="b")])
        tee.get(0)
        out = tee.results()
        assert set(out) == {"a", "b"}
        assert out["a"].requests == 1

    def test_item_count_mismatch_rejected(self):
        primary = AncestralVectorStore(6, SHAPE, num_slots=3)
        with pytest.raises(OutOfCoreError, match="items"):
            TeeStore(primary, [ShadowStore(7, 3, "lru")])

    def test_attribute_passthrough(self):
        primary = AncestralVectorStore(6, SHAPE, num_slots=3)
        tee = TeeStore(primary, [])
        assert tee.num_items == 6
        assert tee.stats is primary.stats
