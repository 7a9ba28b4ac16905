"""Tests for shadow stores: they must mirror real stores exactly."""

import numpy as np
import pytest

from repro import LikelihoodEngine, RateModel, clv_geometry
from repro.core.layout import make_layout
from repro.core.shadow import ShadowStore, TeeStore
from repro.core.trace import AccessTrace
from repro.core.vecstore import AncestralVectorStore
from repro.errors import OutOfCoreError, PinnedSlotError
from repro.phylo.search import lazy_spr_round

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

    def test_every_observer_sees_each_access(self):
        """Shadows and a trace observe one stream: each access and each
        ``mark_clean`` reaches every observer once."""
        primary = AncestralVectorStore(6, SHAPE, num_slots=3)
        shadows = [ShadowStore(6, 3, "lru", label="a"),
                   ShadowStore(6, 4, "lfu", label="b")]
        trace = AccessTrace(6)
        tee = TeeStore(primary, [*shadows, trace])
        tee.get(0, write_only=True)
        tee.mark_clean(0)
        tee.get(1)
        assert [s.stats.requests for s in shadows] == [2, 2]
        assert [(e.item, e.write_only, e.clean) for e in trace.events] == [
            (0, True, False), (0, False, True), (1, False, False)]

    def test_item_count_mismatch_rejected(self):
        primary = AncestralVectorStore(6, SHAPE, num_slots=3)
        with pytest.raises(OutOfCoreError, match="items"):
            TeeStore(primary, [ShadowStore(7, 3, "lru")])

    def test_attribute_passthrough(self):
        primary = AncestralVectorStore(6, SHAPE, num_slots=3)
        tee = TeeStore(primary, [])
        assert tee.num_items == 6
        assert tee.stats is primary.stats


class TestTopologicalBinding:
    """The engine binds every Topological policy its store reaches — its
    own store's and each tee observer's — through the layout; nothing is
    wired by hand."""

    @pytest.mark.parametrize("layout_name,block_sites,slots",
                             [("whole", None, 4), ("block", 64, 10)])
    def test_topological_shadow_under_a_tee(self, layout_name, block_sites,
                                            slots, small_tree, small_alignment,
                                            small_model, closing):
        rates = RateModel.gamma(0.8, 4)
        layout = make_layout(layout_name, *clv_geometry(
            small_tree, small_alignment, small_model, rates),
            block_sites=block_sites)
        assert (layout.blocks_per_node > 1) == (block_sites is not None)
        primary = AncestralVectorStore(layout=layout, num_slots=slots,
                                       policy="topological")
        shadow = ShadowStore(layout.num_items, slots, "topological")
        eng = closing(LikelihoodEngine(small_tree.copy(), small_alignment,
                                       small_model, rates,
                                       store=TeeStore(primary, [shadow])))
        lazy_spr_round(eng, radius=2)
        assert shadow.stats.writes + shadow.stats.write_skips > 0  # evicted
        for key in ("requests", "hits", "misses", "reads", "read_skips",
                    "writes", "write_skips"):
            assert getattr(shadow.stats, key) == getattr(primary.stats,
                                                         key), key

        tree, n = eng.tree, eng.tree.num_tips
        nodes = layout.store_item_nodes()
        for item in range(layout.num_items):
            d = shadow.policy.distance_provider(item)
            assert np.array_equal(d, primary.policy.distance_provider(item))
            hops = tree.hop_distances_from(n + int(nodes[item]))[n:]
            # the blocks of one node share that node's distance
            assert np.array_equal(d, hops[nodes])

    def test_a_policy_with_its_own_provider_keeps_it(self, small_tree,
                                                     small_alignment,
                                                     small_model, closing):
        rates = RateModel.gamma(0.8, 4)
        num_inner, shape = clv_geometry(small_tree, small_alignment,
                                        small_model, rates)

        def own(item):
            return np.zeros(num_inner)

        shadow = ShadowStore(num_inner, 4, "topological",
                             policy_kwargs={"distance_provider": own})
        closing(LikelihoodEngine(
            small_tree.copy(), small_alignment, small_model, rates,
            store=TeeStore(AncestralVectorStore(num_inner, shape), [shadow])))
        assert shadow.policy.distance_provider is own
