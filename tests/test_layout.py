"""Tests for storage layouts: site-block paging through the whole stack.

The contract under test is the paper's §4.1 bit-identity, extended to
layouts: for *any* storage layout — whole vectors (the paper's unit) or
site blocks of any size, including sizes that do not divide the pattern
count — every policy/backing/read-skipping combination must produce the
same log-likelihood bits as the in-core engine, while a block layout
additionally lets the slot budget drop below one whole vector.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    GTR,
    LikelihoodEngine,
    PartitionedEngine,
    RateModel,
    RecordingStoreProxy,
    clv_geometry,
    simulate_alignment,
    simulate_policy_on_trace,
    split_alignment,
    yule_tree,
)
from repro.core.layout import (
    DEFAULT_BLOCK_SITES,
    ConcatenatedLayout,
    MIRRORED_COUNTERS,
    PartitionLayoutView,
    SharedStoreView,
    SiteBlockLayout,
    WholeVectorLayout,
    make_layout,
)
from repro.core.stats import DEMAND_COUNTERS
from repro.core.vecstore import AncestralVectorStore
from repro.errors import LikelihoodError, OutOfCoreError, ReproError


class TestWholeVectorLayout:
    def test_identity_mapping(self):
        lay = WholeVectorLayout(7, (100, 4, 4))
        assert lay.num_items == 7
        assert lay.item_shape == (100, 4, 4)
        assert lay.blocks_per_node == 1
        for n in range(7):
            assert lay.item_of(n, 0) == n
            assert list(lay.items_of(n)) == [n]
            assert lay.node_of(n) == n
            assert lay.block_of(n) == 0
            assert lay.item_sites(n) == (0, 100)
        assert lay.block_bounds(0) == (0, 100)
        np.testing.assert_array_equal(lay.store_item_nodes(), np.arange(7))

    def test_rejects_out_of_range(self):
        lay = WholeVectorLayout(3, (10, 2, 4))
        with pytest.raises(OutOfCoreError):
            lay.item_of(3, 0)
        with pytest.raises(OutOfCoreError):
            lay.item_of(0, 1)
        with pytest.raises(OutOfCoreError):
            lay.node_of(-1)


class TestSiteBlockLayout:
    def test_even_split(self):
        lay = SiteBlockLayout(5, (120, 4, 4), block_sites=30)
        assert lay.blocks_per_node == 4
        assert lay.num_items == 20
        assert lay.item_shape == (30, 4, 4)
        assert lay.item_of(2, 3) == 11
        assert lay.node_of(11) == 2
        assert lay.block_of(11) == 3
        assert lay.block_bounds(3) == (90, 120)
        assert list(lay.items_of(2)) == [8, 9, 10, 11]

    def test_ragged_last_block(self):
        lay = SiteBlockLayout(3, (100, 2, 4), block_sites=30)
        assert lay.blocks_per_node == 4  # 30+30+30+10
        assert lay.block_bounds(3) == (90, 100)
        lo, hi = lay.item_sites(lay.item_of(1, 3))
        assert (lo, hi) == (90, 100)
        # the slot still stores a full 30-row block; 20 rows are padding
        assert lay.item_shape == (30, 2, 4)

    def test_block_larger_than_patterns_pads(self):
        # not clamped: uniform block shape is what lets a shared store
        # concatenate partitions of different pattern counts
        lay = SiteBlockLayout(4, (50, 2, 4), block_sites=500)
        assert lay.block_sites == 500
        assert lay.blocks_per_node == 1
        assert lay.num_items == 4
        assert lay.item_shape == (500, 2, 4)
        assert lay.block_bounds(0) == (0, 50)

    def test_store_item_nodes(self):
        lay = SiteBlockLayout(3, (10, 1, 4), block_sites=4)  # 3 blocks/node
        np.testing.assert_array_equal(
            lay.store_item_nodes(), [0, 0, 0, 1, 1, 1, 2, 2, 2])

    def test_round_trip_every_item(self):
        lay = SiteBlockLayout(6, (47, 3, 4), block_sites=9)
        for item in range(lay.num_items):
            n, b = lay.node_of(item), lay.block_of(item)
            assert lay.item_of(n, b) == item
            lo, hi = lay.item_sites(item)
            assert 0 <= lo < hi <= 47
            assert hi - lo <= lay.block_sites


class TestMakeLayout:
    def test_strings(self):
        w = make_layout("whole", 5, (40, 2, 4))
        assert isinstance(w, WholeVectorLayout)
        b = make_layout("block", 5, (40, 2, 4), block_sites=8)
        assert isinstance(b, SiteBlockLayout) and b.block_sites == 8
        d = make_layout("block", 5, (400, 2, 4))
        assert d.block_sites == DEFAULT_BLOCK_SITES

    def test_instance_passthrough_and_check(self):
        lay = SiteBlockLayout(5, (40, 2, 4), block_sites=8)
        assert make_layout(lay, 5, (40, 2, 4)) is lay
        with pytest.raises(OutOfCoreError, match="describes"):
            make_layout(lay, 6, (40, 2, 4))

    def test_rejects_unknown_and_misuse(self):
        with pytest.raises(OutOfCoreError, match="unknown layout"):
            make_layout("paged", 5, (40, 2, 4))
        with pytest.raises(OutOfCoreError, match="block_sites"):
            make_layout("whole", 5, (40, 2, 4), block_sites=8)


class TestConcatenatedLayout:
    def test_global_ids_and_views(self):
        a = SiteBlockLayout(4, (50, 2, 4), block_sites=20)  # 3 blocks/node
        b = SiteBlockLayout(4, (33, 2, 4), block_sites=20)  # 2 blocks/node
        cat = ConcatenatedLayout([a, b])
        assert cat.num_items == 12 + 8
        assert cat.partition_of(0) == 0
        assert cat.partition_of(11) == 0
        assert cat.partition_of(12) == 1
        v1 = cat.view(1)
        assert isinstance(v1, PartitionLayoutView)
        assert v1.item_of(0, 0) == 12
        assert cat.node_of(v1.item_of(3, 1)) == 3
        assert cat.item_sites(12 + 3) == (20, 33)  # partition 1, ragged
        assert len(cat.store_item_nodes()) == 20

    def test_node_level_methods_ambiguous(self):
        a = SiteBlockLayout(4, (50, 2, 4), block_sites=20)
        cat = ConcatenatedLayout([a, a])
        for call in (lambda: cat.item_of(0, 0), lambda: cat.items_of(0),
                     lambda: cat.block_bounds(0)):
            with pytest.raises(OutOfCoreError, match="ambiguous"):
                call()

    def test_unequal_whole_vector_patterns_rejected(self):
        a = WholeVectorLayout(4, (50, 2, 4))
        b = WholeVectorLayout(4, (33, 2, 4))
        with pytest.raises(OutOfCoreError, match="block geometry"):
            ConcatenatedLayout([a, b])

    def test_unequal_node_counts_rejected(self):
        a = SiteBlockLayout(4, (50, 2, 4), block_sites=20)
        b = SiteBlockLayout(5, (50, 2, 4), block_sites=20)
        with pytest.raises(OutOfCoreError, match="inner-node set"):
            ConcatenatedLayout([a, b])


@pytest.fixture(scope="module")
def layout_dataset():
    tree = yule_tree(11, seed=701)
    model = GTR((1.0, 2.2, 0.9, 1.1, 2.8, 1.0), (0.28, 0.22, 0.26, 0.24))
    rates = RateModel.gamma(0.75, 4)
    aln = simulate_alignment(tree, model, 260, rates=rates, seed=702)
    return tree, aln, model, rates


def _incore_lnl(layout_dataset):
    tree, aln, model, rates = layout_dataset
    eng = LikelihoodEngine(tree.copy(), aln, model, rates)
    lnl = eng.loglikelihood()
    eng.close()
    return lnl


class TestBlockBitIdentity:
    """§4.1 extended: lnL bits are invariant under the storage layout."""

    @pytest.mark.parametrize("policy", ["random", "lru", "lfu", "fifo",
                                        "clock", "topological"])
    @pytest.mark.parametrize("block_sites", [16, 37, 64])
    def test_policies_and_block_sizes(self, layout_dataset, policy,
                                      block_sites):
        # 37 does not divide 260 patterns -> exercises the ragged block
        tree, aln, model, rates = layout_dataset
        base = _incore_lnl(layout_dataset)
        eng = LikelihoodEngine(
            tree.copy(), aln, model, rates, fraction=0.3, policy=policy,
            seed=7, layout="block", block_sites=block_sites)
        assert eng.loglikelihood() == base
        assert eng.stats.misses > 0
        eng.close()

    @pytest.mark.parametrize("read_skipping", [True, False])
    def test_read_skipping(self, layout_dataset, read_skipping):
        tree, aln, model, rates = layout_dataset
        base = _incore_lnl(layout_dataset)
        eng = LikelihoodEngine(
            tree.copy(), aln, model, rates, fraction=0.3, policy="lru",
            read_skipping=read_skipping, layout="block", block_sites=32)
        assert eng.loglikelihood() == base
        if read_skipping:
            assert eng.stats.read_skips > 0
        else:
            assert eng.stats.read_skips == 0
        eng.close()

    def test_whole_layout_is_identity(self, layout_dataset):
        """layout='whole' must be indistinguishable from the default."""
        tree, aln, model, rates = layout_dataset
        a = LikelihoodEngine(tree.copy(), aln, model, rates,
                             fraction=0.4, policy="lru")
        b = LikelihoodEngine(tree.copy(), aln, model, rates,
                             fraction=0.4, policy="lru", layout="whole")
        assert a.loglikelihood() == b.loglikelihood()
        assert a.stats.as_row() == b.stats.as_row()
        assert isinstance(b.layout, WholeVectorLayout)
        a.close(), b.close()

    def test_sub_vector_slot_budget(self, layout_dataset):
        """A block store can run on less RAM than ONE whole vector."""
        tree, aln, model, rates = layout_dataset
        base = _incore_lnl(layout_dataset)
        eng = LikelihoodEngine(tree.copy(), aln, model, rates,
                               num_slots=3, policy="lru",
                               layout="block", block_sites=16)
        bpn = eng.layout.blocks_per_node
        assert bpn > 3  # the budget really is below one vector
        one_vector_bytes = int(np.prod(eng.clv_shape)) * eng.dtype.itemsize
        assert eng.store.ram_bytes() < one_vector_bytes
        assert eng.loglikelihood() == base
        eng.close()

    def test_full_traversals_block(self, layout_dataset):
        tree, aln, model, rates = layout_dataset
        incore = LikelihoodEngine(tree.copy(), aln, model, rates)
        blocked = LikelihoodEngine(tree.copy(), aln, model, rates,
                                   num_slots=4, layout="block",
                                   block_sites=48)
        assert blocked.full_traversals(2) == incore.full_traversals(2)
        incore.close(), blocked.close()

    @pytest.mark.parametrize("backing,writeback,prefetch", [
        ("file", 0, 0), ("file", 4, 0), ("file", 0, 2), ("simulated", 2, 2),
    ])
    def test_backing_writeback_prefetch(self, layout_dataset, tmp_path,
                                        backing, writeback, prefetch):
        from repro.core.backing import FileBackingStore, SimulatedDiskBackingStore

        tree, aln, model, rates = layout_dataset
        base = _incore_lnl(layout_dataset)
        layout = SiteBlockLayout(*clv_geometry(tree, aln, model, rates),
                                 block_sites=40)
        if backing == "file":
            store = FileBackingStore.from_layout(
                tmp_path / f"vec-{writeback}-{prefetch}.bin", layout,
                np.float64)
        else:
            store = SimulatedDiskBackingStore.from_layout(layout, np.float64)
        eng = LikelihoodEngine(
            tree.copy(), aln, model, rates, fraction=0.25, policy="lru",
            layout=layout, backing=store,
            writeback_depth=writeback, io_threads=1,
            prefetch_depth=prefetch)
        assert eng.loglikelihood() == base
        eng.store.drain()
        eng.store.validate()
        eng.close()

    def test_explicit_store_carries_its_layout(self, layout_dataset):
        tree, aln, model, rates = layout_dataset
        base = _incore_lnl(layout_dataset)
        layout = SiteBlockLayout(*clv_geometry(tree, aln, model, rates), 25)
        store = AncestralVectorStore(layout=layout, num_slots=5)
        eng = LikelihoodEngine(tree.copy(), aln, model, rates, store=store)
        assert eng.layout is layout
        assert eng.loglikelihood() == base
        eng.close()

    def test_layout_kwarg_with_explicit_store_rejected(self, layout_dataset):
        tree, aln, model, rates = layout_dataset
        store = AncestralVectorStore(*clv_geometry(tree, aln, model, rates))
        with pytest.raises(ReproError, match="layout .* explicit store"):
            LikelihoodEngine(tree.copy(), aln, model, rates, store=store,
                             layout="block")
        store.close()


@settings(max_examples=20, deadline=None)
@given(
    num_taxa=st.integers(min_value=4, max_value=14),
    seed=st.integers(min_value=0, max_value=10**6),
    block_sites=st.integers(min_value=3, max_value=90),
    policy=st.sampled_from(["random", "lru", "lfu", "fifo", "clock",
                            "topological"]),
    slots=st.integers(min_value=3, max_value=10),
    read_skipping=st.booleans(),
)
def test_property_block_layout_bit_identical(num_taxa, seed, block_sites,
                                             policy, slots, read_skipping):
    """§4.1 over random (tree, block size, policy, m, read-skip) points.

    ``block_sites`` is drawn independently of the pattern count, so the
    ragged (non-dividing) and padded (block > patterns) cases come up
    constantly; ``slots`` is often below one whole vector's block count.
    """
    tree = yule_tree(num_taxa, seed=seed)
    model = GTR((1, 2, 1, 1, 2, 1), (0.3, 0.2, 0.25, 0.25))
    rates = RateModel.gamma(0.7, 2)
    aln = simulate_alignment(tree, model, 70, rates=rates, seed=seed + 1)
    ref = LikelihoodEngine(tree.copy(), aln, model, rates).loglikelihood()
    ooc = LikelihoodEngine(
        tree.copy(), aln, model, rates,
        num_slots=slots, policy=policy, read_skipping=read_skipping,
        poison_skipped_reads=True, layout="block", block_sites=block_sites,
        seed=1,
    )
    assert ooc.loglikelihood() == ref
    ooc.store.validate()
    ooc.close()


class TestBlockTraceReplay:
    """Recorded block-granular traces replay with exact counter parity."""

    @pytest.mark.parametrize("policy", ["lru", "fifo", "clock"])
    def test_replay_parity(self, layout_dataset, policy):
        tree, aln, model, rates = layout_dataset
        eng = LikelihoodEngine(tree.copy(), aln, model, rates,
                               num_slots=6, policy=policy,
                               layout="block", block_sites=32)
        proxy = RecordingStoreProxy(eng.store)
        eng.store = proxy
        eng.full_traversals(2)
        live = eng.stats
        assert isinstance(proxy.trace.layout, SiteBlockLayout)
        assert proxy.trace.num_items == eng.layout.num_items
        replayed = simulate_policy_on_trace(proxy.trace, 6, policy)
        assert replayed.requests == live.requests
        assert replayed.hits == live.hits
        assert replayed.misses == live.misses
        assert replayed.reads == live.reads
        assert replayed.read_skips == live.read_skips
        eng.close()

    def test_topological_policy_block_items(self, layout_dataset):
        """The distance provider maps items back through the layout."""
        tree, aln, model, rates = layout_dataset
        base = _incore_lnl(layout_dataset)
        eng = LikelihoodEngine(tree.copy(), aln, model, rates,
                               num_slots=5, policy="topological",
                               layout="block", block_sites=24)
        policy = eng.store.policy
        assert policy.distance_provider is not None
        d = policy.distance_provider(eng.layout.num_items - 1)
        assert len(d) == eng.layout.num_items
        # all blocks of one node are equidistant
        nodes = eng.layout.store_item_nodes()
        for n in np.unique(nodes):
            assert len(np.unique(d[nodes == n])) == 1
        assert eng.loglikelihood() == base
        eng.close()


@pytest.fixture(scope="module")
def shared_dataset():
    tree = yule_tree(8, seed=711)
    model = GTR((1, 2, 1, 1, 2, 1), (0.3, 0.2, 0.25, 0.25))
    aln = simulate_alignment(tree, model, 500,
                             rates=RateModel.gamma(0.8, 4), seed=712)
    parts = split_alignment(aln, [180, 390])  # 180 / 210 / 110 sites
    rates = RateModel.gamma(0.8, 4)
    return tree, [(p, model, rates) for p in parts]


class TestSharedPartitionedStore:
    def test_loglikelihood_matches_per_partition(self, shared_dataset):
        tree, parts = shared_dataset
        per = PartitionedEngine(tree.copy(), parts)
        lnl = per.loglikelihood()
        shared = PartitionedEngine(
            tree.copy(), parts,
            shared_store={"block_sites": 32, "num_slots": 8, "policy": "lru"})
        assert shared.loglikelihood() == lnl
        assert shared.shared_store is not None
        per.close(), shared.close()

    def test_single_global_budget(self, shared_dataset):
        tree, parts = shared_dataset
        shared = PartitionedEngine(
            tree.copy(), parts,
            shared_store={"block_sites": 32, "num_slots": 9})
        store = shared.shared_store
        assert store.num_slots == 9
        assert store.layout is shared.shared_layout
        total_blocks = sum(p.num_items for p in shared.shared_layout.parts)
        assert store.num_items == total_blocks
        shared.loglikelihood()
        # one arena: resident blocks across ALL partitions <= the budget
        assert len(store.resident_items()) <= 9
        shared.close()

    def test_stats_aggregation(self, shared_dataset):
        tree, parts = shared_dataset
        shared = PartitionedEngine(
            tree.copy(), parts,
            shared_store={"block_sites": 32, "num_slots": 8})
        shared.loglikelihood()
        merged = shared.stats()
        mirrors = shared.partition_stats
        assert len(mirrors) == len(parts)
        # the global demand traffic is exactly the sum of the per-partition
        # mirrors (demand counters move only on the compute thread)
        for key in sorted(DEMAND_COUNTERS):
            assert getattr(merged, key) == sum(
                getattr(m, key) for m in mirrors), key
        assert merged.requests > 0
        shared.close()

    def test_per_partition_stats_merge(self, shared_dataset):
        tree, parts = shared_dataset
        per = PartitionedEngine(tree.copy(), parts,
                                store_kwargs={"fraction": 0.5})
        per.loglikelihood()
        merged = per.stats()
        assert merged.requests == sum(s.requests for s in per.partition_stats)
        assert merged.hits == sum(s.hits for s in per.partition_stats)
        per.close()

    def test_repr_mentions_arrangement(self, shared_dataset):
        tree, parts = shared_dataset
        shared = PartitionedEngine(tree.copy(), parts,
                                   shared_store={"num_slots": 8})
        assert "shared store" in repr(shared)
        per = PartitionedEngine(tree.copy(), parts)
        assert "per-partition" in repr(per)
        shared.close(), per.close()

    def test_both_configs_rejected(self, shared_dataset):
        tree, parts = shared_dataset
        with pytest.raises(LikelihoodError, match="not both"):
            PartitionedEngine(tree.copy(), parts,
                              store_kwargs={"fraction": 0.5},
                              shared_store={"num_slots": 8})

    def test_whole_layout_unequal_patterns_rejected(self, shared_dataset):
        tree, parts = shared_dataset
        with pytest.raises(OutOfCoreError, match="block geometry"):
            PartitionedEngine(tree.copy(), parts,
                              shared_store={"layout": "whole"})


class TestSharedStoreView:
    def test_demand_mirror_is_exact(self):
        layout = SiteBlockLayout(4, (60, 2, 4), block_sites=20)
        cat = ConcatenatedLayout([layout])
        store = AncestralVectorStore(layout=cat, num_slots=4)
        view = SharedStoreView(store, cat.view(0))
        rng = np.random.default_rng(3)
        for _ in range(200):
            view.get(int(rng.integers(0, cat.num_items)),
                     write_only=bool(rng.integers(0, 2)))
        for key in MIRRORED_COUNTERS:
            assert getattr(view.stats, key) == getattr(store.stats, key), key
        assert view.shared_stats is store.stats
        view.close()  # no-op: must NOT close the shared store
        store.get(0)  # still usable
        store.close()
