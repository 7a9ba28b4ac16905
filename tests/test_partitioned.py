"""Tests for partitioned (multi-gene) likelihood computation."""

import numpy as np
import pytest

from repro import (
    GTR,
    HKY85,
    EngineConfig,
    JC69,
    LikelihoodEngine,
    PartitionedEngine,
    RateModel,
    split_alignment,
    simulate_alignment,
    yule_tree,
)
from repro.errors import LikelihoodError, ReproError


@pytest.fixture(scope="module")
def part_dataset():
    tree = yule_tree(8, seed=401)
    model = GTR((1, 2, 1, 1, 2, 1), (0.3, 0.2, 0.25, 0.25))
    aln = simulate_alignment(tree, model, 600, rates=RateModel.gamma(0.8, 4),
                             seed=402)
    return tree, aln


class TestSplitAlignment:
    def test_split_sites_partition(self, part_dataset):
        _, aln = part_dataset
        parts = split_alignment(aln, [200, 450])
        assert [p.num_sites for p in parts] == [200, 250, 150]
        assert all(p.names == aln.names for p in parts)
        recombined = np.concatenate([p.codes for p in parts], axis=1)
        np.testing.assert_array_equal(recombined, aln.codes)

    def test_bad_boundaries_rejected(self, part_dataset):
        _, aln = part_dataset
        for bad in ([0], [700], [300, 200], [100, 100]):
            with pytest.raises(LikelihoodError, match="boundaries"):
                split_alignment(aln, bad)


class TestPartitionedLikelihood:
    # One partition == the plain engine, and SPR/NNI + undo, are steps of the
    # scenario in tests/test_evaluator.py (bit for bit, after every step).

    def test_identical_models_sum_to_unpartitioned(self, part_dataset):
        """With the same model everywhere, partitioning cannot change lnL."""
        tree, aln = part_dataset
        model = HKY85(2.0, (0.3, 0.2, 0.25, 0.25))
        rates = RateModel.gamma(0.9, 4)
        plain = LikelihoodEngine(tree.copy(), aln, model, rates)
        parts = split_alignment(aln, [250])
        part = PartitionedEngine(tree.copy(),
                                 [(p, model, rates) for p in parts])
        assert part.loglikelihood() == pytest.approx(plain.loglikelihood(),
                                                     abs=1e-9)

    def test_per_partition_models_fit_better(self, part_dataset):
        """Heterogeneous data: per-partition models beat one joint model."""
        tree = yule_tree(8, seed=403)
        a1 = simulate_alignment(tree, HKY85(8.0, (0.4, 0.1, 0.1, 0.4)), 300,
                                seed=404)
        a2 = simulate_alignment(tree, JC69(), 300, seed=405)
        import numpy as np
        from repro import Alignment
        joint_codes = np.concatenate([a1.codes, a2.codes], axis=1)
        joint = Alignment(a1.names, joint_codes, a1.alphabet)
        rates = RateModel.gamma(1.0, 4)
        single = LikelihoodEngine(tree.copy(), joint, JC69(), rates)
        part = PartitionedEngine(tree.copy(), [
            (a1, HKY85(8.0, (0.4, 0.1, 0.1, 0.4)), rates),
            (a2, JC69(), rates),
        ])
        assert part.loglikelihood() > single.loglikelihood()

    def test_out_of_core_partitions_identical(self, part_dataset):
        tree, aln = part_dataset
        model = JC69()
        rates = RateModel.gamma(1.0, 4)
        parts = split_alignment(aln, [300])
        triples = [(p, model, rates) for p in parts]
        ref = PartitionedEngine(tree.copy(), triples).loglikelihood()
        ooc = PartitionedEngine(
            tree.copy(), triples,
            store_kwargs={"fraction": 0.5, "policy": "lru",
                          "poison_skipped_reads": True},
        )
        assert ooc.loglikelihood() == ref
        assert all(s.requests > 0 for s in ooc.partition_stats)
        merged = ooc.stats()
        assert merged.requests == sum(s.requests for s in ooc.partition_stats)

    def test_per_partition_store_configs(self, part_dataset):
        tree, aln = part_dataset
        model = JC69()
        rates = RateModel.gamma(1.0, 4)
        parts = split_alignment(aln, [300])
        eng = PartitionedEngine(
            tree.copy(), [(p, model, rates) for p in parts],
            store_kwargs=[{"fraction": 0.5}, {"num_slots": 3}],
        )
        assert eng.engines[0].store.num_slots == 3  # 0.5 * 6 inner
        assert eng.engines[1].store.num_slots == 3

    def test_validation(self, part_dataset):
        tree, aln = part_dataset
        with pytest.raises(LikelihoodError, match="at least one"):
            PartitionedEngine(tree.copy(), [])
        with pytest.raises(LikelihoodError, match="store configs"):
            PartitionedEngine(tree.copy(),
                              [(aln, JC69(), RateModel.gamma(1.0, 4))],
                              store_kwargs=[{}, {}])

    @pytest.mark.parametrize("mode", ["store_kwargs", "shared_store"])
    def test_both_modes_take_the_constructor_overrides(self, part_dataset,
                                                       mode):
        """Either dict is splatted into the engine constructor, so a typo
        is EngineConfig's one error and every part has a configuration."""
        tree, aln = part_dataset
        parts = [(p, JC69(), RateModel.gamma(1.0, 4))
                 for p in split_alignment(aln, [300])]
        with pytest.raises(ReproError, match="unknown engine option polcy"):
            PartitionedEngine(tree.copy(), parts, **{mode: {"polcy": "lru"}})
        with pytest.raises(ReproError, match="^writeback_depth must be"):
            PartitionedEngine(tree.copy(), parts,
                              **{mode: {"writeback_depth": -1}})
        eng = PartitionedEngine(tree.copy(), parts, **{mode: {
            "fraction": 0.5, "policy": "random", "seed": 3,
            "dtype": "float32", "track_dirty": True}})
        try:
            for part in eng.engines:
                assert isinstance(part.config, EngineConfig)
                assert part.config.dtype == "float32"
                assert part.store.policy.name == "random"
                assert part.store.track_dirty
        finally:
            eng.close()


class TestSharedTreeMutations:
    def _engines(self, part_dataset):
        tree, aln = part_dataset
        model = JC69()
        rates = RateModel.gamma(1.0, 4)
        parts = split_alignment(aln, [300])
        return PartitionedEngine(tree.copy(), [(p, model, rates) for p in parts])

    def _fresh_lnl(self, part):
        ref = PartitionedEngine(
            part.tree.copy(),
            [(e.alignment, e.model, e.rates) for e in part.engines],
        )
        return ref.loglikelihood()

    def test_branch_change_consistent(self, part_dataset):
        part = self._engines(part_dataset)
        part.loglikelihood()
        u, v = next(iter(part.tree.edges()))
        part.set_branch_length(u, v, 0.42)
        assert part.loglikelihood() == pytest.approx(self._fresh_lnl(part),
                                                     abs=1e-9)

    def test_joint_branch_optimization_improves(self, part_dataset):
        part = self._engines(part_dataset)
        u, v = part.tree.internal_edges()[0]
        part.set_branch_length(u, v, 3.0)
        before = part.loglikelihood()
        part.optimize_branch(u, v)
        assert part.loglikelihood() > before

    def test_optimize_all_branches_converges(self, part_dataset):
        part = self._engines(part_dataset)
        l1 = part.optimize_all_branches(passes=1)
        l2 = part.optimize_all_branches(passes=1)
        assert l2 >= l1 - 1e-9

    def test_memory_accounting(self, part_dataset):
        part = self._engines(part_dataset)
        assert part.total_ancestral_bytes() == sum(
            e.total_ancestral_bytes() for e in part.engines
        )


class TestPartitionedSearch:
    def test_ml_search_runs_on_partitioned_engine(self, part_dataset):
        """The shared optimize protocol makes the search driver partition-
        agnostic: lazy SPR + NNI over a PartitionedEngine."""
        from repro.phylo.search import ml_search

        tree, aln = part_dataset
        model = JC69()
        rates = RateModel.gamma(1.0, 4)
        parts = split_alignment(aln, [300])
        start = yule_tree(tree.num_tips, seed=999, names=tree.names)
        part = PartitionedEngine(start, [(p, model, rates) for p in parts])
        before = part.loglikelihood()
        result = ml_search(part, radius=3, max_rounds=2, do_alpha=False)
        assert result.lnl >= before
        part.tree.validate()
