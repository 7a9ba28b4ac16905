"""The paper's §4.1 correctness criterion, as a test suite.

"Given a fixed starting tree, RAxML is deterministic, that is, regardless
of f and the selected replacement strategy, the resulting tree (and log
likelihood score) must always be identical to the tree returned by the
standard RAxML implementation." — we assert **bit-identical** log
likelihoods between the in-core engine and every out-of-core
configuration: all policies, multiple fractions, file and in-memory
backings, with read skipping on and off, and through search workloads.
"""

import os

import numpy as np
import pytest

from repro import FileBackingStore, MultiFileBackingStore
from repro.core.policies import policy_names
from repro.phylo.likelihood.branch_opt import smooth_all_branches
from repro.phylo.search import lazy_spr_round

POLICIES = [p for p in policy_names() if p != "belady"]  # belady is offline-only
# f = 0.5 is the oracle matrix's policy × prefetch slice.
FRACTIONS = [0.25, 0.75]


@pytest.fixture()
def incore_lnl(engine_factory):
    return engine_factory(fraction=1.0).loglikelihood()


class TestPlainEvaluation:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("fraction", FRACTIONS)
    def test_bit_identical_lnl(self, engine_factory, incore_lnl, policy, fraction):
        eng = engine_factory(fraction=fraction, policy=policy,
                             poison_skipped_reads=True)
        assert eng.loglikelihood() == incore_lnl
        if fraction < 1.0:
            assert eng.stats.misses > 0  # the run actually exercised swapping

    def test_minimum_three_slots(self, engine_factory, incore_lnl):
        eng = engine_factory(num_slots=3, policy="lru", poison_skipped_reads=True)
        assert eng.loglikelihood() == incore_lnl

    def test_five_slots_like_paper_extreme(self, engine_factory, incore_lnl):
        """The paper's most extreme case: 5 ancestral-vector slots in RAM."""
        eng = engine_factory(num_slots=5, policy="random", poison_skipped_reads=True)
        assert eng.loglikelihood() == incore_lnl

    def test_read_skipping_off_also_identical(self, engine_factory, incore_lnl):
        eng = engine_factory(fraction=0.3, policy="lru", read_skipping=False)
        assert eng.loglikelihood() == incore_lnl
        assert eng.stats.read_skips == 0

    def test_track_dirty_identical(self, engine_factory, incore_lnl):
        eng = engine_factory(fraction=0.3, policy="lru", track_dirty=True)
        assert eng.loglikelihood() == incore_lnl


class TestFileBackedEquivalence:
    def test_single_file(self, engine_factory, incore_lnl, tmp_path):
        probe = engine_factory(fraction=1.0)
        backing = FileBackingStore(tmp_path / "clv.bin", probe.num_inner,
                                   probe.clv_shape)
        eng = engine_factory(fraction=0.25, policy="lru", backing=backing)
        assert eng.loglikelihood() == incore_lnl
        assert os.path.getsize(tmp_path / "clv.bin") == \
            probe.num_inner * probe.ancestral_vector_bytes()
        backing.close()

    def test_multi_file(self, engine_factory, incore_lnl, tmp_path):
        probe = engine_factory(fraction=1.0)
        backing = MultiFileBackingStore(tmp_path, probe.num_inner,
                                        probe.clv_shape, num_files=3)
        eng = engine_factory(fraction=0.25, policy="random", backing=backing)
        assert eng.loglikelihood() == incore_lnl
        backing.close()


class TestWorkloadEquivalence:
    def test_full_traversals_identical(self, engine_factory):
        a = engine_factory(fraction=1.0).full_traversals(3)
        b = engine_factory(fraction=0.25, policy="lru",
                           poison_skipped_reads=True).full_traversals(3)
        assert a == b

    def test_branch_smoothing_identical(self, engine_factory):
        e1 = engine_factory(fraction=1.0)
        e2 = engine_factory(fraction=0.3, policy="lru", poison_skipped_reads=True)
        l1 = smooth_all_branches(e1, passes=2)
        l2 = smooth_all_branches(e2, passes=2)
        assert l1 == l2
        for u, v in e1.tree.edges():
            assert e1.tree.branch_length(u, v) == e2.tree.branch_length(u, v)

    def test_spr_round_identical_trees(self, engine_factory):
        """After an identical deterministic SPR round, topology + lnL match."""
        e1 = engine_factory(fraction=1.0)
        e2 = engine_factory(fraction=0.3, policy="lru", poison_skipped_reads=True)
        r1 = lazy_spr_round(e1, radius=3)
        r2 = lazy_spr_round(e2, radius=3)
        assert r1.lnl == r2.lnl
        assert r1.moves_applied == r2.moves_applied
        assert e1.tree.robinson_foulds(e2.tree) == 0

    @pytest.mark.parametrize("policy", ["random", "lru", "lfu", "topological"])
    def test_paper_policies_during_search(self, engine_factory, policy):
        """All four §3.3 strategies leave search results unchanged."""
        ref = engine_factory(fraction=1.0)
        ooc = engine_factory(fraction=0.25, policy=policy, seed=42)
        r_ref = lazy_spr_round(ref, radius=2)
        r_ooc = lazy_spr_round(ooc, radius=2)
        assert r_ref.lnl == r_ooc.lnl
        assert ref.tree.robinson_foulds(ooc.tree) == 0


class TestFloat32Equivalence:
    def test_single_precision_ooc_matches_single_precision_incore(
        self, engine_factory
    ):
        e1 = engine_factory(dtype=np.float32)
        e2 = engine_factory(dtype=np.float32, fraction=0.25, policy="lru")
        assert e1.loglikelihood() == e2.loglikelihood()
