"""End-to-end property tests: the §4.1 equivalence over random configurations.

Hypothesis drives random (tree, data, store-geometry, policy) combinations
and asserts the paper's core invariant every time: the out-of-core engine's
log-likelihood is bit-identical to the in-core engine's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GTR, JC69, LikelihoodEngine, RateModel, simulate_alignment, yule_tree
from repro.phylo.bootstrap import bootstrap_weights
from repro.utils.rng import as_rng


@settings(max_examples=20, deadline=None)
@given(
    num_taxa=st.integers(min_value=4, max_value=16),
    seed=st.integers(min_value=0, max_value=10**6),
    policy=st.sampled_from(["random", "lru", "lfu", "fifo", "topological"]),
    slots=st.integers(min_value=3, max_value=10),
    cats=st.integers(min_value=1, max_value=4),
)
def test_ooc_engine_bit_identical(num_taxa, seed, policy, slots, cats):
    tree = yule_tree(num_taxa, seed=seed)
    model = GTR((1, 2, 1, 1, 2, 1), (0.3, 0.2, 0.25, 0.25))
    rates = RateModel.gamma(0.7, cats) if cats > 1 else RateModel.uniform()
    aln = simulate_alignment(tree, model, 60, rates=rates, seed=seed + 1)
    ref = LikelihoodEngine(tree.copy(), aln, model, rates).loglikelihood()
    ooc = LikelihoodEngine(
        tree.copy(), aln, model, rates,
        num_slots=slots, policy=policy, seed=1, poison_skipped_reads=True,
    )
    assert ooc.loglikelihood() == ref


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    edits=st.integers(min_value=1, max_value=12),
)
def test_incremental_equals_fresh_after_random_edits(seed, edits):
    rng = as_rng(seed)
    tree = yule_tree(9, seed=seed)
    model = JC69()
    rates = RateModel.gamma(1.0, 2)
    aln = simulate_alignment(tree, model, 50, rates=rates, seed=seed + 1)
    eng = LikelihoodEngine(tree, aln, model, rates, num_slots=4, policy="lru",
                           poison_skipped_reads=True)
    for _ in range(edits):
        op = rng.integers(3)
        if op == 0:
            edges = list(tree.edges())
            u, v = edges[rng.integers(len(edges))]
            eng.set_branch_length(u, v, float(rng.uniform(0.01, 0.4)))
        elif op == 1:
            internal = tree.internal_edges()
            if internal:
                eng.apply_nni(internal[rng.integers(len(internal))],
                              int(rng.integers(2)))
        else:
            p = int(rng.integers(tree.num_tips, tree.num_nodes))
            s = tree.neighbors(p)[rng.integers(3)]
            cands = tree.spr_candidates(p, s, radius=4)
            if cands:
                eng.apply_spr(p, s, cands[rng.integers(len(cands))])
    fresh = LikelihoodEngine(tree.copy(), aln, model, rates)
    u, v = eng.default_edge()
    assert eng.edge_loglikelihood(u, v) == fresh.edge_loglikelihood(u, v)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_bootstrap_weights_equal_resampled_alignment(seed):
    """Weight-swapping must equal rebuilding the alignment from resampled
    sites — the fast bootstrap path is exact, not approximate."""
    from repro.phylo.msa import Alignment

    tree = yule_tree(6, seed=seed)
    model = JC69()
    rates = RateModel.uniform()
    aln = simulate_alignment(tree, model, 40, rates=rates, seed=seed + 1)
    rng = as_rng(seed + 2)
    comp = aln.compress()
    # draw a replicate as explicit sites, then derive both representations
    sites = rng.integers(aln.num_sites, size=aln.num_sites)
    rep_aln = Alignment(aln.names, np.ascontiguousarray(aln.codes[:, sites]),
                        aln.alphabet)
    weights = np.bincount(comp.pattern_of_site[sites],
                          minlength=comp.num_patterns).astype(float)

    direct = LikelihoodEngine(tree.copy(), rep_aln, model, rates).loglikelihood()
    fast = LikelihoodEngine(tree.copy(), aln, model, rates)
    fast.set_pattern_weights(weights)
    assert fast.loglikelihood() == pytest.approx(direct, abs=1e-9)


class TestPatternWeightApi:
    def test_zero_weights_allowed(self, engine_factory):
        eng = engine_factory()
        w = eng.pattern_weights.copy()
        w[0] = 0.0
        eng.set_pattern_weights(w)
        assert np.isfinite(eng.loglikelihood())

    def test_reset_restores_original(self, engine_factory):
        eng = engine_factory()
        original = eng.loglikelihood()
        eng.set_pattern_weights(np.ones(eng.num_patterns))
        assert eng.loglikelihood() != original
        eng.reset_pattern_weights()
        assert eng.loglikelihood() == original

    def test_validation(self, engine_factory):
        from repro.errors import LikelihoodError

        eng = engine_factory()
        with pytest.raises(LikelihoodError, match="pattern weights"):
            eng.set_pattern_weights(np.ones(3))
        with pytest.raises(LikelihoodError, match="finite"):
            eng.set_pattern_weights(np.full(eng.num_patterns, -1.0))
