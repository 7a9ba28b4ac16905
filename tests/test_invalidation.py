"""Fuzz tests for incremental CLV invalidation under topology edits.

The engine maintains per-node CLV orientations and invalidates the minimal
set after every SPR / NNI / branch-length change; a bug here produces
silently-wrong likelihoods. Every assertion compares the incremental
engine against a fresh engine that recomputes from scratch — values must be
**bit-identical** because both run the same kernel arithmetic.
"""

import numpy as np
import pytest

from repro import GTR, LikelihoodEngine, RateModel, simulate_alignment, yule_tree
from repro.errors import TreeError

MODEL = GTR((1, 2, 1, 1, 2, 1), (0.3, 0.2, 0.3, 0.2))
RATES = RateModel.gamma(0.9, 4)


@pytest.fixture(scope="module")
def dataset():
    tree = yule_tree(14, seed=55)
    aln = simulate_alignment(tree, MODEL, 150, rates=RATES, seed=56)
    return tree, aln


def fresh_lnl(tree, aln, u, v):
    eng = LikelihoodEngine(tree.copy(), aln, MODEL, RATES)
    return eng.edge_loglikelihood(u, v)


def random_edge(tree, rng):
    edges = list(tree.edges())
    return edges[rng.integers(len(edges))]


class TestMutationFuzz:
    def _run_fuzz(self, dataset, seed, steps, with_undo):
        tree, aln = dataset
        tree = tree.copy()
        rng = np.random.default_rng(seed)
        eng = LikelihoodEngine(tree, aln, MODEL, RATES, fraction=0.4,
                               policy="random", seed=1,
                               poison_skipped_reads=True)
        for _ in range(steps):
            op = rng.integers(5 if with_undo else 4)
            try:
                if op == 0:
                    u, v = random_edge(tree, rng)
                    eng.set_branch_length(u, v, float(rng.uniform(0.01, 0.5)))
                elif op == 1:
                    p = int(rng.integers(tree.num_tips, tree.num_nodes))
                    s = tree.neighbors(p)[rng.integers(3)]
                    cands = tree.spr_candidates(p, s, radius=6)
                    if not cands:
                        continue
                    undo = eng.apply_spr(p, s, cands[rng.integers(len(cands))])
                    if with_undo and rng.random() < 0.5:
                        eng.undo_spr(undo)
                elif op == 2:
                    internal = tree.internal_edges()
                    undo = eng.apply_nni(internal[rng.integers(len(internal))],
                                         int(rng.integers(2)))
                    if with_undo and rng.random() < 0.5:
                        eng.undo_nni(undo)
                elif op == 3:
                    u, v = random_edge(tree, rng)
                    assert eng.edge_loglikelihood(u, v) == fresh_lnl(tree, aln, u, v)
                else:
                    # mixed: evaluate, mutate, evaluate elsewhere
                    u, v = random_edge(tree, rng)
                    eng.edge_loglikelihood(u, v)
            except TreeError:
                continue
        u, v = eng.default_edge()
        assert eng.edge_loglikelihood(u, v) == fresh_lnl(tree, aln, u, v)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_apply_only(self, dataset, seed):
        self._run_fuzz(dataset, seed, steps=120, with_undo=False)

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_with_undo(self, dataset, seed):
        self._run_fuzz(dataset, seed, steps=120, with_undo=True)


class TestTargetedInvalidation:
    def test_branch_change_far_from_root(self, dataset):
        tree, aln = dataset
        tree = tree.copy()
        eng = LikelihoodEngine(tree, aln, MODEL, RATES)
        u, v = eng.default_edge()
        eng.edge_loglikelihood(u, v)
        # Change the most distant edge from the root edge.
        far = max(tree.edges(), key=lambda e: len(tree.path(v, e[0])))
        eng.set_branch_length(*far, 0.333)
        assert eng.edge_loglikelihood(u, v) == fresh_lnl(tree, aln, u, v)

    def test_root_edge_branch_change_is_cheap(self, dataset):
        """Changing the *current* root edge must invalidate nothing."""
        tree, aln = dataset
        tree = tree.copy()
        eng = LikelihoodEngine(tree, aln, MODEL, RATES)
        u, v = eng.default_edge()
        eng.edge_loglikelihood(u, v)
        valid_before = eng.orientation.num_valid()
        eng.set_branch_length(u, v, 0.123)
        assert eng.orientation.num_valid() == valid_before
        assert eng.edge_loglikelihood(u, v) == fresh_lnl(tree, aln, u, v)

    def test_spr_keeps_subtree_interior_valid(self, dataset):
        """Lazy SPR's payoff: CLVs inside the moved subtree that look toward
        the prune point cover only unmoved content and must stay valid.
        (CLVs oriented *away* from the prune point see the rest of the tree
        and are rightly invalidated.)"""
        tree, aln = dataset
        tree = tree.copy()
        eng = LikelihoodEngine(tree, aln, MODEL, RATES)
        eng.loglikelihood()
        checked = 0
        for p in list(tree.inner_nodes()):
            for s in tree.neighbors(p):
                if tree.is_tip(s):
                    continue
                sub = set(tree.subtree_nodes(s, p))
                cands = tree.spr_candidates(p, s, radius=10)
                if not cands:
                    continue
                # Inner subtree nodes whose orientation points toward p.
                toward_p = [
                    x for x in sub
                    if not tree.is_tip(x)
                    and eng.orientation.orient[x] >= 0
                    and tree.path(x, p)[1] == eng.orientation.orient[x]
                ]
                if not toward_p:
                    continue
                undo = eng.apply_spr(p, s, cands[-1])
                for x in toward_p:
                    assert eng.orientation.orient[x] >= 0, (
                        f"subtree-interior node {x} (toward prune point) was "
                        "needlessly invalidated"
                    )
                eng.undo_spr(undo)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_spr_and_nni_interleaved_without_evaluation(self, dataset, seed):
        """Moves pile up on a state no plan has refreshed in between: each
        invalidation starts from what the previous ones left."""
        tree, aln = dataset
        tree = tree.copy()
        rng = np.random.default_rng(seed)
        eng = LikelihoodEngine(tree, aln, MODEL, RATES)
        eng.edge_loglikelihood(*random_edge(tree, rng))
        for round_ in range(6):
            for _ in range(int(rng.integers(2, 6))):
                if rng.random() < 0.5:
                    p = int(rng.integers(tree.num_tips, tree.num_nodes))
                    s = tree.neighbors(p)[rng.integers(3)]
                    cands = tree.spr_candidates(p, s, radius=4)
                    if not cands:
                        continue
                    undo = eng.apply_spr(p, s, cands[rng.integers(len(cands))])
                    if rng.random() < 0.3:
                        eng.undo_spr(undo)
                else:
                    internal = tree.internal_edges()
                    undo = eng.apply_nni(internal[rng.integers(len(internal))],
                                         int(rng.integers(2)))
                    if rng.random() < 0.3:
                        eng.undo_nni(undo)
            u, v = random_edge(tree, rng)
            assert eng.edge_loglikelihood(u, v) == fresh_lnl(tree, aln, u, v)

    def test_evaluation_after_undo_matches(self, dataset):
        tree, aln = dataset
        tree = tree.copy()
        eng = LikelihoodEngine(tree, aln, MODEL, RATES)
        before = eng.loglikelihood()
        p = list(tree.inner_nodes())[4]
        s = tree.neighbors(p)[0]
        cands = tree.spr_candidates(p, s, radius=5)
        undo = eng.apply_spr(p, s, cands[0])
        eng.loglikelihood()  # force recomputation on the new topology
        eng.undo_spr(undo)
        assert eng.loglikelihood() == before

    def test_plan_is_empty_when_nothing_changed(self, dataset):
        tree, aln = dataset
        tree = tree.copy()
        eng = LikelihoodEngine(tree, aln, MODEL, RATES)
        u, v = eng.default_edge()
        eng.edge_loglikelihood(u, v)
        assert len(eng.plan(u, v)) == 0

    def test_full_plan_covers_all_inner_nodes(self, dataset):
        tree, aln = dataset
        tree = tree.copy()
        eng = LikelihoodEngine(tree, aln, MODEL, RATES)
        u, v = eng.default_edge()
        plan = eng.plan(u, v, full=True)
        assert sorted(plan.touched_nodes()) == list(tree.inner_nodes())
