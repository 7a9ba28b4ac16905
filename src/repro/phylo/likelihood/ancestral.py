"""Marginal ancestral state reconstruction.

Computes, for any inner node, the posterior probability of each character
state at each site — the classic use of the very ancestral probability
vectors the out-of-core store manages. The marginal at node ``x`` combines
the three directional conditional likelihoods around ``x``; we obtain them
by evaluating with the virtual root placed on an edge incident to ``x``
(so the engine's stored CLV of ``x`` covers two subtrees and the third
direction is folded across the root edge).

Because all vector traffic goes through the engine's edge-operand fetch
(``store.get``), reconstruction works unchanged — and bit-identically — on
out-of-core engines.
"""

from __future__ import annotations

import numpy as np

from repro.errors import LikelihoodError
from repro.phylo.likelihood import kernels
from repro.phylo.likelihood.engine import LikelihoodEngine


def marginal_ancestral_distribution(engine: LikelihoodEngine,
                                    node: int) -> np.ndarray:
    """Posterior state probabilities at inner ``node``: ``(sites, states)``.

    For each site ``i`` and state ``a``:
    ``P(a | data) ∝ Σ_c w_c π_a · CLV_x[i,c,a] · (P_c · CLV_other)[i,c,a]``
    where ``CLV_x`` looks down the two subtrees below ``x`` and the third
    direction arrives across the root edge. Rows are normalized to sum to 1;
    results are expanded from patterns to original sites.
    """
    tree = engine.tree
    if tree.is_tip(node):
        raise LikelihoodError(f"node {node} is a tip; reconstruct inner nodes only")
    parent = tree.neighbors(node)[0]
    # Root on the (node, parent) edge: engine CLV at `node` then covers its
    # two other subtrees; `parent`'s side covers the rest of the tree.
    engine.make_edge_current(node, parent)

    reducer = kernels.state_reducer(
        engine.model.frequencies.astype(engine.dtype),
        engine.rates.weights.astype(engine.dtype))
    joint = engine.edge_reduce(node, parent, reducer, engine.model.num_states)
    totals = joint.sum(axis=1, keepdims=True)
    if np.any(totals <= 0) or not np.all(np.isfinite(totals)):
        raise LikelihoodError("zero marginal likelihood during reconstruction")
    post = joint / totals
    return post[engine.alignment.compress().pattern_of_site]


def marginal_ancestral_states(engine: LikelihoodEngine, node: int) -> str:
    """Most probable state per site at ``node``, as a sequence string."""
    post = marginal_ancestral_distribution(engine, node)
    best = post.argmax(axis=1)
    alphabet = engine.alignment.alphabet
    codes = np.left_shift(1, best).astype(
        np.uint8 if alphabet.num_states <= 8 else np.uint32
    )
    return alphabet.decode(codes)


def reconstruct_all(engine: LikelihoodEngine) -> dict[int, str]:
    """Most probable ancestral sequences for every inner node."""
    return {node: marginal_ancestral_states(engine, node)
            for node in engine.tree.inner_nodes()}
