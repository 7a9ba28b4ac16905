"""Store-free reference PLF: plain Felsenstein pruning in numpy.

The benchmark's independent oracle. It shares no code with
``repro.core`` or the likelihood engine: no vector store, no pattern
compression, no kernels module, no 2^256 rescaling (every site is
normalised by its own maximum and the logs are summed instead). The
in-core twin must agree with it to 1e-9 relative.
"""

from __future__ import annotations

import numpy as np


def reference_loglikelihood(tree, alignment, model, rates) -> float:
    """lnL of ``alignment`` on ``tree`` under ``model`` + ``rates``."""
    indicator = alignment.alphabet.code_matrix().astype(np.float64)   # (K, S)
    row_of_tip = [alignment.index_of(tree.names[t]) for t in range(tree.num_tips)]
    codes = alignment.codes                                          # (taxa, sites)
    root = 0
    (anchor,) = tree.neighbors(root)

    # Post-order over the tree hanging below ``anchor`` when rooted at tip 0.
    order, stack = [], [(anchor, root)]
    while stack:
        node, parent = stack.pop()
        order.append((node, parent))
        stack.extend((kid, node) for kid in tree.neighbors(node) if kid != parent)

    partial: dict[int, np.ndarray] = {}   # node -> (sites, C, S), max-normalised
    log_scale = np.zeros(alignment.num_sites)
    for node, parent in reversed(order):
        if tree.is_tip(node):
            tip = indicator[codes[row_of_tip[node]]]                 # (sites, S)
            partial[node] = np.repeat(tip[:, None, :], rates.num_categories, axis=1)
            continue
        clv = 1.0
        for kid in tree.neighbors(node):
            if kid == parent:
                continue
            P = model.transition_matrices(tree.branch_length(node, kid), rates.rates)
            clv = clv * np.einsum("cab,icb->ica", P, partial.pop(kid))
        peak = clv.max(axis=(1, 2))
        log_scale += np.log(peak)
        partial[node] = clv / peak[:, None, None]

    P = model.transition_matrices(tree.branch_length(root, anchor), rates.rates)
    below = np.einsum("cab,icb->ica", P, partial[anchor])
    tip = indicator[codes[row_of_tip[root]]]
    site = np.einsum("ia,a,ica,c->i", tip, model.frequencies, below, rates.weights)
    return float(np.sum(np.log(site) + log_scale))
