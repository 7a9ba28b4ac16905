"""The anchor the likelihood kernels are rewritten against.

A store-free, kernel-free PLF — one post-order recursion in plain numpy,
sharing no code with ``repro.phylo.likelihood`` (nor with the benchmark's
``benchmarks/ooc/reference.py``) — plus the closed-form JC69 likelihood of
a 3-taxon star. Bit-identity is a same-commit, cross-configuration
contract; *across* commits a kernel re-lowering may move the last ulp, so
what pins the numbers down is agreement with this oracle to 1e-9 relative.
"""

from __future__ import annotations

import numpy as np

from repro import Tree

#: Allowed |lnL(float32) − lnL(float64)| per alignment site. float32
#: carries 2^-24 ≈ 6e-8 relative error per operation and a site's
#: likelihood passes through a few operations per node on its path to the
#: root; observed: 4e-8 per site on 10 taxa, 3e-6 on a 150-taxon
#: caterpillar (tests/test_oracle_matrix.py). The bound leaves most of an
#: order of magnitude over the deepest case and is what "close" means
#: wherever a test compares single against double precision.
FLOAT32_SITE_BOUND = 2e-5


def oracle_lnl(tree, alignment, model, rates) -> float:
    """Log-likelihood by direct Felsenstein pruning, no store, no kernels.

    Every inner node's conditionals are renormalised by their per-pattern
    maximum with the logarithm carried in float64, so deep trees cannot
    underflow — independently of the engine's ``2^±256`` scheme.
    """
    comp = alignment.compress()
    codes = alignment.pattern_codes()
    states = np.arange(model.num_states)
    log_scale = np.zeros(comp.num_patterns)

    def conditionals(node: int, parent: int) -> np.ndarray:
        """``(patterns, C, S)`` likelihood of the data below ``node``."""
        if tree.is_tip(node):
            row = codes[alignment.index_of(tree.names[node])].astype(np.int64)
            indicator = ((row[:, None] >> states) & 1).astype(np.float64)
            return np.repeat(indicator[:, None, :], rates.num_categories, axis=1)
        out = np.ones((comp.num_patterns, rates.num_categories, model.num_states))
        for child in tree.neighbors(node):
            if child == parent:
                continue
            P = model.transition_matrices(tree.branch_length(node, child),
                                          rates.rates)          # (C, S, S)
            below = conditionals(child, node)
            out *= np.matmul(P[None], below[..., None])[..., 0]
        peak = out.max(axis=(1, 2))
        log_scale[:] += np.log(peak)
        return out / peak[:, None, None]

    root = next(iter(tree.inner_nodes()))
    top = conditionals(root, -1)
    site = ((top * model.frequencies).sum(axis=2) * rates.weights).sum(axis=1)
    return float(comp.weights @ (np.log(site) + log_scale))


def jc69_star_lnl(sequences: list[str], lengths: list[float]) -> float:
    """Closed-form JC69 log-likelihood of three sequences on a star tree.

    With ``p_k = ¼ + ¾e^{-4t_k/3}`` (no change along branch ``k``) and
    ``q_k = ¼ − ¼e^{-4t_k/3}`` (a given change), a site with tip states
    ``x`` has ``L = ¼ Σ_a Π_k (p_k if a == x_k else q_k)``.
    """
    decay = np.exp(-4.0 * np.asarray(lengths) / 3.0)
    p, q = 0.25 + 0.75 * decay, 0.25 - 0.25 * decay
    total = 0.0
    for column in zip(*sequences):
        site = sum(np.prod([p[k] if a == x else q[k]
                            for k, x in enumerate(column)]) for a in "ACGT")
        total += np.log(0.25 * site)
    return float(total)


def pectinate_tree(n: int, length: float) -> Tree:
    """A caterpillar on ``n`` taxa, every branch ``length`` long: the
    deepest topology there is, for driving CLVs under the rescale
    thresholds."""
    tree = Tree(n)
    inner = iter(tree.inner_nodes())
    prev = next(inner)
    tree._connect(0, prev, length)
    tree._connect(1, prev, length)
    for tip in range(2, n - 1):
        cur = next(inner)
        tree._connect(prev, cur, length)
        tree._connect(tip, cur, length)
        prev = cur
    tree._connect(n - 1, prev, length)
    tree.validate()
    return tree
