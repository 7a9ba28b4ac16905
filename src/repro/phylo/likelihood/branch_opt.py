"""Newton–Raphson branch-length optimization (RAxML's ``makenewz``).

Optimizing one branch only ever touches the two ancestral vectors at its
ends: the cross terms are folded into an eigen-basis *sumtable* once, after
which every Newton iteration is a cheap exponential sum. The paper
identifies exactly this access pattern as a main source of the PLF's
memory locality — "only memory accesses to the same two vectors ... are
required in this phase, which accounts for approximately 20–30% of overall
execution time" (§4.2).

The iteration is safeguarded: a Newton step is accepted only if it
increases the branch log-likelihood; otherwise the optimizer falls back to
bisecting toward the better bracket end, so it converges on awkward
surfaces (near-zero branches, saturated branches) where raw NR diverges.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import LikelihoodError
from repro.phylo.likelihood import kernels

#: RAxML-style clamps on branch lengths (expected substitutions per site).
MIN_BRANCH_LENGTH = 1e-8
MAX_BRANCH_LENGTH = 50.0


def optimize_branch_from_sumtable(
    sumtable: np.ndarray,
    eigenvalues: np.ndarray,
    rates: np.ndarray,
    cat_weights: np.ndarray,
    pattern_weights: np.ndarray,
    t0: float,
    *,
    max_iter: int = 64,
    tol: float = 1e-9,
    min_bl: float = MIN_BRANCH_LENGTH,
    max_bl: float = MAX_BRANCH_LENGTH,
) -> tuple[float, int]:
    """Maximize the branch likelihood; returns ``(t_opt, iterations)``.

    Pure numerical core (no store traffic): the engine-level wrapper
    computes the sumtable and commits the result. Everything that does
    not depend on the length is built once (:class:`kernels.BranchTable`);
    each candidate length then costs one :func:`kernels.branch_terms`
    product, which carries its likelihood, the derivatives the next step
    needs and the one verdict on whether it has either.
    """
    table = kernels.BranchTable(sumtable, eigenvalues, rates, cat_weights)

    def evaluate(t):
        """``terms``, the branch log-likelihood up to the (scaling)
        constant ``Σ w_i ln g_i(t)``, and whether it exists."""
        terms, ok = kernels.branch_terms(table, t)
        phi = float(pattern_weights @ np.log(terms[:, 0])) if ok else -np.inf
        return terms, phi, ok

    t = min(max(float(t0), min_bl), max_bl)
    terms, phi, ok = evaluate(t)
    it = 0
    while it < max_iter:
        it += 1
        d1, d2 = (kernels.derivatives_from_terms(terms, pattern_weights) if ok
                  else (np.nan, np.nan))
        if not math.isfinite(d1):
            # Numerical zero at this t — retreat toward the midpoint.
            t_new = max(min_bl, t / 2.0)
        elif abs(d1) < tol:
            break
        elif math.isfinite(d2) and d2 < 0.0:
            t_new = t - d1 / d2  # classic Newton step on d lnL/dt
        else:
            # Non-concave region: move along the gradient with a bold step.
            t_new = t * 4.0 if d1 > 0 else t / 4.0
        t_new = min(max(t_new, min_bl), max_bl)
        if t_new == t:
            break
        terms_new, phi_new, ok_new = evaluate(t_new)
        # Backtrack the step until it does not lose likelihood.
        shrink = 0
        while phi_new < phi - 1e-13 and shrink < 32:
            t_new = 0.5 * (t_new + t)
            terms_new, phi_new, ok_new = evaluate(t_new)
            shrink += 1
        converged = abs(t_new - t) < tol * max(1.0, t)
        t, phi, terms, ok = t_new, phi_new, terms_new, ok_new
        if converged:
            break
    return t, it


def optimize_branch(engine, u: int, v: int, **kwargs) -> float:
    """Optimize the length of edge ``(u, v)`` in place; returns the new length.

    Ensures both end CLVs are valid toward the edge (a local traversal),
    builds the sumtable — after which the NR loop touches no ancestral
    vector at all — and commits the optimized length through the engine so
    dependent CLVs are invalidated.
    """
    tree = engine.tree
    if not tree.has_edge(u, v):
        raise LikelihoodError(f"({u},{v}) is not an edge")
    engine.make_edge_current(u, v)

    # Blocked (layout-aware) fetch of the two end vectors; the NR loop
    # below touches no ancestral vector at all.
    sumtable = engine._edge_sumtable(u, v)
    t_opt, _ = optimize_branch_from_sumtable(
        sumtable,
        engine.model.eigenvalues,
        engine.rates.rates,
        engine.rates.weights,
        engine.pattern_weights,
        tree.branch_length(u, v),
        **kwargs,
    )
    if t_opt != tree.branch_length(u, v):
        engine.set_branch_length(u, v, t_opt)
    return t_opt


def smooth_all_branches(engine, passes: int = 1, **kwargs) -> float:
    """RAxML's ``smoothTree``: optimize every branch, ``passes`` times over.

    Edges are visited in a depth-first order starting from the default
    evaluation edge so consecutive optimizations share CLV context — the
    locality that keeps out-of-core miss rates low during this phase.
    Returns the final log-likelihood.
    """
    if passes < 1:
        raise LikelihoodError(f"passes must be >= 1, got {passes}")
    tree = engine.tree
    for _ in range(passes):
        # DFS edge order from tip 0's attachment point.
        (anchor,) = tree.neighbors(0)
        seen = set()
        stack = [(anchor, 0)]
        order = []
        while stack:
            x, parent = stack.pop()
            key = (min(x, parent), max(x, parent))
            if key in seen:
                continue
            seen.add(key)
            order.append((x, parent))
            if not tree.is_tip(x):
                stack.extend((y, x) for y in tree.neighbors(x) if y != parent)
        for x, parent in order:
            optimize_branch(engine, x, parent, **kwargs)
    return engine.loglikelihood()
