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
A step shorter than the tolerance is taken without being evaluated and
ends the loop.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import LikelihoodError
from repro.phylo.likelihood import kernels

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.phylo.likelihood.evaluator import Evaluator

#: RAxML-style clamps on branch lengths (expected substitutions per site).
MIN_BRANCH_LENGTH = 1e-8
MAX_BRANCH_LENGTH = 50.0


def _newton(
    tables: Sequence[tuple[kernels.BranchTable, np.ndarray]],
    t0: float,
    *,
    max_iter: int = 64,
    tol: float = 1e-9,
    min_bl: float = MIN_BRANCH_LENGTH,
    max_bl: float = MAX_BRANCH_LENGTH,
) -> tuple[float, int]:
    """Maximize the branch likelihood summed over ``tables``; returns
    ``(t_opt, iterations)``.

    One ``(BranchTable, pattern_weights)`` pair per alignment sharing the
    branch; the joint log-likelihood and its derivatives are the sums of
    the pairs'. Everything that does not depend on the length is in the
    tables already; each candidate length then costs one
    :func:`kernels.branch_terms` product per pair, which carries its
    likelihood, the derivatives the next step needs and the one verdict
    on whether it has either.
    """

    def evaluate(t):
        """Each pair's ``terms``, the joint branch log-likelihood up to the
        (scaling) constant ``Σ w_i ln g_i(t)``, and whether it exists."""
        terms, phi, ok = [], 0.0, True
        for table, weights in tables:
            g, positive = kernels.branch_terms(table, t)
            terms.append(g)
            ok = ok and positive
            if ok:
                phi += float(weights @ np.log(g[0]))
        return terms, (phi if ok else -np.inf), ok

    def derivatives(terms):
        d1 = d2 = 0.0
        for g, (_, weights) in zip(terms, tables):
            p1, p2 = kernels.derivatives_from_terms(g, weights)
            d1 += p1
            d2 += p2
        return d1, d2

    t = min(max(float(t0), min_bl), max_bl)
    terms, phi, ok = evaluate(t)
    it = 0
    while it < max_iter:
        it += 1
        d1, d2 = derivatives(terms) if ok else (np.nan, np.nan)
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
        # Backtrack the step until it does not lose likelihood. A step
        # below the tolerance, first or halved, ends the loop unevaluated:
        # what it could change in φ is rounding. It is taken from a point
        # that has a likelihood; from one that has none, t stays.
        shrink = 0
        while True:
            if abs(t_new - t) < tol * max(1.0, t):
                return (t_new if ok else t), it
            terms_new, phi_new, ok_new = evaluate(t_new)
            if shrink == 32 or not phi_new < phi - 1e-13:
                break
            t_new = 0.5 * (t_new + t)
            shrink += 1
        t, phi, terms, ok = t_new, phi_new, terms_new, ok_new
    return t, it


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
    """Maximize one alignment's branch likelihood; returns ``(t_opt,
    iterations)``. Pure numerical core (no store traffic): Newton's loop
    over the one table this sumtable makes."""
    table = kernels.BranchTable(sumtable, eigenvalues, rates, cat_weights)
    return _newton([(table, pattern_weights)], t0, max_iter=max_iter, tol=tol,
                   min_bl=min_bl, max_bl=max_bl)


def optimize_branch(engine: Evaluator, u: int, v: int, **kwargs) -> float:
    """Optimize the length of edge ``(u, v)`` in place; returns the new length.

    Ensures every part's end CLVs are valid toward the edge (a local
    traversal) and builds its sumtable (``engine.branch_tables``) — after
    which the NR loop touches no ancestral vector at all — and commits the
    optimized length through the engine so dependent CLVs are invalidated.
    Keywords are :func:`optimize_branch_from_sumtable`'s (``max_iter``,
    ``tol``, ``min_bl``, ``max_bl``).
    """
    tree = engine.tree
    if not tree.has_edge(u, v):
        raise LikelihoodError(f"({u},{v}) is not an edge")
    t_opt, _ = _newton(engine.branch_tables(u, v), tree.branch_length(u, v),
                       **kwargs)
    if t_opt != tree.branch_length(u, v):
        engine.set_branch_length(u, v, t_opt)
    return t_opt


def smooth_all_branches(engine: Evaluator, passes: int = 1, **kwargs) -> float:
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
