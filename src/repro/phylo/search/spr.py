"""Lazy Subtree-Pruning-and-Regrafting rounds (RAxML's core move).

For every candidate regraft the engine evaluates the tree *lazily*: only
the three branch lengths around the insertion point are re-optimized and
the likelihood is read off the insertion edge (paper §4.2, the "Lazy SPR
technique; see [6]"). Rejected candidates are rolled back exactly —
topology, branch lengths and CLV validity — so the search explores many
topologies while touching few ancestral vectors per step: precisely the
locality the out-of-core layer exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SearchError
from repro.phylo.likelihood.evaluator import Evaluator


@dataclass
class SprRoundResult:
    """Outcome of one :func:`lazy_spr_round`."""

    lnl: float
    moves_applied: int
    moves_evaluated: int


def _optimize_insertion_branches(engine: Evaluator, p: int, s: int,
                                 tu: int, tv: int) -> None:
    """The "lazy" part: re-optimize only the 3 branches at the regraft point."""
    engine.optimize_branch(tu, p)
    engine.optimize_branch(p, tv)
    engine.optimize_branch(p, s)


def lazy_spr_round(
    engine: Evaluator,
    radius: int = 5,
    min_improvement: float = 1e-3,
    prune_points=None,
) -> SprRoundResult:
    """One pass of lazy SPR over all (or given) prunable subtrees.

    For each inner node ``p`` and neighbor direction ``s``, every regraft
    target within ``radius`` is tried; the best strictly-improving target
    is applied (best-improvement per prune point, RAxML-style "greedy with
    rollback"). Returns the final likelihood and move counts.
    """
    if radius < 1:
        raise SearchError(f"rearrangement radius must be >= 1, got {radius}")
    tree = engine.tree
    best_lnl = engine.loglikelihood()
    applied = 0
    evaluated = 0

    if prune_points is None:
        prune_points = [(p, s) for p in tree.inner_nodes() for s in tree.neighbors(p)]

    for p, s in prune_points:
        if tree.degree(p) != 3:
            continue
        rest = [x for x in tree.neighbors(p) if x != s]
        if len(rest) != 2:
            continue
        candidates = tree.spr_candidates(p, s, radius)
        if not candidates:
            continue
        saved_ps = tree.branch_length(p, s)
        best_target = None
        best_target_lnl = best_lnl + min_improvement
        for target in candidates:
            undo = engine.apply_spr(p, s, target)
            _optimize_insertion_branches(engine, p, s, undo.target_u, undo.target_v)
            lnl = engine.edge_loglikelihood(p, s)
            evaluated += 1
            if lnl >= best_target_lnl:
                best_target_lnl = lnl
                best_target = target
            engine.undo_spr(undo)
            if tree.branch_length(p, s) != saved_ps:
                engine.set_branch_length(p, s, saved_ps)
        if best_target is not None:
            undo = engine.apply_spr(p, s, best_target)
            _optimize_insertion_branches(engine, p, s, undo.target_u, undo.target_v)
            best_lnl = engine.edge_loglikelihood(p, s)
            applied += 1
    return SprRoundResult(lnl=best_lnl, moves_applied=applied, moves_evaluated=evaluated)
