"""Nearest-Neighbor-Interchange rounds — the cheap local refinement move.

NNI swaps the two subtrees across an internal edge; it is the radius-1
special case of SPR and is used as a polishing pass after SPR rounds.
Like lazy SPR, each evaluation re-optimizes only the central branch before
reading the likelihood, so the ancestral-vector access pattern stays local.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.phylo.likelihood.evaluator import Evaluator


@dataclass
class NniRoundResult:
    """Outcome of one :func:`nni_round`."""

    lnl: float
    moves_applied: int
    moves_evaluated: int


def nni_round(engine: Evaluator, min_improvement: float = 1e-3) -> NniRoundResult:
    """Try both NNI variants across every internal edge; keep improvements.

    Improving variants are applied immediately (first-improvement): the
    next edges are then evaluated on the improved topology, like RAxML's
    NNI post-processing.
    """
    best_lnl = engine.loglikelihood()
    applied = 0
    evaluated = 0
    for edge in list(engine.tree.internal_edges()):
        if not engine.tree.has_edge(*edge):
            continue  # a previous applied move may have re-wired this edge
        for variant in (0, 1):
            saved = engine.tree.branch_length(*edge)
            undo = engine.apply_nni(edge, variant)
            engine.optimize_branch(*edge)
            lnl = engine.edge_loglikelihood(*edge)
            evaluated += 1
            if lnl > best_lnl + min_improvement:
                best_lnl = lnl
                applied += 1
                break  # keep the move; do not try the sibling variant
            engine.undo_nni(undo)
            if engine.tree.branch_length(*edge) != saved:
                engine.set_branch_length(*edge, saved)
    return NniRoundResult(lnl=best_lnl, moves_applied=applied, moves_evaluated=evaluated)
