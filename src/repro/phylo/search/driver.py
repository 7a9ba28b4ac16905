"""The top-level maximum-likelihood search driver.

Alternates lazy-SPR rounds with branch-length smoothing and (optionally)
Γ-shape optimization until the likelihood stops improving — a compact
version of the RAxML hill-climbing schedule whose vector access stream the
paper's experiments measure (§4.1: "tree searches were executed under the
Γ model of rate heterogeneity").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SearchError
from repro.phylo.likelihood.engine import LikelihoodEngine
from repro.phylo.likelihood.evaluator import Evaluator
from repro.phylo.likelihood.model_opt import optimize_alpha
from repro.phylo.search.nni import nni_round
from repro.phylo.search.spr import lazy_spr_round


@dataclass
class SearchResult:
    """Summary of an :func:`ml_search` run."""

    lnl: float
    rounds: int
    moves_applied: int
    moves_evaluated: int
    lnl_history: list[float] = field(default_factory=list)


def ml_search(
    engine: Evaluator,
    *,
    radius: int = 5,
    max_rounds: int = 10,
    min_improvement: float = 1e-2,
    branch_passes: int = 1,
    do_nni: bool = True,
    do_alpha: bool = False,
    checkpoint_path=None,
    checkpoint_every: int = 1,
    resume_state: dict | None = None,
) -> SearchResult:
    """Hill-climb the tree in place; returns a :class:`SearchResult`.

    Each round: branch smoothing → lazy SPR sweep → optional NNI polish →
    optional α re-optimization. Stops when a full round improves the
    log-likelihood by less than ``min_improvement`` or after
    ``max_rounds``.

    With ``checkpoint_path`` set, a crash-safe checkpoint (tree, model,
    rates, plus the driver's own counters under ``extra["search"]``) is
    written via :func:`repro.checkpoint.save_checkpoint` after every
    ``checkpoint_every``-th round and on completion. A killed search is
    resumed by loading the checkpoint
    (:func:`repro.checkpoint.load_checkpoint`) and passing the recovered
    ``extra["search"]`` dict back as ``resume_state``: rounds already
    completed are not re-run, and — because each round is a deterministic
    function of the (exactly serialized) tree and parameters — the resumed
    search reaches a bit-identical final likelihood.
    """
    if max_rounds < 1:
        raise SearchError(f"max_rounds must be >= 1, got {max_rounds}")
    if checkpoint_every < 1:
        raise SearchError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}")

    def save(state_rounds, applied, evaluated, history, converged):
        if checkpoint_path is None:
            return
        from repro.checkpoint import save_checkpoint
        save_checkpoint(engine, checkpoint_path, extra={"search": {
            "rounds": state_rounds,
            "moves_applied": applied,
            "moves_evaluated": evaluated,
            "lnl_history": history,
            "converged": converged,
        }})

    if resume_state is not None:
        rounds = int(resume_state["rounds"])
        applied = int(resume_state["moves_applied"])
        evaluated = int(resume_state["moves_evaluated"])
        history = [float(x) for x in resume_state["lnl_history"]]
        if not history:
            raise SearchError("resume state carries no lnl history")
        lnl = history[-1]
        if resume_state.get("converged"):
            return SearchResult(lnl=lnl, rounds=rounds, moves_applied=applied,
                                moves_evaluated=evaluated, lnl_history=history)
    else:
        lnl = engine.optimize_all_branches(passes=branch_passes)
        history = [lnl]
        applied = evaluated = 0
        rounds = 0
    while rounds < max_rounds:
        before = lnl
        spr = lazy_spr_round(engine, radius=radius, min_improvement=min_improvement)
        applied += spr.moves_applied
        evaluated += spr.moves_evaluated
        lnl = spr.lnl
        if do_nni:
            nni = nni_round(engine, min_improvement=min_improvement)
            applied += nni.moves_applied
            evaluated += nni.moves_evaluated
            lnl = nni.lnl
        if do_alpha and isinstance(engine, LikelihoodEngine) \
                and engine.rates.alpha is not None:
            optimize_alpha(engine)
        lnl = engine.optimize_all_branches(passes=branch_passes)
        rounds += 1
        history.append(lnl)
        converged = lnl - before < min_improvement
        if converged or rounds >= max_rounds or rounds % checkpoint_every == 0:
            save(rounds, applied, evaluated, history, converged)
        if converged:
            break
    return SearchResult(
        lnl=lnl,
        rounds=rounds,
        moves_applied=applied,
        moves_evaluated=evaluated,
        lnl_history=history,
    )
