"""aLRT branch support — approximate likelihood-ratio test per branch.

The SH-free variant of Anisimova & Gascuel (2006): for each internal edge,
compare the likelihood of the current resolution against the better of its
two NNI alternatives; the statistic ``2(lnL₁ − lnL₂)`` (best vs. second
best local resolution) measures how strongly the data prefer the split.
This is the cheapest per-branch support measure — each edge costs three
local branch optimizations, reusing the same lazy machinery (and hence the
same out-of-core locality) as the SPR search.
"""

from __future__ import annotations

from dataclasses import dataclass

from scipy.stats import chi2

from repro.errors import LikelihoodError
from repro.phylo.likelihood.evaluator import Evaluator


@dataclass(frozen=True)
class BranchSupport:
    """Per-edge aLRT outcome."""

    edge: tuple[int, int]
    lnl_best: float
    lnl_second: float

    @property
    def statistic(self) -> float:
        return max(0.0, 2.0 * (self.lnl_best - self.lnl_second))

    @property
    def p_value(self) -> float:
        """½χ²₀ + ½χ²₁ mixture tail, the aLRT null distribution."""
        if self.statistic == 0.0:
            return 1.0
        return 0.5 * float(chi2.sf(self.statistic, 1))

    @property
    def supported(self) -> bool:
        return self.p_value < 0.05


def alrt_branch_support(
        engine: Evaluator, edges=None) -> dict[tuple[int, int], BranchSupport]:
    """Compute aLRT support for internal edges (default: all of them).

    For each edge: optimize its length (lnL of the current resolution),
    then evaluate both NNI alternatives with their central branch
    re-optimized; rejected alternatives are rolled back exactly. The
    current resolution must be at least as good as the alternatives for
    the test to be meaningful — run a search first.
    """
    tree = engine.tree
    if edges is None:
        edges = tree.internal_edges()
    out: dict[tuple[int, int], BranchSupport] = {}
    for edge in edges:
        if not tree.has_edge(*edge) or tree.is_tip(edge[0]) or tree.is_tip(edge[1]):
            raise LikelihoodError(f"{edge} is not an internal edge")
        engine.optimize_branch(*edge)  # kept: it is the ML length of this edge
        lnl_here = engine.edge_loglikelihood(*edge)
        alternatives = []
        for variant in (0, 1):
            saved_alt = tree.branch_length(*edge)
            undo = engine.apply_nni(edge, variant)
            engine.optimize_branch(*edge)
            alternatives.append(engine.edge_loglikelihood(*edge))
            engine.undo_nni(undo)
            if tree.branch_length(*edge) != saved_alt:
                engine.set_branch_length(*edge, saved_alt)
        second = max(alternatives)
        key = (min(edge), max(edge))
        out[key] = BranchSupport(edge=key, lnl_best=lnl_here, lnl_second=second)
    return out


def support_labels(supports: dict[tuple[int, int], BranchSupport]) -> dict:
    """Edge → printable aLRT statistic, for tree drawing/annotation."""
    return {edge: f"{s.statistic:.1f}" for edge, s in supports.items()}
