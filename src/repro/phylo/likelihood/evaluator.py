"""The evaluator: edges, moves and branch optimisation over executors.

Everything RAxML does *above* ``getxvector()`` (paper §3.2): own the tree
and the evaluation edge, edit topology and branch lengths, score the
result — without learning where an ancestral vector lives. The vectors
belong to the evaluator's *parts*, one
:class:`~repro.phylo.likelihood.executor.Executor` per alignment sharing
the tree (a ``LikelihoodEngine`` is its own single part, a
``PartitionedEngine`` has one per gene), and every operation has the same
three beats: mutate the shared tree once, invalidate every part's
orientation, sum every part's per-edge term.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import LikelihoodError
from repro.phylo.likelihood import branch_opt
from repro.phylo.likelihood.executor import Executor
from repro.phylo.likelihood.kernels import BranchTable
from repro.phylo.tree import Tree


class Evaluator:
    """Score and edit ``tree`` over the executors :meth:`_parts` returns."""

    def __init__(self, tree: Tree) -> None:
        self.tree = tree
        self._root_edge: tuple[int, int] | None = None

    def _parts(self) -> Sequence[Executor]:
        """The executors sharing ``self.tree``, one per alignment."""
        raise NotImplementedError

    # -- the evaluation edge ----------------------------------------------------------

    def default_edge(self) -> tuple[int, int]:
        """The canonical evaluation edge: tip 0 and its attachment node."""
        (nbr,) = self.tree.neighbors(0)
        return (0, nbr)

    @property
    def root_edge(self) -> tuple[int, int]:
        """The evaluation edge: the last edge evaluated or optimized, or
        the default edge if there is none or a topology move has since
        dissolved it. Assignable — a checkpoint restores it."""
        edge = self._root_edge
        if edge is None or not self.tree.has_edge(*edge):
            return self.default_edge()
        return edge

    @root_edge.setter
    def root_edge(self, edge: tuple[int, int]) -> None:
        self._root_edge = edge

    # -- likelihood evaluation ----------------------------------------------------------

    def edge_loglikelihood(self, u: int, v: int, full: bool = False) -> float:
        """Log-likelihood with the virtual root on edge ``(u, v)``.

        Each part recomputes exactly its stale CLVs on both sides (all of
        them with ``full=True`` — the paper's ``-f z`` worst case) and
        combines its two end vectors across the branch; the parts' terms
        add up.
        """
        lnl = sum(part.edge_term(u, v, full) for part in self._parts())
        self._root_edge = (u, v)
        return lnl

    def loglikelihood(self) -> float:
        """Log-likelihood at the last evaluation edge (or the default edge)."""
        return self.edge_loglikelihood(*self.root_edge)

    def full_traversals(self, count: int = 1) -> float:
        """Recompute *every* ancestral vector ``count`` times; return lnL.

        Reproduces the paper's §4.3 benchmark mode (``-f z``): "reading in
        a given, fixed, tree topology and computing five full tree
        traversals ... the worst-case analysis, since full tree traversals
        exhibit the smallest degree of vector locality."
        """
        if count < 1:
            raise LikelihoodError(f"count must be >= 1, got {count}")
        u, v = self.default_edge()
        lnl = 0.0
        for _ in range(count):
            lnl = self.edge_loglikelihood(u, v, full=True)
        return lnl

    # -- mutations (invalidation-aware wrappers around Tree edits) ---------------------

    def set_branch_length(self, u: int, v: int, length: float) -> None:
        """Change a branch length and invalidate dependent CLVs."""
        self.tree.set_branch_length(u, v, length)
        for part in self._parts():
            part.orientation.after_branch_change(u, v)

    def apply_spr(self, prune_node: int, subtree_neighbor: int,
                  target_edge: tuple[int, int]):
        """Apply an SPR move; returns the undo record for :meth:`undo_spr`."""
        undo = self.tree.spr_move(prune_node, subtree_neighbor, target_edge)
        for part in self._parts():
            part.orientation.after_spr(prune_node, undo.old_a, undo.old_b,
                                       undo.target_u, undo.target_v)
        return undo

    def undo_spr(self, undo) -> None:
        """Reverse an SPR (topology, lengths and CLV validity)."""
        self.tree.undo_spr(undo)
        # The reverse move regrafts from between (target_u, target_v) back
        # into the reconstituted (old_a, old_b) edge: same invalidation with
        # the two locations swapped.
        for part in self._parts():
            part.orientation.after_spr(undo.prune_node, undo.target_u,
                                       undo.target_v, undo.old_a, undo.old_b)

    def apply_nni(self, edge: tuple[int, int], variant: int = 0):
        """Apply an NNI move; returns the undo record for :meth:`undo_nni`."""
        undo = self.tree.nni(edge, variant)
        for part in self._parts():
            part.orientation.after_nni(undo.u, undo.v, undo.swapped_u,
                                       undo.swapped_v)
        return undo

    def undo_nni(self, undo) -> None:
        self.tree.undo_nni(undo)
        # After the reverse swap the exchanged subtrees are back; the
        # invalidation geometry is identical with the roles flipped.
        for part in self._parts():
            part.orientation.after_nni(undo.u, undo.v, undo.swapped_v,
                                       undo.swapped_u)

    def invalidate_all(self) -> None:
        """Drop every cached CLV orientation (e.g. after a model change)."""
        for part in self._parts():
            part.orientation.invalidate_all()

    # -- branch optimization ------------------------------------------------------------

    def branch_tables(self, u: int, v: int) -> list[tuple[BranchTable, np.ndarray]]:
        """One ``(BranchTable, pattern_weights)`` pair per part for branch
        ``(u, v)`` — all Newton's loop reads; ``(u, v)`` becomes the
        evaluation edge."""
        tables = [part.branch_table(u, v) for part in self._parts()]
        self._root_edge = (u, v)
        return tables

    def optimize_branch(self, u: int, v: int, **kwargs) -> float:
        """Newton–Raphson optimize one branch, jointly over the parts; see
        :func:`repro.phylo.likelihood.branch_opt.optimize_branch`."""
        return branch_opt.optimize_branch(self, u, v, **kwargs)

    def optimize_all_branches(self, passes: int = 1, **kwargs) -> float:
        """Smooth every branch; see
        :func:`repro.phylo.likelihood.branch_opt.smooth_all_branches`."""
        return branch_opt.smooth_all_branches(self, passes=passes, **kwargs)
