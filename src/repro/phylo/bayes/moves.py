"""MCMC proposal moves over (topology, branch lengths, model parameters).

Each move proposes a reversible perturbation through the engine's mutation
API (so CLV invalidation happens exactly as in the ML search), reports its
log Hastings ratio, and can restore the previous state on rejection. The
moves are deliberately RAxML/MrBayes-standard:

* **BranchScaleMove** — multiply one branch length by ``exp(λ(u−½))``
  (the classic multiplier proposal; Hastings ratio = the multiplier).
* **NniMove** — nearest-neighbor interchange on a random internal edge
  (symmetric: Hastings ratio 1).
* **SprMove** — prune a random subtree and regraft within a radius
  (proposal counts are used for the Hastings correction).
* **AlphaScaleMove** — multiplier proposal on the Γ shape α.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import SearchError, TreeError
from repro.phylo.likelihood.engine import LikelihoodEngine
from repro.phylo.likelihood.evaluator import Evaluator


class Move:
    """Base proposal: ``propose`` returns the log Hastings ratio.

    After ``propose``, :attr:`last_edge` may hold a tree edge near the
    perturbation; the chain then evaluates the likelihood *at that edge*,
    which keeps CLV recomputation local — the same trick as RAxML's lazy
    SPR and the source of the paper's low out-of-core miss rates.
    """

    name = "move"
    last_edge: "tuple[int, int] | None" = None

    def propose(self, engine: LikelihoodEngine,
                rng: np.random.Generator) -> float:
        raise NotImplementedError

    def reject(self, engine: LikelihoodEngine) -> None:
        """Restore the exact pre-proposal state."""
        raise NotImplementedError

    def accept(self, engine: LikelihoodEngine) -> None:
        """Finalize (default: nothing to do)."""


class BranchScaleMove(Move):
    """Multiplier proposal on a uniformly chosen branch length."""

    name = "branch-scale"

    def __init__(self, tuning: float = 0.5,
                 min_length: float = 1e-8, max_length: float = 50.0) -> None:
        if tuning <= 0:
            raise SearchError(f"tuning must be positive, got {tuning}")
        self.tuning = tuning
        self.min_length = min_length
        self.max_length = max_length
        self._edge: tuple[int, int] | None = None
        self._old: float = 0.0

    def propose(self, engine: Evaluator, rng) -> float:
        edges = list(engine.tree.edges())
        self._edge = edges[int(rng.integers(len(edges)))]
        self._old = engine.tree.branch_length(*self._edge)
        factor = math.exp(self.tuning * (rng.random() - 0.5))
        new = float(np.clip(self._old * factor, self.min_length, self.max_length))
        engine.set_branch_length(*self._edge, new)
        self.last_edge = self._edge
        # Hastings ratio of a multiplier proposal is the factor itself
        # (clipping makes this approximate at the extreme boundaries).
        return math.log(new / self._old) if self._old > 0 else 0.0

    def reject(self, engine: Evaluator) -> None:
        engine.set_branch_length(*self._edge, self._old)


class NniMove(Move):
    """Symmetric NNI on a uniformly chosen internal edge."""

    name = "nni"

    def __init__(self) -> None:
        self._undo = None

    def propose(self, engine: Evaluator, rng) -> float:
        internal = engine.tree.internal_edges()
        if not internal:
            self._undo = None
            return 0.0
        edge = internal[int(rng.integers(len(internal)))]
        variant = int(rng.integers(2))
        self._undo = engine.apply_nni(edge, variant)
        self.last_edge = edge
        return 0.0

    def reject(self, engine: Evaluator) -> None:
        if self._undo is not None:
            engine.undo_nni(self._undo)


class SprMove(Move):
    """Random SPR within a radius, with a Hastings count correction.

    The forward proposal picks one of ``k_fwd`` (prune-point, target) pairs
    uniformly; the reverse move has ``k_rev`` choices on the proposed tree,
    giving ``log k_fwd − log k_rev`` as the log Hastings ratio.
    """

    name = "spr"

    def __init__(self, radius: int = 3) -> None:
        if radius < 1:
            raise SearchError(f"radius must be >= 1, got {radius}")
        self.radius = radius
        self._undo = None

    def _num_choices(self, tree) -> int:
        total = 0
        for p in tree.inner_nodes():
            for s in tree.neighbors(p):
                total += len(tree.spr_candidates(p, s, self.radius))
        return total

    def propose(self, engine: Evaluator, rng) -> float:
        tree = engine.tree
        k_fwd = self._num_choices(tree)
        if k_fwd == 0:
            self._undo = None
            return 0.0
        pairs = [(p, s) for p in tree.inner_nodes() for s in tree.neighbors(p)]
        for _ in range(64):  # rejection-sample a valid (pair, target)
            p, s = pairs[int(rng.integers(len(pairs)))]
            cands = tree.spr_candidates(p, s, self.radius)
            if cands:
                target = cands[int(rng.integers(len(cands)))]
                break
        else:  # pragma: no cover - astronomically unlikely
            self._undo = None
            return 0.0
        try:
            self._undo = engine.apply_spr(p, s, target)
        except TreeError:  # pragma: no cover - candidates are pre-validated
            self._undo = None
            return 0.0
        self.last_edge = (p, s)
        k_rev = self._num_choices(tree)
        return math.log(k_fwd) - math.log(max(k_rev, 1))

    def reject(self, engine: Evaluator) -> None:
        if self._undo is not None:
            engine.undo_spr(self._undo)


class AlphaScaleMove(Move):
    """Multiplier proposal on the Γ shape parameter α."""

    name = "alpha-scale"

    def __init__(self, tuning: float = 0.3,
                 bounds: tuple[float, float] = (0.02, 100.0)) -> None:
        if tuning <= 0:
            raise SearchError(f"tuning must be positive, got {tuning}")
        self.tuning = tuning
        self.bounds = bounds
        self._old_rates = None

    def propose(self, engine: LikelihoodEngine, rng) -> float:
        if engine.rates.alpha is None:
            self._old_rates = None
            return 0.0
        self._old_rates = engine.rates
        old = engine.rates.alpha
        factor = math.exp(self.tuning * (rng.random() - 0.5))
        new = float(np.clip(old * factor, *self.bounds))
        engine.set_rates(engine.rates.with_alpha(new))
        return math.log(new / old)

    def reject(self, engine: LikelihoodEngine) -> None:
        if self._old_rates is not None:
            engine.set_rates(self._old_rates)
