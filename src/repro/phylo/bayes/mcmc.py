"""Metropolis–Hastings sampling over trees, branch lengths and Γ shape.

A compact but complete Bayesian phylogenetics chain: proper priors
(exponential on branch lengths, uniform on labelled topologies, exponential
on α), a weighted move mix, burn-in/thinning, acceptance-rate tracking, and
posterior summaries (split frequencies). Every likelihood evaluation runs
through the engine — and therefore through whatever (out-of-core) vector
store it was built with — demonstrating the paper's §5 claim that the
out-of-core concepts carry over to Bayesian programs unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SearchError
from repro.phylo.bayes.moves import (
    AlphaScaleMove,
    BranchScaleMove,
    Move,
    NniMove,
    SprMove,
)
from repro.phylo.likelihood.engine import LikelihoodEngine
from repro.utils.rng import as_rng


@dataclass(frozen=True)
class Priors:
    """Prior hyper-parameters for the chain.

    Attributes
    ----------
    branch_length_mean:
        Mean of the i.i.d. exponential prior on branch lengths.
    alpha_mean:
        Mean of the exponential prior on the Γ shape (ignored for uniform
        rate models). Topologies carry the uniform prior (constant, so it
        cancels in the acceptance ratio).
    """

    branch_length_mean: float = 0.1
    alpha_mean: float = 1.0

    def log_prior(self, engine: LikelihoodEngine) -> float:
        rate = 1.0 / self.branch_length_mean
        total = 0.0
        for u, v in engine.tree.edges():
            total += math.log(rate) - rate * engine.tree.branch_length(u, v)
        if engine.rates.alpha is not None:
            arate = 1.0 / self.alpha_mean
            total += math.log(arate) - arate * engine.rates.alpha
        return total


@dataclass(frozen=True)
class McmcSample:
    """One recorded posterior sample."""

    generation: int
    log_likelihood: float
    log_posterior: float
    alpha: float | None
    tree_length: float
    splits: frozenset


@dataclass
class MoveStats:
    proposed: int = 0
    accepted: int = 0

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else 0.0


@dataclass
class McmcResult:
    """Chain output: samples plus diagnostics."""

    samples: list[McmcSample]
    move_stats: dict[str, MoveStats]
    final_log_likelihood: float

    def split_frequencies(self) -> dict[frozenset, float]:
        """Posterior probability of each non-trivial tip bipartition."""
        if not self.samples:
            return {}
        counts: dict[frozenset, int] = {}
        for sample in self.samples:
            for split in sample.splits:
                counts[split] = counts.get(split, 0) + 1
        n = len(self.samples)
        return {split: c / n for split, c in counts.items()}

    def posterior_mean_alpha(self) -> float | None:
        vals = [s.alpha for s in self.samples if s.alpha is not None]
        return float(np.mean(vals)) if vals else None


class McmcChain:
    """A single Metropolis–Hastings chain over phylogenies.

    Parameters
    ----------
    engine:
        A :class:`LikelihoodEngine` (any store configuration); the chain
        mutates its tree/rates in place.
    priors:
        Prior hyper-parameters.
    moves:
        ``(Move, weight)`` pairs; defaults to the standard mix of branch
        multipliers (heavy), NNI, SPR and α moves.
    seed:
        RNG seed for reproducible chains.
    """

    def __init__(self, engine: LikelihoodEngine, priors: Priors | None = None,
                 moves: list[tuple[Move, float]] | None = None,
                 seed=None) -> None:
        self.engine = engine
        self.priors = priors if priors is not None else Priors()
        if moves is None:
            moves = [
                (BranchScaleMove(), 6.0),
                (NniMove(), 2.0),
                (SprMove(radius=3), 1.0),
            ]
            if engine.rates.alpha is not None:
                moves.append((AlphaScaleMove(), 1.0))
        if not moves:
            raise SearchError("need at least one MCMC move")
        self._moves = [m for m, _ in moves]
        weights = np.array([w for _, w in moves], dtype=np.float64)
        if np.any(weights <= 0):
            raise SearchError("move weights must be positive")
        self._weights = weights / weights.sum()
        self._rng = as_rng(seed)
        self.stats = {m.name: MoveStats() for m in self._moves}

    def run(self, generations: int, *, burn_in: int = 0,
            sample_every: int = 10) -> McmcResult:
        """Run the chain; returns recorded samples and acceptance stats.

        ``burn_in`` generations are discarded; afterwards every
        ``sample_every``-th state is recorded.
        """
        if generations < 1:
            raise SearchError(f"generations must be >= 1, got {generations}")
        if sample_every < 1:
            raise SearchError(f"sample_every must be >= 1, got {sample_every}")
        engine = self.engine
        lnl = engine.loglikelihood()
        lp = self.priors.log_prior(engine)
        samples: list[McmcSample] = []

        for gen in range(1, generations + 1):
            move = self._moves[int(self._rng.choice(len(self._moves),
                                                    p=self._weights))]
            stat = self.stats[move.name]
            stat.proposed += 1
            move.last_edge = None
            log_hastings = move.propose(engine, self._rng)
            edge = move.last_edge
            # Evaluate at the perturbed edge when possible: CLV recomputation
            # stays local (the paper's §4.2 locality source).
            new_lnl = (engine.edge_loglikelihood(*edge)
                       if edge is not None and engine.tree.has_edge(*edge)
                       else engine.loglikelihood())
            new_lp = self.priors.log_prior(engine)
            log_ratio = (new_lnl + new_lp) - (lnl + lp) + log_hastings
            if math.log(self._rng.random() + 1e-300) < log_ratio:
                move.accept(engine)
                stat.accepted += 1
                lnl, lp = new_lnl, new_lp
            else:
                move.reject(engine)
            if gen > burn_in and (gen - burn_in) % sample_every == 0:
                samples.append(McmcSample(
                    generation=gen,
                    log_likelihood=lnl,
                    log_posterior=lnl + lp,
                    alpha=engine.rates.alpha,
                    tree_length=engine.tree.total_branch_length(),
                    splits=engine.tree.splits(),
                ))
        return McmcResult(samples=samples, move_stats=dict(self.stats),
                          final_log_likelihood=lnl)
