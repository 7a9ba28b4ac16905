"""The Phylogenetic Likelihood Function: kernels, engine, optimizers.

Implements Felsenstein's pruning algorithm over ancestral probability
vectors of shape ``(patterns, rate_categories, states)`` — the data
structure whose memory footprint motivates the paper — together with the
traversal planner that drives the out-of-core access pattern, the
Newton–Raphson branch-length optimizer, and model-parameter optimization.
"""

from repro.phylo.likelihood.engine import LikelihoodEngine
from repro.phylo.likelihood.evaluator import Evaluator
from repro.phylo.likelihood.executor import Executor
from repro.phylo.likelihood.traversal import TraversalPlan, TraversalStep

__all__ = ["Evaluator", "Executor", "LikelihoodEngine", "TraversalPlan",
           "TraversalStep"]
