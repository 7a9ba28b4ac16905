"""repro — Out-of-core computation of the Phylogenetic Likelihood Function.

A from-scratch Python reproduction of *"Computing the Phylogenetic
Likelihood Function Out-of-Core"* (Izquierdo-Carrasco & Stamatakis, IPPS
2011): a RAxML-style maximum-likelihood phylogenetics engine whose
ancestral probability vectors can live partly on disk behind a transparent
slot/replacement-policy layer.

Quickstart
----------
>>> from repro import (simulate_alignment, yule_tree, GTR, RateModel,
...                    LikelihoodEngine)
>>> tree = yule_tree(16, seed=1)
>>> aln = simulate_alignment(tree, GTR(), 200, seed=2)
>>> incore = LikelihoodEngine(tree.copy(), aln, GTR())
>>> ooc = LikelihoodEngine(tree.copy(), aln, GTR(), fraction=0.25, policy="lru")
>>> incore.loglikelihood() == ooc.loglikelihood()   # paper §4.1: bit-identical
True
>>> ooc.stats.miss_rate > 0
True
"""

from repro.core.backing import (
    FileBackingStore,
    MemoryBackingStore,
    MultiFileBackingStore,
    SimulatedDiskBackingStore,
    make_backing,
)
from repro.core.compress import (
    CompressedFileBackingStore,
    NullCodec,
    ZlibCodec,
    make_codec,
)
from repro.core.faults import (
    FaultInjectingBackingStore,
    InjectedFault,
    RetryingBackingStore,
    SimulatedCrash,
)
from repro.core.layout import (
    ConcatenatedLayout,
    SiteBlockLayout,
    StorageLayout,
    WholeVectorLayout,
    make_layout,
)
from repro.core.policies import make_policy, policy_names
from repro.core.prefetch import Prefetcher, ThreadedPrefetcher
from repro.core.shadow import ShadowStore, TeeStore
from repro.core.sharded import ShardedBackingStore, ShardTicket
from repro.core.stats import IoStats
from repro.core.writebehind import WriteBehindQueue
from repro.core.trace import AccessTrace, RecordingStoreProxy, simulate_policy_on_trace
from repro.core.vecstore import AncestralVectorStore
from repro.errors import ReproError
from repro.config import EngineConfig
from repro.checkpoint import load_checkpoint, read_checkpoint, save_checkpoint
from repro.nj import jc69_distances, neighbor_joining, p_distances
from repro.phylo.alphabet import AMINO_ACID, DNA, Alphabet
from repro.phylo.bayes import McmcChain, Priors
from repro.phylo.bootstrap import bootstrap_support, bootstrap_weights
from repro.phylo.consensus import annotate_support, consensus_tree, split_frequencies
from repro.phylo.draw import ascii_tree
from repro.phylo.likelihood.alrt import alrt_branch_support
from repro.phylo.likelihood.branch_opt import optimize_branch, smooth_all_branches
from repro.phylo.likelihood.engine import LikelihoodEngine, clv_geometry
from repro.phylo.likelihood.model_opt import optimize_alpha, optimize_model
from repro.phylo.likelihood.partitioned import PartitionedEngine, split_alignment
from repro.phylo.models import GTR, HKY85, JC69, K80, Poisson, RateModel
from repro.phylo.model_selection import likelihood_ratio_test, select_model
from repro.phylo.msa import Alignment
from repro.phylo.msa_stats import summarize as summarize_alignment
from repro.phylo.newick import parse_newick, write_newick
from repro.phylo.parsimony import alignment_fitch_score, stepwise_addition_tree
from repro.phylo.search import ml_search
from repro.phylo.tree import Tree
from repro.simulate import coalescent_tree, simulate_alignment, yule_tree
from repro.vm.disk import DiskModel
from repro.vm.standardstore import PagedStandardStore

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    # alignment / tree substrate
    "Alphabet", "DNA", "AMINO_ACID", "Alignment", "Tree",
    "parse_newick", "write_newick",
    # models
    "JC69", "K80", "HKY85", "GTR", "Poisson", "RateModel",
    # likelihood
    "LikelihoodEngine", "EngineConfig", "clv_geometry",
    "optimize_branch", "smooth_all_branches",
    "optimize_alpha", "optimize_model", "ml_search",
    "PartitionedEngine", "split_alignment",
    "McmcChain", "Priors", "bootstrap_support", "bootstrap_weights",
    "consensus_tree", "split_frequencies", "annotate_support",
    "alrt_branch_support", "select_model", "likelihood_ratio_test",
    "summarize_alignment", "ascii_tree",
    "save_checkpoint", "load_checkpoint", "read_checkpoint",
    # parsimony & NJ
    "alignment_fitch_score", "stepwise_addition_tree",
    "p_distances", "jc69_distances", "neighbor_joining",
    # out-of-core layer
    "AncestralVectorStore", "IoStats", "make_policy", "policy_names",
    "StorageLayout", "WholeVectorLayout", "SiteBlockLayout",
    "ConcatenatedLayout", "make_layout",
    "MemoryBackingStore", "FileBackingStore", "MultiFileBackingStore",
    "SimulatedDiskBackingStore", "make_backing",
    "Prefetcher", "ThreadedPrefetcher",
    "CompressedFileBackingStore", "ZlibCodec", "NullCodec", "make_codec",
    "FaultInjectingBackingStore", "RetryingBackingStore",
    "InjectedFault", "SimulatedCrash",
    "ShardedBackingStore", "ShardTicket",
    "WriteBehindQueue",
    "ShadowStore", "TeeStore",
    "AccessTrace", "RecordingStoreProxy", "simulate_policy_on_trace",
    # paging baseline & simulation
    "DiskModel", "PagedStandardStore",
    "simulate_alignment", "yule_tree", "coalescent_tree",
    "__version__",
]
