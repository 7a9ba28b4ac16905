"""Command-line interface — a RAxML-flavoured front door to the library.

Subcommands mirror how the paper's experiments were driven, including the
two flags its §4.3 text quotes verbatim:

* ``-f z`` — "reading in a given, fixed, tree topology and computing
  [N] full tree traversals" (the ``evaluate`` command's default mode);
* ``-L BYTES`` — "force the program to use less than [BYTES] of RAM for
  ancestral probability vectors" (accepted by every likelihood command).

Examples
--------
::

    python -m repro simulate -n 64 -l 1000 -o data.phy --tree-out true.nwk
    python -m repro evaluate -s data.phy -t true.nwk -f z -N 5 -L 1000000
    python -m repro search   -s data.phy -m GTR+G --policy lru --fraction 0.25
    python -m repro mcmc     -s data.phy -t start.nwk --generations 2000
    python -m repro policies -s data.phy --radius 5
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

from repro import __version__
from repro.config import EngineConfig
from repro.errors import ReproError
from repro.phylo.alphabet import AMINO_ACID, DNA
from repro.phylo.likelihood.engine import LikelihoodEngine, clv_geometry
from repro.phylo.likelihood.model_opt import optimize_alpha
from repro.phylo.models import GTR, HKY85, JC69, K80, Poisson, RateModel
from repro.phylo.msa import Alignment
from repro.phylo.newick import parse_newick, write_newick
from repro.phylo.tree import Tree
from repro.utils.timing import format_bytes, format_seconds

MODELS = {"JC": JC69, "JC69": JC69, "K80": K80, "HKY": HKY85, "HKY85": HKY85,
          "GTR": GTR, "POISSON": Poisson}


def _read_alignment(path: str, model: str) -> Alignment:
    """The alignment at ``path`` (FASTA or PHYLIP), in the alphabet of the
    model string ``model``: amino acids for ``POISSON``, DNA otherwise."""
    text = Path(path).read_text()
    alphabet = AMINO_ACID if _parse_model_spec(model)[0] == "POISSON" else DNA
    return (Alignment.from_fasta(text, alphabet)
            if text.lstrip().startswith(">")
            else Alignment.from_phylip(text, alphabet))


def _parse_model_spec(spec: str) -> tuple[str, int, bool]:
    """The data-free half of a model string: ``(base, Γ categories — 0 for
    none, whether ``+F``/``+FC`` asked for empirical frequencies)``."""
    base, *suffixes = spec.upper().split("+")
    if base not in MODELS:
        raise ReproError(f"unknown model {base!r}; choose from {sorted(MODELS)}")
    gamma_cats = 0
    empirical_freqs = False
    for part in suffixes:
        if part == "G":
            gamma_cats = 4
        elif part.startswith("G") and part[1:].isdigit():
            gamma_cats = int(part[1:])
        elif part in ("FC", "F"):
            empirical_freqs = True
        else:
            raise ReproError(f"unknown model suffix {part!r}")
    return base, gamma_cats, empirical_freqs


def _parse_model(spec: str, alignment: Alignment):
    """Parse ``GTR+G``, ``HKY+G4``, ``JC``, ``GTR+G+FC`` style model strings."""
    base, gamma_cats, empirical_freqs = _parse_model_spec(spec)
    kwargs = {}
    if empirical_freqs and base in ("GTR", "HKY", "HKY85"):
        kwargs["frequencies"] = tuple(alignment.empirical_frequencies())
    model = MODELS[base](**kwargs)
    rates = RateModel.gamma(1.0, gamma_cats) if gamma_cats else RateModel.uniform()
    return model, rates


def _tree_for(alignment: Alignment, args) -> Tree:
    if getattr(args, "tree", None):
        tree = parse_newick(Path(args.tree).read_text())
        order = {name: i for i, name in enumerate(alignment.names)}
        missing = [n for n in tree.names if n not in order]
        if missing:
            raise ReproError(f"tree taxa absent from alignment: {missing[:5]}")
        return tree
    if getattr(args, "starting_tree", "parsimony") == "random":
        return Tree.random_topology(alignment.num_taxa, seed=args.seed,
                                    names=alignment.names)
    if getattr(args, "starting_tree", "parsimony") == "nj":
        from repro.nj.neighbor_joining import nj_tree
        return nj_tree(alignment)
    from repro.phylo.parsimony import stepwise_addition_tree
    return stepwise_addition_tree(alignment, seed=args.seed)


def _engine_for(alignment: Alignment, args) -> LikelihoodEngine:
    """The engine the command line describes, on its (starting) tree."""
    model, rates = _parse_model(args.model, alignment)
    return LikelihoodEngine(
        _tree_for(alignment, args), alignment, model, rates,
        EngineConfig.from_args(args), workdir=args.workdir)


def _add_common(parser: argparse.ArgumentParser, with_tree=True) -> None:
    parser.add_argument("-s", "--msa", required=True,
                        help="alignment file (FASTA or relaxed PHYLIP)")
    parser.add_argument("-m", "--model", default="GTR+G",
                        help="substitution model, e.g. GTR+G, HKY+G4+FC, JC "
                             "(default: GTR+G)")
    if with_tree:
        parser.add_argument("-t", "--tree", help="Newick tree file")
    EngineConfig.add_arguments(parser)


def _report_io(engine) -> str:
    s = engine.stats
    line = (f"vector requests {s.requests}, miss rate {s.miss_rate:.2%}, "
            f"read rate {s.read_rate:.2%}, I/O {format_bytes(s.io_bytes)}")
    if s.prefetch_reads:
        line += (f"\nprefetch       : {s.prefetch_reads} reads issued, "
                 f"{s.prefetch_hits} demand hits, {s.prefetch_unused} unused")
    if s.writeback_writes or s.writeback_stalls:
        line += (f"\nwrite-behind   : {s.writeback_writes} drained "
                 f"({s.writes - s.writeback_writes} coalesced), "
                 f"{s.writeback_stalls} stalls, "
                 f"{s.writeback_read_hits} staging read hits")
    return line


# ---------------------------------------------------------------------------
# subcommands


def cmd_evaluate(args) -> int:
    """Fixed-tree likelihood evaluation; ``-f z`` = full traversals (§4.3)."""
    alignment = _read_alignment(args.msa, args.model)
    engine = _engine_for(alignment, args)
    t0 = time.perf_counter()
    if args.function == "z":
        lnl = engine.full_traversals(args.traversals)
        mode = f"{args.traversals} full tree traversals (-f z)"
    else:
        lnl = engine.loglikelihood()
        mode = "single evaluation"
    dt = time.perf_counter() - t0
    engine.close()  # drain write-behind so the I/O report is final
    print(f"mode           : {mode}")
    print(f"log-likelihood : {lnl:.6f}")
    print(f"time           : {format_seconds(dt)}")
    print(f"vector memory  : {format_bytes(engine.store.num_slots * engine.ancestral_vector_bytes())} "
          f"of {format_bytes(engine.total_ancestral_bytes())} "
          f"({engine.store.num_slots}/{engine.num_inner} slots)")
    print(f"I/O            : {_report_io(engine)}")
    return 0


def cmd_search(args) -> int:
    """Maximum-likelihood tree search (lazy SPR + NNI + model optimization)."""
    from repro.phylo.search import ml_search

    alignment = _read_alignment(args.msa, args.model)
    resume_state = None
    if args.checkpoint and args.resume and os.path.exists(args.checkpoint):
        from repro.checkpoint import read_checkpoint

        # Tree and (optimised) model come from the file; the engine is
        # rebuilt from this command line exactly like a fresh one.
        ck = read_checkpoint(args.checkpoint, alignment)
        engine = LikelihoodEngine(
            ck.tree, alignment, ck.model, ck.rates,
            EngineConfig.from_args(args), workdir=args.workdir)
        ck.restore_edge(engine)
        resume_state = ck.extra.get("search")
        print(f"resumed        : {args.checkpoint} "
              f"(round {resume_state['rounds'] if resume_state else 0})")
    else:
        engine = _engine_for(alignment, args)
    t0 = time.perf_counter()
    result = ml_search(engine, radius=args.radius, max_rounds=args.rounds,
                       checkpoint_path=args.checkpoint,
                       checkpoint_every=args.checkpoint_every,
                       resume_state=resume_state)
    if args.optimize_alpha and engine.rates.alpha is not None:
        alpha = optimize_alpha(engine)
        print(f"alpha          : {alpha:.4f}")
    dt = time.perf_counter() - t0
    lnl = engine.loglikelihood()
    engine.close()
    print(f"log-likelihood : {lnl:.6f}")
    print(f"search         : {result.rounds} rounds, {result.moves_applied} "
          f"moves applied / {result.moves_evaluated} evaluated")
    print(f"time           : {format_seconds(dt)}")
    print(f"I/O            : {_report_io(engine)}")
    newick = write_newick(engine.tree)
    if args.out:
        Path(args.out).write_text(newick + "\n")
        print(f"tree written   : {args.out}")
    else:
        print(newick)
    return 0


def cmd_mcmc(args) -> int:
    """Bayesian MCMC sampling (Metropolis–Hastings)."""
    from repro.phylo.bayes import McmcChain

    alignment = _read_alignment(args.msa, args.model)
    engine = _engine_for(alignment, args)
    chain = McmcChain(engine, seed=args.seed)
    t0 = time.perf_counter()
    result = chain.run(args.generations, burn_in=args.burn_in,
                       sample_every=args.sample_every)
    dt = time.perf_counter() - t0
    engine.close()
    print(f"generations    : {args.generations} "
          f"({len(result.samples)} samples after burn-in {args.burn_in})")
    print(f"final lnL      : {result.final_log_likelihood:.4f}")
    mean_alpha = result.posterior_mean_alpha()
    if mean_alpha is not None:
        print(f"posterior alpha: {mean_alpha:.4f} (mean)")
    for name, stat in sorted(result.move_stats.items()):
        print(f"move {name:>13}: {stat.accepted}/{stat.proposed} accepted "
              f"({stat.acceptance_rate:.1%})")
    print(f"time           : {format_seconds(dt)}")
    print(f"I/O            : {_report_io(engine)}")
    freqs = result.split_frequencies()
    strong = sum(1 for v in freqs.values() if v >= 0.95)
    print(f"splits         : {len(freqs)} sampled, {strong} with ≥95% support")
    return 0


def cmd_simulate(args) -> int:
    """Generate a random tree + simulated alignment (INDELible substitute)."""
    from repro.simulate import simulate_alignment, yule_tree

    tree = yule_tree(args.taxa, seed=args.seed, scale=args.scale)
    # No data yet, so +F has nothing to estimate from: the model's own
    # frequencies generate the alignment.
    base, cats, _ = _parse_model_spec(args.model)
    model = MODELS[base]()
    rates = RateModel.gamma(args.alpha, cats) if cats else RateModel.uniform()
    alignment = simulate_alignment(tree, model, args.length, rates=rates,
                                   seed=args.seed + 1)
    Path(args.out).write_text(alignment.to_phylip())
    print(f"alignment written: {args.out} "
          f"({alignment.num_taxa} taxa x {alignment.num_sites} sites)")
    if args.tree_out:
        Path(args.tree_out).write_text(write_newick(tree) + "\n")
        print(f"true tree written: {args.tree_out}")
    mem = alignment.total_ancestral_bytes()
    print(f"ancestral vectors would need {format_bytes(mem)} "
          "(uncompressed patterns)")
    return 0


def cmd_policies(args) -> int:
    """Compare replacement strategies on a live search (Fig. 2/3 tables)."""
    from repro import AncestralVectorStore, ShadowStore, TeeStore
    from repro.core.vecstore import slots_for_fraction
    from repro.phylo.search import lazy_spr_round

    alignment = _read_alignment(args.msa, args.model)
    tree = _tree_for(alignment, args)
    model, rates = _parse_model(args.model, alignment)
    num_inner, shape = clv_geometry(tree, alignment, model, rates)
    fractions = [float(x) for x in args.fractions.split(",")]
    policies = ["random", "lru", "lfu", "topological"]
    shadows = [
        ShadowStore(num_inner, slots_for_fraction(f, num_inner), p,
                    label=f"{p}:{f}", policy_kwargs={"seed": 1} if p == "random" else None)
        for p in policies for f in fractions
    ]
    engine = LikelihoodEngine(
        tree, alignment, model, rates,
        store=TeeStore(AncestralVectorStore(num_inner, shape), shadows),
    )
    result = lazy_spr_round(engine, radius=args.radius)
    print(f"search: lnL {result.lnl:.2f}, {engine.stats.requests} vector requests")
    header = f"{'strategy':>12} | " + " | ".join(f"f={f}" for f in fractions)
    for title, attr in (("miss rate", "miss_rate"), ("read rate", "read_rate")):
        print(f"\n{title} (% of total vector requests)")
        print(header)
        for p in policies:
            cells = [getattr(next(s.stats for s in shadows
                                  if s.label == f"{p}:{f}"), attr)
                     for f in fractions]
            print(f"{p:>12} | " + " | ".join(f"{c:6.2%}" for c in cells))
    return 0


def cmd_support(args) -> int:
    """aLRT branch support (+ optional NJ bootstrap) on a given tree."""
    from repro.phylo.consensus import annotate_support
    from repro.phylo.bootstrap import bootstrap_alignment
    from repro.phylo.draw import ascii_tree
    from repro.phylo.likelihood.alrt import alrt_branch_support
    from repro.nj.neighbor_joining import nj_tree
    from repro.utils.rng import as_rng

    alignment = _read_alignment(args.msa, args.model)
    engine = _engine_for(alignment, args)
    engine.optimize_all_branches(passes=2)
    supports = alrt_branch_support(engine)
    labels = {e: f"aLRT={s.statistic:.1f}" for e, s in supports.items()}
    significant = sum(1 for s in supports.values() if s.supported)
    print(f"aLRT           : {significant}/{len(supports)} internal edges "
          "significant at 5%")
    if args.bootstrap > 0:
        rng = as_rng(args.seed)
        replicate_trees = [nj_tree(bootstrap_alignment(alignment, rng))
                           for _ in range(args.bootstrap)]
        boot = annotate_support(engine.tree, replicate_trees)
        for edge in labels:
            labels[edge] += f" BS={boot.get(edge, 0.0):.0%}"
        print(f"bootstrap      : {args.bootstrap} NJ replicates")
    lnl = engine.loglikelihood()
    engine.close()
    print(f"log-likelihood : {lnl:.6f}")
    print(f"I/O            : {_report_io(engine)}")
    print()
    print(ascii_tree(engine.tree, edge_labels=labels, max_width=40))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Out-of-core phylogenetic likelihood toolkit "
                    "(reproduction of Izquierdo-Carrasco & Stamatakis 2011)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="fixed-tree likelihood (-f z mode)")
    _add_common(p)
    p.add_argument("-f", "--function", choices=["e", "z"], default="e",
                   help="e: single evaluation; z: full traversals (paper §4.3)")
    p.add_argument("-N", "--traversals", type=int, default=5,
                   help="full traversals for -f z (paper uses 5)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("search", help="maximum-likelihood tree search")
    _add_common(p)
    p.add_argument("--starting-tree", choices=["parsimony", "nj", "random"],
                   default="parsimony")
    p.add_argument("--radius", type=int, default=5)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--optimize-alpha", action="store_true")
    p.add_argument("--checkpoint", metavar="FILE",
                   help="crash-safe checkpoint file (written during the "
                        "search; see --checkpoint-every / --resume)")
    p.add_argument("--checkpoint-every", type=int, default=1, metavar="N",
                   help="write the checkpoint after every N search rounds "
                        "(default 1)")
    p.add_argument("--resume", action="store_true",
                   help="resume from --checkpoint if it exists (tree and "
                        "model are restored from the file)")
    p.add_argument("-o", "--out", help="output Newick file")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("mcmc", help="Bayesian MCMC sampling")
    _add_common(p)
    p.add_argument("--starting-tree", choices=["parsimony", "nj", "random"],
                   default="parsimony")
    p.add_argument("--generations", type=int, default=1000)
    p.add_argument("--burn-in", type=int, default=100)
    p.add_argument("--sample-every", type=int, default=10)
    p.set_defaults(func=cmd_mcmc)

    p = sub.add_parser("simulate", help="simulate a tree + alignment")
    p.add_argument("-n", "--taxa", type=int, required=True)
    p.add_argument("-l", "--length", type=int, required=True)
    p.add_argument("-o", "--out", required=True, help="output PHYLIP file")
    p.add_argument("--tree-out", help="write the true tree (Newick)")
    p.add_argument("-m", "--model", default="GTR+G")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("support", help="aLRT (+bootstrap) branch support")
    _add_common(p)
    p.add_argument("--starting-tree", choices=["parsimony", "nj", "random"],
                   default="nj")
    p.add_argument("-b", "--bootstrap", type=int, default=0,
                   help="number of NJ bootstrap replicates (0 = aLRT only)")
    p.set_defaults(func=cmd_support)

    p = sub.add_parser("policies", help="replacement-strategy comparison table")
    _add_common(p)
    p.add_argument("--starting-tree", choices=["parsimony", "nj", "random"],
                   default="random")
    p.add_argument("--radius", type=int, default=5)
    p.add_argument("--fractions", default="0.25,0.5,0.75")
    p.set_defaults(func=cmd_policies)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Scratch space for path-owning --backing kinds, gone on exit.
        with tempfile.TemporaryDirectory(prefix="repro-") as workdir:
            args.workdir = workdir
            return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
