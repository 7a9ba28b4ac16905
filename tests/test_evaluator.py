"""One evaluator: the same scenario over every way of building one.

Evaluation, the moves, Newton's loop and the branch smoother exist once, in
:class:`~repro.phylo.likelihood.evaluator.Evaluator`; a
:class:`LikelihoodEngine` is its one-part case and a
:class:`PartitionedEngine` its many-part case. So a one-partition
``PartitionedEngine`` must walk the plain engine's exact floating-point
path — every lnL and every branch length, bit for bit, after every step —
and a two-partition one under identical models must stay within rounding
of it.
"""

import os
import threading

import pytest

from repro import (
    GTR,
    HKY85,
    Alignment,
    LikelihoodEngine,
    PartitionedEngine,
    Poisson,
    RateModel,
    simulate_alignment,
    split_alignment,
    write_newick,
    yule_tree,
)
from repro.errors import AlignmentError, LikelihoodError
from repro.phylo.likelihood.evaluator import Evaluator
from repro.phylo.search import lazy_spr_round, nni_round

MODEL = HKY85(2.0, (0.3, 0.2, 0.25, 0.25))
RATES = RateModel.gamma(0.9, 4)


@pytest.fixture(scope="module")
def dataset():
    truth = yule_tree(9, seed=611)
    aln = simulate_alignment(truth, MODEL, 400, rates=RATES, seed=612)
    # A wrong starting topology, so both search rounds have moves to make.
    start = yule_tree(9, seed=613, names=truth.names)
    return start, aln


def _plain(tree, aln):
    return LikelihoodEngine(tree, aln, MODEL, RATES)


def _one_partition(tree, aln):
    return PartitionedEngine(tree, [(aln, MODEL, RATES)])


def _one_partition_shared(tree, aln):
    return PartitionedEngine(tree, [(aln, MODEL, RATES)],
                             shared_store={"fraction": 0.5, "block_sites": 64})


def _two_partitions(tree, aln):
    return PartitionedEngine(
        tree, [(part, MODEL, RATES) for part in split_alignment(aln, [170])])


def _shape(tree):
    """Topology and branch lengths, whatever order neighbours are listed in
    (an undo restores the tree, not the adjacency order Newick is written
    from)."""
    return sorted((min(u, v), max(u, v), tree.branch_length(u, v).hex())
                  for u, v in tree.edges())


def run_scenario(ev: Evaluator) -> list[tuple]:
    """Every evaluator entry point once; after each step, the lnL and the
    state of the tree. Undo exactness is asserted on the way."""
    tree = ev.tree
    trace = []

    def mark(step, lnl, *extra):
        lengths = [float.fromhex(t) for _, _, t in _shape(tree)]
        trace.append((step, lnl, lengths, write_newick(tree), *extra))

    def undone(step, undo_move, edge, before_lnl, before_tree):
        undo_move()
        assert _shape(tree) == before_tree, step
        lnl = ev.edge_loglikelihood(*edge)     # where before_lnl was taken
        assert lnl.hex() == before_lnl.hex(), step
        mark(step, lnl)

    mark("evaluate", ev.loglikelihood())
    mark("full_traversals", ev.full_traversals(2))

    u, v = tree.internal_edges()[0]
    ev.set_branch_length(u, v, 0.42)
    mark("set_branch_length", ev.loglikelihood())

    root = ev.default_edge()
    before_lnl, before_tree = ev.edge_loglikelihood(*root), _shape(tree)
    p = next(iter(tree.inner_nodes()))
    s = tree.neighbors(p)[0]
    undo = ev.apply_spr(p, s, tree.spr_candidates(p, s, radius=4)[0])
    assert _shape(tree) != before_tree
    mark("apply_spr", ev.loglikelihood())
    undone("undo_spr", lambda: ev.undo_spr(undo), root, before_lnl, before_tree)

    before_lnl = ev.edge_loglikelihood(u, v)
    undo = ev.apply_nni((u, v), 1)
    assert _shape(tree) != before_tree
    mark("apply_nni", ev.edge_loglikelihood(u, v))
    undone("undo_nni", lambda: ev.undo_nni(undo), (u, v), before_lnl, before_tree)

    # Two iterations cannot converge from 0.42: the keywords must arrive.
    loose = ev.optimize_branch(u, v, max_iter=2, tol=1e-3)
    assert ev.root_edge == (u, v)
    mark("optimize_branch(max_iter=2)", ev.loglikelihood(), loose)
    tight = ev.optimize_branch(u, v)
    assert tight != loose
    mark("optimize_branch", ev.loglikelihood(), tight)

    mark("optimize_all_branches", ev.optimize_all_branches(passes=2))
    spr = lazy_spr_round(ev, radius=3)
    mark("lazy_spr_round", spr.lnl, spr.moves_applied, spr.moves_evaluated)
    nni = nni_round(ev)
    mark("nni_round", nni.lnl, nni.moves_applied, nni.moves_evaluated)
    mark("loglikelihood", ev.loglikelihood())
    tree.validate()
    return trace


def _bits(trace):
    return [(step, lnl.hex(), [t.hex() for t in lengths], newick, *extra)
            for step, lnl, lengths, newick, *extra in trace]


@pytest.fixture(scope="module")
def plain_trace(dataset):
    start, aln = dataset
    engine = _plain(start.copy(), aln)
    try:
        trace = run_scenario(engine)
    finally:
        engine.close()
    # The scenario is only a test of the search rounds if they moved.
    assert next(t for t in trace if t[0] == "lazy_spr_round")[4] > 0  # moves applied
    return trace


@pytest.mark.parametrize("build", [_plain, _one_partition, _one_partition_shared],
                         ids=["engine", "one-partition", "one-partition-shared"])
def test_one_part_walks_the_plain_engines_bits(dataset, plain_trace, build):
    start, aln = dataset
    ev = build(start.copy(), aln)
    try:
        trace = run_scenario(ev)
    finally:
        ev.close()
    for got, expected in zip(_bits(trace), _bits(plain_trace)):
        assert got == expected, expected[0]
    assert len(trace) == len(plain_trace)


def test_two_identical_model_partitions_stay_within_rounding(dataset, plain_trace):
    """Splitting the alignment under one model changes only the order the
    site terms are added in: lnL within 1e-9 relative at every step, the
    same moves taken."""
    start, aln = dataset
    ev = _two_partitions(start.copy(), aln)
    try:
        trace = run_scenario(ev)
    finally:
        ev.close()
    assert len(trace) == len(plain_trace)
    for got, expected in zip(trace, plain_trace):
        assert got[0] == expected[0]
        assert got[1] == pytest.approx(expected[1], rel=1e-9), expected[0]
        assert got[2] == pytest.approx(expected[2], rel=1e-5, abs=1e-7), expected[0]
    for step in ("lazy_spr_round", "nni_round"):
        got, expected = (next(t for t in tr if t[0] == step)
                         for tr in (trace, plain_trace))
        assert got[3:] == expected[3:], step   # topology and move counts


def test_partitioned_loglikelihood_evaluates_at_the_root_edge(dataset):
    """``loglikelihood()`` re-evaluates where the last operation left the
    virtual root — a local traversal — not at the default edge."""
    start, aln = dataset
    ev = _two_partitions(start.copy(), aln)
    try:
        ev.loglikelihood()
        u, v = ev.tree.internal_edges()[-1]
        ev.optimize_branch(u, v)
        assert ev.root_edge == (u, v) != ev.default_edge()
        before = [e.stats.requests for e in ev.engines]
        ev.loglikelihood()
        # Both ends are current already: two end reads per partition.
        assert [e.stats.requests - b for e, b in zip(ev.engines, before)] == [2, 2]
    finally:
        ev.close()


# -- a constructor that fails on a later partition leaves nothing running -------------


def _live():
    return ({(t.ident, t.name) for t in threading.enumerate()},
            len(os.listdir("/proc/self/fd")))


def test_failed_per_partition_construction_releases_the_earlier_engines(
        dataset, tmp_path):
    from repro.core.backing import FileBackingStore

    start, aln = dataset
    num_inner, shape = start.num_inner, (aln.compress().num_patterns, 4, 4)
    before = _live()
    backing = FileBackingStore(tmp_path / "vectors.bin", num_inner, shape)
    with pytest.raises(LikelihoodError, match="states"):
        PartitionedEngine(
            start.copy(), [(aln, GTR(), None), (aln, Poisson(), None)],
            store_kwargs=[{"fraction": 0.5, "writeback_depth": 2,
                           "backing": backing}, {}])
    assert _live() == before    # the first engine's writer and its file are gone


def test_failed_shared_construction_closes_the_shared_store(dataset, tmp_path):
    from repro.core.backing import FileBackingStore
    from repro.core.layout import ConcatenatedLayout, make_layout

    start, aln = dataset
    shape = (aln.compress().num_patterns, 4, 4)
    layout = ConcatenatedLayout(
        [make_layout("block", start.num_inner, shape, block_sites=64)] * 2)
    before = _live()
    backing = FileBackingStore.from_layout(tmp_path / "vectors.bin", layout)
    fewer = Alignment(aln.names[1:], aln.codes[1:], aln.alphabet)
    with pytest.raises(AlignmentError):
        PartitionedEngine(
            start.copy(), [(aln, MODEL, RATES), (fewer, MODEL, RATES)],
            shared_store={"fraction": 0.5, "writeback_depth": 2,
                          "block_sites": 64, "backing": backing})
    assert _live() == before    # the shared store's writer and its file are gone
