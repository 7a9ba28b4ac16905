"""Fuzz tests for incremental CLV invalidation under topology edits.

The engine maintains per-node CLV orientations and invalidates the minimal
set after every SPR / NNI / branch-length change; a bug here produces
silently-wrong likelihoods. Every assertion compares the incremental
engine against a fresh engine that recomputes from scratch — values must be
**bit-identical** because both run the same kernel arithmetic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GTR, LikelihoodEngine, RateModel, simulate_alignment, yule_tree
from repro.core.backing import SimulatedDiskBackingStore
from repro.core.layout import make_layout
from repro.core.shadow import ShadowStore, TeeStore
from repro.core.trace import AccessTrace, simulate_policy_on_trace
from repro.core.vecstore import AncestralVectorStore
from repro.errors import TreeError
from repro.phylo.likelihood.traversal import OrientationState, plan_edge_traversal
from repro.phylo.search import lazy_spr_round
from tests.test_orientation import BfsOrientation, check_invariants

MODEL = GTR((1, 2, 1, 1, 2, 1), (0.3, 0.2, 0.3, 0.2))
RATES = RateModel.gamma(0.9, 4)


@pytest.fixture(scope="module")
def dataset():
    tree = yule_tree(14, seed=55)
    aln = simulate_alignment(tree, MODEL, 150, rates=RATES, seed=56)
    return tree, aln


def fresh_lnl(tree, aln, u, v):
    eng = LikelihoodEngine(tree.copy(), aln, MODEL, RATES)
    return eng.edge_loglikelihood(u, v)


def random_edge(tree, rng):
    edges = list(tree.edges())
    return edges[rng.integers(len(edges))]


class TestMutationFuzz:
    def _run_fuzz(self, dataset, seed, steps, with_undo):
        tree, aln = dataset
        tree = tree.copy()
        rng = np.random.default_rng(seed)
        eng = LikelihoodEngine(tree, aln, MODEL, RATES, fraction=0.4,
                               policy="random", seed=1,
                               poison_skipped_reads=True)
        for _ in range(steps):
            op = rng.integers(5 if with_undo else 4)
            try:
                if op == 0:
                    u, v = random_edge(tree, rng)
                    eng.set_branch_length(u, v, float(rng.uniform(0.01, 0.5)))
                elif op == 1:
                    p = int(rng.integers(tree.num_tips, tree.num_nodes))
                    s = tree.neighbors(p)[rng.integers(3)]
                    cands = tree.spr_candidates(p, s, radius=6)
                    if not cands:
                        continue
                    undo = eng.apply_spr(p, s, cands[rng.integers(len(cands))])
                    if with_undo and rng.random() < 0.5:
                        eng.undo_spr(undo)
                elif op == 2:
                    internal = tree.internal_edges()
                    undo = eng.apply_nni(internal[rng.integers(len(internal))],
                                         int(rng.integers(2)))
                    if with_undo and rng.random() < 0.5:
                        eng.undo_nni(undo)
                elif op == 3:
                    u, v = random_edge(tree, rng)
                    assert eng.edge_loglikelihood(u, v) == fresh_lnl(tree, aln, u, v)
                else:
                    # mixed: evaluate, mutate, evaluate elsewhere
                    u, v = random_edge(tree, rng)
                    eng.edge_loglikelihood(u, v)
            except TreeError:
                continue
        u, v = eng.default_edge()
        assert eng.edge_loglikelihood(u, v) == fresh_lnl(tree, aln, u, v)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_apply_only(self, dataset, seed):
        self._run_fuzz(dataset, seed, steps=120, with_undo=False)

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_with_undo(self, dataset, seed):
        self._run_fuzz(dataset, seed, steps=120, with_undo=True)


class TestTargetedInvalidation:
    def test_branch_change_far_from_root(self, dataset):
        tree, aln = dataset
        tree = tree.copy()
        eng = LikelihoodEngine(tree, aln, MODEL, RATES)
        u, v = eng.default_edge()
        eng.edge_loglikelihood(u, v)
        # Change the most distant edge from the root edge.
        far = max(tree.edges(), key=lambda e: len(tree.path(v, e[0])))
        eng.set_branch_length(*far, 0.333)
        assert eng.edge_loglikelihood(u, v) == fresh_lnl(tree, aln, u, v)

    def test_root_edge_branch_change_is_cheap(self, dataset):
        """Changing the *current* root edge must invalidate nothing."""
        tree, aln = dataset
        tree = tree.copy()
        eng = LikelihoodEngine(tree, aln, MODEL, RATES)
        u, v = eng.default_edge()
        eng.edge_loglikelihood(u, v)
        valid_before = eng.orientation.num_valid()
        eng.set_branch_length(u, v, 0.123)
        assert eng.orientation.num_valid() == valid_before
        assert eng.edge_loglikelihood(u, v) == fresh_lnl(tree, aln, u, v)

    def test_spr_keeps_subtree_interior_valid(self, dataset):
        """Lazy SPR's payoff: CLVs inside the moved subtree that look toward
        the prune point cover only unmoved content and must stay valid.
        (CLVs oriented *away* from the prune point see the rest of the tree
        and are rightly invalidated.)"""
        tree, aln = dataset
        tree = tree.copy()
        eng = LikelihoodEngine(tree, aln, MODEL, RATES)
        eng.loglikelihood()
        checked = 0
        for p in list(tree.inner_nodes()):
            for s in tree.neighbors(p):
                if tree.is_tip(s):
                    continue
                sub = set(tree.subtree_nodes(s, p))
                cands = tree.spr_candidates(p, s, radius=10)
                if not cands:
                    continue
                # Inner subtree nodes whose orientation points toward p.
                toward_p = [
                    x for x in sub
                    if not tree.is_tip(x)
                    and eng.orientation.orient[x] >= 0
                    and tree.path(x, p)[1] == eng.orientation.orient[x]
                ]
                if not toward_p:
                    continue
                undo = eng.apply_spr(p, s, cands[-1])
                for x in toward_p:
                    assert eng.orientation.orient[x] >= 0, (
                        f"subtree-interior node {x} (toward prune point) was "
                        "needlessly invalidated"
                    )
                eng.undo_spr(undo)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_spr_and_nni_interleaved_without_evaluation(self, dataset, seed):
        """Moves pile up on a state no plan has refreshed in between: each
        invalidation starts from what the previous ones left."""
        tree, aln = dataset
        tree = tree.copy()
        rng = np.random.default_rng(seed)
        eng = LikelihoodEngine(tree, aln, MODEL, RATES)
        eng.edge_loglikelihood(*random_edge(tree, rng))
        for round_ in range(6):
            for _ in range(int(rng.integers(2, 6))):
                if rng.random() < 0.5:
                    p = int(rng.integers(tree.num_tips, tree.num_nodes))
                    s = tree.neighbors(p)[rng.integers(3)]
                    cands = tree.spr_candidates(p, s, radius=4)
                    if not cands:
                        continue
                    undo = eng.apply_spr(p, s, cands[rng.integers(len(cands))])
                    if rng.random() < 0.3:
                        eng.undo_spr(undo)
                else:
                    internal = tree.internal_edges()
                    undo = eng.apply_nni(internal[rng.integers(len(internal))],
                                         int(rng.integers(2)))
                    if rng.random() < 0.3:
                        eng.undo_nni(undo)
            u, v = random_edge(tree, rng)
            assert eng.edge_loglikelihood(u, v) == fresh_lnl(tree, aln, u, v)

    def test_evaluation_after_undo_matches(self, dataset):
        tree, aln = dataset
        tree = tree.copy()
        eng = LikelihoodEngine(tree, aln, MODEL, RATES)
        before = eng.loglikelihood()
        p = list(tree.inner_nodes())[4]
        s = tree.neighbors(p)[0]
        cands = tree.spr_candidates(p, s, radius=5)
        undo = eng.apply_spr(p, s, cands[0])
        eng.loglikelihood()  # force recomputation on the new topology
        eng.undo_spr(undo)
        assert eng.loglikelihood() == before

    def test_plan_is_empty_when_nothing_changed(self, dataset):
        tree, aln = dataset
        tree = tree.copy()
        eng = LikelihoodEngine(tree, aln, MODEL, RATES)
        u, v = eng.default_edge()
        eng.edge_loglikelihood(u, v)
        assert len(eng.plan(u, v)) == 0

    def test_full_plan_covers_all_inner_nodes(self, dataset):
        tree, aln = dataset
        tree = tree.copy()
        eng = LikelihoodEngine(tree, aln, MODEL, RATES)
        u, v = eng.default_edge()
        plan = eng.plan(u, v, full=True)
        assert sorted(plan.touched_nodes()) == list(tree.inner_nodes())


# -- refreshed cherries ------------------------------------------------------------


def _cherry_kids(tree, x, parent):
    kids = [y for y in tree.neighbors(x) if y != parent]
    return kids if all(tree.is_tip(k) for k in kids) else None


def _reached_cherries(tree, state, plan, u, v, absent):
    """The valid cherries the walk of ``plan`` (an ``absent=None`` plan)
    stops at, that ``absent`` names: derived from the plan, not the walk."""
    reached = [(u, v), (v, u)] + [(k, s.node) for s in plan.steps
                                  for k in (s.left, s.right)]
    return {x for x, par in reached
            if not tree.is_tip(x) and state.orient[x] == par
            and _cherry_kids(tree, x, par) is not None and x in absent}


def test_refresh_plan_is_the_minimal_plan_plus_the_absent_cherries():
    """With an ``absent`` predicate the plan is the minimal one plus exactly
    the valid, absent cherries its walk reached — each before its
    parent's step — and executing it leaves the orientation the
    whole-tree reference computes."""
    refreshed: list[int] = []
    _refresh_plans(refreshed)
    assert sum(refreshed) >= 100


@settings(max_examples=60, deadline=None)
@given(taxa=st.integers(4, 40), seed=st.integers(0, 10**6),
       rnd=st.randoms(use_true_random=False))
def _refresh_plans(refreshed, taxa, seed, rnd):
    tree = yule_tree(taxa, seed=seed)
    state, ref = OrientationState(tree), BfsOrientation(tree)

    def mutated(name, *args):
        getattr(state, name)(*args)
        getattr(ref, name)(*args)

    for _ in range(40):
        op = rnd.randrange(4)
        if op == 0:
            u, v = rnd.choice(list(tree.edges()))
            absent = {x for x in tree.inner_nodes() if rnd.random() < 0.5}
            minimal = plan_edge_traversal(tree, state, u, v)
            plan = plan_edge_traversal(tree, state, u, v,
                                       absent=absent.__contains__)
            assert minimal.refresh == frozenset()
            assert plan.refresh == _reached_cherries(tree, state, minimal,
                                                     u, v, absent)
            assert [s for s in plan.steps if s.node not in plan.refresh] \
                == list(minimal.steps)
            order = {s.node: i for i, s in enumerate(plan.steps)}
            assert len(order) == len(plan.steps)
            for s in plan.steps:
                if s.node in plan.refresh:
                    assert s.toward == state.orient[s.node]
                    assert sorted((s.left, s.right)) == sorted(
                        _cherry_kids(tree, s.node, s.toward))
                    parent = plan.steps[order.get(s.toward, order[s.node])]
                    if s.node in (parent.left, parent.right):
                        assert order[parent.node] > order[s.node]
            for s in plan.steps:
                state.set(s.node, s.toward)
                ref.set(s.node, s.toward)
            refreshed.append(len(plan.refresh))
        elif op == 1:
            mutated("after_branch_change", *rnd.choice(list(tree.edges())))
        elif op == 2:
            p = rnd.choice(tree.inner_nodes())
            s = rnd.choice(tree.neighbors(p))
            candidates = tree.spr_candidates(p, s, radius=rnd.randint(1, 6))
            if candidates:
                move = tree.spr_move(p, s, rnd.choice(candidates))
                mutated("after_spr", p, move.old_a, move.old_b,
                        move.target_u, move.target_v)
        elif tree.num_tips > 3:
            move = tree.nni(rnd.choice(tree.internal_edges()), rnd.randrange(2))
            mutated("after_nni", move.u, move.v, move.swapped_u, move.swapped_v)
        assert np.array_equal(state.orient, ref.orient)
        check_invariants(tree, state.orient)


# -- priced frontiers --------------------------------------------------------------


def _frontier_of(tree, x, parent, absent):
    """``x`` and the absent nodes below it reached through absent nodes,
    in post-order: what recomputing ``x`` from resident nodes and tips
    takes. Derived here by recursion, not by the planner's walk."""
    out = []

    def walk(y, p):
        for k in tree.neighbors(y):
            if k != p and not tree.is_tip(k) and k in absent:
                walk(k, y)
        out.append(y)

    walk(x, parent)
    return out


def test_priced_plan_is_the_minimal_plan_plus_each_frontier_priced_below_its_read():
    """With prices the plan is the minimal one plus, for each valid absent
    node its walk reached, that node's frontier — exactly when the
    frontier is a cherry or its price is below the node's read — with
    every ghost before its consumer; the walk prices no node outside the
    frontiers it reached and stops at the first that reaches the read."""
    tally = {"refresh": 0, "ghost": 0, "declined": 0}
    _priced_plans(tally)
    assert min(tally.values()) >= 50, tally


@settings(max_examples=60, deadline=None)
@given(taxa=st.integers(4, 40), seed=st.integers(0, 10**6),
       rnd=st.randoms(use_true_random=False))
def _priced_plans(tally, taxa, seed, rnd):
    tree = yule_tree(taxa, seed=seed)
    state, ref = OrientationState(tree), BfsOrientation(tree)

    def mutated(name, *args):
        getattr(state, name)(*args)
        getattr(ref, name)(*args)

    for _ in range(40):
        op = rnd.randrange(4)
        if op == 0:
            u, v = rnd.choice(list(tree.edges()))
            absent = {x for x in tree.inner_nodes() if rnd.random() < 0.6}
            # Integer prices: sums are exact in any order.
            step = {x: rnd.randint(1, 4) for x in tree.inner_nodes()}
            read = {x: rnd.randint(0, 24) for x in tree.inner_nodes()}
            asked: list[int] = []

            def step_price(x, asked=asked, step=step):
                asked.append(x)
                return step[x]

            minimal = plan_edge_traversal(tree, state, u, v)
            plan = plan_edge_traversal(tree, state, u, v,
                                       absent=absent.__contains__,
                                       read_price=read.__getitem__,
                                       step_price=step_price)
            reached = [(u, v), (v, u)] + [(k, s.node) for s in minimal.steps
                                          for k in (s.left, s.right)]
            refresh, ghost, scheduled = set(), set(), set()
            owner = {}
            for x, par in reached:
                if tree.is_tip(x) or state.orient[x] != par or x not in absent:
                    continue
                frontier = _frontier_of(tree, x, par, absent)
                owner.update(dict.fromkeys(frontier, x))
                cherry = _cherry_kids(tree, x, par) is not None
                mine = [y for y in asked if owner.get(y) == x]
                if cherry:
                    assert mine == []
                if cherry or sum(step[y] for y in frontier) < read[x]:
                    refresh.add(x)
                    ghost.update(frontier[:-1])
                    scheduled.update(frontier)
                    if not cherry:
                        assert sorted(mine) == sorted(frontier)
                else:
                    # Stopped at the first node whose price reaches the
                    # read; a free read asks for none.
                    if read[x] == 0:
                        assert mine == []
                    else:
                        assert sum(step[y] for y in mine) >= read[x]
                        assert sum(step[y] for y in mine[:-1]) < read[x]
                    tally["declined"] += 1
            assert all(y in owner for y in asked)
            assert plan.refresh == refresh
            assert plan.ghost == ghost
            assert [s for s in plan.steps if s.node not in scheduled] \
                == list(minimal.steps)
            order = {s.node: i for i, s in enumerate(plan.steps)}
            assert len(order) == len(plan.steps)
            assert set(order) == {s.node for s in minimal.steps} | scheduled
            for s in plan.steps:
                if s.node in scheduled:
                    assert s.toward == state.orient[s.node]
                    assert sorted((s.left, s.right)) == sorted(
                        y for y in tree.neighbors(s.node) if y != s.toward)
                for child in (s.left, s.right):
                    if child in plan.ghost or child in plan.refresh:
                        assert order[child] < order[s.node]
            for s in plan.steps:
                state.set(s.node, s.toward)
                ref.set(s.node, s.toward)
            tally["refresh"] += len(plan.refresh)
            tally["ghost"] += len(plan.ghost)
        elif op == 1:
            mutated("after_branch_change", *rnd.choice(list(tree.edges())))
        elif op == 2:
            p = rnd.choice(tree.inner_nodes())
            s = rnd.choice(tree.neighbors(p))
            candidates = tree.spr_candidates(p, s, radius=rnd.randint(1, 6))
            if candidates:
                move = tree.spr_move(p, s, rnd.choice(candidates))
                mutated("after_spr", p, move.old_a, move.old_b,
                        move.target_u, move.target_v)
        elif tree.num_tips > 3:
            move = tree.nni(rnd.choice(tree.internal_edges()), rnd.randrange(2))
            mutated("after_nni", move.u, move.v, move.swapped_u, move.swapped_v)
        assert np.array_equal(state.orient, ref.orient)
        check_invariants(tree, state.orient)


#: (layout, batch, writeback_depth) of the lazy-SPR refresh round.
REFRESH_MATRIX = [(layout, batch, depth) for layout in ("whole", "block")
                  for batch in (1, -1) for depth in (0, 4)]


def _recording_lnl(engine, lnls):
    evaluate = engine.edge_loglikelihood

    def recorded(u, v):
        lnl = evaluate(u, v)
        lnls.append(float(lnl).hex())
        return lnl

    engine.edge_loglikelihood = recorded


@pytest.fixture(scope="module")
def incore_round(dataset):
    tree, aln = dataset
    lnls: list[str] = []
    eng = LikelihoodEngine(tree.copy(), aln, MODEL, RATES)
    try:
        _recording_lnl(eng, lnls)
        lazy_spr_round(eng, radius=2)
    finally:
        eng.close()
    return lnls


@pytest.fixture(scope="module", params=REFRESH_MATRIX,
                ids=lambda p: "{}-batch{}-wb{}".format(*p))
def refresh_round(request, dataset):
    """A lazy-SPR round at f = 0.25 through a TeeStore (out-of-core
    primary; one same-geometry LRU shadow and a trace observing it). Before
    every plan it notes the items of each valid cherry with no resident
    item — the ones the plan may refresh instead of read."""
    layout, batch, depth = request.param
    tree, aln = dataset
    tree = tree.copy()
    num_inner = tree.num_inner
    shape = (aln.compress().num_patterns, RATES.num_categories, MODEL.num_states)
    lay = make_layout(layout, num_inner, shape,
                      block_sites=48 if layout == "block" else None)
    primary = AncestralVectorStore(layout=lay, fraction=0.25,
                                   writeback_depth=depth)
    shadow = ShadowStore(lay.num_items, primary.num_slots, "lru")
    trace = AccessTrace(lay.num_items)
    eng = LikelihoodEngine(tree, aln, MODEL, RATES,
                           store=TeeStore(primary, [shadow, trace]),
                           batch=batch)
    marks: list[tuple[int, set[int]]] = []
    lnls: list[str] = []
    plan = eng.plan
    n = tree.num_tips

    def noting_plan(u, v, full=False):
        orient = eng.orientation.orient
        absent = set()
        for x in tree.inner_nodes():
            items = lay.items_of(x - n)
            if (orient[x] >= 0 and _cherry_kids(tree, x, orient[x]) is not None
                    and not any(map(primary.is_resident, items))):
                absent.update(items)
        marks.append((len(trace.events), absent))
        return plan(u, v, full)

    eng.plan = noting_plan
    _recording_lnl(eng, lnls)
    try:
        lazy_spr_round(eng, radius=2)
        live = primary.stats.as_row()
    finally:
        eng.close()
    return (trace, marks, lnls, live, shadow.stats.as_row(),
            primary.num_slots)


def test_refresh_round_never_reads_an_absent_cherry(refresh_round, incore_round):
    """No read access targets a cherry absent at plan time before the plan
    has rewritten it, and every lnL is the in-core twin's."""
    trace, marks, lnls, _, _, _ = refresh_round
    assert lnls == incore_round
    events = trace.events
    bounds = [at for at, _ in marks[1:]] + [len(events)]
    refreshed = 0
    for (start, absent), end in zip(marks, bounds):
        unwritten = set(absent)
        for ev in events[start:end]:
            if ev.kind == "reproduced":
                refreshed += len(ev.items)
                assert set(ev.items) <= absent
            elif ev.write_only:
                unwritten.discard(ev.item)
            else:
                assert ev.item not in unwritten, (start, ev)
    assert refreshed > 0


def test_refresh_round_counters_agree_with_shadow_and_replay(refresh_round):
    """The reproduced declaration reaches the shadow through the TeeStore
    and the replay through the trace: both count what the live store
    counted."""
    trace, _, _, live, shadowed, slots = refresh_round
    replayed = simulate_policy_on_trace(trace, slots, "lru").as_row()
    for counter in ("requests", "hits", "misses", "reads", "read_skips",
                    "writes", "write_skips", "write_drops"):
        assert shadowed[counter] == live[counter], counter
        assert replayed[counter] == live[counter], counter
    assert any(ev.kind == "reproduced" and ev.items for ev in trace.events)


# -- priced rounds: frontiers recomputed instead of read ------------------------------

#: (layout, batch, writeback_depth) of the priced round, whose backing
#: prices a read at ``DiskModel.hdd()``'s transfer time.
PRICED_MATRIX = [("whole", 1, 0), ("block", -1, 4)]


def _spr_and_reroots(engine):
    """A lazy-SPR round, then the likelihood re-rooted at every third edge."""
    lazy_spr_round(engine, radius=2)
    for u, v in list(engine.tree.edges())[::3]:
        engine.edge_loglikelihood(u, v)


def _noting_plans(engine, plans):
    plan = engine.plan

    def noted(u, v, full=False):
        out = plan(u, v, full)
        plans.append(out)
        return out

    engine.plan = noted


def _recomputed(plans, num_tips):
    """(ghosts, refreshed nodes that are no cherry) over ``plans``."""
    deep = sum(1 for p in plans for s in p.steps if s.node in p.refresh
               and max(s.left, s.right) >= num_tips)
    return sum(len(p.ghost) for p in plans), deep


@pytest.fixture(scope="module")
def incore_reroots(dataset):
    tree, aln = dataset
    lnls: list[str] = []
    eng = LikelihoodEngine(tree.copy(), aln, MODEL, RATES)
    try:
        _recording_lnl(eng, lnls)
        _spr_and_reroots(eng)
    finally:
        eng.close()
    return lnls


def test_simulated_engine_recomputes_frontiers_bit_identically(dataset,
                                                              incore_reroots):
    """On a modelled-HDD engine (f = 0.25, no sleeping) a read costs far
    more than a frontier's kernels, so absent valid vectors are rebuilt
    from what is resident — and every lnL is the in-core twin's."""
    tree, aln = dataset
    lnls: list[str] = []
    plans: list = []
    eng = LikelihoodEngine(tree.copy(), aln, MODEL, RATES, fraction=0.25,
                           backing="simulated")
    try:
        assert not eng.store.backing.sleep
        _noting_plans(eng, plans)
        _recording_lnl(eng, lnls)
        _spr_and_reroots(eng)
    finally:
        eng.close()
    assert lnls == incore_reroots
    ghosts, deep = _recomputed(plans, tree.num_tips)
    assert ghosts > 0 and deep > 0


def test_the_row_price_scales_with_the_operator_width():
    """A priced engine charges each class row ``ROW_PRICE_S · (C·S /
    16)²``: DNA Γ4 (16) keeps the measured price, a protein Γ4 row (80)
    costs 25 × it and a one-category DNA row (4) a sixteenth."""
    from repro.phylo.likelihood import kernels
    from repro.phylo.models import Poisson

    tree = yule_tree(10, seed=4, scale=0.1)
    for model, cats in ((GTR(), 4), (Poisson(), 4), (GTR(), 1)):
        rates = RateModel.gamma(1.0, cats) if cats > 1 else RateModel.uniform()
        aln = simulate_alignment(tree, model, 60, rates=rates, seed=5)
        eng = LikelihoodEngine(tree.copy(), aln, model, rates, num_slots=3,
                               backing="simulated")
        try:
            eng.full_traversals(1)
            width = cats * model.num_states
            step_price = eng._pricing()["step_price"]
            n = tree.num_tips
            for node in range(n, tree.num_nodes):
                blocks = eng.classes.current[node].blocks
                assert step_price(node) == sum(
                    kernels.STEP_PRICE_S
                    + kernels.ROW_PRICE_S * (width / 16) ** 2 * b.k
                    for b in blocks)
        finally:
            eng.close()


@pytest.fixture(scope="module", params=PRICED_MATRIX,
                ids=lambda p: "{}-batch{}-wb{}-simulated".format(*p))
def priced_round(request, dataset):
    """The refresh round's store stack (a TeeStore with one LRU shadow
    and a trace) over a simulated disk, running
    :func:`_spr_and_reroots`; returned in ``refresh_round``'s shape with
    the plans in place of the marks."""
    layout, batch, depth = request.param
    tree, aln = dataset
    tree = tree.copy()
    shape = (aln.compress().num_patterns, RATES.num_categories, MODEL.num_states)
    lay = make_layout(layout, tree.num_inner, shape,
                      block_sites=48 if layout == "block" else None)
    primary = AncestralVectorStore(
        layout=lay, fraction=0.25, writeback_depth=depth,
        backing=SimulatedDiskBackingStore.from_layout(lay))
    shadow = ShadowStore(lay.num_items, primary.num_slots, "lru")
    trace = AccessTrace(lay.num_items)
    eng = LikelihoodEngine(tree, aln, MODEL, RATES,
                           store=TeeStore(primary, [shadow, trace]),
                           batch=batch)
    plans: list = []
    lnls: list[str] = []
    _noting_plans(eng, plans)
    _recording_lnl(eng, lnls)
    try:
        _spr_and_reroots(eng)
        live = primary.stats.as_row()
    finally:
        eng.close()
    return (trace, plans, lnls, live, shadow.stats.as_row(),
            primary.num_slots)


def test_priced_round_is_bit_identical_and_recomputes(priced_round,
                                                      incore_reroots, dataset):
    """Through the tee and on both layouts: every lnL the in-core twin's,
    with ghosts and deeper-than-cherry refreshes among the plans."""
    _, plans, lnls, _, _, _ = priced_round
    assert lnls == incore_reroots
    ghosts, deep = _recomputed(plans, dataset[0].num_tips)
    assert ghosts > 0 and deep > 0


def test_priced_round_counters_agree_with_shadow_and_replay(priced_round):
    """The refresh round's agreement where plans recompute frontiers: a
    ghost makes no access, so the shadow and the replay see none."""
    test_refresh_round_counters_agree_with_shadow_and_replay(priced_round)
