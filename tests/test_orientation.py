"""CLV invalidation is a walk up the orientation pointers — checked here.

``OrientationState`` invalidates by following ``orient`` from a mutation
toward the common edge, which is exact only under the two structural
invariants its docstring states. This module holds

* the whole-tree breadth-first invalidation the walk replaced, frozen as
  the reference (it needs no invariant: it asks, node by node, whether the
  mutation lies in the subtree the node's CLV covers);
* a hypothesis state machine over ``Tree`` + ``OrientationState`` alone —
  no alignment, no kernels — that evaluates (whole plans and interrupted
  ones), changes branch lengths, applies and undoes SPR and NNI moves in
  any order, and after every mutation requires ``orient`` to equal the
  reference's and both invariants to hold;
* the cost shape: how many ``orient`` entries a mutation writes and how
  many ``neighbors()`` calls it makes, equal at 64 and at 2,048 taxa.

``tests/test_invalidation.py`` is the likelihood-level anchor (lnL
bit-identical to a fresh engine).
"""

from collections import deque

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro import yule_tree
from repro.phylo.likelihood.traversal import OrientationState, plan_edge_traversal
from repro.phylo.tree import Tree
from tests.oracle import pectinate_tree

# -- the frozen reference ---------------------------------------------------------


class BfsOrientation:
    """The invalidation of commit 8237556: one breadth-first search over
    the whole tree per source, then a scan of every inner node."""

    def __init__(self, tree: Tree) -> None:
        self.tree = tree
        self.orient = np.full(tree.num_nodes, -1, dtype=np.int64)

    def set(self, node: int, parent: int) -> None:
        self.orient[node] = parent

    def _next_hops(self, source: int) -> np.ndarray:
        tree = self.tree
        hop = np.full(tree.num_nodes, -1, dtype=np.int64)
        hop[source] = source
        q = deque([source])
        while q:
            x = q.popleft()
            for y in tree.neighbors(x):
                if hop[y] < 0:
                    hop[y] = x
                    q.append(y)
        return hop

    def _invalidate_below_sources(self, sources: list[int]) -> None:
        tree = self.tree
        for src in sources:
            hop = self._next_hops(src)
            for x in tree.inner_nodes():
                o = self.orient[x]
                if o >= 0 and x != src and hop[x] != o:
                    self.orient[x] = -1

    def after_branch_change(self, u: int, v: int) -> None:
        if not self.tree.is_tip(u) and self.orient[u] >= 0 and self.orient[u] != v:
            self.orient[u] = -1
        if not self.tree.is_tip(v) and self.orient[v] >= 0 and self.orient[v] != u:
            self.orient[v] = -1
        self._invalidate_below_sources([u])

    def after_spr(self, p: int, a: int, b: int, tu: int, tv: int) -> None:
        tree = self.tree
        self.orient[p] = -1
        for node, old_nbr, new_nbr in ((a, p, b), (b, p, a), (tu, tv, p), (tv, tu, p)):
            if tree.is_tip(node):
                continue
            if self.orient[node] == old_nbr:
                self.orient[node] = new_nbr
            elif self.orient[node] >= 0:
                self.orient[node] = -1
        self._invalidate_below_sources([a, p])

    def after_nni(self, u: int, v: int, su: int, sv: int) -> None:
        tree = self.tree
        self.orient[u] = -1
        self.orient[v] = -1
        for node, old_nbr, new_nbr in ((su, u, v), (sv, v, u)):
            if tree.is_tip(node):
                continue
            if self.orient[node] == old_nbr:
                self.orient[node] = new_nbr
            elif self.orient[node] >= 0:
                self.orient[node] = -1
        self._invalidate_below_sources([u])


# -- the invariants ---------------------------------------------------------------


def common_edge(tree: Tree, orient) -> tuple[int, int] | None:
    """The edge at the top of one valid node's pointer chain, or ``None``
    when nothing is valid.

    If any edge satisfies (I) and (II) this one does: a chain that ends at
    a tip or at a node looking back forces the edge, and one that ends
    below an invalid node ``y`` may take ``(x, y)`` — every valid node on
    ``y``'s side that pointed elsewhere would sit above ``y``, which (II)
    forbids.
    """
    valid = [x for x in tree.inner_nodes() if orient[x] >= 0]
    if not valid:
        return None
    x = valid[0]
    for _ in range(tree.num_nodes):
        y = int(orient[x])
        if tree.is_tip(y) or orient[y] < 0 or orient[y] == x:
            return x, y
        x = y
    raise AssertionError("orientation pointers form a cycle")


def check_invariants(tree: Tree, orient) -> None:
    edge = common_edge(tree, orient)
    if edge is None:
        return
    e1, e2 = edge
    parent = {e1: e2, e2: e1}
    stack = [e1, e2]
    while stack:
        x = stack.pop()
        for y in tree.neighbors(x):
            if y not in parent:
                parent[y] = x
                stack.append(y)
    for x in tree.inner_nodes():
        if orient[x] >= 0:
            assert orient[x] == parent[x], (
                f"(I): node {x} looks at {orient[x]}, not toward {edge}")
        elif x not in edge and not tree.is_tip(parent[x]):
            assert orient[parent[x]] < 0, (
                f"(II): valid node {parent[x]} above invalid node {x} "
                f"on the way to {edge}")


# -- the state machine ------------------------------------------------------------

#: Every choice inside a rule comes from one seeded ``random.Random``:
#: hypothesis' own integers favour small values, which here means the
#: same few edges and prune points over and over.
RANDOM = st.randoms(use_true_random=False)


class OrientationMachine(RuleBasedStateMachine):
    """Every rule applies the same tree edit once and reports it to both
    bookkeepers; ``mutations`` counts the reports compared."""

    mutations = 0

    @initialize(taxa=st.integers(4, 64), pectinate=st.booleans(),
                seed=st.integers(0, 10**6))
    def build(self, taxa, pectinate, seed):
        self.tree = pectinate_tree(taxa, 0.1) if pectinate else yule_tree(taxa, seed=seed)
        self.state = OrientationState(self.tree)
        self.ref = BfsOrientation(self.tree)

    def _mutated(self, name, *args):
        getattr(self.state, name)(*args)
        getattr(self.ref, name)(*args)
        type(self).mutations += 1
        assert np.array_equal(self.state.orient, self.ref.orient), (name, args)
        check_invariants(self.tree, self.state.orient)

    def _run_plan(self, rnd, full, keep):
        u, v = rnd.choice(list(self.tree.edges()))
        steps = plan_edge_traversal(self.tree, self.state, u, v, full=full).steps
        for step in steps[:int(keep * len(steps) + 0.5)]:
            self.state.set(step.node, step.toward)
            self.ref.set(step.node, step.toward)
        check_invariants(self.tree, self.state.orient)

    @rule(rnd=RANDOM, full=st.booleans())
    def evaluate(self, rnd, full):
        self._run_plan(rnd, full, 1.0)

    @rule(rnd=RANDOM, full=st.booleans())
    def evaluate_interrupted(self, rnd, full):
        """A failed ``execute_plan``: only a prefix of the plan lands."""
        self._run_plan(rnd, full, rnd.random())

    @rule(rnd=RANDOM)
    def branch_change(self, rnd):
        self._mutated("after_branch_change", *rnd.choice(list(self.tree.edges())))

    @rule(rnd=RANDOM, radius=st.integers(1, 6), undo=st.booleans())
    def spr(self, rnd, radius, undo):
        tree = self.tree
        p = rnd.choice(tree.inner_nodes())
        s = rnd.choice(tree.neighbors(p))
        candidates = tree.spr_candidates(p, s, radius=radius)
        if not candidates:
            return
        move = tree.spr_move(p, s, rnd.choice(candidates))
        self._mutated("after_spr", p, move.old_a, move.old_b,
                      move.target_u, move.target_v)
        if undo:
            tree.undo_spr(move)
            self._mutated("after_spr", p, move.target_u, move.target_v,
                          move.old_a, move.old_b)

    @precondition(lambda self: self.tree.num_tips > 3)
    @rule(rnd=RANDOM, variant=st.integers(0, 1), undo=st.booleans())
    def nni(self, rnd, variant, undo):
        tree = self.tree
        move = tree.nni(rnd.choice(tree.internal_edges()), variant)
        self._mutated("after_nni", move.u, move.v, move.swapped_u, move.swapped_v)
        if undo:
            tree.undo_nni(move)
            self._mutated("after_nni", move.u, move.v, move.swapped_v, move.swapped_u)


def test_walk_equals_bfs_and_keeps_both_invariants():
    OrientationMachine.mutations = 0
    run_state_machine_as_test(
        OrientationMachine,
        settings=settings(max_examples=120, stateful_step_count=40,
                          deadline=None, derandomize=True))
    assert OrientationMachine.mutations >= 2000


# -- the cost shape ---------------------------------------------------------------


class CountingTree(Tree):
    neighbor_calls = 0

    def neighbors(self, node):
        self.neighbor_calls += 1
        return super().neighbors(node)


class CountingView:
    """``orient`` with its element writes counted."""

    def __init__(self, orient) -> None:
        self.inner = orient
        self.writes = 0

    def __getitem__(self, index):
        return self.inner[index]

    def __setitem__(self, index, value):
        self.writes += 1
        self.inner[index] = value


def rooted_caterpillar(taxa: int):
    """A caterpillar with every CLV valid toward the edge at tip 0; the
    spine is inner nodes ``taxa, taxa + 1, …`` in order, ``spine[k]`` being
    ``k`` hops below the root edge."""
    plain = pectinate_tree(taxa, 0.1)
    tree = CountingTree(taxa)
    for u, v in plain.edges():
        tree._connect(u, v, 0.1)
    state = OrientationState(tree)
    root = (taxa, 0)
    for step in plan_edge_traversal(tree, state, *root).steps:
        state.set(step.node, step.toward)
    assert state.num_valid() == tree.num_inner
    return tree, state, root, list(tree.inner_nodes())


def cost(tree, state, mutate) -> tuple[int, int]:
    """``(orient writes, neighbors() calls)`` of one mutation."""
    state.orient = view = CountingView(state.orient)
    tree.neighbor_calls = 0
    mutate()
    state.orient = view.inner
    return view.writes, tree.neighbor_calls


def costs_at(taxa: int) -> dict:
    out = {}
    tree, state, root, spine = rooted_caterpillar(taxa)
    out["root edge"] = cost(tree, state, lambda: state.after_branch_change(*root))
    for k in (0, 1, 5, 20):
        tree, state, root, spine = rooted_caterpillar(taxa)
        out[f"branch {k} below"] = cost(
            tree, state, lambda: state.after_branch_change(spine[k], spine[k + 1]))
        tree, state, root, spine = rooted_caterpillar(taxa)
        out[f"tip branch {k} below"] = cost(
            tree, state, lambda: state.after_branch_change(k + 2, spine[k + 1]))
        tree, state, root, spine = rooted_caterpillar(taxa)
        move = tree.nni((spine[k], spine[k + 1]), 1)
        out[f"nni {k} below"] = cost(
            tree, state, lambda: state.after_nni(move.u, move.v, move.swapped_u,
                                                 move.swapped_v))
        tree, state, root, spine = rooted_caterpillar(taxa)
        # Prune tip k+2 (hanging off spine[k+1]) and regraft it three
        # spine edges further down.
        move = tree.spr_move(spine[k + 1], k + 2, (spine[k + 4], spine[k + 5]))
        out[f"spr {k} below"] = cost(
            tree, state, lambda: state.after_spr(move.prune_node, move.old_a,
                                                 move.old_b, move.target_u,
                                                 move.target_v))
    return out


def test_a_mutation_costs_its_depth_not_the_tree():
    small, large = costs_at(64), costs_at(2048)
    assert small == large
    assert small["root edge"] == (0, 0)
    for k in (0, 1, 5, 20):
        assert small[f"branch {k} below"] == (k + 1, 0)
        writes, calls = small[f"tip branch {k} below"]
        assert writes <= k + 2 and calls == 0
        writes, calls = small[f"nni {k} below"]
        assert writes <= k + 4 and calls == 0
        writes, calls = small[f"spr {k} below"]
        assert writes <= k + 8 and calls <= 1
