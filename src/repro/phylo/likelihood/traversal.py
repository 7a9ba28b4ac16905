"""Traversal planning: which ancestral vectors must be recomputed, in what order.

RAxML does not re-traverse the whole tree for every candidate topology —
"only a small fraction of ancestral probability vectors needs to be accessed
and updated for each tree that is analyzed" (§3.1). That behaviour comes
from *CLV orientation bookkeeping*: each inner node's stored vector is valid
for one direction (toward the virtual root used when it was computed). This
module plans the minimal post-order recomputation list for evaluating the
likelihood at a given edge, given the current orientation state.

The bookkeeping costs what the vectors do: a mutation is reported by
walking the orientation pointers upward from where it happened — the
entries it invalidates and no others — which is exact because every
reachable state keeps two invariants, (I) all valid nodes point toward one
common edge and (II) nothing valid sits above something invalid
(:class:`OrientationState` states them, says who establishes them, and why
no one else may write ``orient``).

The plan is computed **before** any likelihood arithmetic, which is what
makes the paper's read-skipping rule (§3.4) possible: every vector a plan
step writes is write-only on its first access, so its stale disk contents
never need to be read.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LikelihoodError
from repro.phylo.tree import Tree


@dataclass(frozen=True)
class TraversalStep:
    """Recompute the CLV of ``node`` from children ``left`` and ``right``.

    ``left``/``right`` point away from the virtual root; the CLV written at
    ``node`` becomes oriented toward ``toward`` (its parent on the path to
    the root edge).
    """

    node: int
    left: int
    right: int
    toward: int


@dataclass(frozen=True)
class TraversalPlan:
    """An ordered recomputation schedule for evaluating edge ``(u, v)``.

    ``steps`` are in valid post-order (children before parents). The
    *write-only* property holds for every step by construction: a planned
    node's previous contents are never read.
    """

    root_u: int
    root_v: int
    steps: tuple[TraversalStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def touched_nodes(self) -> list[int]:
        return [s.node for s in self.steps]


class OrientationState:
    """Validity/orientation bookkeeping for all inner-node CLVs.

    ``orient[x]`` is the neighbor of inner node ``x`` toward which the
    stored CLV of ``x`` "looks" (its parent at computation time), or ``-1``
    when the CLV is invalid. Invariant maintained jointly with the engine:
    ``orient[x] = p ≠ -1`` implies the stored CLV of ``x`` equals the
    conditional likelihood of the subtree at ``x`` away from ``p`` under
    the *current* topology and branch lengths. It is a plain list: planner
    and walk only ever index single entries, which a list serves about
    three times faster than an ``ndarray``.

    ``orient`` is a parent-pointer forest, and every state the writers
    below can reach satisfies two structural invariants:

    (I)  all valid inner nodes point toward **one common edge** — the
         last root edge, or the edge at which an interrupted plan
         stopped (its two ends, when valid, look at each other);
    (II) an invalid inner node has **no valid node above it** on the way
         to that edge (equivalently: everything below a valid node is
         valid).

    Under (I) the nodes whose CLV covers a given place in the tree are
    exactly the ``orient`` chain from that place toward the common edge;
    under (II) the chain may be cut at the first node that is already
    invalid. That makes invalidation a walk (:meth:`_invalidate_up`)
    whose cost is the number of entries it changes, not the size of the
    tree.

    The only writers of ``orient`` are :meth:`set` (called by the
    engine's plan execution, children before parents, every step toward
    the plan's edge), :meth:`invalidate_all` and the three ``after_*``
    methods; each takes a state satisfying (I) and (II) to one that
    does. Nothing else may write it — a state outside (I)/(II) makes
    the walk stop short and leaves stale CLVs marked valid
    (``tests/test_orientation.py`` checks both against a whole-tree
    breadth-first reference after every mutation).
    """

    def __init__(self, tree: Tree) -> None:
        self.tree = tree
        self._num_tips = tree.num_tips
        self.orient = [-1] * tree.num_nodes

    def invalidate_all(self) -> None:
        self.orient[:] = [-1] * len(self.orient)

    def is_valid_toward(self, node: int, parent: int) -> bool:
        return self.orient[node] == parent

    def set(self, node: int, parent: int) -> None:
        self.orient[node] = parent

    def num_valid(self) -> int:
        return sum(o >= 0 for o in self.orient[self._num_tips:])

    # -- invalidation after mutations -------------------------------------------

    def _invalidate_up(self, x: int, came_from: int) -> None:
        """Invalidate ``x`` and its ancestors for a change on ``came_from``'s side.

        Follows ``orient`` from ``x`` toward the common edge, clearing
        each node, and stops at a tip, at a node that is already invalid
        (II: so is everything above it) or at one that looks *back* at
        the node the walk came from — it sees the change across its own
        edge, not below it, which is also how the walk ends at the
        common edge. ``came_from = -1`` starts the walk at a node whose
        own children changed.
        """
        orient, tips = self.orient, self._num_tips
        while x >= tips:
            nxt = orient[x]
            if nxt < 0 or nxt == came_from:
                return
            orient[x] = -1
            came_from, x = x, nxt

    def _remap_or_invalidate(self, node: int, old_nbr: int, new_nbr: int) -> None:
        """A node beside a rewired junction: one that looked *across* it
        keeps its CLV (its own subtree is untouched) and now looks at the
        replacement neighbor; any other orientation has the junction
        below it."""
        if node < self._num_tips:
            return
        if self.orient[node] == old_nbr:
            self.orient[node] = new_nbr
        else:
            self._invalidate_up(node, -1)

    def after_branch_change(self, u: int, v: int) -> None:
        """Invalidate for a length change of edge ``(u, v)``.

        The endpoints' own CLVs do not include their shared edge, so they
        stay valid when oriented across it; every node with the edge below
        it is invalidated.
        """
        self._invalidate_up(u, v)
        self._invalidate_up(v, u)

    def after_spr(self, p: int, a: int, b: int, tu: int, tv: int) -> None:
        """Invalidate after regrafting the subtree at ``p`` from edge (a,b)'s
        former junction into the former edge ``(tu, tv)``.

        Boundary nodes whose orientation pointed *through* the modified
        junction keep a valid CLV and are remapped to the replacement
        neighbor; everything with a modified junction below it is
        invalidated. Call with the roles from the applied move; for an undo
        call again with old/new locations swapped.
        """
        self.orient[p] = -1
        (s,) = (x for x in self.tree.neighbors(p) if x != tu and x != tv)
        self._invalidate_up(s, p)
        # In this order: a walk from the graft site that reaches the
        # closed edge a–b must find its ends already remapped.
        self._remap_or_invalidate(a, p, b)
        self._remap_or_invalidate(b, p, a)
        self._remap_or_invalidate(tu, tv, p)
        self._remap_or_invalidate(tv, tu, p)

    def after_nni(self, u: int, v: int, su: int, sv: int) -> None:
        """Invalidate after an NNI that swapped ``su`` (was at ``u``) with
        ``sv`` (was at ``v``)."""
        self._invalidate_up(u, v)
        self._invalidate_up(v, u)
        self.orient[u] = -1
        self.orient[v] = -1
        self._remap_or_invalidate(su, u, v)
        self._remap_or_invalidate(sv, v, u)


def plan_edge_traversal(tree: Tree, state: OrientationState, u: int, v: int,
                        full: bool = False) -> TraversalPlan:
    """Plan the minimal recomputation to evaluate the likelihood at ``(u, v)``.

    Walks each side of the edge away from the other endpoint; descends only
    into inner nodes whose stored CLV is not already valid toward the root
    edge. With ``full=True`` every inner node is scheduled regardless of
    validity — the paper's ``-f z`` full-traversal mode (§4.3).
    """
    if not tree.has_edge(u, v):
        raise LikelihoodError(f"({u},{v}) is not an edge of the tree")
    steps: list[TraversalStep] = []
    for start, parent in ((u, v), (v, u)):
        _plan_side(tree, state, start, parent, full, steps)
    return TraversalPlan(u, v, tuple(steps))


def _plan_side(tree: Tree, state: OrientationState, node: int, parent: int,
               full: bool, steps: list[TraversalStep]) -> None:
    if tree.is_tip(node):
        return
    # Iterative post-order, pruning at already-valid nodes (unless full).
    stack: list[tuple[int, int, bool]] = [(node, parent, False)]
    while stack:
        x, par, expanded = stack.pop()
        if tree.is_tip(x):
            continue
        if not full and state.is_valid_toward(x, par):
            continue
        kids = [y for y in tree.neighbors(x) if y != par]
        if len(kids) != 2:
            raise LikelihoodError(f"inner node {x} has degree {len(kids) + 1}")
        if expanded:
            steps.append(TraversalStep(x, kids[0], kids[1], par))
        else:
            stack.append((x, par, True))
            stack.extend((k, x, False) for k in kids)
