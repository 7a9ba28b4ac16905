"""LOK101: whole-program lock-acquisition ordering.

LOCK001 proves each guarded access holds *its* lock; nothing so far
constrains the order in which different locks nest, and an AB/BA
inversion between the store condition and the write-behind condition
would deadlock the pipeline only under an unlucky schedule — the worst
kind of bug to find dynamically. This pass lifts the existing
``# guarded-by``/``# holds`` annotation grammar into a lock-acquisition
graph:

* **Lock discovery.** ``self.X = threading.RLock()/Lock()/Condition()``
  (or the sanitizer factories ``make_lock``/``make_condition``) inside
  ``__init__`` declares lock attribute ``X`` of that class.
  ``Condition(self._lock)`` aliases the two attributes into one lock,
  as does the global ``_lock``/``_cond`` convention of LOCK001.
* **Edges.** Walking every function with the held-lock set of
  :mod:`repro.analysis.locks` (receivers resolved through
  :mod:`~repro.analysis.typeinfo`), an edge ``A -> B`` is recorded when
  ``B`` is acquired lexically inside a ``with A`` block, or when a call
  made while holding ``A`` reaches — through interprocedural
  *acquired-locks summaries*, a fixpoint over the intra-package call
  graph — a function that acquires ``B``.
* **LOK101.** A cycle among lock *classes* (an SCC of the graph) is a
  potential deadlock; every acquisition site participating in the
  cycle is reported. Nodes are class-level (``WriteBehindQueue._cond``),
  so two *instances* of one class taken in inconsistent order are out
  of scope — self-edges are skipped.

Unresolvable receivers and dynamic dispatch (collector callbacks,
``fn()`` through a variable) are skipped — like every checker here,
missing an edge is preferred to inventing one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.findings import Finding
from repro.analysis.locks import LOCK_ALIASES
from repro.analysis.source import SourceFile
from repro.analysis.typeinfo import ClassIndex, FuncInfo, LocalTypes

#: Callables whose result is a lock (stdlib constructors + the race
#: sanitizer's pay-for-play factories).
_LOCK_CTORS = frozenset({"RLock", "Lock", "make_lock"})
_COND_CTORS = frozenset({"Condition", "make_condition"})

#: Acquisition sites reported per cycle edge before eliding the rest.
_MAX_SITES_PER_EDGE = 3


@dataclass
class _Acquire:
    node: str                 # lock node id, "Class.attr"
    line: int
    held: frozenset[str]


@dataclass
class _CallSite:
    callees: list[FuncInfo]
    line: int
    held: frozenset[str]


@dataclass
class _FuncFacts:
    func: FuncInfo
    sf: SourceFile
    acquires: list[_Acquire] = field(default_factory=list)
    calls: list[_CallSite] = field(default_factory=list)


def _callable_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _LockTable:
    """Per-class lock attributes, alias-grouped to a canonical name."""

    def __init__(self, index: ClassIndex) -> None:
        self.index = index
        self._canon: dict[str, dict[str, str]] = {}
        for cls_name, info in index.classes.items():
            init = info.methods.get("__init__")
            if init is None:
                continue
            attrs: set[str] = set()
            pairs: list[tuple[str, str]] = []
            for stmt in ast.walk(init.node):
                if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                    continue
                tgt, value = stmt.targets[0], stmt.value
                if not (isinstance(tgt, ast.Attribute)
                        and isinstance(tgt.value, ast.Name)
                        and tgt.value.id == "self"
                        and isinstance(value, ast.Call)):
                    continue
                name = _callable_name(value.func)
                if name in _LOCK_CTORS:
                    attrs.add(tgt.attr)
                elif name in _COND_CTORS:
                    attrs.add(tgt.attr)
                    if value.args:
                        arg = value.args[0]
                        if (isinstance(arg, ast.Attribute)
                                and isinstance(arg.value, ast.Name)
                                and arg.value.id == "self"):
                            pairs.append((tgt.attr, arg.attr))
                            attrs.add(arg.attr)
            if not attrs:
                continue
            if LOCK_ALIASES <= attrs:
                pairs.append(tuple(sorted(LOCK_ALIASES)))  # type: ignore[arg-type]
            self._canon[cls_name] = self._group(attrs, pairs)

    @staticmethod
    def _group(attrs: set[str],
               pairs: list[tuple[str, str]]) -> dict[str, str]:
        parent = {a: a for a in attrs}

        def find(a: str) -> str:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in pairs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        groups: dict[str, list[str]] = {}
        for a in attrs:
            groups.setdefault(find(a), []).append(a)
        return {a: min(members) for root, members in groups.items()
                for a in members}

    def node(self, owner_cls: str | None, attr: str) -> str | None:
        """Lock node id for ``<owner>.<attr>``, searching the class
        family so locks declared in a base resolve from a subclass."""
        if owner_cls is None:
            return None
        canon = self._canon.get(owner_cls, {}).get(attr)
        if canon is not None:
            return f"{owner_cls}.{canon}"
        for cls in sorted(self.index.class_family(owner_cls)):
            canon = self._canon.get(cls, {}).get(attr)
            if canon is not None:
                return f"{cls}.{canon}"
        return None


class _Walker:
    """Collects acquisitions and calls with their held-lock context."""

    def __init__(self, facts: _FuncFacts, index: ClassIndex,
                 table: _LockTable) -> None:
        self.facts = facts
        self.index = index
        self.table = table
        self.types = LocalTypes(index, facts.func)

    def run(self) -> None:
        func = self.facts.func
        held: frozenset[str] = frozenset()
        holds = self.facts.sf.holds(func.node.lineno)
        if holds is not None:
            node = self.table.node(func.cls, holds)
            if node is not None:
                held = frozenset({node})
        for stmt in func.node.body:
            self._visit(stmt, held)

    def _visit(self, node: ast.AST, held: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            # Deferred body: the enclosing lock may be long released (or
            # re-taken) when it runs, so its acquisitions start bare.
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in body:
                self._visit(child, frozenset())
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = held
            for item in node.items:
                ctx = item.context_expr
                self._visit(ctx, acquired)
                if isinstance(ctx, ast.Attribute):
                    lock = self.table.node(self.types.resolve(ctx.value),
                                           ctx.attr)
                    if lock is not None:
                        self.facts.acquires.append(
                            _Acquire(lock, ctx.lineno, acquired))
                        acquired = acquired | {lock}
            for child in node.body:
                self._visit(child, acquired)
            return
        if isinstance(node, ast.Call):
            callees = self._resolve_callees(node)
            if callees:
                self.facts.calls.append(_CallSite(callees, node.lineno, held))
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)

    def _resolve_callees(self, call: ast.Call) -> list[FuncInfo]:
        func = call.func
        if isinstance(func, ast.Name):
            return list(self.index.module_functions.get(func.id, ()))
        if isinstance(func, ast.Attribute):
            recv = self.types.resolve(func.value)
            if recv is None:
                return []
            out: list[FuncInfo] = []
            for cls in sorted(self.index.class_family(recv)):
                info = self.index.classes.get(cls)
                if info is not None and func.attr in info.methods:
                    out.append(info.methods[func.attr])
            return out
        return []


def _summaries(all_facts: list[_FuncFacts]) -> dict[int, frozenset[str]]:
    """Fixpoint of transitively acquired locks per function."""
    summary: dict[int, set[str]] = {
        id(f.func): {a.node for a in f.acquires} for f in all_facts
    }
    changed = True
    while changed:
        changed = False
        for f in all_facts:
            mine = summary[id(f.func)]
            before = len(mine)
            for call in f.calls:
                for callee in call.callees:
                    mine |= summary.get(id(callee), set())
            if len(mine) != before:
                changed = True
    return {k: frozenset(v) for k, v in summary.items()}


def _scc(nodes: set[str],
         edges: dict[tuple[str, str], list[tuple[str, int]]]) -> list[set[str]]:
    """Tarjan strongly connected components (iterative)."""
    adj: dict[str, list[str]] = {n: [] for n in nodes}
    for (src, dst) in edges:
        adj[src].append(dst)
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    out: list[set[str]] = []
    counter = 0
    for root in sorted(nodes):
        if root in index_of:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index_of[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if w not in index_of:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index_of[v]:
                comp: set[str] = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                out.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return out


def check_lockorder(files: list[SourceFile],
                    index: ClassIndex) -> list[Finding]:
    table = _LockTable(index)
    by_path = {str(sf.path): sf for sf in files}

    all_facts: list[_FuncFacts] = []
    funcs: list[FuncInfo] = [
        f for flist in index.module_functions.values() for f in flist
    ]
    for info in index.classes.values():
        funcs.extend(info.methods.values())
    for func in funcs:
        sf = by_path.get(func.module_path)
        if sf is None:
            continue
        facts = _FuncFacts(func, sf)
        _Walker(facts, index, table).run()
        all_facts.append(facts)

    findings: list[Finding] = []

    # -- LOK101: cycles in the acquisition graph --------------------------------
    summary = _summaries(all_facts)
    nodes: set[str] = set()
    edges: dict[tuple[str, str], list[tuple[str, int]]] = {}

    def add_edge(src: str, dst: str, path: str, line: int) -> None:
        if src == dst:
            return  # class-level self-edge: instance hierarchy, see module doc
        nodes.add(src)
        nodes.add(dst)
        sites = edges.setdefault((src, dst), [])
        if len(sites) < _MAX_SITES_PER_EDGE and (path, line) not in sites:
            sites.append((path, line))

    for facts in all_facts:
        path = str(facts.sf.path)
        for acq in facts.acquires:
            for h in acq.held:
                add_edge(h, acq.node, path, acq.line)
        for call in facts.calls:
            if not call.held:
                continue
            reached: set[str] = set()
            for callee in call.callees:
                reached |= summary.get(id(callee), frozenset())
            for dst in reached:
                if dst in call.held:
                    continue  # re-entrant through the call: not an ordering
                for h in call.held:
                    add_edge(h, dst, path, call.line)

    for comp in _scc(nodes, edges):
        if len(comp) < 2:
            continue
        cycle = " -> ".join(sorted(comp)) + f" -> {sorted(comp)[0]}"
        for (src, dst), sites in sorted(edges.items()):
            if src in comp and dst in comp:
                for path, line in sites:
                    findings.append(Finding(
                        path=path, line=line, rule="LOK101",
                        message=(f"lock-order cycle: '{dst}' is acquired "
                                 f"while '{src}' is held, closing the cycle "
                                 f"[{cycle}] — a concurrent thread taking "
                                 f"these locks in the opposite order "
                                 f"deadlocks; pick one global order"),
                    ))
    return findings
