"""CNT001/CNT003: the IoStats counter declarations and who may touch what.

The stats module (any analyzed file defining ``class IoStats``) declares
each counter once, as a public ``int`` field whose declaration call names
its owner bucket first: ``hits: int = _counter("demand", "...")``.
Everything else about a counter derives from that line at import, so
there is nothing to keep coherent; what the checker polices are the
*call sites*. Every counter mutation anywhere else must target a declared
counter (**CNT001**), and functions running on the writer/prefetch
threads — annotated ``# thread: writer|prefetch`` on their ``def`` line,
plus everything reachable from them through the intra-package call
graph — must never mutate a demand-owned counter (**CNT003**): demand
counters describe the access trace *as if the async pipeline were
transparent* (see ``repro.core.stats``), so only the compute thread may
move them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile, attribute_chain
from repro.analysis.typeinfo import ClassIndex, FuncInfo, LocalTypes

STATS_CLASS = "IoStats"
DEMAND_OWNER = "demand"


@dataclass
class StatsSchema:
    """What the checkers need to know about the stats module."""

    path: str
    counters: dict[str, str | None]   # counter field -> declared owner bucket
    #: ``bool``-annotated public fields (e.g. ``writeback_enabled``): not
    #: counters, so their mutations are not CNT001.
    flags: set[str]

    @property
    def demand(self) -> set[str]:
        return {name for name, owner in self.counters.items()
                if owner == DEMAND_OWNER}


def parse_stats_schema(files: list[SourceFile]) -> StatsSchema | None:
    for sf in files:
        for node in sf.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == STATS_CLASS:
                return _build_schema(sf, node)
    return None


def _build_schema(sf: SourceFile, cls: ast.ClassDef) -> StatsSchema:
    counters: dict[str, str | None] = {}
    flags: set[str] = set()
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and not item.target.id.startswith("_")
                and isinstance(item.annotation, ast.Name)):
            continue
        if item.annotation.id == "bool":
            flags.add(item.target.id)
        elif item.annotation.id == "int":
            call = item.value
            first = (call.args[0] if isinstance(call, ast.Call) and call.args
                     else None)
            counters[item.target.id] = (
                first.value if isinstance(first, ast.Constant)
                and isinstance(first.value, str) else None)
    return StatsSchema(path=str(sf.path), counters=counters, flags=flags)


# -- mutation collection -------------------------------------------------------


@dataclass
class _Mutation:
    func: FuncInfo
    counter: str
    line: int
    path: str


def _counter_mutations(files: list[SourceFile], index: ClassIndex,
                       funcs: list[FuncInfo]) -> list[_Mutation]:
    out: list[_Mutation] = []
    by_path = {str(sf.path): sf for sf in files}
    for func in funcs:
        sf = by_path.get(func.module_path)
        if sf is None:
            continue
        types = LocalTypes(index, func)
        for stmt in ast.walk(func.node):
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.AugAssign):
                targets = [stmt.target]
            elif isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            else:
                continue
            for tgt in targets:
                if not isinstance(tgt, ast.Attribute):
                    continue
                recv = tgt.value
                owner = types.resolve(recv)
                if owner == STATS_CLASS:
                    stats_recv = True
                elif owner is None:
                    chain = attribute_chain(recv)
                    stats_recv = bool(chain) and chain[-1] == "stats"
                else:
                    stats_recv = False
                if stats_recv:
                    out.append(_Mutation(func, tgt.attr, tgt.lineno,
                                         func.module_path))
    return out


# -- call graph & thread-path reachability ------------------------------------


def _all_functions(index: ClassIndex) -> list[FuncInfo]:
    funcs: list[FuncInfo] = []
    for lst in index.module_functions.values():
        funcs.extend(lst)
    for info in index.classes.values():
        funcs.extend(info.methods.values())
    return funcs


def _call_edges(index: ClassIndex, func: FuncInfo) -> list[FuncInfo]:
    """Callees of ``func`` resolvable within the analyzed file set."""
    types = LocalTypes(index, func)
    edges: list[FuncInfo] = []
    for node in ast.walk(func.node):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Name):
            edges.extend(index.module_functions.get(callee.id, []))
        elif isinstance(callee, ast.Attribute):
            owner = types.resolve(callee.value)
            if owner is None:
                continue
            for cls_name in index.class_family(owner):
                info = index.classes.get(cls_name)
                if info and callee.attr in info.methods:
                    edges.append(info.methods[callee.attr])
    return edges


def _reachable_from_roots(files: list[SourceFile], index: ClassIndex,
                          funcs: list[FuncInfo]) -> dict[int, tuple[str, str]]:
    """``id(FuncInfo) -> (thread role, root qualname)`` for thread-path funcs."""
    by_path = {str(sf.path): sf for sf in files}
    roots: list[tuple[FuncInfo, str]] = []
    for func in funcs:
        sf = by_path.get(func.module_path)
        if sf is None:
            continue
        role = sf.thread_role(func.node.lineno)
        if role is not None:
            roots.append((func, role))
    reached: dict[int, tuple[str, str]] = {}
    stack: list[tuple[FuncInfo, str, str]] = [
        (f, role, f.qualname) for f, role in roots
    ]
    while stack:
        func, role, root = stack.pop()
        if id(func) in reached:
            continue
        reached[id(func)] = (role, root)
        for callee in _call_edges(index, func):
            if id(callee) not in reached:
                stack.append((callee, role, root))
    return reached


def check_counters(files: list[SourceFile], index: ClassIndex) -> list[Finding]:
    schema = parse_stats_schema(files)
    if schema is None:
        return []
    findings: list[Finding] = []

    funcs = _all_functions(index)
    mutations = _counter_mutations(files, index, funcs)
    for mut in mutations:
        if mut.counter not in schema.counters and mut.counter not in schema.flags:
            findings.append(Finding(
                mut.path, mut.line, "CNT001",
                f"mutation of undeclared counter 'stats.{mut.counter}' "
                f"(not a counter field of {STATS_CLASS} in {schema.path})",
            ))

    demand = schema.demand
    if demand:
        reached = _reachable_from_roots(files, index, funcs)
        for mut in mutations:
            info = reached.get(id(mut.func))
            if info is None or mut.counter not in demand:
                continue
            role, root = info
            findings.append(Finding(
                mut.path, mut.line, "CNT003",
                f"demand counter 'stats.{mut.counter}' mutated in "
                f"{mut.func.qualname}, which runs on the {role} thread "
                f"(reachable from {root}); demand counters belong to the "
                f"compute thread only",
            ))
    return findings
