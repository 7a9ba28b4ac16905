"""CNT001/002/003: the IoStats counter registry and who may touch what.

The stats module (any analyzed file defining ``class IoStats`` with a
``_counters`` method) is the single source of truth:

* the dataclass's public ``int`` fields,
* the ``_counters()`` registry dict,
* the ``reset()`` assignments, and
* the thread-ownership taxonomy (module-level ``*_COUNTERS`` frozensets)

must all agree (**CNT002**). Every counter mutation anywhere else must
target a registered counter (**CNT001**), and functions running on the
writer/prefetch threads — annotated ``# thread: writer|prefetch`` on their
``def`` line, plus everything reachable from them through the
intra-package call graph — must never mutate a demand-side counter
(**CNT003**): demand counters describe the access trace *as if the async
pipeline were transparent* (see ``repro.core.stats``), so only the compute
thread may move them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile, attribute_chain
from repro.analysis.typeinfo import ClassIndex, FuncInfo, LocalTypes

STATS_CLASS = "IoStats"
DEMAND_TAXON = "DEMAND_COUNTERS"


@dataclass
class StatsSchema:
    """Everything the checkers need to know about the stats module."""

    path: str
    fields: dict[str, int]            # counter name -> declaration line
    registry: dict[str, int]          # _counters() key -> line
    reset_targets: set[str]
    taxonomy: dict[str, set[str]]     # frozenset name -> counter names
    registry_line: int
    #: ``bool``-annotated public fields (e.g. ``writeback_enabled``): not
    #: counters, so they are exempt from the registry/reset/taxonomy
    #: coherence rules and their mutations are not CNT001.
    flags: set[str] = field(default_factory=set)

    @property
    def demand(self) -> set[str]:
        return self.taxonomy.get(DEMAND_TAXON, set())


def parse_stats_schema(files: list[SourceFile]) -> StatsSchema | None:
    for sf in files:
        for node in sf.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == STATS_CLASS:
                methods = {m.name: m for m in node.body
                           if isinstance(m, ast.FunctionDef)}
                if "_counters" not in methods:
                    continue
                return _build_schema(sf, node, methods)
    return None


def _build_schema(sf: SourceFile, cls: ast.ClassDef,
                  methods: dict[str, ast.FunctionDef]) -> StatsSchema:
    fields: dict[str, int] = {}
    flags: set[str] = set()
    for item in cls.body:
        if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                and not item.target.id.startswith("_")
                and isinstance(item.annotation, ast.Name)):
            if item.annotation.id == "int":
                fields[item.target.id] = item.lineno
            elif item.annotation.id == "bool":
                flags.add(item.target.id)

    registry: dict[str, int] = {}
    registry_line = methods["_counters"].lineno
    for stmt in ast.walk(methods["_counters"]):
        if isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Dict):
            registry_line = stmt.lineno
            for key in stmt.value.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    registry[key.value] = key.lineno

    reset_targets: set[str] = set()
    if "reset" in methods:
        for stmt in ast.walk(methods["reset"]):
            if isinstance(stmt, ast.Assign):
                for tgt in stmt.targets:
                    if (isinstance(tgt, ast.Attribute)
                            and isinstance(tgt.value, ast.Name)
                            and tgt.value.id == "self"):
                        reset_targets.add(tgt.attr)

    taxonomy: dict[str, set[str]] = {}
    for stmt in sf.tree.body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id.endswith("_COUNTERS")):
            continue
        if isinstance(stmt.value, ast.Dict):
            # A dict named *_COUNTERS (e.g. the EVENT_COUNTERS event->counter
            # mapping, checked by EVT002) is not a thread-ownership bucket.
            continue
        names: set[str] = set()
        for node in ast.walk(stmt.value):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        taxonomy[stmt.targets[0].id] = names

    return StatsSchema(path=str(sf.path), fields=fields, registry=registry,
                       reset_targets=reset_targets, taxonomy=taxonomy,
                       registry_line=registry_line, flags=flags)


def _schema_coherence(schema: StatsSchema) -> list[Finding]:
    findings: list[Finding] = []

    def emit(line: int, message: str) -> None:
        findings.append(Finding(schema.path, line, "CNT002", message))

    for name, line in schema.fields.items():
        if name not in schema.registry:
            emit(line, f"counter field '{name}' missing from _counters() registry")
        if name not in schema.reset_targets:
            emit(line, f"counter field '{name}' is not zeroed by reset()")
    for name, line in schema.registry.items():
        if name not in schema.fields:
            emit(line, f"_counters() key '{name}' is not a declared counter field")
    if schema.taxonomy:
        union: set[str] = set()
        for names in schema.taxonomy.values():
            union |= names
        for name in sorted(set(schema.fields) - union):
            emit(schema.fields[name],
                 f"counter field '{name}' missing from the *_COUNTERS taxonomy")
        for name in sorted(union - set(schema.fields)):
            emit(schema.registry_line,
                 f"taxonomy entry '{name}' is not a declared counter field")
    return findings


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
    findings = _schema_coherence(schema)

    funcs = _all_functions(index)
    mutations = _counter_mutations(files, index, funcs)
    for mut in mutations:
        if mut.counter in schema.flags:
            continue  # bool flags (e.g. writeback_enabled) are not counters
        if mut.counter not in schema.registry and mut.counter in schema.fields:
            continue  # already reported by CNT002 on the schema side
        if mut.counter not in schema.registry:
            findings.append(Finding(
                mut.path, mut.line, "CNT001",
                f"mutation of unregistered counter 'stats.{mut.counter}' "
                f"(not a _counters() key in {schema.path})",
            ))

    if schema.demand:
        reached = _reachable_from_roots(files, index, funcs)
        for mut in mutations:
            info = reached.get(id(mut.func))
            if info is None or mut.counter not in schema.demand:
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
