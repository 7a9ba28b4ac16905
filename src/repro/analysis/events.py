"""EVT001: every reported name and event row resolves to a declaration.

The observability layer (``repro.obs``) declares its event taxonomy once —
a module-level ``EVENT_TYPES`` dict, one row per event type naming the
``IoStats`` counter the event mirrors (``None`` where no single counter
does) — and components report through the observer's verbs, with a
module-level ``ROUTES`` dict (reported name → ``Route(...)`` row) saying
which sinks record each name. **EVT001** checks the three kinds of
reference a typo could break, each of which would otherwise only fail on
the path that executes it:

* every ``ob.event("<name>", ...)`` / ``ob.timed("<name>", ...)`` call
  site (receiver named ``ob``/``obs``, the convention at every site) must
  use a ``ROUTES`` key;
* every ``event=`` target of a ``ROUTES`` row must be an ``EVENT_TYPES``
  key;
* every counter an ``EVENT_TYPES`` row names must be a counter field of
  ``IoStats``.

The rule is inert for code bases that define none of the names.
"""

from __future__ import annotations

import ast

from repro.analysis.counters import STATS_CLASS, parse_stats_schema
from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile

EVENT_TYPES_NAME = "EVENT_TYPES"
ROUTES_NAME = "ROUTES"

#: Receiver names that denote an observer at a reporting site.
_OBSERVER_NAMES = frozenset({"ob", "obs"})


def _assign_value(stmt: ast.stmt, name: str) -> ast.expr | None:
    """The value expression when ``stmt`` (ann-)assigns module global ``name``."""
    if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == name):
        return stmt.value
    if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id == name and stmt.value is not None):
        return stmt.value
    return None


def module_dict(files: list[SourceFile],
                name: str) -> tuple[str, ast.Dict] | None:
    """``(path, literal)`` of the first module-level ``name = {...}``."""
    for sf in files:
        for stmt in sf.tree.body:
            value = _assign_value(stmt, name)
            if isinstance(value, ast.Dict):
                return str(sf.path), value
    return None


def literal_rows(table: ast.Dict) -> list[tuple[str, ast.expr, int]]:
    """``(key, value node, line)`` of every string-keyed row of ``table``."""
    return [(key.value, val, key.lineno)
            for key, val in zip(table.keys, table.values)
            if isinstance(key, ast.Constant) and isinstance(key.value, str)]


def parse_routes(
        files: list[SourceFile],
) -> tuple[str, dict[str, dict[str, tuple[str, int]]]] | None:
    """``(path, {reported name: {Route keyword: (value, line)}})``."""
    found = module_dict(files, ROUTES_NAME)
    if found is None:
        return None
    path, table = found
    return path, {
        name: {kw.arg: (kw.value.value, kw.value.lineno)
               for kw in row.keywords
               if kw.arg is not None
               and isinstance(kw.value, ast.Constant)
               and isinstance(kw.value.value, str)}
        for name, row, _ in literal_rows(table) if isinstance(row, ast.Call)}


def report_sites(files: list[SourceFile],
                 verbs: frozenset[str]) -> list[tuple[str, int, str]]:
    """``(path, line, literal)`` for every ``<ob|obs>.<verb>("<literal>", ...)``.

    The first argument may also be a conditional between literals
    (``"a" if cond else "b"``): both arms are reported.
    """
    out: list[tuple[str, int, str]] = []
    for sf in files:
        for node in ast.walk(sf.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in verbs and node.args):
                continue
            recv = node.func.value
            name = (recv.id if isinstance(recv, ast.Name)
                    else recv.attr if isinstance(recv, ast.Attribute) else "")
            if name not in _OBSERVER_NAMES:
                continue
            first = node.args[0]
            arms = ([first.body, first.orelse]
                    if isinstance(first, ast.IfExp) else [first])
            for arm in arms:
                if isinstance(arm, ast.Constant) and isinstance(arm.value, str):
                    out.append((str(sf.path), node.lineno, arm.value))
    return out


def check_events(files: list[SourceFile]) -> list[Finding]:
    findings: list[Finding] = []
    routes = parse_routes(files)
    types = module_dict(files, EVENT_TYPES_NAME)
    types_path, declared = ("", []) if types is None else (
        types[0], literal_rows(types[1]))

    if routes is not None:
        routes_path, rows = routes
        for path, line, literal in report_sites(
                files, frozenset({"event", "timed"})):
            if literal not in rows:
                findings.append(Finding(
                    path, line, "EVT001",
                    f"report of undeclared name '{literal}' (not a "
                    f"{ROUTES_NAME} key at {routes_path})",
                ))
        known = {etype for etype, _, _ in declared}
        for name, row in rows.items():
            etype, line = row.get("event", ("", 0))
            if types is not None and etype and etype not in known:
                findings.append(Finding(
                    routes_path, line, "EVT001",
                    f"{ROUTES_NAME}['{name}'] emits undeclared event "
                    f"type '{etype}' (not in {EVENT_TYPES_NAME} at "
                    f"{types_path})",
                ))

    stats = parse_stats_schema(files)
    if stats is not None:
        for etype, counter, line in declared:
            if (isinstance(counter, ast.Constant)
                    and isinstance(counter.value, str)
                    and counter.value not in stats.counters):
                findings.append(Finding(
                    types_path, line, "EVT001",
                    f"event type '{etype}' mirrors '{counter.value}', which "
                    f"is not a counter field of {STATS_CLASS} in {stats.path}",
                ))
    return findings
