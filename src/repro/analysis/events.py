"""EVT001/EVT002: the event taxonomy and its sync with the counter registry.

The observability layer (``repro.obs``) defines a closed event taxonomy —
a module-level ``EVENT_TYPES`` frozenset — and the stats module maps every
event type to the counter it mirrors via a module-level ``EVENT_COUNTERS``
dict (``None`` for events with no single-counter equivalent). Exactly like
the counter registry itself, the three artifacts must agree:

* **EVT001** — components report through the observer's verbs, and a
  module-level ``ROUTES`` dict (reported name → ``Route(...)`` row) says
  which sinks record each name. Every ``ob.event("<name>", ...)`` /
  ``ob.timed("<name>", ...)`` call site (receiver named ``ob``/``obs``,
  the convention at every site) must use a ``ROUTES`` key, and every
  ``event=`` target of a row must be a declared event type. A typo'd
  literal would otherwise only fail on the path that executes it.
* **EVT002** — ``EVENT_TYPES`` and the ``EVENT_COUNTERS`` keys must be the
  same set, and every non-``None`` mapped counter must exist in the
  ``IoStats`` ``_counters()`` registry.

Both rules are inert for code bases that define none of the names.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.counters import parse_stats_schema
from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile

EVENT_TYPES_NAME = "EVENT_TYPES"
EVENT_COUNTERS_NAME = "EVENT_COUNTERS"
ROUTES_NAME = "ROUTES"

#: Receiver names that denote an observer at a reporting site.
_OBSERVER_NAMES = frozenset({"ob", "obs"})


@dataclass
class EventSchema:
    """Parsed taxonomy (EVENT_TYPES) and mapping (EVENT_COUNTERS)."""

    types: dict[str, int] | None          # event type -> declaration line
    types_path: str
    types_line: int
    mapping: dict[str, tuple[str | None, int]] | None  # key -> (counter, line)
    mapping_path: str
    mapping_line: int


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


def parse_event_schema(files: list[SourceFile]) -> EventSchema:
    types: dict[str, int] | None = None
    types_path, types_line = "", 0
    mapping: dict[str, tuple[str | None, int]] | None = None
    mapping_path, mapping_line = "", 0
    for sf in files:
        for stmt in sf.tree.body:
            value = _assign_value(stmt, EVENT_TYPES_NAME)
            if value is not None and types is None:
                types = {}
                types_path, types_line = str(sf.path), stmt.lineno
                for node in ast.walk(value):
                    if (isinstance(node, ast.Constant)
                            and isinstance(node.value, str)):
                        types[node.value] = node.lineno
            value = _assign_value(stmt, EVENT_COUNTERS_NAME)
            if (value is not None and mapping is None
                    and isinstance(value, ast.Dict)):
                mapping = {}
                mapping_path, mapping_line = str(sf.path), stmt.lineno
                for key, val in zip(value.keys, value.values):
                    if not (isinstance(key, ast.Constant)
                            and isinstance(key.value, str)):
                        continue
                    counter = None
                    if (isinstance(val, ast.Constant)
                            and isinstance(val.value, str)):
                        counter = val.value
                    mapping[key.value] = (counter, key.lineno)
    return EventSchema(types=types, types_path=types_path,
                       types_line=types_line, mapping=mapping,
                       mapping_path=mapping_path, mapping_line=mapping_line)


def parse_routes(
        files: list[SourceFile],
) -> tuple[str, dict[str, dict[str, tuple[str, int]]]] | None:
    """``(path, {reported name: {Route keyword: (value, line)}})``."""
    for sf in files:
        for stmt in sf.tree.body:
            value = _assign_value(stmt, ROUTES_NAME)
            if not isinstance(value, ast.Dict):
                continue
            rows: dict[str, dict[str, tuple[str, int]]] = {}
            for key, val in zip(value.keys, value.values):
                if not (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and isinstance(val, ast.Call)):
                    continue
                rows[key.value] = {
                    kw.arg: (kw.value.value, kw.value.lineno)
                    for kw in val.keywords
                    if kw.arg is not None
                    and isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, str)}
            return str(sf.path), rows
    return None


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
    schema = parse_event_schema(files)
    routes = parse_routes(files)
    if schema.types is None and schema.mapping is None and routes is None:
        return []
    findings: list[Finding] = []

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
        if schema.types is not None:
            for name, row in rows.items():
                etype, line = row.get("event", ("", 0))
                if etype and etype not in schema.types:
                    findings.append(Finding(
                        routes_path, line, "EVT001",
                        f"{ROUTES_NAME}['{name}'] emits undeclared event "
                        f"type '{etype}' (not in {EVENT_TYPES_NAME} at "
                        f"{schema.types_path})",
                    ))

    if schema.types is not None and schema.mapping is None:
        findings.append(Finding(
            schema.types_path, schema.types_line, "EVT002",
            f"{EVENT_TYPES_NAME} declared but no {EVENT_COUNTERS_NAME} "
            "mapping exists in the stats module",
        ))
    if schema.mapping is not None and schema.types is None:
        findings.append(Finding(
            schema.mapping_path, schema.mapping_line, "EVT002",
            f"{EVENT_COUNTERS_NAME} declared but no {EVENT_TYPES_NAME} "
            "taxonomy exists",
        ))
    if schema.types is None or schema.mapping is None:
        return findings

    for name in sorted(set(schema.types) - set(schema.mapping)):
        findings.append(Finding(
            schema.types_path, schema.types[name], "EVT002",
            f"event type '{name}' has no {EVENT_COUNTERS_NAME} mapping",
        ))
    for name, (_, line) in schema.mapping.items():
        if name not in schema.types:
            findings.append(Finding(
                schema.mapping_path, line, "EVT002",
                f"{EVENT_COUNTERS_NAME} key '{name}' is not a declared "
                f"event type",
            ))

    stats = parse_stats_schema(files)
    if stats is not None:
        for name, (counter, line) in schema.mapping.items():
            if counter is not None and counter not in stats.registry:
                findings.append(Finding(
                    schema.mapping_path, line, "EVT002",
                    f"event '{name}' maps to '{counter}', which is not a "
                    f"_counters() registry key",
                ))
    return findings
