"""MET001/MET002: the metrics catalogue and its consumers stay in sync.

The metrics layer (``repro.obs.metrics``) defines a closed name
catalogue — a module-level ``METRIC_NAMES`` frozenset — plus a
``METRIC_EXPOSITION`` dict mapping every name to its ``(kind, help)``
Prometheus exposition entry, and the benchmark schema
(``repro.bench.schema``) re-uses a subset of those names as its
per-workload ``RESULT_METRICS``. Exactly like the event taxonomy
(EVT001/EVT002), the artifacts must agree:

* **MET001** — every metric a component can reach must be declared:
  the ``metric=`` / ``ops=`` / ``bytes=`` targets of the ``ROUTES`` rows
  (what ``ob.timed`` feeds), the literal name at every ``ob.count`` /
  ``ob.gauge`` / ``ob.merge`` call site, and the literal keys of a dict
  handed to ``totals``. The registry raises on unknown names at runtime,
  but only on paths that actually execute; a typo on a rarely-taken
  branch would otherwise ship.
* **MET002** — ``METRIC_NAMES`` and the ``METRIC_EXPOSITION`` keys must
  be the same set, every exposition kind must be one of
  ``counter``/``gauge``/``histogram``, every name must be a valid
  Prometheus metric-name suffix, and ``RESULT_METRICS`` must be a
  subset of the catalogue.

Both rules are inert for code bases that declare none of the names.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

from repro.analysis.events import _assign_value, parse_routes, report_sites
from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile

METRIC_NAMES_NAME = "METRIC_NAMES"
METRIC_EXPOSITION_NAME = "METRIC_EXPOSITION"
RESULT_METRICS_NAME = "RESULT_METRICS"

#: Observer verbs whose first argument is a metric name.
_METRIC_VERBS = frozenset({"count", "gauge", "merge"})

#: ``Route(...)`` keywords whose value is a metric name.
_ROUTE_METRIC_FIELDS = ("metric", "ops", "bytes")

#: Valid exposition kinds (the registry's three instrument types).
_KINDS = frozenset({"counter", "gauge", "histogram"})

#: Prometheus metric-name suffix (the ``repro_`` prefix is added at
#: exposition time, so names must start with a lowercase letter).
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")


@dataclass
class MetricSchema:
    """Parsed catalogue, exposition table and benchmark subset."""

    names: dict[str, int] | None          # metric name -> declaration line
    names_path: str
    names_line: int
    exposition: dict[str, tuple[str | None, int]] | None  # name->(kind, line)
    exposition_path: str
    exposition_line: int
    result_metrics: dict[str, int] | None  # name -> declaration line
    result_path: str
    result_line: int


def parse_metric_schema(files: list[SourceFile]) -> MetricSchema:
    names: dict[str, int] | None = None
    names_path, names_line = "", 0
    exposition: dict[str, tuple[str | None, int]] | None = None
    exposition_path, exposition_line = "", 0
    result: dict[str, int] | None = None
    result_path, result_line = "", 0
    for sf in files:
        for stmt in sf.tree.body:
            value = _assign_value(stmt, METRIC_NAMES_NAME)
            if value is not None and names is None:
                names = {}
                names_path, names_line = str(sf.path), stmt.lineno
                for node in ast.walk(value):
                    if (isinstance(node, ast.Constant)
                            and isinstance(node.value, str)):
                        names[node.value] = node.lineno
            value = _assign_value(stmt, METRIC_EXPOSITION_NAME)
            if (value is not None and exposition is None
                    and isinstance(value, ast.Dict)):
                exposition = {}
                exposition_path, exposition_line = str(sf.path), stmt.lineno
                for key, val in zip(value.keys, value.values):
                    if not (isinstance(key, ast.Constant)
                            and isinstance(key.value, str)):
                        continue
                    kind = None
                    if (isinstance(val, ast.Tuple) and val.elts
                            and isinstance(val.elts[0], ast.Constant)
                            and isinstance(val.elts[0].value, str)):
                        kind = val.elts[0].value
                    exposition[key.value] = (kind, key.lineno)
            value = _assign_value(stmt, RESULT_METRICS_NAME)
            if value is not None and result is None:
                result = {}
                result_path, result_line = str(sf.path), stmt.lineno
                for node in ast.walk(value):
                    if (isinstance(node, ast.Constant)
                            and isinstance(node.value, str)):
                        result[node.value] = node.lineno
    return MetricSchema(
        names=names, names_path=names_path, names_line=names_line,
        exposition=exposition, exposition_path=exposition_path,
        exposition_line=exposition_line, result_metrics=result,
        result_path=result_path, result_line=result_line)


def _metric_sites(files: list[SourceFile]) -> list[tuple[str, int, str]]:
    """``(path, line, name)`` for every statically visible metric reference."""
    out = report_sites(files, _METRIC_VERBS)
    routes_path, rows = parse_routes(files) or ("", {})
    for row in rows.values():
        out.extend((routes_path, row[f][1], row[f][0])
                   for f in _ROUTE_METRIC_FIELDS if f in row)
    for sf in files:
        for node in ast.walk(sf.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "totals" and node.args
                    and isinstance(node.args[0], ast.Dict)):
                out.extend(
                    (str(sf.path), key.lineno, key.value)
                    for key in node.args[0].keys
                    if isinstance(key, ast.Constant)
                    and isinstance(key.value, str))
    return out


def check_metrics(files: list[SourceFile]) -> list[Finding]:
    schema = parse_metric_schema(files)
    if schema.names is None and schema.exposition is None:
        return []
    findings: list[Finding] = []

    if schema.names is not None:
        for path, line, literal in _metric_sites(files):
            if literal not in schema.names:
                findings.append(Finding(
                    path, line, "MET001",
                    f"report uses undeclared metric name '{literal}' "
                    f"(not in {METRIC_NAMES_NAME} at {schema.names_path})",
                ))
        for name, line in schema.names.items():
            if not _NAME_RE.match(name):
                findings.append(Finding(
                    schema.names_path, line, "MET002",
                    f"metric name '{name}' is not a valid Prometheus "
                    "name suffix ([a-z][a-z0-9_]*)",
                ))

    if schema.names is not None and schema.exposition is None:
        findings.append(Finding(
            schema.names_path, schema.names_line, "MET002",
            f"{METRIC_NAMES_NAME} declared but no {METRIC_EXPOSITION_NAME} "
            "table exists",
        ))
    if schema.exposition is not None and schema.names is None:
        findings.append(Finding(
            schema.exposition_path, schema.exposition_line, "MET002",
            f"{METRIC_EXPOSITION_NAME} declared but no {METRIC_NAMES_NAME} "
            "catalogue exists",
        ))
    if schema.names is None or schema.exposition is None:
        return findings

    for name in sorted(set(schema.names) - set(schema.exposition)):
        findings.append(Finding(
            schema.names_path, schema.names[name], "MET002",
            f"metric '{name}' has no {METRIC_EXPOSITION_NAME} entry",
        ))
    for name, (kind, line) in schema.exposition.items():
        if name not in schema.names:
            findings.append(Finding(
                schema.exposition_path, line, "MET002",
                f"{METRIC_EXPOSITION_NAME} key '{name}' is not a declared "
                "metric name",
            ))
        if kind is not None and kind not in _KINDS:
            findings.append(Finding(
                schema.exposition_path, line, "MET002",
                f"metric '{name}' has unknown kind '{kind}' (expected "
                "counter/gauge/histogram)",
            ))

    if schema.result_metrics is not None:
        for name, line in schema.result_metrics.items():
            if name not in schema.names:
                findings.append(Finding(
                    schema.result_path, line, "MET002",
                    f"{RESULT_METRICS_NAME} entry '{name}' is not in the "
                    f"{METRIC_NAMES_NAME} catalogue",
                ))
    return findings
