"""MET001: every metric reference resolves to a well-formed catalogue row.

The metrics layer (``repro.obs.metrics``) declares its catalogue once — a
module-level ``METRIC_EXPOSITION`` dict, one ``Metric(kind, help, ...)``
row per name; a ``**`` entry in the literal stands for the rows generated
from the ``IoStats`` counter fields, one each. **MET001** checks what a
typo could break:

* every metric a component can reach must be a row: the ``metric=``
  target of each ``ROUTES`` row (what ``ob.timed`` / ``ob.event``
  feed), the literal name at every ``ob.count`` / ``ob.gauge`` call
  site, and the literal keys of a dict handed to
  ``totals``. The registry raises on unknown names at runtime, but only
  on paths that actually execute; a typo on a rarely-taken branch would
  otherwise ship;
* every row's name must be a valid Prometheus metric-name suffix and its
  kind one of ``counter``/``gauge``/``histogram``.

The rule is inert for code bases that declare no catalogue.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.counters import parse_stats_schema
from repro.analysis.events import (
    literal_rows,
    module_dict,
    parse_routes,
    report_sites,
)
from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile

METRIC_EXPOSITION_NAME = "METRIC_EXPOSITION"

#: Observer verbs whose first argument is a metric name.
_METRIC_VERBS = frozenset({"count", "gauge"})

#: Valid exposition kinds (the registry's three instrument types).
_KINDS = frozenset({"counter", "gauge", "histogram"})

#: Prometheus metric-name suffix (the ``repro_`` prefix is added at
#: exposition time, so names must start with a lowercase letter).
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def _metric_sites(files: list[SourceFile]) -> list[tuple[str, int, str]]:
    """``(path, line, name)`` for every statically visible metric reference."""
    out = report_sites(files, _METRIC_VERBS)
    routes_path, rows = parse_routes(files) or ("", {})
    out.extend((routes_path, row["metric"][1], row["metric"][0])
               for row in rows.values() if "metric" in row)
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
    found = module_dict(files, METRIC_EXPOSITION_NAME)
    if found is None:
        return []
    table_path, table = found
    findings: list[Finding] = []

    declared: set[str] = set()
    for name, row, line in literal_rows(table):
        declared.add(name)
        if not _NAME_RE.match(name):
            findings.append(Finding(
                table_path, line, "MET001",
                f"metric name '{name}' is not a valid Prometheus "
                "name suffix ([a-z][a-z0-9_]*)",
            ))
        kind = row.args[0] if isinstance(row, ast.Call) and row.args else None
        if isinstance(kind, ast.Constant) and kind.value not in _KINDS:
            findings.append(Finding(
                table_path, line, "MET001",
                f"metric '{name}' has unknown kind '{kind.value}' (expected "
                "counter/gauge/histogram)",
            ))
    stats = parse_stats_schema(files)
    if stats is not None and None in table.keys:
        declared |= set(stats.counters)

    for path, line, literal in _metric_sites(files):
        if literal not in declared:
            findings.append(Finding(
                path, line, "MET001",
                f"report uses undeclared metric name '{literal}' (not a "
                f"{METRIC_EXPOSITION_NAME} row at {table_path})",
            ))
    return findings
