"""LEAK001: public methods must not hand out raw slot-buffer views.

A slot buffer (``self._slots``) is recycled on eviction: a raw ndarray view
of it silently starts aliasing a *different* vector once the slot turns
over. The only sanctioned ways out of a slot-arena class are

* ``get()``'s pin-protected (and, under ``REPRO_SANITIZE=1``,
  borrow-tracked) view, issued by private helpers, and
* an explicit ``.copy()`` (e.g. ``read_item``).

This checker flags any ``return`` in a *public* method of a class owning a
``_slots`` arena whose value contains a ``_slots`` subscript (or the bare
arena) not immediately followed by ``.copy()``.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile

ARENA_ATTR = "_slots"

#: Scalar metadata attributes — reading these leaks no buffer memory.
SCALAR_ATTRS = frozenset({"nbytes", "shape", "size", "dtype", "itemsize",
                          "ndim", "flags"})


def _owns_arena(cls: ast.ClassDef) -> bool:
    for item in cls.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            for stmt in ast.walk(item):
                if isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                elif isinstance(stmt, ast.AnnAssign):  # self._slots: T = ...
                    targets = [stmt.target]
                else:
                    continue
                for tgt in targets:
                    if (isinstance(tgt, ast.Attribute)
                            and tgt.attr == ARENA_ATTR
                            and isinstance(tgt.value, ast.Name)
                            and tgt.value.id == "self"):
                        return True
    return False


def _parents(root: ast.expr) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(root):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _is_copied(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> bool:
    """True when ``node`` is the receiver of an immediate ``.copy()`` call."""
    parent = parents.get(node)
    if not (isinstance(parent, ast.Attribute) and parent.attr == "copy"):
        return False
    grandparent = parents.get(parent)
    return isinstance(grandparent, ast.Call) and grandparent.func is parent


def _leaks_in_return(ret: ast.Return) -> list[int]:
    if ret.value is None:
        return []
    parents = _parents(ret.value)
    lines: list[int] = []
    for node in ast.walk(ret.value):
        if not (isinstance(node, ast.Attribute) and node.attr == ARENA_ATTR):
            continue
        parent = parents.get(node)
        if isinstance(parent, ast.Subscript) and parent.value is node:
            if not _is_copied(parent, parents):
                lines.append(node.lineno)
        elif (isinstance(parent, ast.Attribute) and parent.value is node
                and parent.attr in SCALAR_ATTRS):
            continue
        elif not _is_copied(node, parents):
            lines.append(node.lineno)
    return lines


def check_leaks(files: list[SourceFile]) -> list[Finding]:
    findings: list[Finding] = []
    for sf in files:
        for cls in ast.walk(sf.tree):
            if not (isinstance(cls, ast.ClassDef) and _owns_arena(cls)):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                if method.name.startswith("_"):
                    continue  # private helpers form the pin/borrow API
                for stmt in ast.walk(method):
                    if not isinstance(stmt, ast.Return):
                        continue
                    for line in _leaks_in_return(stmt):
                        findings.append(Finding(
                            str(sf.path), line, "LEAK001",
                            f"public method {cls.name}.{method.name} returns a "
                            f"raw {ARENA_ATTR} buffer view; return a .copy() or "
                            f"route through the pin/borrow API",
                        ))
    return findings
