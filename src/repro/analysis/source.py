"""Parsed source files: AST plus the comment annotations the checkers read.

``ast`` discards comments, so annotations like ``# guarded-by: _lock`` are
recovered with :mod:`tokenize` and exposed as a ``line -> comment`` map.
All annotation grammars live here so every checker parses them the same
way:

``# guarded-by: <lock>``
    On a ``self.<field> = ...`` line in ``__init__``: declares the field
    protected by ``<lock>`` (an attribute name, e.g. ``_lock``).
``# holds: <lock>``
    On a ``def`` line: the whole function body runs with ``<lock>`` held
    (documented caller contract), so guarded accesses inside it are legal.
``# thread: writer|prefetch``
    On a ``def`` line: the function is an entry point of that background
    thread population; the counter checker roots its reachability walk
    there.
``# lockfree-ok: <reason>``
    Suppresses LOCK001 on this line; the reason is mandatory.
``# analysis: ignore[RULE1,RULE2] <reason>``
    Generic suppression for any rule on this line; reason mandatory.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

GUARDED_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_]\w*)")
HOLDS_RE = re.compile(r"#\s*holds:\s*([A-Za-z_]\w*)")
THREAD_RE = re.compile(r"#\s*thread:\s*(writer|prefetch)\b")
LOCKFREE_RE = re.compile(r"#\s*lockfree-ok:?(.*)$")
IGNORE_RE = re.compile(r"#\s*analysis:\s*ignore\[([^\]]*)\](.*)$")


@dataclass
class SourceFile:
    """One parsed module: path, AST and per-line comments."""

    path: Path
    text: str
    tree: ast.Module
    comments: dict[int, str] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        comments: dict[int, str] = {}
        # TokenError cannot normally happen here (ast.parse raised first),
        # so any truncated tail just ends the comment scan early.
        with contextlib.suppress(tokenize.TokenError):
            for tok in tokenize.generate_tokens(io.StringIO(text).readline):
                if tok.type == tokenize.COMMENT:
                    comments[tok.start[0]] = tok.string
        return cls(path=path, text=text, tree=tree, comments=comments)

    # -- annotation accessors ---------------------------------------------------

    def guarded_by(self, line: int) -> str | None:
        m = GUARDED_RE.search(self.comments.get(line, ""))
        return m.group(1) if m else None

    def holds(self, line: int) -> str | None:
        m = HOLDS_RE.search(self.comments.get(line, ""))
        return m.group(1) if m else None

    def thread_role(self, line: int) -> str | None:
        m = THREAD_RE.search(self.comments.get(line, ""))
        return m.group(1) if m else None

    def lockfree_reason(self, line: int) -> str | None:
        """Reason text of a ``# lockfree-ok`` on this line (``None`` if absent)."""
        m = LOCKFREE_RE.search(self.comments.get(line, ""))
        return m.group(1).strip() if m else None

    def ignore_directive(self, line: int) -> tuple[list[str], str] | None:
        """``(rule_ids, reason)`` of a ``# analysis: ignore[...]`` directive."""
        m = IGNORE_RE.search(self.comments.get(line, ""))
        if m is None:
            return None
        rules = [r.strip() for r in m.group(1).split(",") if r.strip()]
        return rules, m.group(2).strip()


def attribute_chain(node: ast.expr) -> list[str] | None:
    """``a.b.c`` -> ``["a", "b", "c"]``; ``None`` for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None
