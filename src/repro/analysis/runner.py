"""File collection, checker orchestration and suppression handling."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.analysis.counters import check_counters
from repro.analysis.determinism import check_determinism
from repro.analysis.events import check_events
from repro.analysis.findings import Finding
from repro.analysis.leaks import check_leaks
from repro.analysis.lockorder import check_lockorder
from repro.analysis.locks import check_locks
from repro.analysis.metrics import check_metrics
from repro.analysis.source import SourceFile
from repro.analysis.typeinfo import ClassIndex


def collect_files(paths: Iterable[str | Path]) -> list[Path]:
    out: list[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            out.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return out


def analyze_paths(paths: Iterable[str | Path]) -> list[Finding]:
    """Run every checker over ``paths``; returns unsuppressed findings."""
    files = [SourceFile.load(p) for p in collect_files(paths)]
    index = ClassIndex.build([(str(sf.path), sf.tree) for sf in files])

    findings: list[Finding] = []
    findings.extend(check_locks(files, index))
    findings.extend(check_lockorder(files, index))
    findings.extend(check_counters(files, index))
    findings.extend(check_events(files))
    findings.extend(check_metrics(files))
    findings.extend(check_leaks(files))
    findings.extend(check_determinism(files))

    findings = _apply_suppressions(files, findings)
    findings.extend(_suppression_hygiene(files))
    return sorted(set(findings))


def _apply_suppressions(files: list[SourceFile],
                        findings: list[Finding]) -> list[Finding]:
    """Drop the LOCK001 findings a reasoned ``# lockfree-ok`` covers."""
    by_path = {str(sf.path): sf for sf in files}
    return [f for f in findings
            if not (f.rule == "LOCK001" and f.path in by_path
                    and by_path[f.path].lockfree_reason(f.line))]


def _suppression_hygiene(files: list[SourceFile]) -> list[Finding]:
    """A ``# lockfree-ok`` without a reason is a finding itself (and an
    empty reason suppresses nothing)."""
    return [Finding(str(sf.path), line, "LOCK002",
                    "'# lockfree-ok' needs a reason: "
                    "'# lockfree-ok: <why this is safe unlocked>'")
            for sf in files for line in sorted(sf.comments)
            if sf.lockfree_reason(line) == ""]
