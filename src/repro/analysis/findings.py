"""Finding records and the rule registry shared by all checkers."""

from __future__ import annotations

from dataclasses import dataclass

#: Rule id -> one-line description (shown by ``--list-rules``).
RULES: dict[str, str] = {
    "LOCK001": "guarded field accessed outside its declared lock",
    "LOCK002": "'# lockfree-ok' suppression without a reason",
    "CNT001": "mutation of a stats counter that IoStats does not declare",
    "CNT003": "demand-side counter mutated on a writer/prefetch thread path",
    "EVT001": "reported name, ROUTES event or EVENT_TYPES counter with no declaration",
    "MET001": "metric name missing from METRIC_EXPOSITION, or a malformed row there",
    "LEAK001": "public method returns a raw _slots buffer view (no copy/pin)",
    "DET001": "stdlib 'random' used in deterministic scope",
    "DET002": "unseeded numpy RNG in deterministic scope",
    "DET003": "time.time() in deterministic scope",
    "SUP001": "'# analysis: ignore[...]' suppression malformed",
    "LOK101": "lock-acquisition cycle (potential deadlock)",
    "RACE001": "write-write data race (accesses unordered by happens-before)",
    "RACE002": "read-write data race (accesses unordered by happens-before)",
}

#: Rules emitted by the runtime happens-before sanitizer
#: (:mod:`repro.analysis.race`) rather than a static checker — they have
#: no ``# expect`` fixture corpus and are exercised by ``test_race.py``.
RUNTIME_RULES = frozenset({"RACE001", "RACE002"})


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"
