"""Pytest bridge: the shipped source tree must satisfy its own invariants.

This is the CI teeth of ``python -m repro.analysis src/repro`` — lock
discipline, counter registry coherence and thread ownership, slot-view
leaks, and determinism hygiene all hold on every commit.
"""

import ast
from pathlib import Path

from repro.analysis import analyze_paths
from repro.analysis.leaks import _owns_arena

SRC_REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"


def test_source_tree_is_invariant_clean():
    findings = analyze_paths([SRC_REPRO])
    assert not findings, "invariant violations in src/repro:\n" + "\n".join(
        f.format() for f in findings)


def test_the_store_is_checked_as_an_arena_owner():
    """LEAK001 only looks at classes it recognises as owning ``_slots``: a
    clean report must not mean the one real arena went unrecognised."""
    tree = ast.parse((SRC_REPRO / "core" / "vecstore.py").read_text())
    owners = [cls.name for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and _owns_arena(cls)]
    assert owners == ["AncestralVectorStore"]


#: Sink methods no other class has: a call is a sink call whoever receives it.
SINK_METHODS = frozenset({
    "emit",                                              # Tracer
    "record_read", "record_write",                       # BackingProbe
    "observe", "inc", "inc_labeled", "counter_set", "gauge_set",
    "gauge_set_labeled", "gauge_add", "merge_histogram",
    "register_collector", "unregister_collector",        # MetricsRegistry
})
#: Sink methods with everyday names, told apart by the receiver's name.
SINK_RECEIVER_METHODS = {
    "complete": {"sp", "spans", "recorder"},             # SpanRecorder
    "add": {"tm", "timers", "stopwatch"},                # Stopwatch
    "record": {"drain_hist", "read_hist", "write_hist"},  # LogHistogram
}
#: The far end of the OP_TELEMETRY protocol: it runs in a shard *worker*
#: process, where no Observer exists, and its accumulators are the frame
#: the parent pulls — not a second route to the parent's sinks.
SINK_CALL_EXEMPT = {("core/sharded.py", "_WorkerTelemetry")}


def _sink_calls(path: Path) -> list[str]:
    rel = path.relative_to(SRC_REPRO).as_posix()
    tree = ast.parse(path.read_text())
    exempt = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef)
              and (rel, cls.name) in SINK_CALL_EXEMPT
              for node in ast.walk(cls)}
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)) or id(node) in exempt:
            continue
        method, recv = node.func.attr, node.func.value
        name = (recv.id if isinstance(recv, ast.Name)
                else recv.attr if isinstance(recv, ast.Attribute) else "")
        if (method in SINK_METHODS
                or name.lstrip("_") in SINK_RECEIVER_METHODS.get(method, ())):
            found.append(f"{rel}:{node.lineno}: {name}.{method}(...)")
    return found


def test_only_the_observer_calls_a_sink():
    """One reporting seam: outside ``repro/obs/`` a component reports to
    its ``obs`` (``event`` / ``timed`` / ``count`` / ``gauge`` / ...) and
    never reaches a tracer, probe, registry, span recorder or phase timer
    itself — so ``repro.obs.ROUTES`` is the only statement of which sinks
    record what."""
    calls = [call for path in sorted(SRC_REPRO.rglob("*.py"))
             if "obs" not in path.relative_to(SRC_REPRO).parts[:1]
             for call in _sink_calls(path)]
    assert not calls, "direct sink calls outside repro/obs:\n" + "\n".join(calls)
