"""Exporters for observed runs: JSONL dumps, slot timelines, profile schema.

Three consumers of the record ring (:class:`~repro.obs.spans.SpanRecorder`):

* :func:`records_to_jsonl` — the raw record stream, one JSON object per
  line, for ad-hoc analysis with ``jq``/pandas;
* :func:`slot_timeline` — a slot-occupancy Gantt view reconstructed from
  ``miss``/``prefetch_issue``/``evict`` records: which vector occupied
  which slot over which interval;
* :data:`PROFILE_SCHEMA` + :func:`validate_profile` — the versioned
  ``BENCH_profile.json`` document emitted by ``python -m repro.profile``
  and the hand-rolled validator the CI smoke job runs against it (no
  third-party jsonschema dependency).

This module consumes records and plain dicts only: of :mod:`repro.core`
it imports the counter declarations in :mod:`repro.core.stats` (a leaf
module) and nothing else, so ``repro.obs`` never participates in an
import cycle with the store it observes.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Callable, Iterable, Sequence

from repro.core.stats import PARITY_COUNTERS

#: Version tag of the ``BENCH_profile.json`` document layout. ``/4``
#: keeps every value once: counters, phase totals and latencies live in
#: the ``metrics`` registry snapshot alone, ``attribution`` names the
#: histograms each stage of a backing op reads instead of copying them,
#: and ``derived`` / ``records`` hold what no catalogue row does.
PROFILE_SCHEMA = "repro-profile/4"

#: Top-level keys every profile document must carry.
_REQUIRED_TOP = ("schema", "workload", "config", "derived", "records",
                 "metrics", "attribution")
#: Integer values ``IoStats`` derives that no catalogue row holds.
_DERIVED_INTS = ("physical_reads", "physical_writes", "swaps")
#: Required integer sub-keys of the record-ring accounting block.
_RECORD_KEYS = ("emitted", "captured", "dropped")
#: Required sub-keys of the metrics registry snapshot block.
_METRICS_KEYS = ("counters", "gauges", "histograms", "labeled")
#: Per-op entries the attribution block must decompose.
_ATTR_OPS = ("read", "write")


def records_to_jsonl(records: Iterable[Any], path: str) -> int:
    """Write ring records to ``path`` as JSON Lines; returns the row count.

    Accepts any iterable of :class:`~repro.obs.spans.SpanRecord` rows;
    ``args`` (a retry's attempt, a restart's shard) appear when present.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            row = {"ts": rec.start, "name": rec.name, "item": rec.item,
                   "slot": rec.slot, "dur": rec.dur, "thread": rec.thread}
            if rec.args:
                row["args"] = rec.args
            fh.write(json.dumps(row, separators=(",", ":")))
            fh.write("\n")
            count += 1
    return count


def slot_timeline(records: Sequence[Any]) -> list[dict[str, Any]]:
    """Reconstruct slot occupancy intervals from the ring.

    A ``miss`` or ``prefetch_issue`` record with a valid slot opens an
    interval (the vector moved into that slot); the matching ``evict``
    closes it. A record counts at the moment it was reported — the end of
    an interval. Intervals still open at the end of the trace are closed
    at the last observed timestamp. Returns ``[{"slot", "item", "start",
    "end"}]`` sorted by start time.

    Because the ring drops its *oldest* records on overflow, a truncated
    trace can contain evictions whose opening record was lost; those are
    ignored rather than guessed at.
    """
    open_at: dict[int, tuple[int, float]] = {}  # slot -> (item, start_ts)
    intervals: list[dict[str, Any]] = []
    last_ts = 0.0
    for rec in records:
        ts = rec.start + rec.dur
        last_ts = max(last_ts, ts)
        if rec.slot < 0:
            continue
        if rec.name in ("miss", "prefetch_issue"):
            cur = open_at.get(rec.slot)
            # A demand miss on a prefetched slot re-reports the same
            # occupancy (demand-transparency accounting); keep the
            # original interval rather than splitting it.
            if cur is not None and cur[0] == rec.item:
                continue
            if cur is not None:
                # Opening record of the previous occupant's eviction was
                # dropped by ring overflow — close it here.
                intervals.append({"slot": rec.slot, "item": cur[0],
                                  "start": cur[1], "end": ts})
            open_at[rec.slot] = (rec.item, ts)
        elif rec.name == "evict":
            cur = open_at.pop(rec.slot, None)
            if cur is not None:
                intervals.append({"slot": rec.slot, "item": cur[0],
                                  "start": cur[1], "end": ts})
    for slot, (item, start) in open_at.items():
        intervals.append({"slot": slot, "item": item,
                          "start": start, "end": last_ts})
    intervals.sort(key=lambda iv: (iv["start"], iv["slot"]))
    return intervals


def _type_name(obj: Any) -> str:
    return type(obj).__name__


def validate_file(path: str, validate: Callable[[Any], list[str]],
                  what: str) -> int:
    """The ``--validate PATH`` mode of both document-writing CLIs.

    Exit status: 0 = conforms, 1 = schema problems (listed on stderr),
    2 = unreadable.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    problems = validate(doc)
    for p in problems:
        print(f"{path}: {p}", file=sys.stderr)
    if problems:
        return 1
    print(f"{path}: valid {doc['schema']} {what}")
    return 0


def validate_profile(doc: Any) -> list[str]:
    """Validate a ``BENCH_profile.json`` document; returns problem strings.

    An empty list means the document conforms to :data:`PROFILE_SCHEMA`.
    Deliberately hand-rolled: the container must not grow a jsonschema
    dependency for one fixed layout.
    """
    if not isinstance(doc, dict):
        return [f"document must be an object, got {_type_name(doc)}"]
    problems = [f"missing top-level key {key!r}" for key in _REQUIRED_TOP
                if key not in doc]
    if problems:
        return problems
    if doc["schema"] != PROFILE_SCHEMA:
        problems.append(
            f"schema is {doc['schema']!r}, expected {PROFILE_SCHEMA!r}")
    if not isinstance(doc["workload"], str) or not doc["workload"]:
        problems.append("workload must be a non-empty string")
    if not isinstance(doc["config"], dict):
        problems.append("config must be an object")
    for block, keys in (("derived", _DERIVED_INTS), ("records", _RECORD_KEYS)):
        entry = doc[block]
        if not isinstance(entry, dict):
            problems.append(f"{block} must be an object")
            continue
        problems.extend(f"{block} missing integer {key!r}" for key in keys
                        if not isinstance(entry.get(key), int))

    metrics = doc["metrics"]
    hists: dict[str, Any] = {}
    if not isinstance(metrics, dict):
        problems.append("metrics must be an object")
    else:
        for key in _METRICS_KEYS:
            if not isinstance(metrics.get(key), dict):
                problems.append(f"metrics missing object {key!r}")
        counters = metrics.get("counters")
        if isinstance(counters, dict):
            problems.extend(f"metrics.counters missing integer {key!r}"
                            for key in PARITY_COUNTERS
                            if not isinstance(counters.get(key), int))
        if isinstance(metrics.get("histograms"), dict):
            hists = metrics["histograms"]
    problems.extend(_validate_attribution(doc["attribution"], hists))
    return problems


def _validate_attribution(attr: Any, hists: dict[str, Any]) -> list[str]:
    """Validate the latency-attribution block against the snapshot.

    Shape: ``{"backing": str, "window_wait": name, "ops": {"read"/
    "write": {"total": name, "stages": {stage: name}}}}`` where every
    name is a histogram of ``metrics.histograms``. Stage *names* are
    backing-dependent (a sharded run reports wire/disk/reply; a local
    run reports only disk), so only the shapes and the references are
    pinned here.
    """
    if not isinstance(attr, dict):
        return [f"attribution must be an object, got {_type_name(attr)}"]
    problems: list[str] = []

    def resolve(where: str, name: Any) -> None:
        if not isinstance(name, str) or name not in hists:
            problems.append(f"{where} names {name!r}, not a histogram of "
                            "the metrics snapshot")

    if not isinstance(attr.get("backing"), str) or not attr.get("backing"):
        problems.append("attribution.backing must be a non-empty string")
    resolve("attribution.window_wait", attr.get("window_wait"))
    ops = attr.get("ops")
    if not isinstance(ops, dict):
        return [*problems, "attribution.ops must be an object"]
    for op in _ATTR_OPS:
        entry = ops.get(op)
        if not isinstance(entry, dict) or not isinstance(
                entry.get("stages"), dict):
            problems.append(f"attribution.ops.{op} must be an object with "
                            "a 'stages' object")
            continue
        resolve(f"attribution.ops.{op}.total", entry.get("total"))
        for stage, name in entry["stages"].items():
            resolve(f"attribution.ops.{op}.stages.{stage}", name)
    return problems
