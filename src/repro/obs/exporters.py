"""Exporters for traced runs: JSONL dumps, slot timelines, profile schema.

Three consumers of :class:`~repro.obs.tracer.Tracer` output:

* :func:`records_to_jsonl` — the raw event stream, one JSON object per
  line, for ad-hoc analysis with ``jq``/pandas;
* :func:`slot_timeline` — a slot-occupancy Gantt view reconstructed from
  ``miss``/``prefetch_issue``/``evict`` events: which vector occupied
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

#: Version tag of the ``BENCH_profile.json`` document layout.
#: ``/2`` added the ``metrics`` block (a full registry snapshot) and the
#: counter/registry consistency requirements below. ``/3`` adds the
#: ``attribution`` block: per-op latency percentiles decomposed into
#: pipeline stages (window wait, wire, worker disk, reply) from merged
#: cross-process histograms.
PROFILE_SCHEMA = "repro-profile/3"

#: Top-level keys every profile document must carry.
_REQUIRED_TOP = (
    "schema", "workload", "config", "phases", "counters", "histograms",
    "events", "metrics", "attribution",
)
#: Required sub-keys of each per-phase timing entry.
_PHASE_KEYS = ("seconds", "calls")
#: Required sub-keys of each latency histogram.
_HIST_KEYS = ("unit", "count", "sum", "buckets")
#: Histogram blocks every profile must include.
_HIST_NAMES = ("backing_read", "backing_write", "writeback_drain")
#: Required sub-keys of the event summary block.
_EVENT_KEYS = ("emitted", "captured", "dropped", "by_type")
#: Required sub-keys of the metrics registry snapshot block.
_METRICS_KEYS = ("counters", "gauges", "histograms")
#: Required numeric keys of every attribution stage summary.
_ATTR_SUMMARY_KEYS = ("count", "sum", "p50", "p95", "p99")
#: Per-op entries the attribution block must decompose.
_ATTR_OPS = ("read", "write")


def records_to_jsonl(records: Iterable[Any], path: str) -> int:
    """Write trace records to ``path`` as JSON Lines; returns the row count.

    Accepts any iterable of objects with the :class:`TraceRecord` fields
    (``ts``/``etype``/``item``/``slot``/``dur``/``thread``).
    """
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({
                "ts": rec.ts,
                "etype": rec.etype,
                "item": rec.item,
                "slot": rec.slot,
                "dur": rec.dur,
                "thread": rec.thread,
            }, separators=(",", ":")))
            fh.write("\n")
            count += 1
    return count


def slot_timeline(records: Sequence[Any]) -> list[dict[str, Any]]:
    """Reconstruct slot occupancy intervals from a trace.

    A ``miss`` or ``prefetch_issue`` record with a valid slot opens an
    interval (the vector moved into that slot); the matching ``evict``
    closes it. Intervals still open at the end of the trace are closed at
    the last observed timestamp. Returns ``[{"slot", "item", "start",
    "end"}]`` sorted by start time.

    Because the ring buffer drops its *oldest* records on overflow, a
    truncated trace can contain evictions whose opening record was lost;
    those are ignored rather than guessed at.
    """
    open_at: dict[int, tuple[int, float]] = {}  # slot -> (item, start_ts)
    intervals: list[dict[str, Any]] = []
    last_ts = 0.0
    for rec in records:
        last_ts = max(last_ts, rec.ts)
        if rec.slot is None or rec.slot < 0:
            continue
        if rec.etype in ("miss", "prefetch_issue"):
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
                                  "start": cur[1], "end": rec.ts})
            open_at[rec.slot] = (rec.item, rec.ts)
        elif rec.etype == "evict":
            cur = open_at.pop(rec.slot, None)
            if cur is not None:
                intervals.append({"slot": rec.slot, "item": cur[0],
                                  "start": cur[1], "end": rec.ts})
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
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be an object, got {_type_name(doc)}"]
    for key in _REQUIRED_TOP:
        if key not in doc:
            problems.append(f"missing top-level key {key!r}")
    if problems:
        return problems
    if doc["schema"] != PROFILE_SCHEMA:
        problems.append(
            f"schema is {doc['schema']!r}, expected {PROFILE_SCHEMA!r}")
    if not isinstance(doc["workload"], str) or not doc["workload"]:
        problems.append("workload must be a non-empty string")
    if not isinstance(doc["config"], dict):
        problems.append("config must be an object")

    phases = doc["phases"]
    if not isinstance(phases, dict) or not phases:
        problems.append("phases must be a non-empty object")
    else:
        for name, entry in phases.items():
            if not isinstance(entry, dict):
                problems.append(f"phase {name!r} must be an object")
                continue
            for key in _PHASE_KEYS:
                if not isinstance(entry.get(key), (int, float)):
                    problems.append(f"phase {name!r} missing numeric {key!r}")

    counters = doc["counters"]
    if not isinstance(counters, dict):
        problems.append("counters must be an object")
    else:
        for key in PARITY_COUNTERS:
            if not isinstance(counters.get(key), int):
                problems.append(f"counters missing integer {key!r}")

    hists = doc["histograms"]
    if not isinstance(hists, dict):
        problems.append("histograms must be an object")
    else:
        for name in _HIST_NAMES:
            hist = hists.get(name)
            if not isinstance(hist, dict):
                problems.append(f"missing histogram {name!r}")
                continue
            for key in _HIST_KEYS:
                if key not in hist:
                    problems.append(f"histogram {name!r} missing {key!r}")
            buckets = hist.get("buckets")
            if not isinstance(buckets, list):
                problems.append(f"histogram {name!r} buckets must be a list")
            else:
                for idx, bucket in enumerate(buckets):
                    if (not isinstance(bucket, dict)
                            or not isinstance(bucket.get("le"), (int, float))
                            or not isinstance(bucket.get("count"), int)):
                        problems.append(
                            f"histogram {name!r} bucket {idx} must be "
                            "{'le': number, 'count': int}")
                        break

    events = doc["events"]
    if not isinstance(events, dict):
        problems.append("events must be an object")
    else:
        for key in _EVENT_KEYS:
            if key not in events:
                problems.append(f"events missing {key!r}")
        by_type = events.get("by_type")
        if by_type is not None and not isinstance(by_type, dict):
            problems.append("events.by_type must be an object")

    metrics = doc["metrics"]
    if not isinstance(metrics, dict):
        problems.append("metrics must be an object")
    else:
        for key in _METRICS_KEYS:
            if not isinstance(metrics.get(key), dict):
                problems.append(f"metrics missing object {key!r}")
        reg_counters = metrics.get("counters")
        if isinstance(counters, dict) and isinstance(reg_counters, dict):
            # The registry snapshot is collected from the same IoStats the
            # counter block reports: any disagreement on a shared counter
            # means a stale snapshot or a forged document.
            for key in sorted(set(counters) & set(reg_counters)):
                if counters[key] != reg_counters[key]:
                    problems.append(
                        f"counter {key!r} disagrees with the metrics "
                        f"snapshot ({counters[key]} vs {reg_counters[key]})")
        if isinstance(events, dict) and isinstance(reg_counters, dict):
            for ev_key, metric in (("emitted", "trace_events_emitted"),
                                   ("dropped", "trace_events_dropped")):
                have, want = events.get(ev_key), reg_counters.get(metric)
                if (isinstance(have, int) and isinstance(want, int)
                        and have != want):
                    problems.append(
                        f"events.{ev_key} ({have}) disagrees with "
                        f"metrics counter {metric!r} ({want})")

    problems.extend(_validate_attribution(doc["attribution"]))
    return problems


def _summary_problems(where: str, summary: Any) -> list[str]:
    if not isinstance(summary, dict):
        return [f"{where} must be an object"]
    return [f"{where} missing numeric {key!r}"
            for key in _ATTR_SUMMARY_KEYS
            if not isinstance(summary.get(key), (int, float))]


def _validate_attribution(attr: Any) -> list[str]:
    """Validate the ``/3`` latency-attribution block.

    Shape: ``{"backing": str, "window_wait": summary, "ops": {"read"/
    "write": summary + {"stages": {name: summary}}}, "per_shard": obj}``
    where every summary carries count/sum/p50/p95/p99. Stage *names* are
    backing-dependent (a sharded run reports wire/disk/reply; a local
    run reports only disk), so only the shapes are pinned here.
    """
    if not isinstance(attr, dict):
        return [f"attribution must be an object, got {_type_name(attr)}"]
    problems: list[str] = []
    if not isinstance(attr.get("backing"), str) or not attr.get("backing"):
        problems.append("attribution.backing must be a non-empty string")
    problems.extend(_summary_problems("attribution.window_wait",
                                      attr.get("window_wait")))
    ops = attr.get("ops")
    if not isinstance(ops, dict):
        problems.append("attribution.ops must be an object")
        return problems
    for op in _ATTR_OPS:
        entry = ops.get(op)
        if not isinstance(entry, dict):
            problems.append(f"attribution.ops.{op} must be an object")
            continue
        problems.extend(_summary_problems(f"attribution.ops.{op}", entry))
        stages = entry.get("stages")
        if not isinstance(stages, dict):
            problems.append(f"attribution.ops.{op}.stages must be an object")
            continue
        for name, summary in stages.items():
            problems.extend(_summary_problems(
                f"attribution.ops.{op}.stages.{name}", summary))
    if not isinstance(attr.get("per_shard"), dict):
        problems.append("attribution.per_shard must be an object")
    return problems
