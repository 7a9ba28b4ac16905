"""A typed metrics registry with a frozen name catalogue (Prometheus-style).

Counters, gauges and histograms for the out-of-core pipeline, mirroring
the counter-registry discipline of :mod:`repro.core.stats`: the set of
legal metric names is the closed catalogue :data:`METRIC_NAMES`, every
name carries a kind and help string in :data:`METRIC_EXPOSITION`, and
``python -m repro.analysis`` (rules MET001/MET002) keeps report sites, the
catalogue and the ``BENCH_results.json`` schema three-way synced — a
typo'd metric name fails statically *and* at runtime instead of silently
vanishing from every dashboard.

Update model (hybrid push/pull, lock-cheap like the tracer):

* **pull** — components register a *collector* callback
  (:meth:`MetricsRegistry.register_collector`) that copies their
  authoritative state (``IoStats`` counters, slot occupancy, queue depth)
  into the registry at scrape/snapshot time. The hot path pays nothing:
  no per-event registry traffic, and the counters stay bit-identical to
  an uninstrumented run (passivity).
* **push** — genuinely event-shaped observations (physical I/O latency,
  store-wait time) reach :meth:`MetricsRegistry.observe` through the
  reporting component's :class:`repro.obs.Observer` (``obs.timed``), a
  single ``is None`` test at the site exactly like tracer events.

Thread-safety follows the single-writer-per-name rule of
:class:`~repro.core.stats.IoStats`: each counter/gauge has one writing
component, values are plain (GIL-atomic) dict slots, and collectors are
serialised under one registry lock at collection time, so concurrent
scrapes observe monotone counters.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.analysis.race import make_lock, race_detector
from repro.errors import OutOfCoreError
from repro.obs.histogram import LogHistogram

#: The closed metric catalogue. Every registry update site must use one of
#: these literals (analysis rule MET001); the catalogue, the exposition
#: table below and ``repro.bench.schema.RESULT_METRICS`` stay in sync
#: (rule MET002).
METRIC_NAMES = frozenset({
    # -- counters mirroring the IoStats._counters() registry, one-to-one --
    "requests",
    "hits",
    "misses",
    "reads",
    "read_skips",
    "writes",
    "write_skips",
    "bytes_read",
    "bytes_written",
    "prefetch_reads",
    "prefetch_bytes",
    "prefetch_hits",
    "prefetch_unused",
    "writeback_writes",
    "writeback_bytes",
    "writeback_stalls",
    "writeback_read_hits",
    # -- backing-tier durability/compression (pushed by the wrappers) --
    "backing_retries",
    "backing_faults",
    "compress_bytes_raw",
    "compress_bytes_stored",
    "compress_compactions",
    # -- sharded backing tier (per-shard labelled I/O + restart counter) --
    "backing_reads",
    "backing_writes",
    "backing_bytes_read",
    "backing_bytes_written",
    "shard_restarts",
    # -- sharded-tier cross-process telemetry (PR 10) --
    "shard_telemetry_pulls",
    "shard_inflight",
    "shard_oldest_pending_seconds",
    "shard_window_wait_seconds",
    "shard_wire_seconds",
    "shard_disk_read_seconds",
    "shard_disk_write_seconds",
    "shard_reply_seconds",
    # -- engine phase counters (seconds are monotone totals) --
    "phase_plan_seconds",
    "phase_plan_calls",
    "phase_kernel_seconds",
    "phase_kernel_calls",
    "phase_store_wait_seconds",
    "phase_store_wait_calls",
    # -- tracer ring-buffer accounting --
    "trace_events_emitted",
    "trace_events_dropped",
    # -- live gauges --
    "compress_heap_leaked_bytes",
    "slots_total",
    "slots_occupied",
    "slots_dirty",
    "writeback_queue_depth",
    "loads_inflight",
    "prefetch_untouched",
    # -- latency histograms --
    "backing_read_seconds",
    "backing_write_seconds",
    "writeback_drain_seconds",
    "store_wait_seconds",
    "swap_hidden_seconds",
})

#: ``name -> (kind, help)`` exposition table: drives the ``# TYPE`` /
#: ``# HELP`` lines of the Prometheus text format. Keys must equal
#: :data:`METRIC_NAMES` and kinds must be valid Prometheus types
#: (analysis rule MET002).
METRIC_EXPOSITION: dict[str, tuple[str, str]] = {
    "requests": ("counter", "Demand get() calls on the vector store"),
    "hits": ("counter", "Requests satisfied from a resident slot"),
    "misses": ("counter", "Requests that required a slot placement"),
    "reads": ("counter", "Demand-charged vector reads"),
    "read_skips": ("counter", "Reads elided by the write-only rule (§3.4)"),
    "writes": ("counter", "Demand write-backs at eviction/flush time"),
    "write_skips": ("counter", "Write-backs elided by clean-eviction tracking"),
    "bytes_read": ("counter", "Bytes demand-read from the backing store"),
    "bytes_written": ("counter", "Bytes written toward the backing store"),
    "prefetch_reads": ("counter", "Physical reads issued ahead of demand"),
    "prefetch_bytes": ("counter", "Bytes physically read ahead of demand"),
    "prefetch_hits": ("counter", "Demand requests served by a prefetched slot"),
    "prefetch_unused": ("counter", "Prefetched vectors never consumed"),
    "writeback_writes": ("counter", "Victims drained by the writer thread(s)"),
    "writeback_bytes": ("counter", "Bytes drained by the writer thread(s)"),
    "writeback_stalls": ("counter", "Evictions blocked on a full staging buffer"),
    "writeback_read_hits": ("counter", "Reads served from the staging buffer"),
    "backing_retries": ("counter", "Backing operations retried after a "
                                   "transient failure"),
    "backing_faults": ("counter", "Faults injected into the backing tier"),
    "compress_bytes_raw": ("counter", "Logical bytes through the compressed "
                                      "backing"),
    "compress_bytes_stored": ("counter", "Physical bytes through the "
                                         "compressed backing"),
    "compress_compactions": ("counter", "Heap compactions run by the "
                                        "compressed backing"),
    "backing_reads": ("counter", "Physical reads completed, by shard"),
    "backing_writes": ("counter", "Physical writes completed, by shard"),
    "backing_bytes_read": ("counter", "Bytes physically read, by shard"),
    "backing_bytes_written": ("counter", "Bytes physically written, by shard"),
    "shard_restarts": ("counter", "Dead shard workers detected and restarted"),
    "shard_telemetry_pulls": ("counter", "OP_TELEMETRY delta pulls completed"),
    "shard_inflight": ("gauge", "Requests in flight to a shard worker, "
                                "by shard"),
    "shard_oldest_pending_seconds": ("gauge", "Age of the oldest pending "
                                              "request, by shard"),
    "shard_window_wait_seconds": ("histogram", "Submit stalls on the bounded "
                                               "in-flight window"),
    "shard_wire_seconds": ("histogram", "Client send to worker dequeue "
                                        "(queueing + wire transfer)"),
    "shard_disk_read_seconds": ("histogram", "Worker-side backing read "
                                             "latency (merged)"),
    "shard_disk_write_seconds": ("histogram", "Worker-side backing write "
                                              "latency (merged)"),
    "shard_reply_seconds": ("histogram", "Worker reply send to client "
                                         "receive (wire + collect)"),
    "phase_plan_seconds": ("counter", "Engine time planning traversals"),
    "phase_plan_calls": ("counter", "Engine plan laps"),
    "phase_kernel_seconds": ("counter", "Engine time in likelihood kernels"),
    "phase_kernel_calls": ("counter", "Engine kernel laps"),
    "phase_store_wait_seconds": ("counter", "Engine time waiting on store.get"),
    "phase_store_wait_calls": ("counter", "Engine store-wait laps"),
    "trace_events_emitted": ("counter", "Trace records emitted to the ring"),
    "trace_events_dropped": ("counter", "Trace records lost to ring overflow"),
    "slots_total": ("gauge", "RAM slot capacity m of the store"),
    "slots_occupied": ("gauge", "Slots currently holding a vector"),
    "slots_dirty": ("gauge", "Occupied slots with unpersisted modifications"),
    "writeback_queue_depth": ("gauge", "Items staged but not yet durable"),
    "compress_heap_leaked_bytes": ("gauge", "Heap capacity stranded by "
                                           "grow-rewrites, reclaimable by "
                                           "compact()"),
    "loads_inflight": ("gauge", "Slot loads (demand or prefetch) in flight"),
    "prefetch_untouched": ("gauge", "Prefetched residents awaiting first use"),
    "backing_read_seconds": ("histogram", "Physical backing-store read latency"),
    "backing_write_seconds": ("histogram", "Physical backing-store write latency"),
    "writeback_drain_seconds": ("histogram", "Write-behind drain latency"),
    "store_wait_seconds": ("histogram", "Compute-thread wait per store.get"),
    "swap_hidden_seconds": ("histogram", "Device seconds one overlapped swap "
                                         "hid (write + read - elapsed)"),
}

#: Counters carrying a label set instead of one scalar series. They are
#: updated through :meth:`MetricsRegistry.inc_labeled` only; the plain
#: :meth:`~MetricsRegistry.inc`/:meth:`~MetricsRegistry.counter_set` API
#: rejects them so an unlabelled zero sample can never shadow the
#: per-label series. Summing a labelled counter over its labels must
#: reproduce the unsharded total (the bench cross-check enforces this).
LABELED_COUNTERS = frozenset({
    "backing_reads",
    "backing_writes",
    "backing_bytes_read",
    "backing_bytes_written",
})

#: Gauges carrying a label set instead of one scalar series, updated via
#: :meth:`MetricsRegistry.gauge_set_labeled` only (same shadowing
#: argument as :data:`LABELED_COUNTERS`). Unlike labelled counters these
#: are live values, so the exposition renders every label set as its own
#: sample and :meth:`MetricsRegistry.value` sums them (total in-flight
#: across shards is the number the admission story cares about).
LABELED_GAUGES = frozenset({
    "shard_inflight",
    "shard_oldest_pending_seconds",
})

#: Prefix prepended to every metric name in the text exposition.
PROM_PREFIX = "repro_"


def _label_key(labels: dict[str, str]) -> str:
    """Canonical Prometheus label rendering, e.g. ``shard="3"``."""
    return ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))


def _fmt(value: float) -> str:
    """Prometheus sample value: integers stay integral, floats use repr."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class MetricsRegistry:
    """One process-local registry over the frozen catalogue.

    Build one with :class:`repro.obs.Observer` (``metrics=True``, or pass
    an instance to share it), then read it programmatically
    (:meth:`snapshot`, :meth:`value`) or serve it over HTTP
    (:class:`repro.obs.server.MetricsServer`). Default off everywhere:
    components hold ``obs = None`` until an observer is attached, and
    every push site is a single ``is None`` test.
    """

    def __init__(self) -> None:
        self._kinds = {name: kind for name, (kind, _) in
                       METRIC_EXPOSITION.items()}
        self._counters: dict[str, int | float] = {
            name: 0 for name, kind in self._kinds.items()
            if kind == "counter" and name not in LABELED_COUNTERS}
        # Labelled counter series: name -> {rendered label set -> value}.
        # Update discipline matches the scalar slots: one writing
        # component per (name, label) pair (e.g. the shard-s receiver
        # thread owns every {shard="s"} series), values are GIL-atomic
        # dict slots.
        self._labeled: dict[str, dict[str, int | float]] = {
            name: {} for name in LABELED_COUNTERS}
        self._labeled_gauges: dict[str, dict[str, int | float]] = {
            name: {} for name in LABELED_GAUGES}
        self._gauges: dict[str, int | float] = {
            name: 0 for name, kind in self._kinds.items()
            if kind == "gauge" and name not in LABELED_GAUGES}
        self._hists: dict[str, LogHistogram] = {
            name: LogHistogram() for name, kind in self._kinds.items()
            if kind == "histogram"}
        self._collectors: list[Callable[[], None]] = []  # guarded-by: _collect_lock
        # Serialises collector callbacks (scrape-time only); push-side
        # updates stay lock-free under the single-writer-per-name rule
        # (plain GIL-atomic dict-slot stores — deliberately outside the
        # race sanitizer's scope, see the module docstring).
        self._collect_lock = make_lock("MetricsRegistry")
        self._race = race_detector()
        self._race_scope = ("" if self._race is None
                            else self._race.new_scope("MetricsRegistry"))

    # -- catalogue validation ---------------------------------------------------

    def _check(self, name: str, kind: str, *, labeled: bool = False) -> None:
        found = self._kinds.get(name)
        if found is None:
            raise OutOfCoreError(
                f"unknown metric {name!r}: not in the METRIC_NAMES catalogue")
        if found != kind:
            raise OutOfCoreError(
                f"metric {name!r} is a {found}, not a {kind}")
        is_labeled = name in LABELED_COUNTERS or name in LABELED_GAUGES
        if labeled != is_labeled:
            if found == "gauge":
                want = "gauge_set_labeled" if is_labeled else "gauge_set"
            else:
                want = "inc_labeled" if is_labeled else "inc"
            raise OutOfCoreError(
                f"metric {name!r} must be updated via {want}()")

    # -- update API (single writer per name) ------------------------------------

    def inc(self, name: str, n: int | float = 1) -> None:
        """Add ``n`` (default 1) to a counter."""
        self._check(name, "counter")
        self._counters[name] += n

    def inc_labeled(self, name: str, labels: dict[str, str],
                    n: int | float = 1) -> None:
        """Add ``n`` to one label set of a labelled counter."""
        self._check(name, "counter", labeled=True)
        series = self._labeled[name]
        key = _label_key(labels)
        series[key] = series.get(key, 0) + n

    def counter_set(self, name: str, value: int | float) -> None:
        """Set a counter to an absolute value (collector use: the caller
        derives ``value`` from a monotone source such as ``IoStats``)."""
        self._check(name, "counter")
        self._counters[name] = value

    def gauge_set(self, name: str, value: int | float) -> None:
        self._check(name, "gauge")
        self._gauges[name] = value

    def gauge_add(self, name: str, delta: int | float) -> None:
        self._check(name, "gauge")
        self._gauges[name] += delta

    def gauge_set_labeled(self, name: str, labels: dict[str, str],
                          value: int | float) -> None:
        """Set one label set of a labelled gauge (e.g. per-shard depth)."""
        self._check(name, "gauge", labeled=True)
        self._labeled_gauges[name][_label_key(labels)] = value

    def observe(self, name: str, seconds: float) -> None:
        """Record one observation into a histogram metric."""
        self._check(name, "histogram")
        self._hists[name].record(seconds)

    def merge_histogram(self, name: str, state: dict[str, Any]) -> None:
        """Merge a serialised :meth:`LogHistogram.state` delta into a
        histogram metric — the sink for worker-side latency shipped over
        ``OP_TELEMETRY``."""
        self._check(name, "histogram")
        self._hists[name].merge_state(state)

    # -- collectors (pull side) -------------------------------------------------

    def register_collector(self, fn: Callable[[], None]) -> None:
        """Register a callback run at every :meth:`collect` (idempotent)."""
        rc = self._race
        with self._collect_lock:
            if rc is not None:
                rc.write(self._race_scope, "_collectors")
            if fn not in self._collectors:
                self._collectors.append(fn)

    def unregister_collector(self, fn: Callable[[], None]) -> None:
        """Remove a collector previously registered (missing is a no-op)."""
        rc = self._race
        with self._collect_lock:
            if rc is not None:
                rc.write(self._race_scope, "_collectors")
            if fn in self._collectors:
                self._collectors.remove(fn)

    def collect(self) -> None:
        """Run every registered collector (serialised; scrape-time only)."""
        rc = self._race
        with self._collect_lock:
            if rc is not None:
                rc.read(self._race_scope, "_collectors")
            for fn in list(self._collectors):
                fn()

    # -- read API ----------------------------------------------------------------

    def value(self, name: str) -> int | float:
        """Current value of a counter or gauge (histograms: use snapshot).

        Runs the registered pull collectors first, like :meth:`snapshot`,
        so the answer reflects the live authoritative state.
        """
        self.collect()
        kind = self._kinds.get(name)
        if kind == "counter":
            if name in LABELED_COUNTERS:
                return sum(self._labeled[name].values())
            return self._counters[name]
        if kind == "gauge":
            if name in LABELED_GAUGES:
                return sum(self._labeled_gauges[name].values())
            return self._gauges[name]
        if kind == "histogram":
            raise OutOfCoreError(
                f"metric {name!r} is a histogram; read it via snapshot()")
        raise OutOfCoreError(
            f"unknown metric {name!r}: not in the METRIC_NAMES catalogue")

    def labeled(self, name: str) -> dict[str, int | float]:
        """All label sets of a labelled metric: ``{'shard="0"': value}``."""
        if name in LABELED_GAUGES:
            self._check(name, "gauge", labeled=True)
            return dict(self._labeled_gauges[name])
        self._check(name, "counter", labeled=True)
        return dict(self._labeled[name])

    def labeled_sum(self, name: str) -> int | float:
        """Sum of a labelled counter over every label set.

        This is the aggregation the bench cross-check compares against
        the store-level ``IoStats`` physical totals: the per-shard
        decomposition must account for exactly the unsharded traffic.
        """
        self._check(name, "counter", labeled=True)
        return sum(self._labeled[name].values())

    def snapshot(self) -> dict[str, Any]:
        """Collect, then return counters/gauges/histograms/labeled maps."""
        self.collect()
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": {k: self._hists[k].to_dict()
                           for k in sorted(self._hists)},
            # Labelled counters and labelled gauges share the map; the
            # name sets are disjoint by construction.
            "labeled": {
                **{k: dict(sorted(self._labeled[k].items()))
                   for k in sorted(self._labeled)},
                **{k: dict(sorted(self._labeled_gauges[k].items()))
                   for k in sorted(self._labeled_gauges)},
            },
        }

    def to_prometheus(self) -> str:
        """Collect, then render the text exposition format (version 0.0.4)."""
        self.collect()
        lines: list[str] = []
        for name in sorted(METRIC_EXPOSITION):
            kind, help_text = METRIC_EXPOSITION[name]
            full = PROM_PREFIX + name
            lines.append(f"# HELP {full} {help_text}")
            lines.append(f"# TYPE {full} {kind}")
            if kind == "counter" and name in LABELED_COUNTERS:
                for key in sorted(self._labeled[name]):
                    lines.append(
                        f"{full}{{{key}}} {_fmt(self._labeled[name][key])}")
            elif kind == "counter":
                lines.append(f"{full} {_fmt(self._counters[name])}")
            elif kind == "gauge" and name in LABELED_GAUGES:
                for key in sorted(self._labeled_gauges[name]):
                    lines.append(f"{full}{{{key}}} "
                                 f"{_fmt(self._labeled_gauges[name][key])}")
            elif kind == "gauge":
                lines.append(f"{full} {_fmt(self._gauges[name])}")
            else:
                hist = self._hists[name].to_dict()
                cumulative = 0
                for bucket in hist["buckets"]:
                    cumulative += bucket["count"]
                    lines.append(f'{full}_bucket{{le="{bucket["le"]:g}"}} '
                                 f"{cumulative}")
                lines.append(f'{full}_bucket{{le="+Inf"}} {hist["count"]}')
                lines.append(f"{full}_sum {_fmt(hist['sum'])}")
                lines.append(f"{full}_count {hist['count']}")
        return "\n".join(lines) + "\n"
