"""A typed metrics registry with a frozen name catalogue (Prometheus-style).

Counters, gauges and histograms for the out-of-core pipeline, declared
like the counters of :mod:`repro.core.stats`: one table,
:data:`METRIC_EXPOSITION`, whose rows carry each name's kind and help
string (the rows mirroring ``IoStats`` are generated from its field
declarations), and ``python -m repro.analysis`` rule MET001 checks
every report site against it — a typo'd metric name fails statically
*and* at runtime instead of silently vanishing from every dashboard.

Update model (hybrid push/pull, lock-cheap like the record ring):

* **pull** — components register a *collector* callback
  (:meth:`MetricsRegistry.register_collector`) that copies their
  authoritative state (``IoStats`` counters, slot occupancy, queue depth)
  into the registry at scrape/snapshot time. The hot path pays nothing:
  no per-event registry traffic, and the counters stay bit-identical to
  an uninstrumented run (passivity).
* **push** — genuinely event-shaped observations (physical I/O latency,
  engine phase laps, retries and restarts) reach
  :meth:`MetricsRegistry.observe` / :meth:`MetricsRegistry.inc` through
  the reporting component's :class:`repro.obs.Observer` (``obs.timed`` /
  ``obs.event``), a single ``is None`` test at the site.

Thread-safety follows the single-writer-per-name rule of
:class:`~repro.core.stats.IoStats`: each counter/gauge has one writing
component, values are plain (GIL-atomic) dict slots, and collectors are
serialised under one registry lock at collection time, so concurrent
scrapes observe monotone counters.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from repro.analysis.race import make_lock, race_detector
from repro.core.stats import COUNTER_HELP
from repro.errors import OutOfCoreError
from repro.obs.histogram import LogHistogram


class Metric(NamedTuple):
    """One catalogue row: the ``# TYPE`` / ``# HELP`` lines of a name."""

    kind: str   #: ``counter`` | ``gauge`` | ``histogram``
    help: str


#: THE metric catalogue, ``name -> Metric``: the closed set of legal names
#: (every registry update site must use one — analysis rule MET001, which
#: also checks each name is a Prometheus name suffix and each kind one of
#: the three) and what the text exposition says about each.
METRIC_EXPOSITION: dict[str, Metric] = {
    # -- the IoStats counters, one-to-one, from their field declarations --
    **{name: Metric("counter", text) for name, text in COUNTER_HELP.items()},
    # -- backing-tier durability/compression (pushed by the wrappers) --
    "backing_retries": Metric(
        "counter", "Backing operations retried after a transient failure"),
    "backing_faults": Metric("counter", "Faults injected into the backing tier"),
    "compress_bytes_raw": Metric(
        "counter", "Logical bytes through the compressed backing"),
    "compress_bytes_stored": Metric(
        "counter", "Physical bytes through the compressed backing"),
    "compress_compactions": Metric(
        "counter", "Heap compactions run by the compressed backing"),
    # -- live gauges --
    "slots_total": Metric("gauge", "RAM slot capacity m of the store"),
    "slots_occupied": Metric("gauge", "Slots currently holding a vector"),
    "slots_dirty": Metric("gauge", "Occupied slots with unpersisted modifications"),
    "writeback_queue_depth": Metric("gauge", "Items staged but not yet durable"),
    "compress_heap_leaked_bytes": Metric(
        "gauge", "Heap capacity stranded by grow-rewrites, reclaimable by "
                 "compact()"),
    "loads_inflight": Metric("gauge", "Slot loads (demand or prefetch) in flight"),
    "prefetch_untouched": Metric(
        "gauge", "Prefetched residents awaiting first use"),
    # -- engine phases: one observation per lap --
    "plan_seconds": Metric("histogram", "Engine time planning one traversal"),
    "kernel_seconds": Metric("histogram", "Engine time in one likelihood kernel"),
    # -- latency histograms --
    "backing_read_seconds": Metric(
        "histogram", "Physical backing-store read latency"),
    "backing_write_seconds": Metric(
        "histogram", "Physical backing-store write latency"),
    "writeback_drain_seconds": Metric("histogram", "Write-behind drain latency"),
    "store_wait_seconds": Metric(
        "histogram", "Compute-thread wait per store call (get or get_many)"),
}

METRIC_NAMES = frozenset(METRIC_EXPOSITION)

#: Prefix prepended to every metric name in the text exposition.
PROM_PREFIX = "repro_"


def _fmt(value: float) -> str:
    """Prometheus sample value: integers stay integral, floats use repr."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class MetricsRegistry:
    """One process-local registry over the frozen catalogue.

    Every :class:`repro.obs.Observer` has one (pass an instance to share
    it); read it programmatically (:meth:`snapshot`, :meth:`value`) or
    serve it over HTTP (:class:`repro.obs.server.MetricsServer`).
    Components hold ``obs = None`` until an observer is attached, and
    every push site is a single ``is None`` test.
    """

    def __init__(self) -> None:
        rows = METRIC_EXPOSITION.items()
        self._counters: dict[str, int | float] = {
            n: 0 for n, r in rows if r.kind == "counter"}
        self._gauges: dict[str, int | float] = {
            n: 0 for n, r in rows if r.kind == "gauge"}
        self._hists: dict[str, LogHistogram] = {
            n: LogHistogram() for n, r in rows if r.kind == "histogram"}
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

    def _check(self, name: str, kind: str) -> None:
        row = METRIC_EXPOSITION.get(name)
        if row is None:
            raise OutOfCoreError(
                f"unknown metric {name!r}: not in the METRIC_NAMES catalogue")
        if row.kind != kind:
            raise OutOfCoreError(
                f"metric {name!r} is a {row.kind}, not a {kind}")

    # -- update API (single writer per name) ------------------------------------

    def inc(self, name: str, n: int | float = 1) -> None:
        """Add ``n`` (default 1) to a counter."""
        self._check(name, "counter")
        self._counters[name] += n

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

    def observe(self, name: str, seconds: float) -> None:
        """Record one observation into a histogram metric."""
        self._check(name, "histogram")
        self._hists[name].record(seconds)

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
        row = METRIC_EXPOSITION.get(name)
        if row is None:
            raise OutOfCoreError(
                f"unknown metric {name!r}: not in the METRIC_NAMES catalogue")
        if row.kind == "histogram":
            raise OutOfCoreError(
                f"metric {name!r} is a histogram; read it via snapshot()")
        return (self._counters if row.kind == "counter" else self._gauges)[name]

    def snapshot(self) -> dict[str, Any]:
        """Collect, then return the counters, gauges and histograms."""
        self.collect()
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": {k: self._hists[k].to_dict()
                           for k in sorted(self._hists)},
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
            if kind == "counter":
                lines.append(f"{full} {_fmt(self._counters[name])}")
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
