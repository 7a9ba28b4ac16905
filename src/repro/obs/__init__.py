"""Observability for the out-of-core pipeline: one seam, two sinks.

The paper's whole evaluation is counter-driven — miss rate (Fig. 2/4),
read rate (Fig. 3), end-to-end runtime (Fig. 5) — but counters alone
cannot say *where time goes* inside a run. An :class:`Observer` holds
exactly two sinks, and every measurement has one home in them:

* :class:`~repro.obs.metrics.MetricsRegistry` — typed counters, gauges
  and log-bucketed histograms (:class:`~repro.obs.histogram.LogHistogram`)
  over a frozen name catalogue: the only place a counter, a duration or
  a phase total lives. Readable programmatically or as Prometheus text
  via :class:`~repro.obs.server.MetricsServer` (``--metrics-port``);
* :class:`~repro.obs.spans.SpanRecorder` — one bounded ring of
  :class:`~repro.obs.spans.SpanRecord` rows, one per report: intervals
  (``plan``, ``kernel``, a write-behind drain, a shard request) and
  instants (``get``, ``miss``, a retry: ``dur = 0``, with their item and
  slot), across the compute/writeback/prefetch threads and, merged as
  per-process tracks, the shard workers.

Components report each measurement once, by name, through the observer's
verbs; :data:`ROUTES` — one row per reported name — says which catalogue
metric (if any) a report feeds and which ``IoStats`` counter its record
count mirrors. :mod:`repro.obs.exporters` turns the ring into a JSONL
dump and a slot-occupancy timeline and validates the ``BENCH_profile.json``
document ``python -m repro.profile`` writes; the ring itself exports
Chrome trace-event JSON (``--spans-out``, Perfetto-loadable).

Everything is **passive**: attaching an :class:`Observer` never changes
which slots are allocated, which victims are evicted, or any
:class:`~repro.core.stats.IoStats` counter — the demand counters of a
traced run are bit-identical to the same run untraced (enforced by
``python -m repro.profile --check-parity`` and ``tests/test_obs.py``).
Every reported name, mirrored counter and metric name is checked against
its one declaration by ``python -m repro.analysis`` (rules EVT001/MET001).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping, NamedTuple

from repro.obs.exporters import (
    PROFILE_SCHEMA,
    records_to_jsonl,
    slot_timeline,
    validate_file,
    validate_profile,
)
from repro.obs.histogram import LogHistogram
from repro.obs.metrics import METRIC_EXPOSITION, METRIC_NAMES, MetricsRegistry
from repro.obs.server import MetricsServer
from repro.obs.spans import SpanRecord, SpanRecorder, next_span_id

__all__ = [
    "ENGINE_PHASES",
    "METRIC_EXPOSITION",
    "METRIC_NAMES",
    "LogHistogram",
    "MetricsRegistry",
    "MetricsServer",
    "Observer",
    "PROFILE_SCHEMA",
    "ROUTES",
    "Route",
    "SpanRecord",
    "SpanRecorder",
    "records_to_jsonl",
    "slot_timeline",
    "validate_file",
    "validate_profile",
]


class Route(NamedTuple):
    """What one reported name feeds besides its ring record (a :data:`ROUTES` row)."""

    #: Catalogue metric: a histogram observes an interval's duration, a
    #: counter counts an instant.
    metric: str | None = None
    #: The ``IoStats`` counter this name's record count equals.
    mirrors: str | None = None
    ops: str | None = None     #: per-shard labelled counter, +1
    bytes: str | None = None   #: per-shard labelled counter, +nbytes


#: THE reporting policy: reported name -> what it feeds. A component
#: reports each measurement once, by name, through :meth:`Observer.event`
#: (instants) or :meth:`Observer.timed` (intervals); every report leaves
#: one record in the ring, and nothing outside this package decides — or
#: knows — where else it lands. ``python -m repro.analysis`` checks every
#: literal at those verbs against these keys, every ``mirrors`` target
#: against the ``IoStats`` counters and every metric against
#: ``METRIC_NAMES`` (EVT001/MET001); DESIGN.md's table is pinned to it.
ROUTES: dict[str, Route] = {
    # -- store transitions (instants) --
    "get": Route(mirrors="requests"),
    "hit": Route(mirrors="hits"),
    "miss": Route(mirrors="misses"),
    "evict": Route(),                     # a victim left RAM: writes + write_skips
    "read_skip": Route(mirrors="read_skips"),
    "prefetch_hit": Route(mirrors="prefetch_hits"),
    "writeback_enqueue": Route(),         # the staging step before the drain
    "stall": Route(),                     # a prefetch deferred: no evictable slot
    # -- store loads (instant when charged at first touch of a prefetch) --
    "demand_read": Route(mirrors="reads"),
    "prefetch_issue": Route(mirrors="prefetch_reads"),
    # -- engine phases --
    "plan": Route(metric="plan_seconds"),
    "kernel": Route(metric="kernel_seconds"),
    "store_wait": Route(metric="store_wait_seconds"),
    "execute_plan": Route(),
    # -- synchronous pipeline: a miss's write-out beside its read-in; the
    # duration is the device seconds that overlap hid --
    "swap": Route(metric="swap_hidden_seconds"),
    # -- asynchronous pipeline; `get` waits there for a load in flight
    # (inflight_wait), back-pressure (writeback_stall) or a read nobody
    # prefetched (the timed demand_read above) --
    "inflight_wait": Route(),
    "writeback_stall": Route(mirrors="writeback_stalls"),
    "writeback_drain": Route(metric="writeback_drain_seconds",
                             mirrors="writeback_writes"),
    "prefetch_load": Route(),
    # -- physical transfers (in-process backings / sharded client side) --
    "backing_read": Route(metric="backing_read_seconds"),
    "backing_write": Route(metric="backing_write_seconds"),
    "shard_read": Route(metric="backing_read_seconds", ops="backing_reads",
                        bytes="backing_bytes_read"),
    "shard_write": Route(metric="backing_write_seconds", ops="backing_writes",
                         bytes="backing_bytes_written"),
    "shard_window_wait": Route(metric="shard_window_wait_seconds"),
    "shard_reply_read": Route(metric="shard_reply_read_seconds"),
    "shard_reply_write": Route(metric="shard_reply_write_seconds"),
    # -- failures (instants carrying item/attempt, or shard) --
    "backing_fault": Route(metric="backing_faults"),
    "backing_retry": Route(metric="backing_retries"),
    "shard_restart": Route(metric="shard_restarts"),
}

#: The engine's phases: each reports one lap per call into its
#: ``<phase>_seconds`` catalogue histogram.
ENGINE_PHASES = ("plan", "kernel", "store_wait")


class Observer:
    """The one reporting seam: two sinks, and the fan-out to them.

    :attr:`metrics` is the registry — the only home of a counter, gauge
    or duration — and :attr:`spans` the bounded record ring, one record
    per report. Pass an existing registry or recorder to share it; any
    other value builds a fresh one (``capacity`` sizes a fresh ring).
    Build one, :meth:`attach` it to a :class:`LikelihoodEngine` (or hand
    it to ``store.attach`` yourself), run the workload, then read
    ``metrics.snapshot()`` and ``spans.records()``. Instrumented
    components hold this object as their single ``obs`` attribute
    (``None`` when unobserved — one ``is None`` test per site) and report
    through the verbs; :data:`ROUTES` decides what each report feeds.
    """

    def __init__(self, capacity: int = 1 << 16,
                 metrics: "MetricsRegistry | bool | None" = None,
                 spans: "SpanRecorder | bool | None" = None) -> None:
        self.metrics = (metrics if isinstance(metrics, MetricsRegistry)
                        else MetricsRegistry())
        self.spans = (spans if isinstance(spans, SpanRecorder)
                      else SpanRecorder(capacity))

    def attach(self, engine: Any) -> "Observer":
        """Become ``engine``'s, its store's and its prefetcher's ``obs``."""
        engine.obs = self
        engine.store.attach(self)
        if engine.prefetcher is not None:
            engine.prefetcher.obs = self
        return self

    def detach(self, engine: Any) -> None:
        """Undo :meth:`attach` (collected data is kept)."""
        engine.obs = None
        engine.store.attach(None)
        if engine.prefetcher is not None:
            engine.prefetcher.obs = None

    # -- reporting verbs (any thread; sinks are lock-cheap) -----------------------

    def event(self, name: str, item: int = -1, slot: int = -1,
              **args: Any) -> None:
        """Report an instant; further keywords (``attempt=``, ``shard=``)
        ride on its record."""
        metric = ROUTES[name].metric
        if metric is not None:
            self.metrics.inc(metric)
        self.spans.complete(name, time.perf_counter(), 0.0, args or None,
                            item=item, slot=slot)

    def timed(self, name: str, t0: float, dt: float, *, item: int = -1,
              slot: int = -1, nbytes: int = 0, span_id: int = 0,
              parent: int = 0, **args: Any) -> None:
        """Report an interval that started at ``t0`` and took ``dt`` seconds.

        ``item``/``slot`` identify the subject, ``nbytes`` what a
        transfer moved, ``span_id``/``parent`` the causal identity of
        the record (see :meth:`new_span_id`); further keywords ride on
        the record (``shard=`` also labels the per-shard counters).
        """
        route = ROUTES[name]
        mx = self.metrics
        if route.metric is not None:
            mx.observe(route.metric, dt)
        if route.ops is not None and route.bytes is not None:
            label = {"shard": str(args["shard"])}
            mx.inc_labeled(route.ops, label)
            mx.inc_labeled(route.bytes, label, nbytes)
        self.spans.complete(name, t0, dt, args or None, span_id=span_id,
                            parent=parent, item=item, slot=slot)

    def count(self, name: str, n: int | float = 1) -> None:
        """Add ``n`` to the catalogue counter ``name``."""
        self.metrics.inc(name, n)

    def gauge(self, name: str, value: int | float, *,
              shard: int | None = None) -> None:
        """Set the catalogue gauge ``name`` (its ``shard`` series if given)."""
        if shard is None:
            self.metrics.gauge_set(name, value)
        else:
            self.metrics.gauge_set_labeled(name, {"shard": str(shard)}, value)

    def totals(self, counters: Mapping[str, int | float]) -> None:
        """Collector side: set counters to the absolute values a component
        read from its authoritative, monotone source (``IoStats``)."""
        for name, value in counters.items():
            self.metrics.counter_set(name, value)

    def merge(self, name: str, state: dict[str, Any]) -> None:
        """Merge a serialised histogram delta (a shard worker's) into the
        catalogue histogram ``name``."""
        self.metrics.merge_histogram(name, state)

    def new_span_id(self) -> int:
        """An identity for a record about to be reported."""
        return next_span_id()

    def add_collector(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` at every scrape/snapshot of the registry."""
        self.metrics.register_collector(fn)

    def remove_collector(self, fn: Callable[[], None]) -> None:
        self.metrics.unregister_collector(fn)
