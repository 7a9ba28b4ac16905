"""Observability for the out-of-core pipeline (always available, default off).

The paper's whole evaluation is counter-driven — miss rate (Fig. 2/4),
read rate (Fig. 3), end-to-end runtime (Fig. 5) — but counters alone
cannot say *where time goes* inside a run. This package adds the missing
substrate:

* :class:`~repro.obs.tracer.Tracer` — a lock-cheap ring buffer of typed
  event records (``perf_counter`` timestamps) emitted from the store, the
  write-behind queue, the prefetcher and the backing stores;
* :class:`~repro.obs.histogram.LogHistogram` /
  :class:`~repro.obs.histogram.BackingProbe` — log-bucketed latency
  histograms for physical backing-store reads/writes and write-behind
  drains;
* per-phase timers (plan / kernel / store-wait) in
  :class:`~repro.phylo.likelihood.engine.LikelihoodEngine`, built on
  :class:`repro.utils.timing.Stopwatch`;
* exporters (:mod:`repro.obs.exporters`) — JSONL event dumps, a
  slot-occupancy timeline and the ``BENCH_profile.json`` summary driven
  by ``python -m repro.profile``;
* :class:`~repro.obs.metrics.MetricsRegistry` — typed counters, gauges
  and histograms over a frozen name catalogue, readable programmatically
  or as Prometheus text via :class:`~repro.obs.server.MetricsServer`
  (``--metrics-port``);
* :class:`~repro.obs.spans.SpanRecorder` — nested begin/end intervals
  across the compute/writeback/prefetch threads, exported as Chrome
  trace-event JSON (``--spans-out``, Perfetto-loadable).

Everything is **passive**: attaching an :class:`Observer` never changes
which slots are allocated, which victims are evicted, or any
:class:`~repro.core.stats.IoStats` counter — the demand counters of a
traced run are bit-identical to the same run untraced (enforced by
``python -m repro.profile --check-parity`` and ``tests/test_obs.py``).
Every reported name, event type and metric name is checked against its
one declaration by ``python -m repro.analysis`` (rules EVT001/MET001).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, NamedTuple

from repro.obs.exporters import (
    PROFILE_SCHEMA,
    records_to_jsonl,
    slot_timeline,
    validate_file,
    validate_profile,
)
from repro.obs.histogram import BackingProbe, LogHistogram
from repro.obs.metrics import METRIC_EXPOSITION, METRIC_NAMES, MetricsRegistry
from repro.obs.server import MetricsServer
from repro.obs.spans import SpanRecord, SpanRecorder, next_span_id
from repro.obs.tracer import EVENT_TYPES, TraceRecord, Tracer
from repro.utils.timing import Stopwatch

__all__ = [
    "ENGINE_PHASES",
    "EVENT_TYPES",
    "METRIC_EXPOSITION",
    "METRIC_NAMES",
    "BackingProbe",
    "LogHistogram",
    "MetricsRegistry",
    "MetricsServer",
    "Observer",
    "PROFILE_SCHEMA",
    "ROUTES",
    "Route",
    "SpanRecord",
    "SpanRecorder",
    "TraceRecord",
    "Tracer",
    "records_to_jsonl",
    "slot_timeline",
    "validate_file",
    "validate_profile",
]


class Route(NamedTuple):
    """Which sinks record one reported name (one row of :data:`ROUTES`)."""

    event: str | None = None   #: tracer record of this :data:`EVENT_TYPES` type
    hist: str | None = None    #: latency histogram: "read" / "write" (probe), "drain"
    metric: str | None = None  #: catalogue histogram observing the duration
    span: bool = False         #: a span carrying the reported name
    timer: str | None = None   #: engine phase-timer lap of this name
    ops: str | None = None     #: per-shard labelled counter, +1
    bytes: str | None = None   #: per-shard labelled counter, +nbytes


#: THE reporting policy: reported name -> the sinks that record it. A
#: component reports each measurement once, by name, through
#: :meth:`Observer.event` (instants) or :meth:`Observer.timed`
#: (intervals); nothing outside this package decides — or knows — which
#: sinks exist. ``python -m repro.analysis`` checks every literal at those
#: verbs against these keys and every target against ``EVENT_TYPES`` /
#: ``METRIC_NAMES`` (EVT001/MET001); DESIGN.md's table is pinned to it.
ROUTES: dict[str, Route] = {
    # -- store transitions (instants) --
    "get": Route(event="get"),
    "hit": Route(event="hit"),
    "miss": Route(event="miss"),
    "evict": Route(event="evict"),
    "read_skip": Route(event="read_skip"),
    "prefetch_hit": Route(event="prefetch_hit"),
    "writeback_enqueue": Route(event="writeback_enqueue"),
    "stall": Route(event="stall"),
    # -- store loads (instant when charged at first touch of a prefetch) --
    "demand_read": Route(event="demand_read"),
    "prefetch_issue": Route(event="prefetch_issue"),
    # -- engine phases --
    "plan": Route(timer="plan", span=True),
    "kernel": Route(timer="kernel", span=True),
    "store_wait": Route(timer="store_wait", metric="store_wait_seconds",
                        span=True),
    "execute_plan": Route(span=True),
    # -- synchronous pipeline: a miss's write-out beside its read-in; the
    # duration is the device seconds that overlap hid --
    "swap": Route(metric="swap_hidden_seconds", span=True),
    # -- asynchronous pipeline; `get` waits there for a load in flight
    # (inflight_wait), back-pressure (writeback_stall) or a read nobody
    # prefetched (the timed demand_read above) --
    "inflight_wait": Route(span=True),
    "writeback_stall": Route(event="stall", span=True),
    "writeback_drain": Route(event="writeback_drain", hist="drain",
                             metric="writeback_drain_seconds", span=True),
    "prefetch_load": Route(span=True),
    # -- physical transfers (in-process backings / sharded client side) --
    "backing_read": Route(hist="read", metric="backing_read_seconds"),
    "backing_write": Route(hist="write", metric="backing_write_seconds"),
    "shard_read": Route(hist="read", metric="backing_read_seconds", span=True,
                        ops="backing_reads", bytes="backing_bytes_read"),
    "shard_write": Route(hist="write", metric="backing_write_seconds",
                         span=True, ops="backing_writes",
                         bytes="backing_bytes_written"),
    "shard_window_wait": Route(metric="shard_window_wait_seconds", span=True),
    "shard_reply": Route(metric="shard_reply_seconds"),
}

#: Engine phase names measured by the per-phase timers: the timer column.
ENGINE_PHASES = tuple(r.timer for r in ROUTES.values() if r.timer is not None)


class Observer:
    """The one reporting seam: every sink, and the fan-out to them.

    Build one, :meth:`attach` it to a :class:`LikelihoodEngine` (or hand
    it to ``store.attach`` yourself), run the workload, then read
    :attr:`tracer` / :attr:`probe` / :attr:`drain_hist` / :attr:`timers`
    / :attr:`metrics` / :attr:`spans` or export everything with the
    summaries below. Instrumented components hold this object as their
    single ``obs`` attribute (``None`` when off — one ``is None`` test
    per site) and report through the verbs; :data:`ROUTES` decides which
    sinks record what.
    """

    def __init__(self, capacity: int = 1 << 16,
                 metrics: "MetricsRegistry | bool | None" = None,
                 spans: "SpanRecorder | bool | None" = None) -> None:
        self.tracer = Tracer(capacity)
        self.probe = BackingProbe()
        self.drain_hist = LogHistogram()
        self.timers = Stopwatch()
        # metrics / spans are opt-in: pass True to construct a fresh
        # registry/recorder, an existing instance to share one, or leave
        # None/False to keep that subsystem fully off.
        self.metrics: MetricsRegistry | None
        if metrics is True:
            self.metrics = MetricsRegistry()
        else:
            self.metrics = metrics if isinstance(metrics, MetricsRegistry) else None
        self.spans: SpanRecorder | None
        if spans is True:
            self.spans = SpanRecorder()
        else:
            self.spans = spans if isinstance(spans, SpanRecorder) else None

    def attach(self, engine: Any) -> "Observer":
        """Become ``engine``'s, its store's and its prefetcher's ``obs``."""
        engine.obs = self
        engine.store.attach(self)
        if engine.prefetcher is not None:
            engine.prefetcher.obs = self
        self.add_collector(self._collect)
        return self

    def detach(self, engine: Any) -> None:
        """Undo :meth:`attach` (collected data is kept)."""
        engine.obs = None
        engine.store.attach(None)
        if engine.prefetcher is not None:
            engine.prefetcher.obs = None
        self.remove_collector(self._collect)

    # -- reporting verbs (any thread; sinks are lock-cheap) -----------------------

    def event(self, name: str, item: int = -1, slot: int = -1) -> None:
        """Report an instant."""
        etype = ROUTES[name].event
        if etype is not None:
            self.tracer.emit(etype, item, slot)

    def timed(self, name: str, t0: float, dt: float, *, item: int = -1,
              slot: int = -1, nbytes: int = 0, span_id: int = 0,
              parent: int = 0, **args: Any) -> None:
        """Report an interval that started at ``t0`` and took ``dt`` seconds.

        ``item``/``slot`` identify the subject, ``nbytes`` what a
        transfer moved, ``span_id``/``parent`` the causal identity of
        the span (see :meth:`new_span_id`); further keywords become span
        arguments (``shard=`` also labels the per-shard counters).
        """
        route = ROUTES[name]
        if route.timer is not None:
            self.timers.add(route.timer, dt)
        if route.hist == "read":
            self.probe.record_read(dt, nbytes)
        elif route.hist == "write":
            self.probe.record_write(dt, nbytes)
        elif route.hist == "drain":
            self.drain_hist.record(dt)
        if route.event is not None:
            self.tracer.emit(route.event, item, slot, dt)
        mx = self.metrics
        if mx is not None:
            if route.metric is not None:
                mx.observe(route.metric, dt)
            if route.ops is not None and route.bytes is not None:
                label = {"shard": str(args["shard"])}
                mx.inc_labeled(route.ops, label)
                mx.inc_labeled(route.bytes, label, nbytes)
        sp = self.spans
        if sp is not None and route.span:
            if item >= 0:
                args["item"] = item
            sp.complete(name, t0, dt, args, span_id=span_id, parent=parent)

    def count(self, name: str, n: int | float = 1) -> None:
        """Add ``n`` to the catalogue counter ``name``."""
        if self.metrics is not None:
            self.metrics.inc(name, n)

    def gauge(self, name: str, value: int | float, *,
              shard: int | None = None) -> None:
        """Set the catalogue gauge ``name`` (its ``shard`` series if given)."""
        mx = self.metrics
        if mx is None:
            return
        if shard is None:
            mx.gauge_set(name, value)
        else:
            mx.gauge_set_labeled(name, {"shard": str(shard)}, value)

    def totals(self, counters: Mapping[str, int | float]) -> None:
        """Collector side: set counters to the absolute values a component
        read from its authoritative, monotone source (``IoStats``)."""
        mx = self.metrics
        if mx is not None:
            for name, value in counters.items():
                mx.counter_set(name, value)

    def merge(self, name: str, state: dict[str, Any]) -> None:
        """Merge a serialised histogram delta (a shard worker's) into the
        catalogue histogram ``name``."""
        if self.metrics is not None:
            self.metrics.merge_histogram(name, state)

    def new_span_id(self) -> int:
        """An identity for a span about to be reported, 0 with spans off."""
        return next_span_id() if self.spans is not None else 0

    def add_collector(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` at every scrape/snapshot (no-op with metrics off)."""
        if self.metrics is not None:
            self.metrics.register_collector(fn)

    def remove_collector(self, fn: Callable[[], None]) -> None:
        if self.metrics is not None:
            self.metrics.unregister_collector(fn)

    def _collect(self) -> None:
        """Pull collector: engine phase totals + tracer ring accounting.

        Registered at :meth:`attach`; the store's own collector covers
        the ``IoStats`` counters and slot gauges, this one covers what
        only the observer can see.
        """
        self.totals({
            "trace_events_emitted": self.tracer.emitted,
            "trace_events_dropped": self.tracer.dropped,
            **{f"phase_{phase}_{key}": value
               for phase, entry in self.phase_totals().items()
               for key, value in entry.items()},
        })

    # -- summaries --------------------------------------------------------------

    def phase_totals(self) -> dict[str, dict[str, float]]:
        """``{phase: {"seconds": s, "calls": n}}`` for the engine phases."""
        return {
            phase: {"seconds": self.timers.total(phase),
                    "calls": self.timers.count(phase)}
            for phase in ENGINE_PHASES
        }

    def histograms(self) -> dict[str, dict[str, Any]]:
        """JSON-ready latency histograms (reads, writes, drains)."""
        return {
            "backing_read": self.probe.read_hist.to_dict(),
            "backing_write": self.probe.write_hist.to_dict(),
            "writeback_drain": self.drain_hist.to_dict(),
        }

    def event_summary(self) -> dict[str, Any]:
        """Emission totals, ring-buffer drop count and per-type counts."""
        return {
            "emitted": self.tracer.emitted,
            "captured": len(self.tracer),
            "dropped": self.tracer.dropped,
            "by_type": self.tracer.by_type(),
        }
