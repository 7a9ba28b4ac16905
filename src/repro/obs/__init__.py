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
The event taxonomy is kept in sync with the counter registry by
``python -m repro.analysis`` (rules EVT001/EVT002).
"""

from __future__ import annotations

from typing import Any

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
from repro.obs.spans import SpanRecord, SpanRecorder
from repro.obs.tracer import EVENT_TYPES, TraceRecord, Tracer
from repro.utils.timing import Stopwatch

#: Engine phase names measured by the per-phase timers.
ENGINE_PHASES = ("plan", "kernel", "store_wait")

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
    "SpanRecord",
    "SpanRecorder",
    "TraceRecord",
    "Tracer",
    "records_to_jsonl",
    "slot_timeline",
    "validate_file",
    "validate_profile",
]


class Observer:
    """One bundle of tracer + latency histograms + phase timers.

    Build one, :meth:`attach` it to a :class:`LikelihoodEngine` (or call
    the store-level hooks yourself), run the workload, then read
    :attr:`tracer` / :attr:`probe` / :attr:`drain_hist` / :attr:`timers`
    or export everything with :meth:`summary`. Attachment is duck-typed
    so it works through store wrappers (``RecordingStoreProxy`` etc.)
    and degrades gracefully when a component is absent.
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
        """Wire this observer into ``engine``'s store / queue / backing."""
        engine.timers = self.timers
        if hasattr(engine, "spans"):
            engine.spans = self.spans
        if hasattr(engine, "metrics"):
            engine.metrics = self.metrics
        store = engine.store
        attach_tracer = getattr(store, "attach_tracer", None)
        if attach_tracer is not None:
            attach_tracer(self.tracer)
        if self.metrics is not None:
            attach_metrics = getattr(store, "attach_metrics", None)
            if attach_metrics is not None:
                attach_metrics(self.metrics)
            self.metrics.register_collector(self._collect_engine)
        backing = getattr(store, "backing", None)
        if backing is not None and hasattr(backing, "probe"):
            backing.probe = self.probe
        if backing is not None and hasattr(backing, "spans"):
            # Cross-process backings (the sharded tier) also take a span
            # recorder: worker spans merge back as per-process tracks.
            backing.spans = self.spans
        writeback = getattr(store, "writeback", None)
        if writeback is not None:
            writeback.drain_hist = self.drain_hist
            writeback.spans = self.spans
        prefetcher = getattr(engine, "prefetcher", None)
        if prefetcher is not None and hasattr(prefetcher, "spans"):
            prefetcher.spans = self.spans
        return self

    def detach(self, engine: Any) -> None:
        """Undo :meth:`attach` (collected data is kept)."""
        engine.timers = None
        if hasattr(engine, "spans"):
            engine.spans = None
        if hasattr(engine, "metrics"):
            engine.metrics = None
        store = engine.store
        attach_tracer = getattr(store, "attach_tracer", None)
        if attach_tracer is not None:
            attach_tracer(None)
        if self.metrics is not None:
            attach_metrics = getattr(store, "attach_metrics", None)
            if attach_metrics is not None:
                attach_metrics(None)
            self.metrics.unregister_collector(self._collect_engine)
        backing = getattr(store, "backing", None)
        if backing is not None and hasattr(backing, "probe"):
            backing.probe = None
        if backing is not None and hasattr(backing, "spans"):
            backing.spans = None
        writeback = getattr(store, "writeback", None)
        if writeback is not None:
            writeback.drain_hist = None
            writeback.spans = None
        prefetcher = getattr(engine, "prefetcher", None)
        if prefetcher is not None and hasattr(prefetcher, "spans"):
            prefetcher.spans = None

    def _collect_engine(self) -> None:
        """Pull collector: engine phase totals + tracer ring accounting.

        Registered with the metrics registry at :meth:`attach`; the
        store's own collector covers the ``IoStats`` counters and slot
        gauges, this one covers what only the observer can see.
        """
        mx = self.metrics
        if mx is None:
            return
        tm = self.timers
        mx.counter_set("phase_plan_seconds", tm.total("plan"))
        mx.counter_set("phase_plan_calls", tm.count("plan"))
        mx.counter_set("phase_kernel_seconds", tm.total("kernel"))
        mx.counter_set("phase_kernel_calls", tm.count("kernel"))
        mx.counter_set("phase_store_wait_seconds", tm.total("store_wait"))
        mx.counter_set("phase_store_wait_calls", tm.count("store_wait"))
        mx.counter_set("trace_events_emitted", self.tracer.emitted)
        mx.counter_set("trace_events_dropped", self.tracer.dropped)

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
