"""The benchmark's own span tracer and the layer budget built from it.

Nothing in ``src/`` is edited: spans are recorded by wrapping, from this
file, the calls that cross a layer boundary — engine methods, the store's
``get``/``fill``/``drain``, the policy's ``choose_victim``, the write-behind
queue's ``put``, and (as module attributes) the public kernels,
``build_batched_schedule`` and ``lazy_spr_round`` — plus a pass-through
timing ``BackingStore`` handed to the engine at construction. A span is
``[name, start, end, parent, op, size]``; spans live in per-thread lists
in memory and are written out once, at exit.

Self time of a span is its duration minus its children on the same
thread. Only main-thread self time enters the budget, so the rows sum to
the pass wall exactly; what falls on the driver's own spans is the
unaccounted share.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import threading
import time
from bisect import bisect_right

#: span name -> layer (one row of the budget). Kernel spans are
#: ``kernels.<function>`` and map by prefix.
LAYER_OF = {
    "driver.pass": "driver",
    "driver.op": "driver",
    "engine.plan": "traversal",
    "schedule.build_batched_schedule": "schedule",
    "engine.execute_plan": "engine",
    "engine.edge_loglikelihood": "engine",
    "engine.optimize_branch": "branch_opt",
    "search.lazy_spr_round": "search",
    "engine.apply_spr": "search",
    "engine.undo_spr": "search",
    "engine.set_branch_length": "search",
    "store.get": "vecstore",
    "store.fill": "vecstore",
    "store.drain": "writebehind",
    "writeback.put": "writebehind",
    "policy.choose_victim": "policies",
    "backing.read": "backing",
    "backing.write": "backing",
    "backing.flush": "backing",
}
LAYERS = ("driver", "traversal", "schedule", "engine", "kernels", "branch_opt",
          "search", "vecstore", "policies", "writebehind", "backing")

#: ``parent`` of a span that is not stack-nested (an asynchronous backing
#: round trip, open from submit to ticket collection). Such spans count
#: toward busy seconds and latencies but never toward anyone's self time.
DETACHED = -2


def layer_of(name: str) -> str:
    return "kernels" if name.startswith("kernels.") else LAYER_OF[name]


class _ThreadState:
    __slots__ = ("spans", "stack", "in_kernel", "name")

    def __init__(self, name: str) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.in_kernel = False
        self.name = name


class SpanRecorder:
    """In-memory span sink; wrappers record only while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.op = -1                      # id of the operation in flight
        self._tls = threading.local()
        self._lock = threading.Lock()
        self.threads: list[_ThreadState] = []
        self.main = self._state()         # created on the driving thread

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            with self._lock:
                self.threads.append(state)
            self._tls.state = state
            return state

    # -- recording ---------------------------------------------------------------

    def wrap(self, name: str, fn, size=None, leaf: bool = False):
        """``fn`` with a span around each call.

        ``size(args, result)`` gives the span's work count (bytes, steps,
        candidates, pattern updates). A ``leaf`` wrapper passes straight
        through when called from inside another leaf span — the kernels
        call each other, and only the outermost call is a layer crossing.
        """
        state = self._state
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            st = state()
            if leaf:
                if st.in_kernel:
                    return fn(*args, **kwargs)
                st.in_kernel = True
            stack = st.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(st.spans))
            st.spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
                if size is not None:
                    rec[5] = size(args, out)
                return out
            finally:
                rec[2] = clock()
                stack.pop()
                if leaf:
                    st.in_kernel = False

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """An explicit span (the driver's pass and op brackets)."""
        st = self._state()
        rec = [name, 0.0, 0.0, st.stack[-1] if st.stack else -1, self.op, 0]
        st.stack.append(len(st.spans))
        st.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            st.stack.pop()

    def open_detached(self, name: str, size: int) -> list | None:
        """Start a span that outlives the call (closed by ``close_detached``)."""
        if not self.enabled:
            return None
        rec = [name, time.perf_counter(), 0.0, DETACHED, self.op, size]
        self._state().spans.append(rec)
        return rec

    @staticmethod
    def close_detached(rec: list | None) -> None:
        if rec is not None:
            rec[2] = time.perf_counter()

    # -- export --------------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as one JSON document (name, start, end, parent,
        op, size per span; parents index into the same thread's list)."""
        doc = {"threads": [
            {"thread": st.name, "main": st is self.main, "spans": st.spans}
            for st in self.threads]}
        with open(path, "w") as fh:
            json.dump(doc, fh)


# -- installing the wrappers ------------------------------------------------------


def _kernel_updates(index: int, batched: bool):
    if batched:
        return lambda args, _out: args[index].shape[0] * args[index].shape[1]
    return lambda args, _out: args[index].shape[0]


#: kernels whose call is one CLV update: which argument is the output
#: array, and whether it carries a leading member axis.
_UPDATE_KERNELS = {
    "update_clv": _kernel_updates(0, False),
    "update_clv_batch": _kernel_updates(0, True),
    "combine_and_rescale_batch": _kernel_updates(2, True),
}


def install_module_wrappers(rec: SpanRecorder, stack: contextlib.ExitStack) -> None:
    """Wrap every public kernel, the schedule builder and ``lazy_spr_round``
    (as module attributes) for ``stack``'s life."""
    from repro.phylo.likelihood import kernels, schedule
    from repro.phylo.search import spr

    def patch(module, attr, wrapped):
        original = getattr(module, attr)
        setattr(module, attr, wrapped)
        stack.callback(setattr, module, attr, original)

    for attr, fn in list(vars(kernels).items()):
        if (attr.startswith("_") or isinstance(fn, type) or not callable(fn)
                or getattr(fn, "__module__", None) != kernels.__name__):
            continue
        patch(kernels, attr, rec.wrap(f"kernels.{attr}", fn,
                                      size=_UPDATE_KERNELS.get(attr), leaf=True))
    patch(schedule, "build_batched_schedule",
          rec.wrap("schedule.build_batched_schedule",
                   schedule.build_batched_schedule))
    patch(spr, "lazy_spr_round",
          rec.wrap("search.lazy_spr_round", spr.lazy_spr_round))


def install_engine_wrappers(rec: SpanRecorder, engine,
                            stack: contextlib.ExitStack) -> None:
    """Wrap one engine's layer-boundary methods as instance attributes."""

    def patch(obj, attr, name, size=None):
        setattr(obj, attr, rec.wrap(name, getattr(obj, attr), size=size))
        stack.callback(delattr, obj, attr)

    patch(engine, "plan", "engine.plan", lambda _a, plan: len(plan.steps))
    for attr in ("execute_plan", "edge_loglikelihood", "optimize_branch",
                 "apply_spr", "undo_spr", "set_branch_length"):
        patch(engine, attr, f"engine.{attr}")
    store = engine.store
    for attr in ("get", "fill", "drain"):
        patch(store, attr, f"store.{attr}")
    patch(store.policy, "choose_victim", "policy.choose_victim",
          lambda args, _out: len(args[0]))
    if store.writeback is not None:
        patch(store.writeback, "put", "writeback.put")


class _TimedTicket:
    """An ``IoTicket`` that closes its round-trip span when collected."""

    __slots__ = ("_inner", "_span")

    def __init__(self, inner, span) -> None:
        self._inner = inner
        self._span = span

    def wait(self) -> None:
        try:
            self._inner.wait()
        finally:
            SpanRecorder.close_detached(self._span)

    @property
    def done(self) -> bool:
        return self._inner.done


class TimingBacking:
    """Pass-through ``BackingStore`` recording one span per transfer."""

    def __init__(self, inner, rec: SpanRecorder) -> None:
        self._inner = inner
        self._rec = rec
        nbytes = lambda args, _out: args[1].nbytes  # noqa: E731
        self.read = rec.wrap("backing.read", inner.read, size=nbytes)
        self.write = rec.wrap("backing.write", inner.write, size=nbytes)
        self.flush = rec.wrap("backing.flush", inner.flush)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class AsyncTimingBacking(TimingBacking):
    """Adds the split submit/collect hooks of an ``AsyncBackingStore``.

    The round trip is timed from submit to the moment the caller collects
    the ticket — what the parent process sees of the request.
    """

    def submit_read(self, item, out):
        span = self._rec.open_detached("backing.read", out.nbytes)
        return _TimedTicket(self._inner.submit_read(item, out), span)

    def submit_write(self, item, data):
        span = self._rec.open_detached("backing.write", data.nbytes)
        return _TimedTicket(self._inner.submit_write(item, data), span)


def timing_backing(inner, rec: SpanRecorder):
    """Wrap ``inner``; async hooks are exposed only if ``inner`` has them
    (consumers feature-detect ``submit_write``)."""
    if callable(getattr(inner, "submit_write", None)):
        return AsyncTimingBacking(inner, rec)
    return TimingBacking(inner, rec)


# -- the layer budget ---------------------------------------------------------------


def _self_times(spans: list[list]) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_budget(rec: SpanRecorder) -> dict:
    """The layer budget of the median traced pass.

    The pass whose wall is the (lower) median stands for the run, so the
    rows are one consistent cut: main-thread self seconds per layer sum to
    that pass's wall exactly. Returns ``{"chosen", "pass_wall_s", "self_s":
    {layer: s}, "unaccounted_frac", "span": {name: {"calls", "total_s",
    "self_s", "size"}}, "all_threads": {name: {"calls", "total_s", "size"}},
    "durations": {name: [s, ...]}}``. ``span`` is the main thread only (the
    blocking path); ``all_threads`` adds the writer/prefetch threads and
    detached round trips (busy seconds); ``durations`` pools every traced
    pass, for percentiles.
    """
    main = rec.main.spans
    passes = [s for s in main if s[0] == "driver.pass"]
    if not passes:
        raise ValueError("no driver.pass span was recorded")
    walls = [p[2] - p[1] for p in passes]
    chosen = walls.index(statistics.median_low(walls))
    starts = [p[1] for p in passes]

    def pass_of(span) -> int:
        k = bisect_right(starts, span[1]) - 1
        return k if k >= 0 and span[1] <= passes[k][2] else -1

    span_rows: dict[str, dict] = {}
    for span, self_s in zip(main, _self_times(main)):
        if span[3] == DETACHED or pass_of(span) != chosen:
            continue
        row = span_rows.setdefault(
            span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0})
        row["calls"] += 1
        row["total_s"] += span[2] - span[1]
        row["self_s"] += self_s
        row["size"] += span[5]
    all_rows: dict[str, dict] = {}
    durations: dict[str, list[float]] = {}
    for st in rec.threads:
        for span in st.spans:
            k = pass_of(span)
            if k < 0 or span[2] == 0.0:   # outside the passes / never collected
                continue
            durations.setdefault(span[0], []).append(span[2] - span[1])
            if k == chosen:
                row = all_rows.setdefault(
                    span[0], {"calls": 0, "total_s": 0.0, "size": 0})
                row["calls"] += 1
                row["total_s"] += span[2] - span[1]
                row["size"] += span[5]
    self_s = {layer: 0.0 for layer in LAYERS}
    for name, row in span_rows.items():
        self_s[layer_of(name)] += row["self_s"]
    return {
        "chosen": chosen,
        "pass_wall_s": walls[chosen],
        "self_s": self_s,
        "unaccounted_frac": self_s["driver"] / walls[chosen],
        "span": span_rows,
        "all_threads": all_rows,
        "durations": durations,
    }
