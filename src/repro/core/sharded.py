"""Sharded multi-process backing tier addressed by item hash.

The single-process backing stores serialise every transfer through one
file descriptor and one extent lock — fine for one engine, but a ceiling
for the multi-tenant service direction and for datasets far beyond RAM.
This module splits the item space across ``N`` *shard worker processes*:

* Placement is the layout layer's :func:`repro.core.layout.shard_of`
  (stable ``crc32(item) % N``), so clients, workers and a reattaching
  run after a crash all derive the identical map with no coordination.
* Each worker owns a **private** single-process store — a
  :class:`~repro.core.backing.FileBackingStore`,
  :class:`~repro.core.compress.CompressedFileBackingStore` or
  :class:`~repro.core.backing.SimulatedDiskBackingStore` — addressed by
  dense *local* ids (the rank of the item within its shard), behind a
  length-prefixed request/reply protocol over a Unix socket pair.
* The front-end :class:`ShardedBackingStore` implements the plain
  :class:`~repro.core.backing.BackingStore` protocol (``read``/``write``/
  ``flush``/``close``) *and* the async
  :class:`~repro.core.backing.AsyncBackingStore` hooks
  (``submit_read``/``submit_write`` returning a waitable ticket), so the
  write-behind queue and the prefetcher keep all shards busy
  concurrently instead of serialising through one store lock.

Wire protocol (one frame = 33-byte header + optional payload)::

    header  = <u32 req_id> <u8 opcode> <u64 item> <u32 payload_len>
              <u64 trace_id> <f64 t_send>
    opcodes = ATTACH (payload: json shard spec — build/reattach the store;
              the OK reply carries {t_recv, t_reply} worker-clock samples
              for NTP-style clock-offset calibration)
              READ   (reply DATA carries the raw item bytes)
              WRITE  (payload: raw item bytes; reply OK)
              FLUSH  (per-shard durability barrier; reply OK)
              CLOSE  (close the store and exit; reply OK)
              TELEMETRY (non-empty payload {"arm", "shard",
              "clock_offset"}: arm/disarm worker-side recording, OK
              reply carries {t_recv, t_reply} for a quiescent
              recalibration of the clock offset; empty payload: the
              DATA reply carries the worker's telemetry delta — probe
              histograms, wire-wait histograms, spans — since the
              previous pull)
    replies = OK / DATA / ERR (payload: json {type, message})

``trace_id`` and ``t_send`` are the request-scoped trace context: the
client stamps every frame with the span id allocated for the request
and its submission timestamp, so an *armed* worker attributes its disk
time to the exact client-side span that caused it (the parent merges
worker spans back as per-process tracks with Chrome flow links) and
measures the queue+wire leg against the client clock, corrected by the
calibrated offset. Unarmed workers never read either field
and record nothing — untraced runs pay only the 16 extra header bytes
per frame (pay-for-play, like every other observability hook).

Requests are matched to replies by ``req_id``, so a client may keep up
to ``window`` operations in flight per shard (bounded-window
back-pressure); frames queued together are sent with one vectored
``sendmsg`` (``write_batch``/``read_batch``). A worker is a *device
queue*, not a FIFO (:class:`_ShardWorker`): its reader thread only takes
frames off the socket, and two service lanes — one for reads, one for
writes — drive the private store concurrently, the way the in-process
write-behind and prefetch threads drive theirs. The paper prices a miss
at one device transfer (§3.2); an in-order worker charged a prefetched
read every write-behind write queued ahead of it as well. So a worker
promises the order correctness needs and no more:

* operations on the **same item** are applied in submission order (an
  operation whose item has one outstanding on the other lane follows it
  onto that lane) — the newest of two in-flight writes wins, a read
  sees the write submitted before it;
* ``ATTACH``/``FLUSH``/``CLOSE``/``TELEMETRY`` are *barriers*: served
  only after everything submitted before them was answered, and before
  anything submitted after them starts — ``FLUSH`` cannot overtake a
  write, a telemetry pull sees every earlier operation.

Operations on different items of one shard may complete in any order.

Failure model: a worker that dies (injected :class:`SimulatedCrash` on
either lane — it takes the whole process down, whatever the other lane
is doing — a test ``SIGKILL``, an OS OOM-kill) closes its socket; the client's
receiver thread observes EOF, spawns a fresh worker, replays ``ATTACH``
(the worker store reattaches its shard file — riding the ``"r+b"``
reattach semantics of the file stores) and re-issues every un-acked
request in submission order. Acked writes live in the OS page cache of
the shard file and survive the worker's death; re-issued operations are
idempotent (positioned writes of the same bytes), so a kill-and-restart
resumes bit-identically. Fault injection composes *per shard*: a fault
spec wraps each worker's store in a
:class:`~repro.core.faults.FaultInjectingBackingStore` seeded
``seed + shard``, so the PR 8 fault schedules replay deterministically
per shard; transient errors travel back as typed ``ERR`` frames and a
client-side :class:`~repro.core.faults.RetryingBackingStore` retries
them exactly as it would over a local store.

Lock hierarchy (see DESIGN.md "Concurrency model"): the per-shard
client locks (``_ShardClient._cond``, ``_ShardClient._send``) are
*leaves* — client code never acquires a store or write-behind lock, so
every edge points into this module and no cycle is possible. The
worker's three (``_ShardWorker._cond``, ``_ShardWorker._send``,
``_WorkerTelemetry._lock``) live in another process and are leaves
there: none is held across a store call or while taking another.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import signal
import socket
import struct
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Iterator, NamedTuple

import numpy as np
from numpy.typing import DTypeLike

from repro.analysis.race import make_condition, make_lock, make_thread
from repro.core.backing import make_backing
from repro.core.compress import make_codec
from repro.core.faults import FaultInjectingBackingStore, InjectedFault
from repro.core.layout import shard_items
from repro.errors import BackingStoreError
# The obs primitives are deliberately core-free (see their module
# docstrings), so importing them here cannot cycle.
from repro.obs.histogram import BackingProbe, LogHistogram
from repro.obs.spans import SpanRecord
from repro.vm.disk import DiskModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.core.layout import StorageLayout
    from repro.obs import Observer
    from repro.obs.spans import SpanRecorder

#: Frame header: req_id (u32), opcode (u8), item (u64), payload length
#: (u32), trace span id (u64), client-clock send timestamp (f64).
_HEADER = struct.Struct("<IBQIQd")

OP_ATTACH = 1
OP_READ = 2
OP_WRITE = 3
OP_FLUSH = 4
OP_CLOSE = 5
OP_TELEMETRY = 6
OP_OK = 0x80
OP_DATA = 0x81
OP_ERR = 0x82

#: Cap on buffered worker-side spans between OP_TELEMETRY pulls: bounds
#: the reply frame; overflow increments ``spans_dropped`` (honest
#: accounting, like the tracer ring).
_WORKER_SPAN_CAP = 8192

#: Worker-store kinds a shard spec may name.
WORKER_KINDS = ("file", "compressed", "simulated")

#: Serialises (socketpair -> fork -> close child end) so no forked worker
#: ever inherits a still-open child end of *another* shard's pair — which
#: would defeat EOF-based dead-worker detection for that shard.
_SPAWN_LOCK = make_lock("ShardedSpawn")


#: A frame payload: anything ``memoryview`` presents as flat bytes.
_Buffer = bytes | bytearray | memoryview | np.ndarray


def _recv_into(sock: socket.socket, view: memoryview) -> bool:
    """Fill ``view`` from the socket; ``False`` on EOF (peer died or closed)."""
    while len(view):
        try:
            k = sock.recv_into(view)
        except InterruptedError:
            continue
        if k == 0:
            return False
        view = view[k:]
    return True


def _recv_exact(sock: socket.socket, n: int) -> bytearray | None:
    """Read exactly ``n`` bytes; ``None`` on EOF (peer died or closed).

    The receive buffer itself is returned — no second copy of a payload.
    """
    buf = bytearray(n)
    return buf if _recv_into(sock, memoryview(buf)) else None


def _sendmsg_all(sock: socket.socket, buffers: list[_Buffer]) -> None:
    """Vectored send of all buffers (one syscall when the kernel allows)."""
    views = [memoryview(b) for b in buffers if len(b)]
    while views:
        try:
            sent = sock.sendmsg(views)
        except InterruptedError:
            continue
        while sent:
            if sent >= len(views[0]):
                sent -= len(views[0])
                views.pop(0)
            else:
                views[0] = views[0][sent:]
                sent = 0


def _frame(req: int, op: int, item: int, payload: _Buffer,
           trace: int = 0, t_send: float = 0.0) -> list[_Buffer]:
    return [_HEADER.pack(req, op, item, len(payload), trace, t_send),
            payload]


def _err_payload(exc: BaseException) -> bytes:
    return json.dumps({"type": type(exc).__name__,
                       "message": str(exc)}).encode()


def _map_error(payload: bytes | bytearray) -> BackingStoreError:
    """Rehydrate a worker-side error into the client's exception taxonomy.

    ``InjectedFault`` keeps its type so a client-side
    :class:`~repro.core.faults.RetryingBackingStore` treats it as
    transient; everything else is a plain :class:`BackingStoreError`.
    """
    try:
        doc = json.loads(payload.decode())
        kind, message = str(doc["type"]), str(doc["message"])
    except (ValueError, KeyError, UnicodeDecodeError):
        kind, message = "BackingStoreError", payload.decode(errors="replace")
    if kind == "InjectedFault":
        return InjectedFault(message)
    return BackingStoreError(f"shard worker {kind}: {message}")


# -- worker side (runs in the forked child) ----------------------------------


def _build_worker_store(spec: dict[str, Any]) -> Any:
    """Instantiate a shard's private store from its json spec.

    Reattaching is the store constructors' own behaviour: an existing
    shard file is opened ``"r+b"`` with its contents intact, which is
    what makes worker restart transparent.
    """
    kind = spec["kind"]
    options: dict[str, Any] = {}
    if kind == "compressed":
        options["codec"] = make_codec(str(spec.get("codec") or "zlib:6"))
    elif kind == "simulated":
        disk = spec.get("disk")
        if disk:
            options["disk"] = DiskModel(float(disk[0]), float(disk[1]))
        options["sleep"] = bool(spec.get("sleep"))
    inner: Any = make_backing(
        kind, int(spec["num_items"]),
        tuple(int(d) for d in spec["item_shape"]),
        np.dtype(str(spec["dtype"])), path=spec["path"], **options)
    fault = spec.get("fault")
    if fault:
        inner = FaultInjectingBackingStore(inner, **fault)
    return inner


class _WorkerTelemetry:
    """Worker-process-side probe + span state (exists only while armed).

    Both service lanes record into it, so every recording and the drain
    run under ``_lock`` (a leaf: nothing else is acquired inside it).
    Span ids are allocated under the same lock from a shard-salted range
    disjoint from the parent's :func:`repro.obs.spans.next_span_id`
    values, so merged timelines never alias.
    """

    def __init__(self, shard: int, clock_offset: float) -> None:
        self._lock = threading.Lock()
        self.probe = BackingProbe()                   # guarded-by: _lock
        self.wire_read = LogHistogram()               # guarded-by: _lock
        self.wire_write = LogHistogram()              # guarded-by: _lock
        self.spans: list[list[Any]] = []              # guarded-by: _lock
        self.spans_dropped = 0                        # guarded-by: _lock
        self._next_span = ((int(shard) + 1) << 40) + 1  # guarded-by: _lock
        # Re-set by the reader at a barrier only: no lane is recording.
        self.clock_offset = float(clock_offset)

    def op(self, kind: str, dt: float, nbytes: int, t_recv: float,
           t_send: float, parent: int, item: int) -> None:  # thread: shard-lane
        """Record one successful ``kind`` ("read"/"write") operation:
        disk latency ``dt``, the wire leg before it, and its span."""
        with self._lock:
            wire = t_recv - (t_send + self.clock_offset)
            if kind == "read":
                self.probe.record_read(dt, nbytes)
                self.wire_read.record(wire)
            else:
                self.probe.record_write(dt, nbytes)
                self.wire_write.record(wire)
            if len(self.spans) >= _WORKER_SPAN_CAP:
                self.spans_dropped += 1
                return
            sid = self._next_span
            self._next_span += 1
            self.spans.append([f"shard_disk_{kind}", t_recv,
                               time.perf_counter() - t_recv, sid, parent,
                               int(item)])

    def drain(self) -> bytes:
        """The telemetry delta since the previous drain, as a JSON frame."""
        with self._lock:
            doc = {
                "probe": self.probe.drain_state(),
                "wire_read": self.wire_read.drain_state(),
                "wire_write": self.wire_write.drain_state(),
                "spans": self.spans,
                "spans_dropped": self.spans_dropped,
            }
            self.spans = []
            self.spans_dropped = 0
        return json.dumps(doc).encode()


def _clock_bracket(t_recv: float) -> bytes:
    """Worker-clock samples bracketing one exchange, for the client's
    NTP-style offset calibration (``_ShardClient._calibrate``)."""
    return json.dumps({"t_recv": t_recv,
                       "t_reply": time.perf_counter()}).encode()


class _Request(NamedTuple):
    """One received frame, as the reader hands it to a lane."""

    req: int
    op: int
    item: int
    payload: bytes | bytearray
    trace: int
    t_send: float
    t_recv: float


class _ShardWorker:
    """One shard's device queue (lives in the forked child); the module
    docstring states the ordering contract it keeps, and why.

    Three threads. The *reader* (the process's main thread) takes frames
    off the socket and never touches the device, so the client's sends
    never wait behind a transfer; it serves the barrier frames itself,
    once everything received before them has been answered. Two
    *service lanes* — one for ``OP_READ``, one for ``OP_WRITE``, each a
    FIFO — call the private store, which every worker kind allows from
    concurrent threads (positioned file I/O, the compressed store under
    its own lock, the simulated device). An operation whose item still
    has one outstanding on the other lane follows it onto that lane.

    Replies go out under ``_send`` as operations finish. Operation
    errors become typed ERR replies; a ``SimulatedCrash`` on either lane
    is a hard ``os._exit`` of the whole worker — modelling SIGKILL, with
    no flush and no index republication — which the parent observes as
    EOF.

    Telemetry is recorded only while armed (OP_TELEMETRY control frame)
    and only for *successful* operations, so worker-side histogram
    counts equal client-side completion counts equal the store-level
    physical I/O totals — the bit-exact cross-check ``--attribution``
    and the bench enforce.

    Locks (both leaves; never held together, never across a store call):
    ``_cond`` — lane queues and outstanding counts; ``_send`` — one reply
    frame at a time on the socket. They are plain ``threading``
    primitives, not the sanitizer factories: the detector's own state
    is forked mid-flight from a threaded parent and must not be entered
    here.
    """

    def __init__(self, conn: socket.socket) -> None:
        self.conn = conn
        # Written by the reader at a barrier only — no lane is serving
        # then, and ``_cond`` orders the write before the next dispatch.
        # Item geometry comes from the ATTACH spec, not the store object:
        # not every backing implementation exposes shape/dtype attributes.
        self.store: Any = None
        self.telemetry: _WorkerTelemetry | None = None
        self.shape: tuple[int, ...] = ()
        self.dtype = np.dtype(np.float64)
        self._send = threading.Lock()
        self._cond = threading.Condition(threading.Lock())
        self._lanes: dict[int, deque[_Request]] = {   # guarded-by: _cond
            OP_READ: deque(), OP_WRITE: deque()}
        # item -> [the lane its outstanding operations queue on, how many].
        self._busy: dict[int, list[Any]] = {}         # guarded-by: _cond
        self._outstanding = 0                         # guarded-by: _cond

    # -- reader (main thread) -------------------------------------------------

    def run(self) -> None:
        """Serve the request stream until CLOSE or parent EOF."""
        for op, name in ((OP_READ, "read"), (OP_WRITE, "write")):
            threading.Thread(target=self._lane_loop, args=(op,),
                             daemon=True, name=f"shard-lane-{name}").start()
        try:
            while True:
                hdr = _recv_exact(self.conn, _HEADER.size)
                if hdr is None:
                    break
                req, op, item, length, trace, t_send = _HEADER.unpack(hdr)
                t_recv = (time.perf_counter()
                          if self.telemetry is not None
                          or op in (OP_ATTACH, OP_TELEMETRY) else 0.0)
                payload = _recv_exact(self.conn, length) if length else b""
                if payload is None:
                    break
                request = _Request(req, op, item, payload, trace, t_send,
                                   t_recv)
                if op in (OP_READ, OP_WRITE):
                    self._dispatch(request)
                else:
                    self._quiesce()
                    if self._control(request):
                        return
        except OSError:
            pass  # parent went away mid-frame; nothing left to reply to
        finally:
            # What was received is applied before the store closes, as
            # an in-order worker would have left it.
            self._quiesce()
            with contextlib.suppress(Exception):
                self.conn.close()
            if self.store is not None:
                with contextlib.suppress(Exception):
                    self.store.close()

    def _dispatch(self, request: _Request) -> None:
        """Queue a READ/WRITE on its lane — or behind its item."""
        with self._cond:
            slot = self._busy.setdefault(
                request.item, [self._lanes[request.op], 0])
            slot[0].append(request)
            slot[1] += 1
            self._outstanding += 1
            self._cond.notify_all()

    def _quiesce(self) -> None:
        """Barrier: return once every dispatched operation was answered."""
        with self._cond:
            while self._outstanding:
                self._cond.wait()

    def _control(self, request: _Request) -> bool:
        """Serve one barrier frame (lanes idle); True once CLOSE is done."""
        req, op, item, payload, _trace, _t_send, t_recv = request
        stop = False
        reply_op: int = OP_OK
        reply: bytes = b""
        try:
            if op == OP_ATTACH:
                if self.store is not None:
                    self.store.close()
                spec = json.loads(payload.decode())
                self.shape = tuple(int(d) for d in spec["item_shape"])
                self.dtype = np.dtype(str(spec["dtype"]))
                self.store = _build_worker_store(spec)
                self.telemetry = None  # a fresh worker starts disarmed
                # Handshake: bracket the attach for offset calibration.
                reply = _clock_bracket(t_recv)
            elif op == OP_TELEMETRY:
                if payload:
                    ctl = json.loads(payload.decode())
                    offset = float(ctl.get("clock_offset", 0.0))
                    if not ctl.get("arm"):
                        self.telemetry = None
                    elif self.telemetry is None:
                        self.telemetry = _WorkerTelemetry(
                            int(ctl.get("shard", 0)), offset)
                    else:
                        self.telemetry.clock_offset = offset
                    # Control replies bracket a quiescent exchange — a
                    # far tighter calibration sample than ATTACH, which
                    # races worker startup.
                    reply = _clock_bracket(t_recv)
                else:
                    reply_op = OP_DATA
                    reply = (b"{}" if self.telemetry is None
                             else self.telemetry.drain())
            elif self.store is None:
                raise BackingStoreError("shard worker is not attached")
            elif op == OP_FLUSH:
                self.store.flush()
            elif op == OP_CLOSE:
                self.store.close()
                stop = True
            else:
                raise BackingStoreError(f"unknown opcode {op}")
        except Exception as exc:  # noqa: BLE001 - becomes a typed ERR frame
            reply_op, reply = OP_ERR, _err_payload(exc)
        self._reply(req, reply_op, item, reply)
        return stop

    # -- service lanes --------------------------------------------------------

    def _lane_loop(self, lane: int) -> None:  # thread: shard-lane
        try:
            while True:
                with self._cond:
                    queue = self._lanes[lane]
                    while not queue:
                        self._cond.wait()
                    request = queue.popleft()
                reply_op, reply = self._serve(request)
                # Applied: free the item before the client can hear of
                # it, or its next operation would still find the item
                # busy and queue on this lane for no reason.
                with self._cond:
                    slot = self._busy[request.item]
                    slot[1] -= 1
                    if not slot[1]:
                        del self._busy[request.item]
                self._reply(request.req, reply_op, request.item, reply)
                # Answered: only now may a barrier behind it go ahead.
                with self._cond:
                    self._outstanding -= 1
                    if not self._outstanding:
                        self._cond.notify_all()
        except BaseException:
            # SimulatedCrash — or a lane that cannot go on: die like
            # SIGKILL, no cleanup. The client restarts a dead worker; it
            # would wait forever on one with a dead lane.
            os._exit(1)

    def _serve(self, request: _Request) -> tuple[int, _Buffer]:  # thread: shard-lane
        """One transfer against the private store; ``(reply op, payload)``."""
        _req, op, item, payload, trace, t_send, t_recv = request
        store, telemetry = self.store, self.telemetry
        t_op = time.perf_counter() if telemetry is not None else 0.0
        reply: _Buffer = b""
        try:
            if store is None:
                raise BackingStoreError("shard worker is not attached")
            if op == OP_READ:
                out = np.empty(self.shape, dtype=self.dtype)
                store.read(int(item), out)
                # The reply is the array's own bytes, not a copy of them.
                reply = out.reshape(-1).view(np.uint8)
            else:
                store.write(int(item), np.frombuffer(
                    payload, dtype=self.dtype).reshape(self.shape))
        except Exception as exc:  # noqa: BLE001 - becomes a typed ERR frame
            return OP_ERR, _err_payload(exc)
        if telemetry is not None:
            # One of the two payloads is empty: the sum is the transfer.
            telemetry.op("read" if op == OP_READ else "write",
                         time.perf_counter() - t_op,
                         len(payload) + len(reply), t_recv, t_send, trace,
                         item)
        return (OP_DATA if op == OP_READ else OP_OK), reply

    def _reply(self, req: int, reply_op: int, item: int,
               payload: _Buffer) -> None:
        # Armed replies carry the worker-clock send time, so the client
        # can split off the reply-wire leg.
        t_out = time.perf_counter() if self.telemetry is not None else 0.0
        with self._send, contextlib.suppress(OSError):
            # A vanished parent is the reader's to notice (EOF).
            _sendmsg_all(self.conn,
                         _frame(req, reply_op, item, payload, 0, t_out))


def _shard_worker_main(conn: socket.socket) -> None:
    """Process target: serve one shard until CLOSE or parent EOF."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent owns Ctrl-C
    _ShardWorker(conn).run()


# -- client side --------------------------------------------------------------


class _Pending:
    """One in-flight request: the re-issue record and the completion cell."""

    __slots__ = ("req", "op", "item", "payload", "out", "done", "error",
                 "t0", "trace", "parent", "result")

    def __init__(self, req: int, op: int, item: int, payload: bytes,
                 out: np.ndarray | None, trace: int = 0,
                 parent: int = 0) -> None:
        self.req = req
        self.op = op
        self.item = item
        self.payload = payload
        self.out = out
        self.done = False                        # set under the owning client's _cond
        self.error: BaseException | None = None  # set under the owning client's _cond
        self.t0 = 0.0
        self.trace = trace   # span id for this request (0 = untraced)
        self.parent = parent  # causing span id (write-behind/prefetch scope)
        self.result: bytes | bytearray | None = None  # OP_TELEMETRY pull reply


class ShardTicket:
    """Waitable handle for one submitted shard operation."""

    __slots__ = ("_client", "_entry")

    def __init__(self, client: "_ShardClient", entry: _Pending) -> None:
        self._client = client
        self._entry = entry

    def wait(self) -> None:
        """Block until the operation completed; re-raise its error."""
        self._client.wait(self._entry)

    @property
    def done(self) -> bool:
        return self._client.is_done(self._entry)


class _ShardClient:
    """Front-end endpoint for one shard worker process.

    Owns the socket, the worker process handle, the pending-request map
    and a receiver thread that matches replies, fills read buffers, and
    transparently restarts a dead worker (re-ATTACH + re-issue of every
    pending request in submission order).

    Locks (both leaves of the global hierarchy):

    * ``_cond`` — pending map, window accounting, restart/close state;
    * ``_send`` — serialises ``sendmsg`` so frames from concurrent
      submitters never interleave mid-frame. Never held together with
      ``_cond``.
    """

    def __init__(self, owner: "ShardedBackingStore", shard: int,
                 spec: dict[str, Any], window: int) -> None:
        self.owner = owner
        self.shard = int(shard)
        self.spec = dict(spec)
        self.window = int(window)
        self.restarts = 0                           # guarded-by: _cond
        self.reads_completed = 0                    # guarded-by: _cond
        self.writes_completed = 0                   # guarded-by: _cond
        self.bytes_read = 0                         # guarded-by: _cond
        self.bytes_written = 0                      # guarded-by: _cond
        # Worker-clock minus client-clock offset, calibrated from the
        # ATTACH handshake and refined by every telemetry-control round
        # trip (single writer: the receiver thread; float reads
        # elsewhere are GIL-atomic).
        self.clock_offset = 0.0
        self._cond = make_condition(make_lock("ShardClient"))
        self._send = make_lock("ShardClient.send")
        self._pending: dict[int, _Pending] = {}     # guarded-by: _cond
        self._next_req = 0                          # guarded-by: _cond
        self._restarting = False                    # guarded-by: _cond
        self._closing = False                       # guarded-by: _cond
        self._fatal: BaseException | None = None    # guarded-by: _cond
        self._sock: socket.socket | None = None
        self._proc: multiprocessing.process.BaseProcess | None = None
        self._receiver: Any = None
        self._spawn()
        # The ATTACH handshake doubles as liveness + geometry validation.
        self.wait(self._submit_attach())

    # -- process lifecycle ----------------------------------------------------

    def _spawn(self) -> None:
        ctx = multiprocessing.get_context("fork")
        with _SPAWN_LOCK:
            parent, child = socket.socketpair()
            proc = ctx.Process(target=_shard_worker_main, args=(child,),
                               daemon=True, name=f"shard-worker-{self.shard}")
            proc.start()
            child.close()
        self._sock = parent
        self._proc = proc
        self._receiver = make_thread(
            lambda: self._receiver_loop(parent), daemon=True,
            name=f"shard-recv-{self.shard}")
        self._receiver.start()

    def worker_pid(self) -> int:
        """PID of the current worker process (test/diagnostic use)."""
        proc = self._proc
        if proc is None or proc.pid is None:
            raise BackingStoreError(f"shard {self.shard} has no worker")
        return proc.pid

    def kill_worker(self) -> None:
        """SIGKILL the worker (crash testing); the receiver restarts it."""
        os.kill(self.worker_pid(), signal.SIGKILL)

    # -- submission -----------------------------------------------------------

    def _submit_attach(self) -> _Pending:
        payload = json.dumps(self.spec).encode()
        return self.submit(OP_ATTACH, 0, payload, None)

    def submit(self, op: int, item: int, payload: bytes,
               out: np.ndarray | None, trace: int = 0,
               parent: int = 0) -> _Pending:
        """Register one request and send its frame (bounded-window)."""
        return self.submit_many([(op, item, payload, out, trace, parent)])[0]

    def submit_many(self, ops: list[tuple[int, int, bytes, np.ndarray | None,
                                          int, int]]) -> list[_Pending]:
        """Register a batch and send its frames with one vectored call —
        one per window-full for a batch larger than the free window.

        Blocks while the in-flight window is full or a restart is
        replaying the pending map. If the worker dies between
        registration and send, the restart path re-issues the entries
        from the pending map — a duplicate frame is harmless because the
        worker's operations are idempotent and the receiver drops
        replies whose ``req_id`` is no longer pending.

        When telemetry is armed, time stalled on the full window is
        measured (it is a stage of end-to-end request latency the
        per-request ``t0`` clock deliberately excludes) and reported to
        the owner after the lock is released.
        """
        entries: list[_Pending] = []
        armed = self.owner.obs is not None
        stall_start = 0.0
        stalled = 0.0
        while len(entries) < len(ops):
            first = len(entries)
            with self._cond:
                while (self._restarting
                       or len(self._pending) >= self.window):
                    if self._fatal is not None:
                        raise BackingStoreError(
                            f"shard {self.shard} worker unrecoverable"
                        ) from self._fatal
                    t_wait = time.perf_counter() if armed else 0.0
                    self._cond.wait()
                    if armed:
                        if stall_start == 0.0:
                            stall_start = t_wait
                        stalled += time.perf_counter() - t_wait
                if self._fatal is not None:
                    raise BackingStoreError(
                        f"shard {self.shard} worker unrecoverable"
                    ) from self._fatal
                if self._closing:
                    raise BackingStoreError("sharded backing store is closed")
                # Register what the free window holds and put it on the
                # wire before waiting again: the window only reopens for
                # the rest of a larger batch once its head was sent.
                room = self.window - len(self._pending)
                for op, item, payload, out, trace, parent in \
                        ops[first:first + room]:
                    req = self._next_req
                    self._next_req = (self._next_req + 1) % (1 << 32)
                    entry = _Pending(req, op, item, payload, out, trace,
                                     parent)
                    entry.t0 = time.perf_counter()
                    self._pending[req] = entry
                    entries.append(entry)
                sock = self._sock
            frames: list[_Buffer] = []
            for entry in entries[first:]:
                # t_send is the registration timestamp already on the
                # entry — the trace context rides along with no extra
                # clock reads.
                frames.extend(_frame(entry.req, entry.op, entry.item,
                                     entry.payload, entry.trace, entry.t0))
            try:
                with self._send:
                    assert sock is not None
                    _sendmsg_all(sock, frames)
            except OSError:
                pass  # worker died mid-send; restart re-issues from _pending
        if stalled > 0.0:
            self.owner._note_window_wait(self.shard, stall_start, stalled)
        return entries

    def wait(self, entry: _Pending) -> None:
        with self._cond:
            while not entry.done:
                self._cond.wait()
            if entry.error is not None:
                raise entry.error

    def is_done(self, entry: _Pending) -> bool:
        with self._cond:
            return entry.done

    # -- receiver thread ------------------------------------------------------

    def _receiver_loop(self, sock: socket.socket) -> None:  # thread: shard-recv
        try:
            while True:
                hdr = _recv_exact(sock, _HEADER.size)
                if hdr is None:
                    break
                req, op, _item, length, _trace, t_send = _HEADER.unpack(hdr)
                dest = self._read_destination(req, op, length)
                payload: bytes | bytearray | None
                if dest is not None:
                    # A read's data lands in its caller's buffer directly.
                    # Torn by a worker death, it is re-read by the replay.
                    if not _recv_into(sock, dest):
                        break
                    payload = None
                else:
                    payload = _recv_exact(sock, length) if length else b""
                    if payload is None:
                        break
                self._complete(req, op, payload, t_send)
        except OSError:
            pass
        with self._cond:
            if self._closing:
                return
        self._restart(sock)

    def _read_destination(self, req: int, op: int,
                          length: int) -> memoryview | None:
        """The caller's buffer, if this reply is a pending read's data of
        exactly its size. Only this thread retires entries, so the one
        found here is still the one :meth:`_complete` pops."""
        if op != OP_DATA:
            return None
        with self._cond:
            entry = self._pending.get(req)
        if entry is None or entry.op != OP_READ or entry.out is None:
            return None
        flat = entry.out.reshape(-1).view(np.uint8)
        return memoryview(flat) if flat.size == length else None

    def _complete(self, req: int, op: int,
                  payload: bytes | bytearray | None, t_send: float) -> None:
        """Retire ``req``; ``payload`` is ``None`` when a read's data was
        already received into its destination."""
        with self._cond:
            entry = self._pending.pop(req, None)
        if entry is None:
            return  # duplicate reply after a restart re-issue
        error: BaseException | None = None
        if payload is None:
            pass  # a read whose data is already in entry.out
        elif op == OP_ERR:
            error = _map_error(payload)
        elif entry.op == OP_ATTACH and payload:
            self._calibrate(entry, payload)
        elif entry.op == OP_TELEMETRY:
            if entry.payload and payload:
                # Arm/disarm control round trip: its OK reply carries a
                # fresh timestamp bracket — recalibrate on it.
                self._calibrate(entry, payload)
            else:
                entry.result = payload
        elif entry.op == OP_READ and entry.out is not None:
            error = BackingStoreError(
                f"shard {self.shard} returned {len(payload)} bytes "
                f"for item {entry.item}, expected {entry.out.nbytes}")
        t_done = time.perf_counter()
        dt = t_done - entry.t0
        if error is None and entry.op in (OP_READ, OP_WRITE):
            self._account(entry, dt)
            if t_send > 0.0:
                # Reply-wire leg (armed workers only stamp t_send): worker
                # send, converted to the client clock, to this receive.
                self.owner._record_reply(
                    entry.op, t_done, t_done - (t_send - self.clock_offset))
        with self._cond:
            entry.error = error
            entry.done = True
            self._cond.notify_all()

    def _calibrate(self, entry: _Pending,
                   payload: bytes | bytearray) -> None:
        """NTP-style clock offset from a timestamped round trip.

        ``offset = worker_mid - client_mid`` where each midpoint halves
        the request/reply bracket on its own clock. On Linux,
        ``perf_counter`` is CLOCK_MONOTONIC and fork-shared, so the
        offset is ~0; the calibration matters on platforms (or future
        spawn-based workers) where the clocks do not share an epoch.
        """
        try:
            doc = json.loads(payload.decode())
            worker_mid = (float(doc["t_recv"]) + float(doc["t_reply"])) / 2.0
        except (ValueError, KeyError, UnicodeDecodeError):
            return
        client_mid = (entry.t0 + time.perf_counter()) / 2.0
        self.clock_offset = worker_mid - client_mid

    # -- telemetry control (parent side) --------------------------------------

    def set_telemetry(self, armed: bool) -> None:
        """Arm or disarm worker-side recording (synchronous round trips).

        Arming takes two round trips: the first reply's timestamp
        bracket recalibrates :attr:`clock_offset` under quiescent
        conditions (the ATTACH-time estimate races worker startup and
        can be off by the whole fork latency), the second ships the
        refined offset to the worker for its wire-leg measurements.
        """
        for _ in range(2 if armed else 1):
            ctl = json.dumps({
                "arm": bool(armed),
                "shard": self.shard,
                "clock_offset": self.clock_offset,
            }).encode()
            self.wait(self.submit(OP_TELEMETRY, 0, ctl, None))

    def pull_telemetry(self) -> dict[str, Any]:
        """Fetch-and-reset the worker's telemetry delta (empty if unarmed)."""
        entry = self.submit(OP_TELEMETRY, 0, b"", None)
        self.wait(entry)
        doc = json.loads((entry.result or b"{}").decode())
        return doc if isinstance(doc, dict) else {}

    def _account(self, entry: _Pending, dt: float) -> None:
        """Per-shard accounting for one *successful* read/write.

        Only completions count — a faulted attempt that will be retried
        must not inflate the per-shard labels, or their sums stop
        matching the store-level physical I/O counters.
        """
        nbytes = self.owner.item_bytes
        with self._cond:
            if entry.op == OP_READ:
                self.reads_completed += 1
                self.bytes_read += nbytes
            else:
                self.writes_completed += 1
                self.bytes_written += nbytes
        ob = self.owner.obs
        if ob is not None:
            ob.timed("shard_read" if entry.op == OP_READ else "shard_write",
                     entry.t0, dt, item=entry.item, nbytes=nbytes,
                     span_id=entry.trace, parent=entry.parent,
                     shard=self.shard)

    # -- restart --------------------------------------------------------------

    def _restart(self, dead_sock: socket.socket) -> None:
        """Replace a dead worker and re-issue every pending request."""
        with self._cond:
            if self._closing or self._fatal is not None:
                return
            self._restarting = True
            self.restarts += 1
            pending = list(self._pending.values())  # submission order
        with contextlib.suppress(OSError):
            dead_sock.close()
        old = self._proc
        if old is not None:
            old.join(timeout=5.0)
        try:
            self._spawn()
            attach = json.dumps(self.spec).encode()
            frames = _frame(self._reserve_req(OP_ATTACH), OP_ATTACH, 0, attach)
            if self.owner.obs is not None:
                # A fresh worker starts disarmed: re-arm before the
                # replay so re-issued operations keep being recorded.
                ctl = json.dumps({"arm": True, "shard": self.shard,
                                  "clock_offset": self.clock_offset}).encode()
                frames.extend(_frame(self._reserve_req(OP_TELEMETRY),
                                     OP_TELEMETRY, 0, ctl))
            for entry in pending:
                frames.extend(_frame(entry.req, entry.op, entry.item,
                                     entry.payload, entry.trace, entry.t0))
            sock = self._sock
            with self._send:
                assert sock is not None
                _sendmsg_all(sock, frames)
        except (OSError, BackingStoreError) as exc:
            with self._cond:
                self._fatal = exc
                for entry in pending:
                    entry.error = exc
                    entry.done = True
                self._pending.clear()
                self._cond.notify_all()
            return
        self.owner._note_restart()
        with self._cond:
            self._restarting = False
            self._cond.notify_all()

    def _reserve_req(self, op: int) -> int:
        """A req id whose reply nobody waits on (restart-time ATTACH)."""
        with self._cond:
            req = self._next_req
            self._next_req = (self._next_req + 1) % (1 << 32)
            entry = _Pending(req, op, 0, b"", None)
            entry.t0 = time.perf_counter()
            self._pending[req] = entry
            return req

    # -- shutdown -------------------------------------------------------------

    def close(self) -> None:
        with self._cond:
            if self._closing:
                return
            self._closing = True
            self._cond.notify_all()
            sock = self._sock
        if sock is not None:
            with contextlib.suppress(OSError), self._send:
                _sendmsg_all(sock, _frame(0xFFFFFFFF, OP_CLOSE, 0, b""))
        proc = self._proc
        if proc is not None:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - stuck-worker safety net
                proc.terminate()
                proc.join(timeout=5.0)
        if sock is not None:
            with contextlib.suppress(OSError):
                sock.close()
        if self._receiver is not None:
            self._receiver.join(timeout=5.0)


class ShardedBackingStore:
    """Multi-process backing store: items hash-routed to shard workers.

    Parameters
    ----------
    directory:
        Home of the shard files (``shard_<s>.bin`` / ``shard_<s>.czb``).
        Reattaching a directory from a previous run restores every
        previously flushed item (the shard map is a pure function of the
        item id, so placement is reproduced exactly).
    num_items, item_shape, dtype:
        Logical geometry, as for
        :class:`~repro.core.backing.FileBackingStore`.
    num_shards:
        Worker-process count ``N``; placement is
        :func:`repro.core.layout.shard_of`.
    kind:
        Per-worker store: ``"file"``, ``"compressed"`` or ``"simulated"``
        (the latter models a slow device per worker — data is volatile).
    codec:
        Codec spec for ``kind="compressed"`` (default ``zlib:6``).
    disk / sleep:
        For ``kind="simulated"``: ``(access_latency, bandwidth)`` of the
        modelled device and whether transfers block their caller.
    fault:
        Optional fault spec (``FaultInjectingBackingStore`` kwargs minus
        the store). Each worker wraps its store with ``seed + shard`` so
        fault schedules replay deterministically per shard.
    window:
        Bounded in-flight window per shard; ``submit_*`` blocks when a
        shard has this many un-acked operations.
    """

    def __init__(self, directory: str | os.PathLike[str], num_items: int,
                 item_shape: tuple[int, ...], dtype: DTypeLike = np.float64,
                 *, num_shards: int = 4, kind: str = "file",
                 codec: str | None = None,
                 disk: tuple[float, float] | None = None,
                 sleep: bool = False,
                 fault: dict[str, Any] | None = None,
                 window: int = 64) -> None:
        if num_shards < 1:
            raise BackingStoreError(
                f"need at least 1 shard, got {num_shards}")
        if window < 1:
            raise BackingStoreError(
                f"in-flight window must be >= 1, got {window}")
        if kind not in WORKER_KINDS:
            raise BackingStoreError(
                f"unknown shard worker kind {kind!r}; expected one of "
                f"{WORKER_KINDS}")
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.num_items = int(num_items)
        self.item_shape = tuple(int(d) for d in item_shape)
        self.dtype = np.dtype(dtype)
        self.item_bytes = int(np.prod(self.item_shape)) * self.dtype.itemsize
        self.num_shards = int(num_shards)
        self.kind = kind
        # The observer (default off), see MemoryBackingStore.obs. The
        # receiver threads read it per completion, one shard label per
        # receiver (single writer per labelled series). ``obs`` is a
        # property: assigning it arms or disarms worker-side telemetry.
        self._obs: Observer | None = None
        # Parent-side sinks for telemetry pulled over OP_TELEMETRY.
        # worker_probe counts successful worker-side ops, so its totals
        # cross-check bit-exactly against client completions / IoStats.
        self.worker_probe = BackingProbe()
        self.wire_read_hist = LogHistogram()
        self.wire_write_hist = LogHistogram()
        self.reply_read_hist = LogHistogram()
        self.reply_write_hist = LogHistogram()
        self.window_hist = LogHistogram()
        self._worker_spans: dict[int, list[SpanRecord]] = {}  # guarded-by: _telemetry_lock
        self._worker_span_drops = 0  # guarded-by: _telemetry_lock
        self._telemetry_lock = make_lock("ShardedTelemetry")
        # Per-thread trace context: the span id of whatever caused the
        # submits issued on this thread (writeback drain, prefetch load).
        self._tls = threading.local()
        self._closed = False
        self._restart_lock = make_lock("ShardedBackingStore")
        self.total_restarts = 0  # guarded-by: _restart_lock
        groups = shard_items(self.num_items, self.num_shards)
        self._shard = np.zeros(max(self.num_items, 1), dtype=np.int64)
        self._local = np.zeros(max(self.num_items, 1), dtype=np.int64)
        for s, items in enumerate(groups):
            for local, item in enumerate(items):
                self._shard[item] = s
                self._local[item] = local
        ext = "czb" if kind == "compressed" else "bin"
        self._clients: list[_ShardClient] = []
        try:
            for s, items in enumerate(groups):
                spec: dict[str, Any] = {
                    "kind": kind,
                    "path": os.path.join(self.directory, f"shard_{s}.{ext}"),
                    # A worker must be constructible even for an empty
                    # shard (hash skew at tiny num_items).
                    "num_items": max(len(items), 1),
                    "item_shape": list(self.item_shape),
                    "dtype": self.dtype.name,
                }
                if codec is not None:
                    spec["codec"] = codec
                if disk is not None:
                    spec["disk"] = [float(disk[0]), float(disk[1])]
                if sleep:
                    spec["sleep"] = True
                if fault:
                    per_shard = dict(fault)
                    per_shard["seed"] = int(fault.get("seed", 0)) + s
                    spec["fault"] = per_shard
                self._clients.append(_ShardClient(self, s, spec, window))
        except BaseException:
            for client in self._clients:
                with contextlib.suppress(Exception):
                    client.close()
            raise

    @classmethod
    def from_layout(cls, directory: "str | os.PathLike[str]",
                    layout: "StorageLayout", dtype: DTypeLike = np.float64,
                    **kwargs: Any) -> "ShardedBackingStore":
        """Backing sized for a layout's item space (blocks, not nodes)."""
        return cls(directory, layout.num_items, layout.item_shape, dtype,
                   **kwargs)

    # -- observability hooks / cross-process telemetry --------------------------

    @property
    def obs(self) -> "Observer | None":
        return self._obs

    @obs.setter
    def obs(self, observer: "Observer | None") -> None:
        """Attach/detach the observer; workers are armed iff one is set.

        Pay-for-play across the process boundary: with no observer the
        workers never call ``perf_counter`` and never buffer anything.
        """
        old = self._obs
        if old is not None:
            old.remove_collector(self._collect)
        self._obs = observer
        if observer is not None:
            observer.add_collector(self._collect)
        if (old is None) != (observer is None) and not self._closed:
            for client in self._clients:
                with contextlib.suppress(BackingStoreError):
                    client.set_telemetry(observer is not None)

    def _collect(self) -> None:
        """Registry pull collector: live shard gauges + telemetry pull."""
        ob = self._obs
        if ob is None:
            return
        now = time.perf_counter()
        for c in self._clients:
            with c._cond:
                depth = len(c._pending)
                oldest = min((e.t0 for e in c._pending.values()),
                             default=now)
            ob.gauge("shard_inflight", depth, shard=c.shard)
            ob.gauge("shard_oldest_pending_seconds",
                     max(0.0, now - oldest) if depth else 0.0, shard=c.shard)
        if not self._closed:
            self.collect_telemetry()

    def collect_telemetry(self) -> None:
        """Pull every worker's delta and merge it into the parent sinks.

        Safe to call repeatedly (deltas never double-count) and during
        shutdown races (a dying shard is skipped, its data arrives with
        the next pull after restart).
        """
        ob = self._obs
        for c in self._clients:
            try:
                doc = c.pull_telemetry()
            except BackingStoreError:
                continue
            if not doc:
                continue
            with self._telemetry_lock:
                self.worker_probe.merge_state(doc["probe"])
                self.wire_read_hist.merge_state(doc["wire_read"])
                self.wire_write_hist.merge_state(doc["wire_write"])
                records = self._worker_spans.setdefault(c.shard, [])
                for name, start, dur, sid, parent, item in doc.get(
                        "spans", []):
                    records.append(SpanRecord(
                        str(name), float(start), float(dur),
                        f"shard-worker-{c.shard}", {"item": int(item)},
                        int(sid), int(parent)))
                self._worker_span_drops += int(doc.get("spans_dropped", 0))
            if ob is not None:
                ob.merge("shard_disk_read_seconds", doc["probe"]["read"])
                ob.merge("shard_disk_write_seconds", doc["probe"]["write"])
                ob.merge("shard_wire_seconds", doc["wire_read"])
                ob.merge("shard_wire_seconds", doc["wire_write"])
                ob.count("shard_telemetry_pulls")

    def export_spans_into(self, recorder: "SpanRecorder") -> int:
        """Attach collected worker spans as per-worker process tracks.

        Returns the number of spans exported. Call after
        :meth:`collect_telemetry` (or after :meth:`close`, which drains);
        each track carries its shard's calibrated clock offset so the
        merged timeline is causally ordered.
        """
        total = 0
        with self._telemetry_lock:
            for shard in sorted(self._worker_spans):
                records = self._worker_spans[shard]
                if not records:
                    continue
                recorder.add_process_track(
                    f"shard-worker-{shard}", records,
                    self._clients[shard].clock_offset)
                total += len(records)
        return total

    def worker_span_drops(self) -> int:
        """Worker spans lost to the bounded per-worker buffer."""
        with self._telemetry_lock:
            return self._worker_span_drops

    @contextlib.contextmanager
    def trace_scope(self, span_id: int) -> Iterator[None]:
        """Make ``span_id`` the parent of submits from this thread.

        The write-behind drain and the prefetcher wrap their submit
        calls in this, so the worker-side disk span chains back through
        the client request span to the drain/load that caused it.
        """
        prev = int(getattr(self._tls, "parent", 0))
        self._tls.parent = int(span_id)
        try:
            yield
        finally:
            self._tls.parent = prev

    def _trace_ids(self) -> tuple[int, int]:
        """(span id, parent id) for one submit; (0, 0) when untraced."""
        ob = self._obs
        sid = ob.new_span_id() if ob is not None else 0
        return sid, int(getattr(self._tls, "parent", 0)) if sid else 0

    def _note_window_wait(self, shard: int, t0: float,
                          seconds: float) -> None:
        """One submit's cumulative stall on the bounded in-flight window."""
        self.window_hist.record(seconds)
        ob = self._obs
        if ob is not None:
            ob.timed("shard_window_wait", t0, seconds, shard=shard)

    def _record_reply(self, op: int, t_done: float, seconds: float) -> None:
        """Reply-wire latency measured by a shard's receiver thread."""
        hist = (self.reply_read_hist if op == OP_READ
                else self.reply_write_hist)
        hist.record(seconds)
        ob = self._obs
        if ob is not None:
            ob.timed("shard_reply", t_done - seconds, seconds)

    # -- placement ------------------------------------------------------------

    def shard_of_item(self, item: int) -> int:
        """The shard serving ``item`` (== ``layout.shard_of(item, N)``)."""
        self._check(item)
        return int(self._shard[item])

    def _check(self, item: int) -> None:
        if self._closed:
            raise BackingStoreError("backing store is closed")
        if not 0 <= item < self.num_items:
            raise BackingStoreError(
                f"item {item} out of range [0, {self.num_items})")

    def _route(self, item: int) -> tuple[_ShardClient, int]:
        self._check(item)
        return self._clients[int(self._shard[item])], int(self._local[item])

    # -- async submit/collect hooks (AsyncBackingStore) ------------------------

    def submit_read(self, item: int, out: np.ndarray) -> ShardTicket:
        """Issue a read without waiting; ``ticket.wait()`` collects it."""
        if out.nbytes != self.item_bytes or not out.flags.c_contiguous:
            raise BackingStoreError(
                f"read buffer mismatch: {out.nbytes} bytes vs item width "
                f"{self.item_bytes}")
        client, local = self._route(item)
        trace, parent = self._trace_ids()
        return ShardTicket(client, client.submit(OP_READ, local, b"", out,
                                                 trace, parent))

    def submit_write(self, item: int, data: np.ndarray) -> ShardTicket:
        """Issue a write without waiting; ``ticket.wait()`` collects it.

        The payload is serialised immediately, so the caller's buffer is
        reusable as soon as this returns (same contract as the
        write-behind staging copy).
        """
        client, local = self._route(item)
        payload = self._payload(item, data)
        trace, parent = self._trace_ids()
        return ShardTicket(client, client.submit(OP_WRITE, local, payload,
                                                 None, trace, parent))

    def _payload(self, item: int, data: np.ndarray) -> bytes:
        if data.dtype != self.dtype or not data.flags.c_contiguous:
            data = np.ascontiguousarray(data, dtype=self.dtype)
        if data.nbytes != self.item_bytes:
            raise BackingStoreError(
                f"write buffer mismatch: {data.nbytes} bytes vs item width "
                f"{self.item_bytes}")
        return data.tobytes()

    def read_batch(self, items: list[tuple[int, np.ndarray]]) -> list[ShardTicket]:
        """Submit many reads, one vectored send per shard; returns tickets."""
        return self._batch(OP_READ, [(item, out, b"") for item, out in items])

    def write_batch(self, items: list[tuple[int, np.ndarray]]) -> list[ShardTicket]:
        """Submit many writes, one vectored send per shard; returns tickets."""
        return self._batch(OP_WRITE, [
            (item, None, self._payload(item, data)) for item, data in items])

    def _batch(self, op: int,
               rows: list[tuple[int, np.ndarray | None, bytes]]) -> list[ShardTicket]:
        by_shard: dict[int, list[int]] = {}
        for idx, (item, _out, _payload) in enumerate(rows):
            self._check(item)
            by_shard.setdefault(int(self._shard[item]), []).append(idx)
        tickets: list[ShardTicket | None] = [None] * len(rows)
        for s, idxs in by_shard.items():
            client = self._clients[s]
            ops = [(op, int(self._local[rows[i][0]]), rows[i][2], rows[i][1],
                    *self._trace_ids())
                   for i in idxs]
            for i, entry in zip(idxs, client.submit_many(ops)):
                tickets[i] = ShardTicket(client, entry)
        return [t for t in tickets if t is not None]

    # -- BackingStore interface ------------------------------------------------

    def read(self, item: int, out: np.ndarray) -> None:
        self.submit_read(item, out).wait()

    def write(self, item: int, data: np.ndarray) -> None:
        self.submit_write(item, data).wait()

    def flush(self) -> None:
        """Durability barrier across every shard.

        One FLUSH frame per worker; a worker answers control frames only
        once everything submitted before them was answered, which makes
        each a per-shard barrier behind all previously submitted writes,
        and waiting on all replies makes the whole call a global barrier.
        """
        if self._closed:
            return
        tickets = [ShardTicket(c, c.submit(OP_FLUSH, 0, b"", None))
                   for c in self._clients]
        for t in tickets:
            t.wait()

    def close(self) -> None:
        if self._closed:
            return
        if self._obs is not None:
            # Final drain: whatever the workers recorded since the last
            # scrape must land parent-side before the processes exit.
            with contextlib.suppress(BackingStoreError):
                self.collect_telemetry()
        self._closed = True
        for client in self._clients:
            client.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        with contextlib.suppress(Exception):
            self.close()

    # -- failure/diagnostics ---------------------------------------------------

    def kill_worker(self, shard: int) -> None:
        """SIGKILL one shard worker (crash testing); it restarts itself."""
        self._clients[int(shard)].kill_worker()

    def worker_pids(self) -> list[int]:
        return [c.worker_pid() for c in self._clients]

    def restarts(self) -> int:
        """Total worker restarts performed so far."""
        with self._restart_lock:
            return self.total_restarts

    def _note_restart(self) -> None:
        ob = self._obs
        with self._restart_lock:
            self.total_restarts += 1
            if ob is not None:
                ob.count("shard_restarts")

    def per_shard_counts(self) -> dict[str, dict[str, int]]:
        """``{shard: {reads, writes, bytes_read, bytes_written, restarts}}``.

        The authoritative client-side completion counts; the labelled
        registry series mirror these one-to-one.
        """
        snap: dict[str, dict[str, int]] = {}
        for c in self._clients:
            with c._cond:
                snap[str(c.shard)] = {
                    "reads": c.reads_completed,
                    "writes": c.writes_completed,
                    "bytes_read": c.bytes_read,
                    "bytes_written": c.bytes_written,
                    "restarts": c.restarts,
                }
        return snap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardedBackingStore(n={self.num_items}, "
                f"shards={self.num_shards}, kind={self.kind!r}, "
                f"w={self.item_bytes}B)")
