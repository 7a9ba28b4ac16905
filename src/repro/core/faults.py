"""Deterministic fault injection and bounded retry for backing stores.

The out-of-core design treats the backing tier as an infallible byte
array; real devices time out, return short transfers, and hosts crash
mid-search. This module makes failure a first-class, *reproducible* test
input:

* :class:`FaultInjectingBackingStore` wraps any backing store and injects
  transient errors, short (torn) transfers, latency spikes, and
  crash-points on a schedule derived purely from ``(seed, kind, item,
  attempt)`` — the same seed replays the same faults regardless of thread
  interleaving, because the decision hash never consults global order.
* :class:`RetryingBackingStore` is the production-side answer: bounded
  retry with exponential backoff around *transient* failures
  (:class:`InjectedFault` and ``OSError``), surfacing everything else —
  including :class:`SimulatedCrash`, which models the process dying and
  must never be absorbed by a retry loop.

Both wrappers forward the one ``obs`` attribute to the wrapped store (so
physical I/O is still reported at the point it happens, however deep the
stack) and report their own events through it: each injected fault and
each retry is one record (item, attempt) and one count
(``backing_faults``, ``backing_retries``).
"""

from __future__ import annotations

import hashlib
import time
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.analysis.race import make_lock
from repro.core.backing import BackingStore
from repro.errors import BackingStoreError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.obs import Observer


class InjectedFault(BackingStoreError):
    """A transient, injected I/O failure (retry is expected to succeed)."""


class SimulatedCrash(BaseException):
    """The process "dies" at an injected crash-point.

    Deliberately derives from ``BaseException`` so that ``except
    Exception`` recovery paths (the write-behind writer, retry loops)
    cannot absorb it — exactly like a real ``SIGKILL`` would not be
    absorbed. Tests catch it explicitly at the outermost level.
    """


def _hash_unit(seed: int, kind: str, item: int, attempt: int) -> float:
    """A deterministic draw in ``[0, 1)`` for one (kind, item, attempt).

    The top 53 bits of a ``blake2b`` digest of the full coordinate tuple:
    no stdlib ``random`` state, no dependence on call order across
    threads, and neighbouring items draw independent values (a linear
    checksum such as ``crc32`` would draw nearly the same one for keys
    that differ in a digit).
    """
    key = f"{seed}:{kind}:{item}:{attempt}".encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return (int.from_bytes(digest, "big") >> 11) / 2.0**53


class _BackingWrapper:
    """What both wrappers share: ``inner``, its ``obs`` and delegation."""

    inner: Any

    @property
    def obs(self) -> "Observer | None":
        """The wrapped store's observer: set here, it lands on ``inner``."""
        return getattr(self.inner, "obs", None)

    @obs.setter
    def obs(self, value: "Observer | None") -> None:
        self.inner.obs = value

    def close(self) -> None:
        self.inner.close()

    def read_price(self, nbytes: int) -> float:
        """The wrapped store's declared price: wrapping moves no bytes."""
        price: float = self.inner.read_price(nbytes)
        return price

    def __getattr__(self, name: str) -> Any:
        if name == "inner":  # guard: no recursion before __init__ ran
            raise AttributeError(name)
        return getattr(self.inner, name)


class FaultInjectingBackingStore(_BackingWrapper):
    """Wrap a backing store and inject deterministic, seeded faults.

    Parameters
    ----------
    inner:
        The real store; all surviving transfers are delegated to it.
    seed:
        Fault schedule seed. Decisions are pure functions of
        ``(seed, kind, item, attempt)``; the ``attempt`` counter is kept
        per ``(kind, item)`` so a retried operation re-rolls (transient
        semantics) while replays with the same seed see identical faults.
    read_error_rate / write_error_rate:
        Probability that a read/write raises :class:`InjectedFault`
        *before* touching the inner store (a clean transient error).
    short_read_rate:
        Probability that a read fills only a prefix of the caller's
        buffer and then raises — the buffer is deliberately left torn to
        catch callers that use it despite the exception.
    short_write_rate:
        Probability that a write lands only a prefix of the payload
        (prefix = new bytes, suffix = previous contents) and then raises
        — a torn page, the classic crash-consistency hazard.
    latency_rate / latency_seconds:
        Probability of (and duration of) an injected latency spike.
    crash_after_writes:
        After this many *successful* writes, the next write raises
        :class:`SimulatedCrash` without transferring anything.
    """

    def __init__(
        self,
        inner: BackingStore,
        *,
        seed: int = 0,
        read_error_rate: float = 0.0,
        write_error_rate: float = 0.0,
        short_read_rate: float = 0.0,
        short_write_rate: float = 0.0,
        latency_rate: float = 0.0,
        latency_seconds: float = 0.0,
        crash_after_writes: int | None = None,
    ) -> None:
        for name, rate in (("read_error_rate", read_error_rate),
                           ("write_error_rate", write_error_rate),
                           ("short_read_rate", short_read_rate),
                           ("short_write_rate", short_write_rate),
                           ("latency_rate", latency_rate)):
            if not 0.0 <= rate <= 1.0:
                raise BackingStoreError(f"{name} must be in [0, 1], got {rate}")
        self.inner = inner
        self.seed = int(seed)
        self.read_error_rate = float(read_error_rate)
        self.write_error_rate = float(write_error_rate)
        self.short_read_rate = float(short_read_rate)
        self.short_write_rate = float(short_write_rate)
        self.latency_rate = float(latency_rate)
        self.latency_seconds = float(latency_seconds)
        self.crash_after_writes = crash_after_writes
        self.faults_injected = 0
        self.crashes_injected = 0
        self.writes_completed = 0
        self._attempts: dict[tuple[str, int], int] = {}
        # Leaf lock: guards the attempt/fault counters only; inner I/O
        # happens outside it, so no ordering edge toward store locks.
        self._lock = make_lock("FaultInjectingBackingStore")

    # -- fault schedule -------------------------------------------------------

    def _roll(self, kind: str, item: int) -> tuple[float, float]:
        """Advance the (kind, item) attempt counter; return two draws.

        The first draw decides the fault itself, the second parameterizes
        it (torn-transfer cut point). Counting per (kind, item) keeps the
        schedule independent of cross-item operation order: the store
        never issues concurrent I/O for one item, so the counter needs no
        further coordination beyond the leaf lock.
        """
        with self._lock:
            attempt = self._attempts.get((kind, item), 0)
            self._attempts[(kind, item)] = attempt + 1
        return (_hash_unit(self.seed, kind, item, attempt),
                _hash_unit(self.seed, kind + "#aux", item, attempt))

    def _record_fault(self, kind: str, item: int) -> None:
        """Count one injected fault; its record names the roll that drew it."""
        with self._lock:
            self.faults_injected += 1
            ob = self.obs
            if ob is not None:
                ob.event("backing_fault", item, kind=kind,
                         attempt=self._attempts[(kind, item)] - 1)

    def _maybe_sleep(self, item: int) -> None:
        if self.latency_rate <= 0.0 or self.latency_seconds <= 0.0:
            return
        draw, _ = self._roll("latency", item)
        if draw < self.latency_rate:
            time.sleep(self.latency_seconds)

    # -- BackingStore interface -----------------------------------------------

    def read(self, item: int, out: np.ndarray) -> None:
        self._maybe_sleep(item)
        draw, aux = self._roll("read", item)
        if draw < self.read_error_rate:
            self._record_fault("read", item)
            raise InjectedFault(f"injected transient read error on item {item}")
        draw, aux = self._roll("short_read", item)
        if draw < self.short_read_rate:
            before = out.copy()
            self.inner.read(item, out)  # checks ``out`` as any read does
            flat_out = out.reshape(-1).view(np.uint8)
            cut = max(1, int(aux * flat_out.size)) % max(flat_out.size, 1)
            flat_out[cut:] = before.reshape(-1).view(np.uint8)[cut:]
            self._record_fault("short_read", item)
            raise InjectedFault(
                f"injected short read on item {item}: {cut}/{flat_out.size} bytes")
        self.inner.read(item, out)

    def write(self, item: int, data: np.ndarray) -> None:
        if (self.crash_after_writes is not None
                and self.writes_completed >= self.crash_after_writes):
            with self._lock:
                self.crashes_injected += 1
            raise SimulatedCrash(
                f"injected crash-point before write of item {item} "
                f"(after {self.writes_completed} writes)")
        self._maybe_sleep(item)
        draw, aux = self._roll("write", item)
        if draw < self.write_error_rate:
            self._record_fault("write", item)
            raise InjectedFault(f"injected transient write error on item {item}")
        draw, aux = self._roll("short_write", item)
        if draw < self.short_write_rate:
            # Torn page: prefix of the new payload over the old suffix.
            old = np.empty_like(data)
            self.inner.read(item, old)
            torn = old.reshape(-1).view(np.uint8).copy()
            flat_new = np.ascontiguousarray(data).reshape(-1).view(np.uint8)
            cut = max(1, int(aux * torn.size)) % max(torn.size, 1)
            torn[:cut] = flat_new[:cut]
            self.inner.write(item, torn.view(data.dtype).reshape(data.shape))
            self._record_fault("short_write", item)
            raise InjectedFault(
                f"injected short write on item {item}: {cut}/{torn.size} bytes")
        self.inner.write(item, data)
        with self._lock:
            self.writes_completed += 1

    def flush(self) -> None:
        self.inner.flush()


class RetryingBackingStore(_BackingWrapper):
    """Bounded retry with exponential backoff around transient failures.

    Retries :class:`InjectedFault` and ``OSError`` — the transient
    classes — up to ``retries`` times per operation, sleeping
    ``backoff * factor**n`` between attempts. Permanent failures
    (out-of-range items, closed stores: plain
    :class:`~repro.errors.BackingStoreError`) and
    :class:`SimulatedCrash` propagate immediately.

    Each retry is one ``backing_retry`` report on the attached observer
    (a record carrying the item and the attempt about to run, and one
    ``backing_retries``); the terminal give-up re-raises the last error.
    """

    #: Exception classes treated as transient (retried).
    TRANSIENT: tuple[type[BaseException], ...] = (InjectedFault, OSError)

    def __init__(self, inner: BackingStore, *, retries: int = 3,
                 backoff: float = 0.0, factor: float = 2.0) -> None:
        if retries < 0:
            raise BackingStoreError(f"retries must be >= 0, got {retries}")
        self.inner = inner
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.factor = float(factor)
        self.retries_performed = 0
        self.give_ups = 0
        self._lock = make_lock("RetryingBackingStore")

    def _attempt(self, fn: Any, item: int = -1) -> None:
        delay = self.backoff
        for attempt in range(self.retries + 1):
            try:
                fn()
                return
            except self.TRANSIENT:
                if attempt == self.retries:
                    with self._lock:
                        self.give_ups += 1
                    raise
                with self._lock:
                    self.retries_performed += 1
                    ob = self.obs
                    if ob is not None:
                        ob.event("backing_retry", item, attempt=attempt + 1)
                if delay > 0.0:
                    time.sleep(delay)
                    delay *= self.factor

    def read(self, item: int, out: np.ndarray) -> None:
        self._attempt(lambda: self.inner.read(item, out), item)

    def write(self, item: int, data: np.ndarray) -> None:
        self._attempt(lambda: self.inner.write(item, data), item)

    def flush(self) -> None:
        self._attempt(self.inner.flush)
