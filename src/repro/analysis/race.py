"""Runtime happens-before race sanitizer (``REPRO_SANITIZE=race``).

The static lock checker (rule LOCK001) proves that *annotated* fields
are touched under the right ``with`` block, but it cannot see whether
two thread populations are actually ordered at runtime — a publish
without a lock, a queue hand-off that skips a field, or a pipeline
stage reading a buffer a writer thread is still draining. This module
closes that gap with a classic vector-clock detector in the style of
FastTrack (Flanagan & Freund, PLDI'09), sized for the repo's three
thread populations (compute, write-behind writers, prefetcher) plus
the metrics scrape endpoint.

Model
-----
* Every thread carries a vector clock; its own component advances at
  each release/fork.
* A :class:`TrackedRLock` joins the lock's release clock into the
  acquirer (``Condition.wait`` participates through the standard
  ``_release_save``/``_acquire_restore`` protocol, so waiting threads
  pick up the notifier's clock when they re-acquire the monitor).
* Thread start/join and executor hand-offs transfer clocks through
  :meth:`RaceDetector.fork`/:meth:`RaceDetector.join` tokens.
* Instrumented code declares accesses with
  ``rc.read(scope, "field", ...)`` / ``rc.write(scope, "field", ...)``;
  the detector keeps each variable's last read/write epoch per thread
  and reports any pair not ordered by happens-before as rule RACE001
  (write-write) or RACE002 (read-write).

Detection is *timing independent*: two accesses with no happens-before
edge are flagged in whatever order the OS actually ran them, so a
seeded run either always reports a given race or never does — which is
what makes the interleaving fuzzer's findings reproducible.

Pay-for-play
------------
Exactly like the :class:`BorrowedSlotView` sanitizer and the tracer,
all hook points sit behind a single ``is None`` test and the factories
(:func:`make_lock`, :func:`make_condition`, :func:`make_thread`) return
plain :mod:`threading` objects when the sanitizer is off, so an
uninstrumented run pays one attribute load per hooked region and zero
allocations. ``REPRO_SANITIZE=race`` (or ``all``) enables the detector
process-wide; tests use :func:`sanitizer` for scoped, programmatic
activation. Note that any non-empty ``REPRO_SANITIZE`` also arms the
borrow-sanitizer — ``race`` is a strict superset of ``1``.
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from repro.analysis.findings import Finding

__all__ = [
    "RaceDetector",
    "RaceError",
    "TrackedRLock",
    "install",
    "make_condition",
    "make_lock",
    "make_thread",
    "race_detector",
    "sanitizer",
    "uninstall",
]

#: ``(filename, lineno)`` of an instrumented access.
Site = tuple[str, int]

#: A clock-transfer token (an immutable snapshot of a vector clock).
Token = dict[int, int]


class RaceError(AssertionError):
    """Raised by :meth:`RaceDetector.assert_clean` when races were found."""


def _env_race_enabled() -> bool:
    raw = os.environ.get("REPRO_SANITIZE", "")
    tokens = {part.strip().lower() for part in raw.split(",")}
    return "race" in tokens or "all" in tokens


class _VarState:
    """Last read/write epoch per thread for one instrumented variable."""

    __slots__ = ("reads", "writes")

    def __init__(self) -> None:
        self.writes: dict[int, tuple[int, Site]] = {}
        self.reads: dict[int, tuple[int, Site]] = {}


class RaceDetector:
    """Vector-clock happens-before detector over instrumented accesses.

    All public methods are thread-safe (one internal mutex; note the
    mutex orders detector *bookkeeping* only — happens-before between
    program accesses is established exclusively by tracked locks and
    fork/join tokens, so the mutex cannot mask a program race).
    """

    def __init__(self, *, raise_on_race: bool = False) -> None:
        self.raise_on_race = bool(raise_on_race)
        self.findings: list[Finding] = []
        self._mutex = threading.Lock()
        self._tls = threading.local()
        self._next_tid = 1
        self._next_scope = 1
        self._clocks: dict[int, dict[int, int]] = {}
        self._names: dict[int, str] = {}
        self._locks: dict[str, dict[int, int]] = {}
        self._vars: dict[str, _VarState] = {}
        self._seen: set[tuple[str, str, frozenset[Site]]] = set()

    # -- thread identity --------------------------------------------------------

    def _thread(self) -> tuple[int, dict[int, int]]:
        """This thread's (detector-local id, mutable clock). Caller holds
        the mutex. Ids are never recycled (unlike ``get_ident``)."""
        tid = getattr(self._tls, "tid", None)
        if tid is None:
            tid = self._next_tid
            self._next_tid += 1
            self._tls.tid = tid
            self._clocks[tid] = {tid: 1}
            self._names[tid] = threading.current_thread().name
        return tid, self._clocks[tid]

    # -- scopes -----------------------------------------------------------------

    def new_scope(self, label: str) -> str:
        """A unique per-instance variable namespace, e.g.
        ``AncestralVectorStore#3``. Monotonic — never reuses a name the
        way ``id()`` reuses addresses."""
        with self._mutex:
            n = self._next_scope
            self._next_scope += 1
        return f"{label}#{n}"

    # -- synchronization events -------------------------------------------------

    def lock_acquired(self, key: str) -> None:
        """Join the lock's last-release clock into the current thread."""
        with self._mutex:
            _tid, clock = self._thread()
            released = self._locks.get(key)
            if released:
                for u, c in released.items():
                    if c > clock.get(u, 0):
                        clock[u] = c

    def lock_released(self, key: str) -> None:
        """Publish the current thread's clock on the lock; advance."""
        with self._mutex:
            tid, clock = self._thread()
            self._locks[key] = dict(clock)
            clock[tid] += 1

    def fork(self) -> Token:
        """Snapshot the current clock as a transfer token and advance.

        Tokens order the creating thread *before* whoever joins them:
        thread start (token joined at the top of ``run``), thread end
        (token captured at the bottom of ``run``, joined by ``join()``),
        and executor hand-offs (submit-side token joined by the worker,
        worker-side token joined by the ``result()`` caller).
        """
        with self._mutex:
            tid, clock = self._thread()
            token = dict(clock)
            clock[tid] += 1
        return token

    def join(self, token: Token) -> None:
        """Join a :meth:`fork` token into the current thread's clock."""
        with self._mutex:
            _tid, clock = self._thread()
            for u, c in token.items():
                if c > clock.get(u, 0):
                    clock[u] = c

    # -- access hooks -----------------------------------------------------------

    def read(self, scope: str, *fields: str) -> None:
        """Record a read of ``scope.field`` for each field, reporting any
        write not ordered before it (RACE002)."""
        cp = _checkpoint
        if cp is not None:
            cp()
        frame = sys._getframe(1)
        site = (frame.f_code.co_filename, frame.f_lineno)
        with self._mutex:
            tid, clock = self._thread()
            epoch = clock[tid]
            for field in fields:
                var = f"{scope}.{field}"
                state = self._vars.get(var)
                if state is None:
                    state = self._vars[var] = _VarState()
                for u, (c, other) in state.writes.items():
                    if u != tid and c > clock.get(u, 0):
                        self._report("RACE002", var, "read", site,
                                     self._names[tid], other, self._names[u])
                state.reads[tid] = (epoch, site)

    def write(self, scope: str, *fields: str) -> None:
        """Record a write of ``scope.field`` for each field, reporting any
        unordered write (RACE001) or read (RACE002)."""
        cp = _checkpoint
        if cp is not None:
            cp()
        frame = sys._getframe(1)
        site = (frame.f_code.co_filename, frame.f_lineno)
        with self._mutex:
            tid, clock = self._thread()
            epoch = clock[tid]
            for field in fields:
                var = f"{scope}.{field}"
                state = self._vars.get(var)
                if state is None:
                    state = self._vars[var] = _VarState()
                for u, (c, other) in state.writes.items():
                    if u != tid and c > clock.get(u, 0):
                        self._report("RACE001", var, "write", site,
                                     self._names[tid], other, self._names[u])
                for u, (c, other) in state.reads.items():
                    if u != tid and c > clock.get(u, 0):
                        self._report("RACE002", var, "write", site,
                                     self._names[tid], other, self._names[u])
                state.writes[tid] = (epoch, site)

    # -- reporting --------------------------------------------------------------

    def _report(self, rule: str, var: str, kind: str, site: Site,
                name: str, other: Site, other_name: str) -> None:
        """Dedup on (var, rule, site pair); anchor the finding at the
        later-ordered site so the reported line is the same no matter
        which access the detector happened to see second."""
        key = (var, rule, frozenset((site, other)))
        if key in self._seen:
            return
        self._seen.add(key)
        anchor = max(site, other)
        a_path, a_line = min(site, other)
        pair = "write/write" if rule == "RACE001" else f"{kind}/previous access"
        message = (
            f"data race on '{var}' ({pair}): thread '{name}' at "
            f"{site[0]}:{site[1]} and thread '{other_name}' at "
            f"{other[0]}:{other[1]} are not ordered by any lock, hand-off "
            f"token or thread start/join (other site {a_path}:{a_line})"
        )
        finding = Finding(path=anchor[0], line=anchor[1], rule=rule,
                          message=message)
        self.findings.append(finding)
        if self.raise_on_race:
            raise RaceError(finding.format())

    def finding_count(self) -> int:
        with self._mutex:
            return len(self.findings)

    def collect(self) -> list[Finding]:
        """Return findings accumulated so far and reset the list (the
        dedup memory is kept, so a re-manifesting race is not re-counted
        within one detector's lifetime)."""
        with self._mutex:
            found, self.findings = self.findings, []
        return found

    def assert_clean(self) -> None:
        found = self.collect()
        if found:
            raise RaceError("\n".join(f.format() for f in found))

    # -- primitive factories ----------------------------------------------------

    def rlock(self, label: str) -> "TrackedRLock":
        return TrackedRLock(self, self.new_scope(label))


class TrackedRLock:
    """An RLock that joins/publishes vector clocks at acquire/release.

    Implements ``_release_save``/``_acquire_restore``/``_is_owned`` by
    delegating to the wrapped RLock so ``threading.Condition`` built on
    top of it keeps real recursion-aware ownership semantics (the
    Condition's generic fallback would mis-detect ownership by probing
    ``acquire(0)``, which succeeds recursively on an RLock).
    """

    __slots__ = ("_inner", "_key", "_rc")

    def __init__(self, rc: RaceDetector, key: str) -> None:
        self._inner = threading.RLock()
        self._key = key
        self._rc = rc

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        cp = _checkpoint
        if cp is not None:
            cp()
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._rc.lock_acquired(self._key)
        return got

    def release(self) -> None:
        self._rc.lock_released(self._key)
        self._inner.release()

    def __enter__(self) -> "TrackedRLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    # Condition integration: wait() parks through these.
    def _release_save(self) -> Any:
        self._rc.lock_released(self._key)
        return self._inner._release_save()  # type: ignore[attr-defined]

    def _acquire_restore(self, state: Any) -> None:
        self._inner._acquire_restore(state)  # type: ignore[attr-defined]
        self._rc.lock_acquired(self._key)

    def _is_owned(self) -> bool:
        return self._inner._is_owned()  # type: ignore[attr-defined]


class TrackedThread(threading.Thread):
    """A thread whose start/run/join transfer vector clocks."""

    def __init__(self, rc: RaceDetector, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._rc = rc
        self._start_token: Token | None = None
        self._end_token: Token | None = None

    def start(self) -> None:
        self._start_token = self._rc.fork()
        super().start()

    def run(self) -> None:
        if self._start_token is not None:
            self._rc.join(self._start_token)
        try:
            super().run()
        finally:
            self._end_token = self._rc.fork()

    def join(self, timeout: float | None = None) -> None:
        super().join(timeout)
        if not self.is_alive() and self._end_token is not None:
            self._rc.join(self._end_token)


# -- module-level state ---------------------------------------------------------

_active: list[RaceDetector] = []
_env_checked = False

#: Set by the interleaving fuzzer; called at every tracked acquire and
#: access hook. ``None`` (the default) costs one global load per hook.
_checkpoint: Callable[[], None] | None = None


def _set_checkpoint(fn: Callable[[], None] | None) -> None:
    global _checkpoint
    _checkpoint = fn


def race_detector() -> RaceDetector | None:
    """The active detector, or ``None`` when the sanitizer is off.

    Components capture this once at construction time; the environment
    (``REPRO_SANITIZE=race``) is consulted lazily on first call, and
    :func:`install`/:func:`uninstall` override it for scoped test use.
    """
    global _env_checked
    if not _active and not _env_checked:
        _env_checked = True
        if _env_race_enabled():
            _active.append(RaceDetector())
    return _active[-1] if _active else None


def install(detector: RaceDetector) -> RaceDetector:
    """Make ``detector`` the active detector (stacked; see
    :func:`uninstall`)."""
    global _env_checked
    _env_checked = True
    _active.append(detector)
    return detector


def uninstall() -> None:
    """Pop the most recently installed detector."""
    if _active:
        _active.pop()


@contextmanager
def sanitizer(detector: RaceDetector | None = None) -> Iterator[RaceDetector]:
    """Scoped activation: components constructed inside the block are
    instrumented against the yielded detector."""
    rc = detector if detector is not None else RaceDetector()
    install(rc)
    try:
        yield rc
    finally:
        uninstall()


# -- factories (the pay-for-play switch) -----------------------------------------


def make_lock(label: str = "lock") -> Any:
    """A re-entrant lock: plain ``threading.RLock`` when the sanitizer is
    off, a :class:`TrackedRLock` with a unique per-instance key when on."""
    rc = race_detector()
    if rc is None:
        return threading.RLock()
    return rc.rlock(label)


def make_condition(lock: Any = None, label: str = "cond") -> threading.Condition:
    """A condition over ``lock`` (tracked or plain). With no lock, the
    monitor itself is tracked when the sanitizer is on."""
    if lock is None:
        lock = make_lock(label)
    return threading.Condition(lock)


def make_thread(target: Callable[..., object], *, name: str | None = None,
                daemon: bool = True,
                args: Sequence[object] = ()) -> threading.Thread:
    """A worker thread: plain ``threading.Thread`` when the sanitizer is
    off, a :class:`TrackedThread` (start/join happens-before edges) when
    on."""
    rc = race_detector()
    if rc is None:
        return threading.Thread(target=target, name=name, daemon=daemon,
                                args=tuple(args))
    return TrackedThread(rc, target=target, name=name, daemon=daemon,
                         args=tuple(args))
