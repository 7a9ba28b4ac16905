"""Project-specific static analysis for the out-of-core concurrency layer.

The paper's §4.1 bit-identical correctness contract rests on conventions
that ordinary linters cannot see: which fields of the vector store are
guarded by its lock, which :class:`~repro.core.stats.IoStats` counters
belong to the demand stream versus the physical I/O threads, and the rule
that ``get()`` views are only valid until the next unpinned access. This
package machine-checks those conventions with stdlib-``ast`` analyses —
no runtime dependencies beyond the Python standard library.

Rules
-----
``LOCK001``
    A field declared ``# guarded-by: <lock>`` was read or written outside
    a ``with <recv>.<lock>:`` block (``_lock`` and ``_cond`` are treated
    as one lock, mirroring ``Condition(self._lock)``). Helper methods that
    run with the lock already held are annotated ``# holds: <lock>`` on
    their ``def`` line; deliberate lock-free fast paths carry a
    ``# lockfree-ok: <reason>`` suppression (reason required).
``LOCK002``
    A ``# lockfree-ok`` suppression without a reason.
``CNT001``
    A mutation of a stats counter that :class:`IoStats` does not declare
    (its public ``int`` fields are the registry: ``reset()``,
    ``_counters()`` and the ownership sets derive from them at import).
``CNT003``
    A demand-owned counter is mutated on a writer/prefetch thread's code
    path (functions annotated ``# thread: writer|prefetch`` and everything
    reachable from them through the intra-package call graph).
``LEAK001``
    A public method of a slot-arena class returns a raw ``_slots`` buffer
    view without going through the pin/copy API (``.copy()`` or the
    borrow-tracked view issued by ``get``).
``DET001``
    Use of the stdlib ``random`` module inside ``repro.core`` /
    ``repro.phylo`` (outside ``utils``): likelihoods must be reproducible
    from explicit seeds (see :mod:`repro.utils.rng`).
``DET002``
    An unseeded ``np.random.default_rng()`` (or a legacy global-state
    ``np.random.*`` call) in the deterministic scope.
``DET003``
    ``time.time()`` in the deterministic scope — wall-clock reads belong
    in :mod:`repro.utils.timing`.
``SUP001``
    A ``# analysis: ignore[RULE]`` suppression without a reason, or
    naming an unknown rule.
``EVT001``
    An ``obs.event``/``obs.timed`` site reports a name missing from the
    ``ROUTES`` table, a row emits an event type missing from
    ``EVENT_TYPES``, or an ``EVENT_TYPES`` row names a counter that
    ``IoStats`` does not declare.
``MET001``
    An ``obs.count``/``gauge``/``merge`` site or a ``ROUTES`` row names a
    metric that is not a ``METRIC_EXPOSITION`` row, or a row's name is
    not a Prometheus name suffix or its kind not one of the three.
``LOK101``
    Two locks are acquired in both orders somewhere in the package (a
    cycle in the static lock-acquisition graph — potential deadlock).
    Edges come from lexically nested ``with`` blocks *and* from calls
    made while a lock is held, resolved interprocedurally.
``RACE001`` / ``RACE002``
    **Runtime** rules from the happens-before race sanitizer
    (:mod:`repro.analysis.race`): two writes — or a read and a write —
    to the same guarded field are unordered by the happens-before
    relation (locks, thread start/join, executor fork/join tokens,
    condition waits). Opt in with ``REPRO_SANITIZE=race``; pair with
    :class:`repro.analysis.interleave.InterleaveFuzzer` to sweep seeded
    thread schedules deterministically.

Use ``python -m repro.analysis [paths...]`` from the repo root, or the
pytest bridge in ``tests/test_analysis_clean.py``. The runtime sanitizer
is exercised by ``tests/test_race.py``.
"""

from __future__ import annotations

from repro.analysis.findings import RULES, Finding
from repro.analysis.runner import analyze_paths

__all__ = ["Finding", "RULES", "analyze_paths"]
