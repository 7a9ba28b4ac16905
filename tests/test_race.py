"""The happens-before race sanitizer and the schedule-interleaving fuzzer.

Four layers of coverage:

* **Detector unit tests** — vector-clock semantics: lock acquire/release
  ordering, fork/join tokens, condition-variable wait edges.
* **Seeded toys** (``tests/analysis_fixtures/racepkg``) — each racy toy
  must be flagged at exactly its ``# expect:``-marked lines, on every
  fuzzer seed; the guarded twin must stay clean.
* **Fuzzer determinism** — the same seed reproduces the same per-thread
  decision trace bit for bit.
* **Clean-tree gate** — representative async-I/O, batched-pipeline and
  metrics workloads run sanitized across ≥ 8 interleaving seeds with
  zero findings, and the instrumented run's counters stay bit-identical
  to an uninstrumented run (pay-for-play passivity).
"""

from __future__ import annotations

import re
import threading
from pathlib import Path

import pytest

from repro import GTR, LikelihoodEngine, RateModel, simulate_alignment, yule_tree
from repro.analysis.interleave import InterleaveFuzzer
from repro.analysis.race import (
    RaceDetector,
    RaceError,
    make_condition,
    make_lock,
    make_thread,
    sanitizer,
)
from repro.errors import OutOfCoreError
from tests.analysis_fixtures.racepkg import (
    run_guarded_counter,
    run_racy_counter,
    run_unsafe_publish,
)

RACY = Path(__file__).resolve().parent / "analysis_fixtures" / "racepkg" / "racy.py"

EXPECT_RE = re.compile(r"#\s*expect(-next-line)?:\s*([A-Z0-9 ]+?)\s*(?:--.*)?$")

FUZZ_SEEDS = range(8)


def expected_runtime(*markers: str) -> set[tuple[int, str]]:
    """The ``(line, rule)`` set of ``# expect:`` anchors in racy.py whose
    line contains one of ``markers`` (scope the assertion to one toy)."""
    out: set[tuple[int, str]] = set()
    for lineno, line in enumerate(RACY.read_text().splitlines(), start=1):
        m = EXPECT_RE.search(line)
        if m and any(mark in line for mark in markers):
            for rule in m.group(2).split():
                out.add((lineno + 1 if m.group(1) else lineno, rule))
    return out


def findings_set(rc: RaceDetector) -> set[tuple[int, str]]:
    return {(f.line, f.rule) for f in rc.collect()
            if f.path == str(RACY)}


# -- detector unit tests --------------------------------------------------------


class TestDetectorClockAlgebra:
    def test_lock_orders_critical_sections(self):
        with sanitizer() as rc:
            scope = rc.new_scope("t")
            lock = make_lock("t")
            done = threading.Event()

            def writer():
                with lock:
                    rc.write(scope, "x")
                done.set()

            t = make_thread(writer, name="w")
            t.start()
            done.wait()
            with lock:
                rc.write(scope, "x")
            t.join()
            assert rc.finding_count() == 0

    def test_unordered_writes_flagged_even_when_serialized_in_time(self):
        """Wall-clock order without a happens-before edge is still a race."""
        with sanitizer() as rc:
            scope = rc.new_scope("t")
            done = threading.Event()

            def writer():
                rc.write(scope, "x")
                done.set()

            t = make_thread(writer, name="w")
            t.start()
            done.wait()  # a real ordering — but not one the program declares
            rc.write(scope, "x")
            t.join()
            found = rc.collect()
            assert [f.rule for f in found] == ["RACE001"]
            assert "'t#1.x'" in found[0].message

    def test_thread_start_and_join_are_edges(self):
        with sanitizer() as rc:
            scope = rc.new_scope("t")
            rc.write(scope, "x")  # before start: visible to the child

            def worker():
                rc.write(scope, "x")

            t = make_thread(worker, name="w")
            t.start()
            t.join()
            rc.write(scope, "x")  # after join: ordered after the child
            assert rc.finding_count() == 0

    def test_fork_join_tokens_order_executor_handoff(self):
        from concurrent.futures import ThreadPoolExecutor

        with sanitizer() as rc:
            scope = rc.new_scope("t")
            with ThreadPoolExecutor(max_workers=1) as pool:
                rc.write(scope, "x")
                token = rc.fork()

                def task():
                    rc.join(token)
                    rc.write(scope, "x")
                    return rc.fork()

                end = pool.submit(task).result()
                rc.join(end)
                rc.write(scope, "x")
            assert rc.finding_count() == 0

    def test_condition_wait_carries_notifier_clock(self):
        with sanitizer() as rc:
            scope = rc.new_scope("t")
            cond = make_condition(make_lock("t"))
            ready = []

            def consumer():
                with cond:
                    while not ready:
                        cond.wait(timeout=5.0)
                    rc.read(scope, "x")

            t = make_thread(consumer, name="consumer")
            t.start()
            with cond:
                rc.write(scope, "x")
                ready.append(1)
                cond.notify_all()
            t.join()
            assert rc.finding_count() == 0

    def test_assert_clean_raises_with_both_sites(self):
        with sanitizer() as rc:
            scope = rc.new_scope("t")

            def worker():
                rc.write(scope, "x")

            t = make_thread(worker, name="w")
            t.start()
            t.join()
            # join() made us ordered; race against a second unjoined thread
            t2 = make_thread(worker, name="w2")
            t2.start()
            rc.write(scope, "x")
            t2.join()
            with pytest.raises(RaceError) as err:
                rc.assert_clean()
            assert "RACE001" in str(err.value)
            assert str(RACY.parent) not in str(err.value)  # sites are here

    def test_factories_return_plain_primitives_when_off(self):
        assert type(make_lock()) is type(threading.RLock())
        assert type(make_thread(lambda: None)) is threading.Thread


# -- seeded toys under the fuzzer ----------------------------------------------


class TestSeededToys:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_racy_counter_flagged_at_expected_lines(self, seed):
        with sanitizer() as rc, InterleaveFuzzer(seed):
            run_racy_counter()
        assert findings_set(rc) == expected_runtime("rc.write(self._scope, \"value\")",
                                                    "rc.read(self._scope, \"value\")")

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_unsafe_publish_flagged_at_expected_lines(self, seed):
        with sanitizer() as rc, InterleaveFuzzer(seed):
            run_unsafe_publish()
        assert findings_set(rc) == expected_runtime("\"box\"")

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_guarded_twin_is_clean(self, seed):
        with sanitizer() as rc, InterleaveFuzzer(seed):
            run_guarded_counter()
        assert rc.finding_count() == 0


# -- fuzzer mechanics ------------------------------------------------------------


class TestFuzzer:
    def test_rejects_bad_parameters(self):
        with pytest.raises(OutOfCoreError):
            InterleaveFuzzer(0, yield_prob=1.5)
        with pytest.raises(OutOfCoreError):
            InterleaveFuzzer(0, max_sleep=-1.0)

    def test_restores_switch_interval(self):
        import sys

        before = sys.getswitchinterval()
        with InterleaveFuzzer(3) as fz:
            # setswitchinterval stores ns; allow the float round-trip
            assert sys.getswitchinterval() == pytest.approx(fz.switch_interval)
        assert sys.getswitchinterval() == before

    def test_decision_trace_is_bit_reproducible(self):
        """Same seed -> identical per-thread decision traces."""
        traces = []
        for _ in range(2):
            with sanitizer(), InterleaveFuzzer(1234) as fz:
                run_racy_counter()
                traces.append(fz.decision_trace())
        assert traces[0].keys() == traces[1].keys()
        assert {"racer-0", "racer-1"} <= set(traces[0])
        assert traces[0] == traces[1]
        total, yields, decisions = traces[0]["racer-0"]
        assert total == len(decisions) > 0
        assert yields == sum(decisions)

    def test_different_seeds_differ(self):
        out = []
        for seed in (1, 2):
            with sanitizer(), InterleaveFuzzer(seed) as fz:
                run_racy_counter()
                out.append(fz.decision_trace()["racer-0"])
        assert out[0] != out[1]


# -- clean-tree gate over the real pipeline --------------------------------------


def _paper_dataset():
    tree = yule_tree(12, seed=71)
    model = GTR((1.0, 2.1, 0.9, 1.3, 2.8, 1.0), (0.28, 0.22, 0.26, 0.24))
    rates = RateModel.gamma(0.9, 3)
    aln = simulate_alignment(tree, model, 150, rates=rates, seed=72)
    return tree, aln, model, rates


def _run_async_pipeline(**kwargs):
    """One full-traversal workload; returns (lnL, counter row)."""
    tree, aln, model, rates = _paper_dataset()
    eng = LikelihoodEngine(tree.copy(), aln, model, rates, **kwargs)
    try:
        lnl = eng.full_traversals(2)
        drain = getattr(eng.store, "drain", None)
        if drain is not None:
            drain()
        row = dict(eng.stats.as_row())
    finally:
        eng.close()
    return lnl, row


PIPELINES = {
    "writeback": dict(num_slots=5, writeback_depth=4, io_threads=2),
    "prefetch": dict(num_slots=6, prefetch_depth=3),
    "prefetch_two_workers": dict(num_slots=6, writeback_depth=4, io_threads=2,
                                 prefetch_depth=3),
    "batched": dict(num_slots=6, writeback_depth=4, io_threads=2,
                    prefetch_depth=3, batch=-1),
}


class TestCleanTreeGate:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    def test_shipped_pipelines_race_free(self, pipeline, seed):
        """Async-I/O + batched workloads: zero findings on every seed."""
        with sanitizer() as rc, InterleaveFuzzer(seed):
            _run_async_pipeline(**PIPELINES[pipeline])
        rc.assert_clean()

    def test_metrics_scrape_race_free(self):
        from repro.obs import Observer
        from repro.obs.server import MetricsServer
        from urllib.request import urlopen

        with sanitizer() as rc, InterleaveFuzzer(0):
            tree, aln, model, rates = _paper_dataset()
            obs = Observer(metrics=True)
            eng = LikelihoodEngine(tree.copy(), aln, model, rates,
                                   num_slots=5, writeback_depth=4)
            try:
                eng.store.attach(obs)
                with MetricsServer(obs.metrics) as server:
                    eng.full_traversals(1)
                    body = urlopen(server.url, timeout=10).read()
                    assert b"repro_requests" in body
                    eng.full_traversals(1)
            finally:
                eng.close()
        rc.assert_clean()

    def test_sanitized_counters_bit_identical_to_plain(self):
        """Instrumentation is passive: same lnL, same counters.

        Only the counters that are a pure function of the request stream
        are compared; prefetch_*/writeback_* measure async worker
        progress, which varies with OS scheduling whether or not the
        sanitizer is armed.
        """
        deterministic = ("requests", "hits", "misses", "reads", "read_skips",
                         "writes", "write_skips", "bytes_read",
                         "bytes_written", "miss_rate", "read_rate")
        plain_lnl, plain_row = _run_async_pipeline(**PIPELINES["batched"])
        with sanitizer() as rc:
            san_lnl, san_row = _run_async_pipeline(**PIPELINES["batched"])
        rc.assert_clean()
        assert san_lnl == plain_lnl
        for key in deterministic:
            assert san_row[key] == plain_row[key], key
