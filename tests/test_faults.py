"""Deterministic fault injection: schedules, retries, crash-points, parity.

The CI ``faults`` job runs this module over a seed matrix via the
``REPRO_FAULT_SEED`` environment variable; the fault schedule is a pure
function of ``(seed, kind, item, attempt)``, so each seed replays one
deterministic failure history over every backing implementation.
"""

import os

import numpy as np
import pytest

from repro.core.backing import (
    FileBackingStore,
    MemoryBackingStore,
    MultiFileBackingStore,
    SimulatedDiskBackingStore,
)
from repro.core.faults import (
    FaultInjectingBackingStore,
    InjectedFault,
    RetryingBackingStore,
    SimulatedCrash,
    _hash_unit,
)
from repro.core.stats import PARITY_COUNTERS
from repro.core.vecstore import AncestralVectorStore
from repro.errors import BackingStoreError
from repro.obs import Observer

SHAPE = (4, 2, 4)

#: Seed under test — the CI matrix sweeps {0, 1, 7, 1337}.
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

# PARITY_COUNTERS is the parity surface here: the access-trace counters
# must be identical with and without transient faults underneath (retries
# are physical events below the store; the logical trace may not notice).

def faulty(inner, **rates):
    return FaultInjectingBackingStore(inner, seed=FAULT_SEED, **rates)


class TestHashSchedule:
    def test_unit_interval(self):
        draws = [_hash_unit(FAULT_SEED, "read", i, a)
                 for i in range(50) for a in range(4)]
        assert all(0.0 <= d < 1.0 for d in draws)

    def test_pure_function_of_coordinates(self):
        a = _hash_unit(FAULT_SEED, "write", 3, 1)
        b = _hash_unit(FAULT_SEED, "write", 3, 1)
        assert a == b

    def test_distinct_coordinates_distinct_draws(self):
        draws = {_hash_unit(FAULT_SEED, k, i, a)
                 for k in ("read", "write") for i in range(20)
                 for a in range(4)}
        assert len(draws) > 100  # crc32 collisions are rare at this scale


class TestDeterministicReplay:
    def run_schedule(self, seed):
        """Replay a fixed op sequence; return the fault fingerprint."""
        inner = MemoryBackingStore(8, SHAPE)
        store = FaultInjectingBackingStore(
            inner, seed=seed, read_error_rate=0.3, write_error_rate=0.3,
            short_read_rate=0.2, short_write_rate=0.2)
        outcome = []
        data = np.ones(SHAPE)
        out = np.empty(SHAPE)
        for item in range(8):
            for _ in range(3):
                try:
                    store.write(item, data)
                    outcome.append("w-ok")
                except InjectedFault as exc:
                    outcome.append(f"w:{exc}")
                try:
                    store.read(item, out)
                    outcome.append("r-ok")
                except InjectedFault as exc:
                    outcome.append(f"r:{exc}")
        return outcome, store.faults_injected

    def test_same_seed_replays_identical_faults(self):
        first, n1 = self.run_schedule(FAULT_SEED)
        second, n2 = self.run_schedule(FAULT_SEED)
        assert first == second
        assert n1 == n2

    def test_different_seed_differs(self):
        first, _ = self.run_schedule(FAULT_SEED)
        other, _ = self.run_schedule(FAULT_SEED + 1)
        assert first != other

    def test_rates_validated(self):
        with pytest.raises(BackingStoreError, match="read_error_rate"):
            faulty(MemoryBackingStore(2, SHAPE), read_error_rate=1.5)

    def test_zero_rates_inject_nothing(self):
        store = faulty(MemoryBackingStore(4, SHAPE))
        data = np.random.default_rng(1).normal(size=SHAPE)
        out = np.empty(SHAPE)
        for item in range(4):
            store.write(item, data)
            store.read(item, out)
            np.testing.assert_array_equal(out, data)
        assert store.faults_injected == 0


class TestTornTransfers:
    def test_short_read_leaves_buffer_torn_then_raises(self):
        inner = MemoryBackingStore(4, SHAPE)
        store = FaultInjectingBackingStore(inner, seed=FAULT_SEED,
                                           short_read_rate=1.0)
        good = np.full(SHAPE, 7.0)
        inner.write(0, good)
        out = np.full(SHAPE, -1.0)
        with pytest.raises(InjectedFault, match="short read"):
            store.read(0, out)
        flat = out.reshape(-1)
        assert (flat == 7.0).any()   # some new bytes landed ...
        assert (flat == -1.0).any()  # ... but not all of them

    def test_short_write_lands_torn_page(self):
        inner = MemoryBackingStore(4, SHAPE)
        store = FaultInjectingBackingStore(inner, seed=FAULT_SEED,
                                           short_write_rate=1.0)
        inner.write(1, np.full(SHAPE, 1.0))
        with pytest.raises(InjectedFault, match="short write"):
            store.write(1, np.full(SHAPE, 2.0))
        landed = np.empty(SHAPE)
        inner.read(1, landed)
        flat = landed.reshape(-1)
        assert (flat == 2.0).any()  # prefix of the new payload
        assert (flat == 1.0).any()  # suffix still the old page

    def test_retry_repairs_torn_page(self):
        inner = MemoryBackingStore(4, SHAPE)
        store = RetryingBackingStore(
            FaultInjectingBackingStore(inner, seed=FAULT_SEED,
                                       short_write_rate=0.5),
            retries=16)
        data = np.random.default_rng(2).normal(size=SHAPE)
        store.write(2, data)
        out = np.empty(SHAPE)
        inner.read(2, out)
        np.testing.assert_array_equal(out, data)


class TestCrashPoints:
    def test_crash_fires_after_budgeted_writes(self):
        store = faulty(MemoryBackingStore(8, SHAPE), crash_after_writes=3)
        data = np.zeros(SHAPE)
        for item in range(3):
            store.write(item, data)
        with pytest.raises(SimulatedCrash):
            store.write(3, data)
        assert store.writes_completed == 3
        assert store.crashes_injected == 1

    def test_crash_is_not_an_exception(self):
        """SimulatedCrash models SIGKILL: ``except Exception`` recovery
        paths (write-behind drain, retry loops) must not absorb it."""
        store = faulty(MemoryBackingStore(2, SHAPE), crash_after_writes=0)
        with pytest.raises(SimulatedCrash):
            try:
                store.write(0, np.zeros(SHAPE))
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("SimulatedCrash was absorbed by except Exception")

    def test_retry_wrapper_does_not_absorb_crash(self):
        store = RetryingBackingStore(
            faulty(MemoryBackingStore(2, SHAPE), crash_after_writes=0),
            retries=5)
        with pytest.raises(SimulatedCrash):
            store.write(0, np.zeros(SHAPE))
        assert store.retries_performed == 0


class TestRetryingBackingStore:
    def test_transient_faults_retried_to_success(self):
        inner = MemoryBackingStore(8, SHAPE)
        store = RetryingBackingStore(
            FaultInjectingBackingStore(inner, seed=FAULT_SEED,
                                       read_error_rate=0.4,
                                       write_error_rate=0.4),
            retries=24)
        data = np.random.default_rng(3).normal(size=SHAPE)
        out = np.empty(SHAPE)
        for item in range(8):
            store.write(item, data)
            store.read(item, out)
            np.testing.assert_array_equal(out, data)

    def test_gives_up_after_budget(self):
        store = RetryingBackingStore(
            faulty(MemoryBackingStore(2, SHAPE), write_error_rate=1.0),
            retries=3)
        with pytest.raises(InjectedFault):
            store.write(0, np.zeros(SHAPE))
        assert store.retries_performed == 3
        assert store.give_ups == 1

    def test_permanent_errors_not_retried(self):
        store = RetryingBackingStore(MemoryBackingStore(2, SHAPE), retries=5)
        with pytest.raises(BackingStoreError, match="out of range"):
            store.read(7, np.empty(SHAPE))
        assert store.retries_performed == 0

    def test_oserror_is_transient(self):
        class Dying:
            def __init__(self):
                self.left = 2

            def read(self, item, out):
                if self.left > 0:
                    self.left -= 1
                    raise OSError(5, "Input/output error")
                out[:] = 9.0

            def write(self, item, data): ...
            def flush(self): ...
            def close(self): ...

        store = RetryingBackingStore(Dying(), retries=4)
        out = np.empty(SHAPE)
        store.read(0, out)
        np.testing.assert_array_equal(out, 9.0)
        assert store.retries_performed == 2

    def test_retry_budget_validated(self):
        with pytest.raises(BackingStoreError, match="retries"):
            RetryingBackingStore(MemoryBackingStore(2, SHAPE), retries=-1)

    def test_metrics_counters_wired(self):
        injector = FaultInjectingBackingStore(
            MemoryBackingStore(16, SHAPE), seed=FAULT_SEED,
            write_error_rate=0.9)
        store = RetryingBackingStore(injector, retries=64)
        store.obs = Observer(metrics=True)  # lands on the innermost store
        assert injector.obs is injector.inner.obs is store.obs
        mx = store.obs.metrics
        for item in range(16):
            store.write(item, np.zeros(SHAPE))
        assert mx.value("backing_faults") == injector.faults_injected > 0
        assert mx.value("backing_retries") == store.retries_performed > 0
        # ... and each is one record with enough context to act on
        records = store.obs.spans.records()
        faults = [r for r in records if r.name == "backing_fault"]
        retries = [r for r in records if r.name == "backing_retry"]
        assert len(faults) == injector.faults_injected
        assert len(retries) == store.retries_performed
        for fault, retry in zip(faults, retries):
            assert fault.item == retry.item
            assert fault.args == {"kind": "write",
                                  "attempt": retry.args["attempt"] - 1}


def _make_backing(kind, tmp_path, n):
    tmp_path.mkdir(parents=True, exist_ok=True)
    if kind == "memory":
        return MemoryBackingStore(n, SHAPE)
    if kind == "file":
        return FileBackingStore(tmp_path / "v.bin", n, SHAPE)
    if kind == "multifile":
        return MultiFileBackingStore(tmp_path / "mf", n, SHAPE, num_files=3)
    if kind == "simulated":
        return SimulatedDiskBackingStore(n, SHAPE)
    raise AssertionError(kind)


def _drive(store, n):
    """A deterministic workload with evictions, re-reads and dirty data:
    the strided re-reads update their vectors in place, so those are
    written back at eviction again (a clean victim is not)."""
    rng = np.random.default_rng(17)
    originals = {}
    for item in range(n):
        buf = store.get(item, write_only=True)
        data = rng.normal(size=SHAPE)
        buf[:] = data
        originals[item] = data
    for item in range(0, n, 2):          # strided re-reads force paging
        buf = store.get(item, write_only=False)
        store.mark_dirty(item)
        buf += 1.0
        originals[item] = originals[item] + 1.0
    for item in range(n - 1, -1, -1):    # reverse pass: anti-LRU pattern
        store.get(item, write_only=False)
    store.flush(force=True)
    return originals


class TestCounterParityUnderFaults:
    """The satellite suite: demand/eviction counters must be identical
    with and without transient faults underneath, across all four
    backings, once bounded retry recovers every failure."""

    @pytest.mark.parametrize("kind",
                             ["memory", "file", "multifile", "simulated"])
    def test_demand_and_eviction_parity(self, kind, tmp_path, closing):
        n, m = 12, 4
        clean = closing(AncestralVectorStore(
            n, SHAPE, num_slots=m, policy="lru",
            backing=_make_backing(kind, tmp_path / "clean", n)))
        expected = _drive(clean, n)
        baseline = {k: getattr(clean.stats, k) for k in PARITY_COUNTERS}

        injected = RetryingBackingStore(
            FaultInjectingBackingStore(
                _make_backing(kind, tmp_path / "faulty", n),
                seed=FAULT_SEED, read_error_rate=0.15,
                write_error_rate=0.15, short_read_rate=0.1,
                short_write_rate=0.1),
            retries=32)
        store = closing(AncestralVectorStore(n, SHAPE, num_slots=m,
                                             policy="lru", backing=injected))
        _drive(store, n)
        observed = {k: getattr(store.stats, k) for k in PARITY_COUNTERS}

        assert observed == baseline
        assert injected.inner.faults_injected > 0  # faults actually fired
        assert injected.retries_performed == injected.inner.faults_injected
        for item, data in expected.items():
            np.testing.assert_array_equal(store.read_item(item), data)
        store.validate()


class TestWrapperTransparency:
    def test_attribute_forwarding(self):
        inner = SimulatedDiskBackingStore(4, SHAPE)
        store = RetryingBackingStore(faulty(inner), retries=2)
        store.write(0, np.zeros(SHAPE))
        assert store.simulated_seconds == inner.simulated_seconds > 0.0
        assert store.num_items == 4

    def test_flush_and_close_delegate(self, tmp_path):
        inner = FileBackingStore(tmp_path / "v.bin", 2, SHAPE)
        store = RetryingBackingStore(faulty(inner), retries=2)
        store.write(0, np.full(SHAPE, 5.0))
        store.flush()
        store.close()
        with pytest.raises(BackingStoreError, match="closed"):
            inner.read(0, np.empty(SHAPE))
