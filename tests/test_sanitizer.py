"""Tests for the debug-mode slot-borrow sanitizer (``REPRO_SANITIZE=1``).

Under the sanitizer every view handed out by ``get()`` is a
``BorrowedSlotView`` that remembers its slot's generation; the store bumps
the generation on eviction, so any later use of the stale view raises
``BorrowError`` instead of silently aliasing another vector's data.
"""

import numpy as np
import pytest

from repro.core.backing import MemoryBackingStore
from repro.core.layout import StorageLayout
from repro.core.vecstore import AncestralVectorStore, BorrowedSlotView
from repro.errors import BorrowError, OutOfCoreError
from tests.test_async_io import GatedBackingStore

SHAPE = (5,)


def make_store(**kw):
    kw.setdefault("num_slots", 3)
    kw.setdefault("sanitize", True)
    return AncestralVectorStore(8, SHAPE, **kw)


def evict_everything(store):
    store.evict_all()


class TestBorrowTracking:
    def test_get_returns_tracked_view(self):
        store = make_store()
        view = store.get(0)
        assert isinstance(view, BorrowedSlotView)
        assert store.active_borrows() == 1

    def test_sanitizer_off_returns_plain_ndarray(self):
        store = make_store(sanitize=False)
        view = store.get(0)
        assert type(view) is np.ndarray
        assert store.active_borrows() == 0

    def test_env_var_enables_sanitizer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        store = AncestralVectorStore(8, SHAPE, num_slots=3)
        assert isinstance(store.get(0), BorrowedSlotView)

    def test_env_var_zero_disables_sanitizer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        store = AncestralVectorStore(8, SHAPE, num_slots=3)
        assert type(store.get(0)) is np.ndarray

    def test_dead_views_are_pruned(self):
        store = make_store()
        for item in range(3):
            store.get(item)  # views dropped immediately
        assert store.active_borrows() == 0


class TestUseAfterEvict:
    def test_getitem_after_evict_raises(self):
        store = make_store()
        view = store.get(0, write_only=True)
        view[:] = 7.0
        evict_everything(store)
        with pytest.raises(BorrowError, match="use-after-evict"):
            view[0]

    def test_setitem_after_evict_raises(self):
        store = make_store()
        view = store.get(0)
        evict_everything(store)
        with pytest.raises(BorrowError):
            view[:] = 1.0

    def test_ufunc_after_evict_raises(self):
        store = make_store()
        view = store.get(0)
        evict_everything(store)
        with pytest.raises(BorrowError):
            view + 1.0

    def test_array_function_after_evict_raises(self):
        store = make_store()
        view = store.get(0)
        evict_everything(store)
        with pytest.raises(BorrowError):
            np.sum(view)

    def test_demand_eviction_invalidates_view(self):
        # A view goes stale through the normal capacity path too, not just
        # evict_all: touch enough other items to recycle slot 0.
        store = make_store()
        view = store.get(0)
        for item in range(1, 8):
            store.get(item)
        assert not store.is_resident(0)
        with pytest.raises(BorrowError):
            view[0]

    def test_refetch_after_evict_yields_valid_view(self):
        store = make_store()
        view = store.get(0)
        store.mark_dirty(0)          # declared: the write goes back at eviction
        view[:] = 3.5
        evict_everything(store)
        fresh = store.get(0)
        np.testing.assert_array_equal(np.asarray(fresh), np.full(SHAPE, 3.5))

    def test_error_names_item_and_slot(self):
        store = make_store()
        view = store.get(4)
        evict_everything(store)
        with pytest.raises(BorrowError, match=r"item 4"):
            view[0]


class TestWriteThroughReadView:
    """A clean victim is not written back, so a write through the view of
    a read access would be lost: under the sanitizer it raises instead."""

    def test_undeclared_write_is_lost_without_the_sanitizer(self):
        store = make_store(sanitize=False)
        store.get(0)[:] = 3.5
        evict_everything(store)
        assert store.stats.write_skips == 1
        assert not np.any(store.get(0) == 3.5)

    def test_undeclared_write_raises(self):
        store = make_store()
        view = store.get(0)
        with pytest.raises(BorrowError, match="read view of item 0"):
            view[:] = 3.5
        with pytest.raises(BorrowError, match="mark_dirty"):
            view += 1.0
        with pytest.raises(ValueError, match="read-only"):
            view[1:3][...] = 3.5     # derived views inherit the flag
        np.testing.assert_array_equal(np.asarray(view), np.zeros(SHAPE))

    def test_write_only_and_declared_views_are_writeable(self):
        store = make_store()
        store.get(0, write_only=True)[:] = 1.0
        view = store.get(1)
        store.mark_dirty(1)
        view += 2.0
        store.evict_all()
        assert store.stats.writes == 2
        np.testing.assert_array_equal(store.read_item(1), np.full(SHAPE, 2.0))

    def test_private_copy_of_a_spilled_read_is_read_only(self):
        # LRU evicts 1, 2 and then 0, which the run's first access lent.
        store = make_store()
        for item in (0, 1, 2):
            store.get(item, write_only=True)
        views = store.get_many([(item, (), False) for item in (0, 3, 4, 5)])
        assert not isinstance(views[0], BorrowedSlotView)
        with pytest.raises(ValueError, match="read-only"):
            views[0][0] = 1.0


class TestMarkClean:
    """``mark_clean`` declares a slot equal to its backing copy; under the
    sanitizer that is checked first, since a wrong declaration loses the
    write at the next clean eviction."""

    def test_differing_rows_raise_under_the_sanitizer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        store = AncestralVectorStore(8, SHAPE, num_slots=3)
        store.get(0, write_only=True)[:] = 3.5     # the backing holds zeros
        with pytest.raises(OutOfCoreError, match="differ from the backing"):
            store.mark_clean(0)
        store.evict_all()                           # still dirty: written
        assert store.stats.writes == 1
        np.testing.assert_array_equal(store.read_item(0), np.full(SHAPE, 3.5))

    def test_without_the_sanitizer_only_the_dirty_bit_clears(self):
        store = make_store(sanitize=False)
        store.get(0, write_only=True)[:] = 3.5
        store.mark_clean(0)
        store.evict_all()
        assert (store.stats.writes, store.stats.write_skips) == (0, 1)
        assert not np.any(store.read_item(0) == 3.5)

    def test_equal_rows_are_clean_and_read_only_again(self):
        store = make_store()
        view = store.get(0, write_only=True)
        view[:] = 0.0                               # what the backing holds
        store.mark_clean(0)
        with pytest.raises(BorrowError, match="read view of item 0"):
            view[:] = 1.0
        store.evict_all()
        assert (store.stats.writes, store.stats.write_skips) == (0, 1)

    def test_staged_copy_and_live_rows_only(self):
        """The compare reads the newest copy (the write-behind staging
        buffer's) and only a ragged block's live rows."""
        layout = StorageLayout(4, (5, 2), block_sites=3)  # blocks of 3 and 2
        store = AncestralVectorStore(layout=layout, num_slots=3,
                                     writeback_depth=2, sanitize=True)
        try:
            ragged = layout.item_of(0, 1)
            view = store.get(ragged, write_only=True)
            view[:] = 2.0
            store.evict_all()                       # staged or written: 2.0
            view = store.get(ragged, write_only=True)
            view[:2] = 2.0                          # the live rows
            view[2:] = -1.0                         # padding differs
            store.mark_clean(ragged)
        finally:
            store.close()

    def test_the_caller_names_the_live_rows(self):
        """A vector stored as site classes holds them in its leading rows;
        the rows past them are never read, so only the named rows count."""
        store = make_store()
        view = store.get(0, write_only=True)
        view[:2] = 0.0                              # the backing's rows
        view[2:] = -1.0                             # a tail that differs
        store.mark_clean(0, 2)
        store.evict_all()
        assert (store.stats.writes, store.stats.write_skips) == (0, 1)
        view = store.get(1, write_only=True)
        view[:] = 0.0
        view[1] = 4.0                               # a class row differs
        with pytest.raises(OutOfCoreError, match="differ from the backing"):
            store.mark_clean(1, 2)

    def test_a_vector_not_resident_is_left_alone(self):
        store = make_store()
        store.mark_clean(5)
        assert not store.is_resident(5)


class TestStaleTailIsPoisoned:
    """A transfer moves an item's live rows ``[0, k)`` only; every read-in
    — from the backing store, the write-behind staging buffer or a
    prefetch — fills the rest of its slot with NaN under the sanitizer."""

    @staticmethod
    def _written_then_evicted(store):
        """Item 0 written with 2 live rows, then evicted by 1, 2, 3."""
        store.get(0, write_only=True, rows=2)[:] = np.arange(5.0)
        for item in (1, 2, 3):
            store.get(item, write_only=True)

    @staticmethod
    def _assert_poisoned(view):
        np.testing.assert_array_equal(view[:2], [0.0, 1.0])
        assert np.isnan(view[2:]).all()

    def test_a_demand_read(self):
        store = make_store()
        self._written_then_evicted(store)
        self._assert_poisoned(store.get(0))
        assert store.stats.bytes_read == 2 * 8

    def test_a_staging_serve(self):
        backing = GatedBackingStore(MemoryBackingStore(8, SHAPE))
        store = make_store(backing=backing, writeback_depth=4)
        try:
            backing.gate.clear()                    # item 0 stays staged
            self._written_then_evicted(store)
            self._assert_poisoned(store.get(0))
            assert store.stats.writeback_read_hits == 1
        finally:
            backing.gate.set()
            store.close()

    def test_a_prefetch(self):
        store = make_store()
        self._written_then_evicted(store)
        assert store.prefetch_load(0)
        self._assert_poisoned(store.get(0))
        assert store.stats.prefetch_bytes == 2 * 8

    def test_without_the_sanitizer_the_tail_is_left_as_it_was(self):
        store = make_store(sanitize=False)
        self._written_then_evicted(store)
        view = store.get(0)
        np.testing.assert_array_equal(view[:2], [0.0, 1.0])
        assert not np.isnan(view).any()


class TestTransparency:
    """The sanitizer must not change numerics or normal view semantics."""

    def test_writes_through_view_land_in_slot(self):
        store = make_store()
        view = store.get(2, write_only=True)
        view[:] = np.arange(5, dtype=float)
        store.flush(force=True)
        np.testing.assert_array_equal(store.read_item(2),
                                      np.arange(5, dtype=float))

    def test_derived_arrays_are_plain_and_safe(self):
        store = make_store()
        view = store.get(0, write_only=True)
        view[:] = 2.0
        sliced = view[1:3]
        summed = view + view
        assert type(sliced) is np.ndarray
        assert type(summed) is np.ndarray
        evict_everything(store)
        # Derived arrays took their own copy/view before the evict; using
        # them is the caller's business — only the borrow itself is checked.
        assert float(summed[0]) == 4.0

    def test_results_identical_with_and_without_sanitizer(self):
        rng = np.random.default_rng(1234)
        data = rng.standard_normal((8, *SHAPE))

        def run(sanitize):
            store = AncestralVectorStore(8, SHAPE, num_slots=3,
                                         sanitize=sanitize)
            for item in range(8):
                v = store.get(item, write_only=True)
                v[:] = data[item]
            for _ in range(3):
                for item in range(8):
                    v = store.get(item)
                    store.mark_dirty(item)
                    v += 0.25 * np.asarray(v)
            return np.stack([store.read_item(i) for i in range(8)])

        np.testing.assert_array_equal(run(False), run(True))
