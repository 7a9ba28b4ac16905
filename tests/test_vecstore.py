"""Unit tests for the out-of-core vector store (the paper's §3.2 machinery)."""

import numpy as np
import pytest

from repro.core.backing import MemoryBackingStore
from repro.core.vecstore import MIN_SLOTS, AncestralVectorStore, slots_for_fraction
from repro.errors import OutOfCoreError, PinnedSlotError

SHAPE = (5, 2, 4)


def make_store(n=10, m=4, **kwargs):
    kwargs.setdefault("policy", "lru")
    return AncestralVectorStore(n, SHAPE, num_slots=m, **kwargs)


class TestGeometry:
    def test_fraction_math(self):
        s = AncestralVectorStore(100, SHAPE, fraction=0.25)
        assert s.num_slots == 25
        assert s.fraction == pytest.approx(0.25)

    @pytest.mark.parametrize("n, f, m", [
        (78, 0.75, 59), (1288 - 2, 0.75, 965), (18, 0.25, 5), (100, 0.25, 25),
        (100, 0.001, MIN_SLOTS), (2, 0.5, 2),
    ])
    def test_slots_for_fraction_rounds_half_up(self, n, f, m):
        """One rule for a fraction's slot count: ``f·n`` rounded half up
        (not to even), clamped to [MIN_SLOTS, n] — what the store uses."""
        assert slots_for_fraction(f, n) == m
        assert AncestralVectorStore(n, (1,), fraction=f).num_slots == m

    def test_fraction_one_keeps_everything(self):
        s = AncestralVectorStore(10, SHAPE)  # default fraction=1.0
        assert s.num_slots == 10

    def test_minimum_three_slots_enforced(self):
        """Paper: 'we must ensure that m >= 3'."""
        s = AncestralVectorStore(100, SHAPE, fraction=0.001)
        assert s.num_slots == MIN_SLOTS

    def test_tiny_stores_capped_at_num_items(self):
        s = AncestralVectorStore(2, SHAPE, num_slots=50)
        assert s.num_slots == 2

    def test_item_bytes(self):
        s = make_store()
        assert s.item_bytes == 5 * 2 * 4 * 8
        assert s.ram_bytes() == 4 * s.item_bytes

    def test_both_geometry_args_rejected(self):
        with pytest.raises(OutOfCoreError, match="not both"):
            AncestralVectorStore(10, SHAPE, num_slots=4, fraction=0.5)

    def test_bad_fraction_rejected(self):
        for f in (0.0, -0.5, 1.5):
            with pytest.raises(OutOfCoreError, match="fraction"):
                AncestralVectorStore(10, SHAPE, fraction=f)

    def test_zero_items_rejected(self):
        with pytest.raises(OutOfCoreError, match="at least one item"):
            AncestralVectorStore(0, SHAPE)


class TestAccessPath:
    def test_cold_miss_then_hit(self):
        s = make_store()
        s.get(0)
        assert (s.stats.misses, s.stats.hits) == (1, 0)
        s.get(0)
        assert (s.stats.misses, s.stats.hits) == (1, 1)

    def test_data_survives_eviction_roundtrip(self):
        s = make_store(n=10, m=3)
        v = s.get(0, write_only=True)
        v[:] = 7.25
        for item in range(1, 10):  # force 0 out
            s.get(item, write_only=True)[:] = float(item)
        assert not s.is_resident(0)
        again = s.get(0)
        np.testing.assert_array_equal(again, 7.25)

    def test_view_is_writable_slot(self):
        s = make_store()
        v = s.get(3, write_only=True)
        assert v.shape == SHAPE
        v[0, 0, 0] = 1.5
        assert s.get(3)[0, 0, 0] == 1.5

    def test_miss_rate_zero_at_full_fraction(self):
        s = AncestralVectorStore(8, SHAPE)
        for _ in range(3):
            for i in range(8):
                s.get(i, write_only=True)
        # Only the 8 cold misses; everything else hits.
        assert s.stats.misses == 8
        assert s.stats.requests == 24

    def test_out_of_range_rejected(self):
        s = make_store()
        with pytest.raises(OutOfCoreError, match="out of range"):
            s.get(10)
        with pytest.raises(OutOfCoreError, match="out of range"):
            s.get(0, pins=(99,))


class TestPinning:
    def test_pinned_items_never_evicted(self):
        s = make_store(n=10, m=3)
        s.get(0, write_only=True)
        s.get(1, write_only=True)
        for item in range(2, 10):
            s.get(item, pins=(0, 1), write_only=True)
            assert s.is_resident(0) and s.is_resident(1)

    def test_all_pinned_raises(self):
        s = make_store(n=10, m=3)
        s.get(0, write_only=True)
        s.get(1, write_only=True)
        s.get(2, write_only=True)
        with pytest.raises(PinnedSlotError, match="pinned"):
            s.get(3, pins=(0, 1, 2))

    def test_pins_of_nonresident_items_are_noops(self):
        s = make_store(n=10, m=3)
        s.get(0, pins=(7, 8), write_only=True)  # 7, 8 not resident: fine
        assert s.is_resident(0)


class TestReadSkipping:
    def test_write_only_miss_skips_read(self):
        s = make_store(n=10, m=3)
        s.get(0, write_only=True)
        assert s.stats.read_skips == 1
        assert s.stats.reads == 0

    def test_read_miss_reads(self):
        s = make_store(n=10, m=3)
        s.get(0, write_only=False)
        assert s.stats.reads == 1
        assert s.stats.read_skips == 0

    def test_disabled_skipping_always_reads(self):
        s = make_store(n=10, m=3, read_skipping=False)
        s.get(0, write_only=True)
        assert s.stats.reads == 1
        assert s.stats.read_skips == 0

    def test_read_rate_less_than_miss_rate_with_writes(self):
        s = make_store(n=10, m=3)
        for _ in range(3):
            for i in range(10):
                s.get(i, write_only=(i % 2 == 0))
        assert s.stats.read_rate < s.stats.miss_rate

    def test_poison_marks_skipped_slots(self):
        s = make_store(n=10, m=3, poison_skipped_reads=True)
        v = s.get(0, write_only=True)
        assert np.isnan(v).all()


class TestDirtyTracking:
    def test_clean_evictions_skip_writeback(self):
        s = make_store(n=10, m=3, track_dirty=True)
        for i in range(10):
            s.get(i, write_only=True)[:] = i
        s.stats.reset()
        for i in range(10):
            s.get(i, write_only=False)  # read-only pass
        # The 3 leftover dirty residents from the write pass are written back
        # once; every later (clean) eviction skips its write.
        assert s.stats.writes == 3
        assert s.stats.write_skips == 7

    def test_paper_mode_always_writes_back(self):
        s = make_store(n=10, m=3, track_dirty=False)
        for i in range(10):
            s.get(i, write_only=False)
        # 10 misses with 3 slots -> 7 evictions, all written back.
        assert s.stats.writes == 7

    def test_mark_dirty(self):
        s = make_store(n=10, m=3, track_dirty=True)
        s.get(0)
        s.mark_dirty(0)
        for i in range(1, 10):
            s.get(i)
        assert s.stats.writes >= 1  # item 0's eviction wrote back

    def test_mark_dirty_nonresident_rejected(self):
        s = make_store(n=10, m=3)
        with pytest.raises(OutOfCoreError, match="not resident"):
            s.mark_dirty(9)


class TestBulkOperations:
    def test_flush_persists_residents(self):
        backing = MemoryBackingStore(10, SHAPE)
        s = make_store(n=10, m=4, backing=backing)
        s.get(0, write_only=True)[:] = 3.5
        s.flush()
        out = np.empty(SHAPE)
        backing.read(0, out)
        np.testing.assert_array_equal(out, 3.5)

    def test_flush_honours_track_dirty(self):
        """Satellite fix: flush() used to write every resident even with
        track_dirty on, defeating the clean-eviction optimization."""
        backing = MemoryBackingStore(10, SHAPE)
        s = make_store(n=10, m=4, backing=backing, track_dirty=True)
        for i in range(4):
            s.get(i, write_only=True)[:] = i
        s.flush()                      # all dirty -> all written
        s.stats.reset()
        for i in range(4):
            s.get(i)                   # hits; residents are clean now
        s.flush()
        assert s.stats.writes == 0
        assert s.stats.write_skips == 4

    def test_flush_force_writes_clean_residents(self):
        """force=True is the checkpointing escape hatch: persist everything."""
        backing = MemoryBackingStore(10, SHAPE)
        s = make_store(n=10, m=4, backing=backing, track_dirty=True)
        for i in range(4):
            s.get(i, write_only=True)[:] = i + 1
        s.flush()
        s.stats.reset()
        # corrupt the backing copy to prove force re-persists clean residents
        backing.write(2, np.zeros(SHAPE))
        s.flush(force=True)
        assert s.stats.writes == 4
        assert s.stats.write_skips == 0
        out = np.empty(SHAPE)
        backing.read(2, out)
        np.testing.assert_array_equal(out, 3.0)

    def test_evict_all_empties_store(self):
        s = make_store(n=10, m=4)
        for i in range(4):
            s.get(i, write_only=True)[:] = i
        s.evict_all()
        assert s.resident_items() == []
        np.testing.assert_array_equal(s.read_item(2), 2.0)
        s.validate()

    def test_read_item_does_not_touch_stats(self):
        s = make_store()
        s.get(0, write_only=True)[:] = 1.0
        before = s.stats.requests
        s.read_item(0)
        s.read_item(5)  # on "disk"
        assert s.stats.requests == before

    def test_validate_detects_corruption(self):
        s = make_store()
        s.get(0, write_only=True)
        s._item_slot[0] = 2  # corrupt the mapping
        with pytest.raises(OutOfCoreError, match="mismatch"):
            s.validate()


class TestEquivalenceWithDict:
    def test_random_workload_matches_reference(self, rng):
        """Property-style: store contents always equal a plain dict model."""
        s = make_store(n=12, m=4)
        reference = {i: np.zeros(SHAPE) for i in range(12)}
        for step in range(400):
            item = int(rng.integers(12))
            write = bool(rng.random() < 0.5)
            others = [int(x) for x in rng.choice(12, size=2, replace=False)]
            pins = tuple(x for x in others if x != item)[:2]
            view = s.get(item, pins=pins, write_only=write)
            if write:
                value = float(step)
                view[:] = value
                reference[item][:] = value
            else:
                np.testing.assert_array_equal(view, reference[item])
            s.validate()
