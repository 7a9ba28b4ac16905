"""Tests for I/O statistics bookkeeping and small utilities."""

import numpy as np
import pytest

from repro.core.stats import IoStats
from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.timing import format_bytes, format_seconds


class TestIoStats:
    def test_rates_empty(self):
        s = IoStats()
        assert s.miss_rate == 0.0
        assert s.read_rate == 0.0
        assert s.hit_rate == 0.0

    def test_rates(self):
        s = IoStats(requests=10, hits=7, misses=3, reads=2, read_skips=1)
        assert s.miss_rate == pytest.approx(0.3)
        assert s.read_rate == pytest.approx(0.2)
        assert s.hit_rate == pytest.approx(0.7)

    def test_swaps_and_bytes(self):
        s = IoStats(reads=2, writes=3, bytes_read=200, bytes_written=300)
        assert s.swaps == 5
        assert s.io_bytes == 500

    def test_physical_writes_sync_path(self):
        s = IoStats(writes=7)
        assert not s.writeback_enabled
        assert s.physical_writes == 7

    def test_physical_writes_async_before_any_drain(self):
        """Regression: write-behind enabled but nothing drained yet.

        ``physical_writes`` used to key on ``writeback_writes`` being
        non-zero, so an async store that had not drained yet (or whose
        victims all coalesced) was misreported as having done ``writes``
        synchronous writes. The explicit ``writeback_enabled`` flag must
        make it report 0 physical writes instead.
        """
        s = IoStats(writes=7)
        s.writeback_enabled = True
        assert s.physical_writes == 0

    def test_physical_writes_async_after_drain(self):
        s = IoStats(writes=7, writeback_writes=3)
        s.writeback_enabled = True
        assert s.physical_writes == 3

    def test_delta_preserves_writeback_flag(self):
        s = IoStats(writes=4)
        s.writeback_enabled = True
        s.snapshot("phase")
        s.writes = 9
        d = s.delta("phase")
        assert d.writeback_enabled
        assert d.physical_writes == 0

    def test_reset_preserves_writeback_flag(self):
        s = IoStats(writes=4)
        s.writeback_enabled = True
        s.reset()
        assert s.writeback_enabled

    def test_reset(self):
        s = IoStats(requests=5, misses=2, reads=1)
        s.reset()
        assert s.requests == s.misses == s.reads == 0

    def test_snapshot_delta(self):
        s = IoStats()
        s.requests, s.misses = 10, 4
        s.snapshot("phase")
        s.requests, s.misses = 25, 7
        d = s.delta("phase")
        assert d.requests == 15
        assert d.misses == 3
        assert d.miss_rate == pytest.approx(0.2)

    def test_unknown_snapshot_raises(self):
        with pytest.raises(KeyError, match="no snapshot"):
            IoStats().delta("nope")

    def test_as_row_contains_rates(self):
        row = IoStats(requests=4, misses=1, reads=1).as_row()
        assert row["miss_rate"] == pytest.approx(0.25)
        assert "swaps" in row

    def test_str_is_informative(self):
        text = str(IoStats(requests=4, misses=1, reads=1))
        assert "miss_rate" in text


class TestRng:
    def test_int_seed_deterministic(self):
        assert as_rng(5).integers(100) == as_rng(5).integers(100)

    def test_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert as_rng(g) is g

    def test_spawn_independent_streams(self):
        a, b = spawn_rngs(7, 2)
        assert a.integers(1 << 30) != b.integers(1 << 30)

    def test_spawn_deterministic(self):
        a1, _ = spawn_rngs(7, 2)
        a2, _ = spawn_rngs(7, 2)
        assert a1.integers(1 << 30) == a2.integers(1 << 30)


class TestTiming:
    @pytest.mark.parametrize(
        "n,expected",
        [(0, "0 B"), (1023, "1023 B"), (1536, "1.5 KiB"),
         (1_280_000, "1.2 MiB"), (32 * 1024**3, "32.0 GiB")],
    )
    def test_format_bytes(self, n, expected):
        assert format_bytes(n) == expected

    @pytest.mark.parametrize(
        "s,expected",
        [(0.5, "0.5s"), (90, "1m30.0s"), (3725, "1h02m05.0s")],
    )
    def test_format_seconds(self, s, expected):
        assert format_seconds(s) == expected
