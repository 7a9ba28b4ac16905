"""Compressed backing tier: framing, reattach, compaction, bit-exact CLVs."""

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import (
    GTR,
    LikelihoodEngine,
    RateModel,
    clv_geometry,
    simulate_alignment,
    yule_tree,
)
from repro.core.compress import (
    CODEC,
    COMPACT_THRESHOLD,
    INDEX_VERSION,
    CompressedFileBackingStore,
)
from repro.errors import BackingStoreError
from repro.obs import Observer

SHAPE = (4, 2, 4)


def roundtrip(store, n):
    rng = np.random.default_rng(9)
    originals = {}
    for item in range(n):
        data = rng.normal(size=SHAPE)
        store.write(item, data)
        originals[item] = data
    for item in range(n):
        out = np.empty(SHAPE)
        store.read(item, out)
        np.testing.assert_array_equal(out, originals[item])  # bit-exact
    return originals


class TestCompressedStore:
    def test_roundtrip_bit_exact(self, tmp_path):
        s = CompressedFileBackingStore(tmp_path / "v.czb", 6, SHAPE)
        roundtrip(s, 6)
        s.close()

    def test_unwritten_items_read_zero(self, tmp_path):
        s = CompressedFileBackingStore(tmp_path / "v.czb", 3, SHAPE)
        out = np.ones(SHAPE)
        s.read(1, out)
        np.testing.assert_array_equal(out, 0.0)
        s.close()

    def test_range_and_closed_checked(self, tmp_path):
        s = CompressedFileBackingStore(tmp_path / "v.czb", 3, SHAPE)
        with pytest.raises(BackingStoreError, match="out of range"):
            s.read(3, np.empty(SHAPE))
        with pytest.raises(BackingStoreError, match="mismatch"):
            s.write(0, np.zeros((2, 2)))
        s.close()
        with pytest.raises(BackingStoreError, match="closed"):
            s.write(0, np.zeros(SHAPE))

    def test_compressible_vectors_shrink_the_heap(self, tmp_path):
        path = tmp_path / "v.czb"
        s = CompressedFileBackingStore(path, 8, SHAPE)
        for item in range(8):
            s.write(item, np.full(SHAPE, float(item)))
        s.flush()
        logical = 8 * s.item_bytes
        assert path.stat().st_size < logical
        assert s.compression_ratio > 1.0
        assert s.stored_bytes_written < s.raw_bytes_written == logical
        s.close()

    def test_in_place_rewrite_reuses_extent(self, tmp_path):
        s = CompressedFileBackingStore(tmp_path / "v.czb", 4, SHAPE)
        s.write(0, np.full(SHAPE, 1.0))
        first = s._extents[0]
        s.write(0, np.full(SHAPE, 2.0))
        second = s._extents[0]
        assert second[0] == first[0]          # same offset: reused
        out = np.empty(SHAPE)
        s.read(0, out)
        np.testing.assert_array_equal(out, 2.0)
        s.close()

    def test_grown_rewrite_appends_new_extent(self, tmp_path):
        s = CompressedFileBackingStore(tmp_path / "v.czb", 4, SHAPE)
        s.write(0, np.zeros(SHAPE))           # tiny compressed record
        first = s._extents[0]
        incompressible = np.random.default_rng(4).normal(size=SHAPE)
        s.write(0, incompressible)            # larger than the old capacity
        second = s._extents[0]
        assert second[1] > first[2]           # would not have fit
        assert second[0] >= first[0] + first[2]  # appended past the old extent
        out = np.empty(SHAPE)
        s.read(0, out)
        np.testing.assert_array_equal(out, incompressible)
        s.close()

    def test_flush_then_reattach_restores_everything(self, tmp_path):
        path = tmp_path / "v.czb"
        s = CompressedFileBackingStore(path, 6, SHAPE)
        originals = roundtrip(s, 6)
        s.close()
        doc = json.loads((tmp_path / "v.czb.idx").read_text())
        assert doc["codec"] == CODEC == "zlib:6"
        s2 = CompressedFileBackingStore(path, 6, SHAPE)
        out = np.empty(SHAPE)
        for item, data in originals.items():
            s2.read(item, out)
            np.testing.assert_array_equal(out, data)
        s2.close()

    def test_reattach_rejects_geometry_mismatch(self, tmp_path):
        path = tmp_path / "v.czb"
        CompressedFileBackingStore(path, 6, SHAPE).close()
        with pytest.raises(BackingStoreError, match="geometry mismatch"):
            CompressedFileBackingStore(path, 7, SHAPE)

    def test_reattach_rejects_bad_index_version(self, tmp_path):
        path = tmp_path / "v.czb"
        CompressedFileBackingStore(path, 2, SHAPE).close()
        idx = tmp_path / "v.czb.idx"
        doc = json.loads(idx.read_text())
        doc["version"] = 999
        idx.write_text(json.dumps(doc))
        with pytest.raises(BackingStoreError, match="index version"):
            CompressedFileBackingStore(path, 2, SHAPE)

    def test_reattach_rejects_another_codec(self, tmp_path):
        """The index names its codec; a heap in any codec but zlib:6 is
        refused, naming both, before the heap file is opened."""
        path = tmp_path / "v.czb"
        CompressedFileBackingStore(path, 2, SHAPE).close()
        idx = tmp_path / "v.czb.idx"
        doc = json.loads(idx.read_text())
        doc["codec"] = "null"
        idx.write_text(json.dumps(doc))
        fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BackingStoreError, match=r"'null' vs 'zlib:6'"):
            CompressedFileBackingStore(path, 2, SHAPE)
        assert len(os.listdir("/proc/self/fd")) == fds

    def test_heap_written_by_an_earlier_version_reattaches(self, tmp_path):
        """A heap and index written before the codec was fixed at zlib:6
        (tests/fixtures/compressed_v1.czb: items 0 and 2 random normals,
        item 1 rewritten in place with zeros, item 3 never written)."""
        assert INDEX_VERSION == 1
        fixtures = Path(__file__).parent / "fixtures"
        for name in ("compressed_v1.czb", "compressed_v1.czb.idx"):
            shutil.copy(fixtures / name, tmp_path / name)
        rng = np.random.default_rng(2011)
        expected = [rng.normal(size=SHAPE) for _ in range(3)]
        expected[1] = np.zeros(SHAPE)
        expected.append(np.zeros(SHAPE))
        s = CompressedFileBackingStore(tmp_path / "compressed_v1.czb", 4, SHAPE)
        try:
            out = np.empty(SHAPE)
            for item, data in enumerate(expected):
                s.read(item, out)
                assert out.tobytes() == data.tobytes()    # bit-identical
        finally:
            s.close()

    def test_index_published_atomically(self, tmp_path):
        path = tmp_path / "v.czb"
        s = CompressedFileBackingStore(path, 2, SHAPE)
        s.write(0, np.zeros(SHAPE))
        s.flush()
        assert not (tmp_path / "v.czb.idx.tmp").exists()
        doc = json.loads((tmp_path / "v.czb.idx").read_text())
        assert doc["extents"][0] is not None
        assert doc["extents"][1] is None
        s.close()

    def test_unflushed_writes_not_in_published_index(self, tmp_path):
        """Crash-safety ordering: the index on disk never references
        bytes that were not durable when it was published."""
        path = tmp_path / "v.czb"
        s = CompressedFileBackingStore(path, 2, SHAPE)
        s.write(0, np.zeros(SHAPE))
        s.flush()
        s.write(1, np.ones(SHAPE))            # written but never flushed
        doc = json.loads((tmp_path / "v.czb.idx").read_text())
        assert doc["extents"][1] is None
        s.close()                              # close() flushes for real

    def test_metrics_and_probe_wired(self, tmp_path):
        s = CompressedFileBackingStore(tmp_path / "v.czb", 4, SHAPE)
        s.obs = obs = Observer(metrics=True)
        mx = obs.metrics
        s.write(0, np.full(SHAPE, 2.0))
        s.read(0, np.empty(SHAPE))
        assert mx.value("compress_bytes_raw") == 2 * s.item_bytes
        assert 0 < mx.value("compress_bytes_stored") < 2 * s.item_bytes
        hists = mx.snapshot()["histograms"]
        assert hists["backing_read_seconds"]["count"] \
            == hists["backing_write_seconds"]["count"] == 1
        s.close()

    def test_float32_roundtrip(self, tmp_path):
        s = CompressedFileBackingStore(tmp_path / "v.czb", 3, SHAPE,
                                       dtype=np.float32)
        data = np.arange(np.prod(SHAPE), dtype=np.float32).reshape(SHAPE)
        s.write(1, data)
        out = np.empty(SHAPE, dtype=np.float32)
        s.read(1, out)
        np.testing.assert_array_equal(out, data)
        s.close()


class TestEngineOnCompressedBacking:
    def test_lnl_bit_identical_to_memory_backing(self, tmp_path):
        from repro.core.layout import make_layout

        tree = yule_tree(10, seed=701)
        model = GTR((1, 2.1, 0.8, 1.1, 2.7, 1), (0.28, 0.22, 0.26, 0.24))
        rates = RateModel.gamma(0.6, 4)
        aln = simulate_alignment(tree, model, 200, rates=rates, seed=702)

        ref = LikelihoodEngine(tree.copy(), aln, model, rates,
                               fraction=0.3, policy="lru")
        expected = ref.loglikelihood()

        layout = make_layout("whole", *clv_geometry(tree, aln, model, rates))
        backing = CompressedFileBackingStore.from_layout(
            tmp_path / "clv.czb", layout)
        eng = LikelihoodEngine(tree.copy(), aln, model, rates,
                               layout=layout, fraction=0.3, policy="lru",
                               backing=backing)
        assert eng.loglikelihood() == expected    # bit-identical
        assert backing.stored_bytes_written < backing.raw_bytes_written
        assert backing.compression_ratio > 1.0


def _fragment(store, n, seed=31):
    """Rewrite every item with progressively less compressible data so
    grown records relocate and leak their old extents."""
    rng = np.random.default_rng(seed)
    originals = {}
    for item in range(n):
        store.write(item, np.zeros(SHAPE))          # tiny compressed record
    for item in range(n):
        data = rng.normal(size=SHAPE)               # incompressible: grows
        store.write(item, data)
        originals[item] = data
    return originals


def _fragment_past_threshold(store, n, seed=37):
    """Grow every record four times over, a little more random data each
    time, so most of the heap ends up stranded."""
    rng = np.random.default_rng(seed)
    originals = {}
    for item in range(n):
        store.write(item, np.zeros(SHAPE))
    for filled in (8, 16, 24, 32):
        for item in range(n):
            data = np.zeros(SHAPE)
            data.reshape(-1)[:filled] = rng.normal(size=filled)
            store.write(item, data)
            originals[item] = data
    return originals


class TestHeapCompactor:
    def test_compact_reclaims_leaked_bytes_bit_exact(self, tmp_path):
        s = CompressedFileBackingStore(tmp_path / "v.czb", 8, SHAPE)
        originals = _fragment(s, 8)
        assert s.leaked_bytes > 0
        before = s._cursor
        s.compact()
        assert s.leaked_bytes == 0
        assert s.compactions == 1
        assert s._cursor < before               # heap actually shrank
        out = np.empty(SHAPE)
        for item, data in originals.items():
            s.read(item, out)
            np.testing.assert_array_equal(out, data)   # bit-exact
        s.close()

    def test_compacted_store_reattaches(self, tmp_path):
        s = CompressedFileBackingStore(tmp_path / "v.czb", 6, SHAPE)
        originals = _fragment(s, 6)
        s.compact()
        s.flush()
        s.close()
        s2 = CompressedFileBackingStore(tmp_path / "v.czb", 6, SHAPE)
        out = np.empty(SHAPE)
        for item, data in originals.items():
            s2.read(item, out)
            np.testing.assert_array_equal(out, data)
        assert s2.leaked_bytes == 0
        s2.close()

    def test_flush_triggers_compaction_over_threshold(self, tmp_path):
        s = CompressedFileBackingStore(tmp_path / "v.czb", 8, SHAPE)
        originals = _fragment_past_threshold(s, 8)
        assert s.leaked_ratio > COMPACT_THRESHOLD
        s.flush()
        assert s.compactions == 1
        assert s.leaked_bytes == 0
        out = np.empty(SHAPE)
        for item, data in originals.items():
            s.read(item, out)
            np.testing.assert_array_equal(out, data)
        s.close()

    def test_flush_below_threshold_does_not_compact(self, tmp_path):
        s = CompressedFileBackingStore(tmp_path / "v.czb", 8, SHAPE)
        _fragment(s, 8)
        leaked = s.leaked_bytes
        assert 0 < s.leaked_ratio <= COMPACT_THRESHOLD
        s.flush()
        assert s.compactions == 0
        assert s.leaked_bytes == leaked
        s.close()

    def test_metrics_track_leak_and_compaction(self, tmp_path):
        s = CompressedFileBackingStore(tmp_path / "v.czb", 8, SHAPE)
        s.obs = Observer(metrics=True)
        mx = s.obs.metrics
        _fragment(s, 8)
        assert mx.value("compress_heap_leaked_bytes") == s.leaked_bytes > 0
        s.compact()
        assert mx.value("compress_compactions") == 1
        assert mx.value("compress_heap_leaked_bytes") == 0
        s.close()

    def test_crash_before_rename_is_finished_on_open(self, tmp_path):
        import shutil

        path = tmp_path / "v.czb"
        s = CompressedFileBackingStore(path, 6, SHAPE)
        originals = _fragment(s, 6)
        s.compact()
        s.flush()
        s.close()
        # Simulate dying between publishing the compact-heap index and
        # os.replace: the index names "<base>.compact" and that file
        # exists; the canonical heap is stale garbage.
        compact = str(path) + ".compact"
        shutil.copy(path, compact)
        with open(path, "r+b") as fh:
            fh.write(b"\xff" * 64)  # scribble on the canonical heap
        doc = json.loads((tmp_path / "v.czb.idx").read_text())
        doc["heap"] = "v.czb.compact"
        (tmp_path / "v.czb.idx").write_text(json.dumps(doc))

        s2 = CompressedFileBackingStore(path, 6, SHAPE)
        out = np.empty(SHAPE)
        for item, data in originals.items():
            s2.read(item, out)
            np.testing.assert_array_equal(out, data)
        assert not os.path.exists(compact)  # rename was finished
        # The index was republished with the canonical heap name.
        doc = json.loads((tmp_path / "v.czb.idx").read_text())
        assert doc["heap"] == "v.czb"
        s2.close()

    def test_crash_after_rename_uses_canonical_heap(self, tmp_path):
        path = tmp_path / "v.czb"
        s = CompressedFileBackingStore(path, 6, SHAPE)
        originals = _fragment(s, 6)
        s.compact()
        s.flush()
        s.close()
        # Simulate dying between os.replace and the final republish: the
        # index still names the compact heap but that file is gone — the
        # canonical path already IS the new heap.
        doc = json.loads((tmp_path / "v.czb.idx").read_text())
        doc["heap"] = "v.czb.compact"
        (tmp_path / "v.czb.idx").write_text(json.dumps(doc))

        s2 = CompressedFileBackingStore(path, 6, SHAPE)
        out = np.empty(SHAPE)
        for item, data in originals.items():
            s2.read(item, out)
            np.testing.assert_array_equal(out, data)
        s2.close()


class TestEngineOnCompactingBacking:
    def test_lnl_bit_identical_with_aggressive_compaction(self, tmp_path):
        """Satellite regression: CLVs bit-identical before/after compaction."""
        from repro.core.layout import make_layout

        tree = yule_tree(10, seed=701)
        model = GTR((1, 2.1, 0.8, 1.1, 2.7, 1), (0.28, 0.22, 0.26, 0.24))
        rates = RateModel.gamma(0.6, 4)
        aln = simulate_alignment(tree, model, 200, rates=rates, seed=702)

        ref = LikelihoodEngine(tree.copy(), aln, model, rates,
                               fraction=0.3, policy="lru")
        expected = ref.full_traversals(2)

        layout = make_layout("whole", *clv_geometry(tree, aln, model, rates))
        backing = CompressedFileBackingStore.from_layout(
            tmp_path / "clv.czb", layout)
        eng = LikelihoodEngine(tree.copy(), aln, model, rates,
                               layout=layout, fraction=0.3, policy="lru",
                               backing=backing)
        # Compact the live heap between traversals: every CLV the second
        # pass demand-reads went through the extent relocation.
        eng.full_traversals(1)
        eng.store.flush(force=True)
        backing.compact()
        assert backing.compactions >= 1
        assert eng.full_traversals(1) == expected    # bit-identical
