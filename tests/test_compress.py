"""Compressed backing tier: codecs, framing, reattach, bit-exact CLVs."""

import json
import os

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
    CompressedFileBackingStore,
    NullCodec,
    ZlibCodec,
    make_codec,
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


class TestCodecs:
    @pytest.mark.parametrize("level", [0, 1, 6, 9])
    def test_zlib_roundtrip(self, level):
        codec = ZlibCodec(level)
        payload = np.random.default_rng(1).normal(size=256).tobytes()
        assert codec.decompress(codec.compress(payload)) == payload

    def test_zlib_level_validated(self):
        with pytest.raises(BackingStoreError, match="level"):
            ZlibCodec(12)

    def test_null_is_identity(self):
        codec = NullCodec()
        assert codec.compress(b"abc") == b"abc"
        assert codec.decompress(b"abc") == b"abc"

    def test_compressible_data_shrinks(self):
        payload = np.zeros(4096).tobytes()
        assert len(ZlibCodec().compress(payload)) < len(payload) // 10

    def test_make_codec_parses_specs(self):
        assert make_codec("null").name == "null"
        assert make_codec("zlib").name == "zlib:6"
        assert make_codec("zlib:3").name == "zlib:3"

    def test_make_codec_rejects_garbage(self):
        with pytest.raises(BackingStoreError, match="unknown codec"):
            make_codec("lzma")
        with pytest.raises(BackingStoreError, match="bad codec spec"):
            make_codec("zlib:banana")


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
        s = CompressedFileBackingStore(path, 6, SHAPE, codec=ZlibCodec(3))
        originals = roundtrip(s, 6)
        s.close()
        s2 = CompressedFileBackingStore(path, 6, SHAPE)
        assert s2.codec.name == "zlib:3"      # codec adopted from the index
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

    def test_null_codec_stores_raw_bytes(self, tmp_path):
        s = CompressedFileBackingStore(tmp_path / "v.czb", 3, SHAPE,
                                       codec=NullCodec())
        roundtrip(s, 3)
        assert s.compression_ratio == 1.0
        assert s.stored_bytes_written == s.raw_bytes_written
        s.close()

    def test_metrics_and_probe_wired(self, tmp_path):
        s = CompressedFileBackingStore(tmp_path / "v.czb", 4, SHAPE)
        s.obs = obs = Observer(metrics=True)
        mx = obs.metrics
        s.write(0, np.full(SHAPE, 2.0))
        s.read(0, np.empty(SHAPE))
        assert mx.value("compress_bytes_raw") == 2 * s.item_bytes
        assert 0 < mx.value("compress_bytes_stored") < 2 * s.item_bytes
        assert obs.probe.read_hist.count == obs.probe.write_hist.count == 1
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


class TestHeapCompactor:
    def test_compact_reclaims_leaked_bytes_bit_exact(self, tmp_path):
        s = CompressedFileBackingStore(tmp_path / "v.czb", 8, SHAPE,
                                       compact_threshold=None)
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
        s = CompressedFileBackingStore(tmp_path / "v.czb", 6, SHAPE,
                                       compact_threshold=None)
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
        s = CompressedFileBackingStore(tmp_path / "v.czb", 8, SHAPE,
                                       compact_threshold=0.05)
        originals = _fragment(s, 8)
        assert s.leaked_ratio > 0.05
        s.flush()
        assert s.compactions == 1
        assert s.leaked_bytes == 0
        out = np.empty(SHAPE)
        for item, data in originals.items():
            s.read(item, out)
            np.testing.assert_array_equal(out, data)
        s.close()

    def test_threshold_none_disables_auto_compaction(self, tmp_path):
        s = CompressedFileBackingStore(tmp_path / "v.czb", 8, SHAPE,
                                       compact_threshold=None)
        _fragment(s, 8)
        leaked = s.leaked_bytes
        s.flush()
        assert s.compactions == 0
        assert s.leaked_bytes == leaked
        s.close()

    def test_metrics_track_leak_and_compaction(self, tmp_path):
        s = CompressedFileBackingStore(tmp_path / "v.czb", 8, SHAPE,
                                       compact_threshold=None)
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
        s = CompressedFileBackingStore(path, 6, SHAPE,
                                       compact_threshold=None)
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
        s = CompressedFileBackingStore(path, 6, SHAPE,
                                       compact_threshold=None)
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
            tmp_path / "clv.czb", layout, compact_threshold=1e-9)
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
