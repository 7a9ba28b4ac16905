"""Tests for checkpoint save/restore, including crash-safe kill-and-resume."""

import dataclasses

import numpy as np
import pytest

from repro import (
    GTR,
    LikelihoodEngine,
    Poisson,
    RateModel,
    clv_geometry,
    simulate_alignment,
    yule_tree,
)
from repro.checkpoint import load_checkpoint, save_checkpoint
from repro.errors import ReproError
from repro.phylo.likelihood.branch_opt import smooth_all_branches


@pytest.fixture(scope="module")
def ckpt_dataset():
    tree = yule_tree(9, seed=601)
    model = GTR((1, 2.4, 0.7, 1.2, 3.0, 1), (0.3, 0.2, 0.25, 0.25))
    rates = RateModel.gamma_invariant(0.7, 0.1, 4)
    aln = simulate_alignment(tree, model, 250, rates=RateModel.gamma(0.7, 4),
                             seed=602)
    return tree, aln, model, rates


class TestRoundtrip:
    def test_bit_identical_likelihood(self, ckpt_dataset, tmp_path):
        tree, aln, model, rates = ckpt_dataset
        eng = LikelihoodEngine(tree.copy(), aln, model, rates)
        smooth_all_branches(eng)  # non-trivial branch lengths
        lnl = eng.loglikelihood()
        save_checkpoint(eng, tmp_path / "run.ckpt")
        restored, extra = load_checkpoint(tmp_path / "run.ckpt", aln)
        # The evaluation edge is part of the state: smoothing leaves it on
        # the last optimised branch, not on the default edge, and two
        # rootings of one tree agree only to rounding.
        assert eng.root_edge != eng.default_edge()
        assert restored.root_edge == eng.root_edge
        assert restored.loglikelihood() == lnl
        assert extra == {}

    def test_vanished_edge_falls_back_to_default(self, ckpt_dataset, tmp_path):
        import json

        tree, aln, model, rates = ckpt_dataset
        eng = LikelihoodEngine(tree.copy(), aln, model, rates)
        eng.loglikelihood()
        path = tmp_path / "edge.ckpt"
        save_checkpoint(eng, path)
        doc = json.loads(path.read_text())
        assert doc["root_edge"] == list(eng.default_edge())
        doc["root_edge"] = [0, 1]  # two tips: never an edge
        path.write_text(json.dumps(doc))
        restored, _ = load_checkpoint(path, aln)
        assert restored.root_edge == restored.default_edge()
        assert restored.loglikelihood() == pytest.approx(eng.loglikelihood(),
                                                         rel=1e-12)

    def test_topology_and_lengths_preserved(self, ckpt_dataset, tmp_path):
        tree, aln, model, rates = ckpt_dataset
        eng = LikelihoodEngine(tree.copy(), aln, model, rates)
        save_checkpoint(eng, tmp_path / "t.ckpt")
        restored, _ = load_checkpoint(tmp_path / "t.ckpt", aln)
        # names may renumber tips; compare via splits and total length
        assert restored.tree.total_branch_length() == pytest.approx(
            eng.tree.total_branch_length(), rel=1e-12
        )

    def test_rate_model_preserved(self, ckpt_dataset, tmp_path):
        tree, aln, model, rates = ckpt_dataset
        eng = LikelihoodEngine(tree.copy(), aln, model, rates)
        save_checkpoint(eng, tmp_path / "r.ckpt")
        restored, _ = load_checkpoint(tmp_path / "r.ckpt", aln)
        assert restored.rates.alpha == rates.alpha
        assert restored.rates.p_invariant == rates.p_invariant
        np.testing.assert_array_equal(restored.rates.rates, rates.rates)

    def test_extra_payload_roundtrip(self, ckpt_dataset, tmp_path):
        tree, aln, model, rates = ckpt_dataset
        eng = LikelihoodEngine(tree.copy(), aln, model, rates)
        save_checkpoint(eng, tmp_path / "e.ckpt",
                        extra={"round": 7, "best_lnl": -123.4})
        _, extra = load_checkpoint(tmp_path / "e.ckpt", aln)
        assert extra == {"round": 7, "best_lnl": -123.4}

    def test_store_geometry_restored(self, ckpt_dataset, tmp_path):
        tree, aln, model, rates = ckpt_dataset
        eng = LikelihoodEngine(tree.copy(), aln, model, rates,
                               num_slots=4, policy="random")
        save_checkpoint(eng, tmp_path / "s.ckpt")
        restored, _ = load_checkpoint(tmp_path / "s.ckpt", aln)
        assert restored.store.num_slots == 4
        assert restored.store.policy.name == "random"

    def test_configured_engine_restored_from_its_full_config(
            self, ckpt_dataset, tmp_path):
        """Every engine records the EngineConfig it was built from, so the
        restored pipeline keeps write-behind, prefetch, layout and seed —
        not just the slot count and policy name."""
        import json

        from repro import EngineConfig

        tree, aln, model, rates = ckpt_dataset
        config = EngineConfig(fraction=0.4, policy="random", seed=11,
                              layout="block", block_sites=32,
                              writeback_depth=2, prefetch_depth=2)
        eng = LikelihoodEngine(tree.copy(), aln, model, rates, config)
        lnl = eng.loglikelihood()
        save_checkpoint(eng, tmp_path / "c.ckpt")
        eng.close()
        doc = json.loads((tmp_path / "c.ckpt").read_text())
        assert doc["config"] == config.to_dict()

        restored, _ = load_checkpoint(tmp_path / "c.ckpt", aln)
        try:
            assert restored.config == config
            assert restored.store.writeback is not None
            assert restored.prefetcher is not None
            assert restored.layout.describe() == eng.layout.describe()
            assert restored.loglikelihood() == lnl
        finally:
            restored.close()
        # keywords ride on top of the recorded configuration
        other, _ = load_checkpoint(tmp_path / "c.ckpt", aln, policy="lfu",
                                   num_slots=5)
        try:
            assert other.config == dataclasses.replace(
                config, policy="lfu", fraction=None, num_slots=5)
            assert other.store.policy.name == "lfu"
            assert other.store.writeback is not None
            assert other.loglikelihood() == lnl
        finally:
            other.close()

    def test_directly_constructed_engine_keeps_its_pipeline(
            self, ckpt_dataset, tmp_path):
        """Keywords are a configuration too: nothing of it is lost."""
        tree, aln, model, rates = ckpt_dataset
        eng = LikelihoodEngine(tree.copy(), aln, model, rates, layout="block",
                               block_sites=32, fraction=0.25,
                               writeback_depth=2)
        lnl = eng.loglikelihood()
        save_checkpoint(eng, tmp_path / "d.ckpt")
        eng.close()
        restored, _ = load_checkpoint(tmp_path / "d.ckpt", aln)
        try:
            assert restored.config == eng.config
            assert restored.layout.describe() == eng.layout.describe()
            assert restored.store.num_slots == eng.store.num_slots
            assert restored.store.writeback.depth == 2
            assert restored.loglikelihood().hex() == lnl.hex()
        finally:
            restored.close()

    def test_document_without_config_falls_back_to_store_record(
            self, ckpt_dataset, tmp_path):
        """Checkpoints written before the config existed carry only
        ``store: {num_slots, policy}``."""
        import json

        from repro import EngineConfig

        tree, aln, model, rates = ckpt_dataset
        eng = LikelihoodEngine(tree.copy(), aln, model, rates, num_slots=4,
                               policy="lfu", writeback_depth=2,
                               dtype=np.float32)
        save_checkpoint(eng, tmp_path / "new.ckpt")
        eng.close()
        doc = json.loads((tmp_path / "new.ckpt").read_text())
        doc["config"] = None  # what a config-less engine wrote
        (tmp_path / "old.ckpt").write_text(json.dumps(doc))
        restored, _ = load_checkpoint(tmp_path / "old.ckpt", aln)
        assert restored.config == EngineConfig(num_slots=4, policy="lfu",
                                               dtype="float32")
        assert restored.store.writeback is None
        del doc["config"]
        (tmp_path / "old.ckpt").write_text(json.dumps(doc))
        assert load_checkpoint(tmp_path / "old.ckpt", aln)[0].config \
            == restored.config

    def test_read_checkpoint_builds_nothing(self, ckpt_dataset, tmp_path):
        from repro import read_checkpoint

        tree, aln, model, rates = ckpt_dataset
        eng = LikelihoodEngine(tree.copy(), aln, model, rates, num_slots=5,
                               dtype=np.float32)
        save_checkpoint(eng, tmp_path / "r.ckpt", extra={"k": 1})
        ck = read_checkpoint(tmp_path / "r.ckpt", aln)
        assert ck.extra == {"k": 1}
        assert ck.config == eng.config.to_dict()
        assert ck.tree.robinson_foulds(tree) == 0
        np.testing.assert_array_equal(ck.rates.rates, rates.rates)

    def test_resume_with_different_store(self, ckpt_dataset, tmp_path):
        """In-core run resumed out-of-core yields the same likelihood."""
        tree, aln, model, rates = ckpt_dataset
        eng = LikelihoodEngine(tree.copy(), aln, model, rates)
        lnl = eng.loglikelihood()
        save_checkpoint(eng, tmp_path / "x.ckpt")
        restored, _ = load_checkpoint(tmp_path / "x.ckpt", aln,
                                      fraction=0.3, policy="lru")
        assert restored.loglikelihood() == lnl
        assert restored.store.fraction < 1.0

    def test_float32_dtype_preserved(self, ckpt_dataset, tmp_path):
        tree, aln, model, _ = ckpt_dataset
        eng = LikelihoodEngine(tree.copy(), aln, model,
                               RateModel.gamma(1.0, 4), dtype=np.float32)
        save_checkpoint(eng, tmp_path / "f.ckpt")
        restored, _ = load_checkpoint(tmp_path / "f.ckpt", aln)
        assert restored.dtype == np.float32

    def test_protein_model_roundtrip(self, tmp_path):
        tree = yule_tree(5, seed=611)
        model = Poisson()
        aln = simulate_alignment(tree, model, 60, seed=612)
        eng = LikelihoodEngine(tree.copy(), aln, model, RateModel.gamma(1.0, 2))
        lnl = eng.loglikelihood()
        save_checkpoint(eng, tmp_path / "p.ckpt")
        restored, _ = load_checkpoint(tmp_path / "p.ckpt", aln)
        assert restored.loglikelihood() == pytest.approx(lnl, abs=1e-9)


class TestValidation:
    def test_wrong_alignment_rejected(self, ckpt_dataset, tmp_path):
        tree, aln, model, rates = ckpt_dataset
        eng = LikelihoodEngine(tree.copy(), aln, model, rates)
        save_checkpoint(eng, tmp_path / "w.ckpt")
        other = simulate_alignment(tree, model, 250, seed=777)
        with pytest.raises(ReproError, match="does not match"):
            load_checkpoint(tmp_path / "w.ckpt", other)

    def test_bad_version_rejected(self, ckpt_dataset, tmp_path):
        import json
        tree, aln, model, rates = ckpt_dataset
        eng = LikelihoodEngine(tree.copy(), aln, model, rates)
        path = tmp_path / "v.ckpt"
        save_checkpoint(eng, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ReproError, match="version"):
            load_checkpoint(path, aln)

    def test_no_tmp_file_left_behind(self, ckpt_dataset, tmp_path):
        tree, aln, model, rates = ckpt_dataset
        eng = LikelihoodEngine(tree.copy(), aln, model, rates)
        save_checkpoint(eng, tmp_path / "a.ckpt")
        assert not (tmp_path / "a.ckpt.tmp").exists()


class TestStoreConfigurations:
    def test_block_layout_roundtrip(self, ckpt_dataset, tmp_path):
        """Checkpoint an engine paging site blocks, resume it the same way."""
        tree, aln, model, rates = ckpt_dataset
        eng = LikelihoodEngine(tree.copy(), aln, model, rates,
                               layout="block", block_sites=32, fraction=0.4,
                               policy="lru")
        lnl = eng.loglikelihood()
        save_checkpoint(eng, tmp_path / "b.ckpt")
        restored, _ = load_checkpoint(tmp_path / "b.ckpt", aln,
                                      layout="block", block_sites=32,
                                      fraction=0.4, policy="lru")
        assert restored.loglikelihood() == lnl

    def test_block_layout_dirty_store_flushed_on_save(self, ckpt_dataset,
                                                      tmp_path):
        """save_checkpoint drains a dirty block store down to its backing
        (flush + fsync) before publishing the document."""
        from repro.core.backing import FileBackingStore
        from repro.core.layout import make_layout

        tree, aln, model, rates = ckpt_dataset
        layout = make_layout("block", *clv_geometry(tree, aln, model, rates),
                             block_sites=32)
        backing = FileBackingStore.from_layout(tmp_path / "clv.bin", layout)
        eng = LikelihoodEngine(tree.copy(), aln, model, rates,
                               layout=layout, fraction=0.4, policy="lru",
                               backing=backing, track_dirty=True)
        lnl = eng.loglikelihood()
        save_checkpoint(eng, tmp_path / "d.ckpt")
        restored, _ = load_checkpoint(tmp_path / "d.ckpt", aln)
        assert restored.loglikelihood() == lnl

    def test_partitioned_stores_roundtrip(self, ckpt_dataset, tmp_path):
        """Each engine of a partitioned analysis, over its own store,
        checkpoints and restores independently, and the restored parts
        sum to the joint lnL."""
        from repro.phylo.likelihood.partitioned import PartitionedEngine

        tree, aln, model, rates = ckpt_dataset
        rates2 = RateModel.gamma_invariant(0.9, 0.1, 4)
        aln2 = simulate_alignment(tree, model, 180,
                                  rates=RateModel.gamma(0.9, 4), seed=640)
        part = PartitionedEngine(
            tree.copy(),
            [(aln, model, rates), (aln2, model, rates2)],
            store_kwargs={"fraction": 0.5, "policy": "lru",
                          "layout": "block", "block_sites": 32})
        total = part.loglikelihood()
        restored_sum = 0.0
        for k, (eng, part_aln) in enumerate(zip(part.engines, [aln, aln2])):
            path = tmp_path / f"part{k}.ckpt"
            save_checkpoint(eng, path, extra={"partition": k})
            restored, extra = load_checkpoint(path, part_aln, fraction=1.0)
            assert extra == {"partition": k}
            restored_sum += restored.loglikelihood()
        assert restored_sum == pytest.approx(total, abs=1e-9)
        part.close()


@pytest.fixture(scope="module")
def search_dataset():
    """Informative data + a wrong starting topology: the search moves."""
    tree = yule_tree(9, seed=650)
    model = GTR((1, 2, 1, 1, 2, 1), (0.28, 0.22, 0.26, 0.24))
    aln = simulate_alignment(tree, model, 400, rates=RateModel.gamma(1.0, 4),
                             seed=651)
    start = yule_tree(9, seed=653, names=tree.names)
    return start, aln, model


class TestKillAndResume:
    """The acceptance criterion: kill a checkpointing search at an injected
    crash-point, resume from the last checkpoint, and reach a final
    likelihood bit-identical to the uninterrupted run."""

    SEARCH = {"radius": 3, "max_rounds": 3, "min_improvement": 1e-12,
              "do_nni": True}

    def engine(self, search_dataset, backing=None):
        from repro.core.layout import make_layout

        start, aln, model = search_dataset
        rates = RateModel.gamma(1.0, 4)
        kwargs = {}
        if backing is not None:
            layout = make_layout("whole",
                                 *clv_geometry(start, aln, model, rates))
            kwargs = {"layout": layout,
                      "backing": backing(layout),
                      "fraction": 0.4, "policy": "lru"}
        return LikelihoodEngine(start.copy(), aln, model, rates, **kwargs)

    def test_killed_search_resumes_bit_identical(self, search_dataset,
                                                 tmp_path):
        from repro.core.backing import MemoryBackingStore
        from repro.core.faults import FaultInjectingBackingStore, SimulatedCrash
        from repro.phylo.search import ml_search

        # Uninterrupted reference run (results are store-independent).
        reference = ml_search(self.engine(search_dataset), **self.SEARCH)
        assert reference.rounds >= 2  # the crash must land mid-search

        # Budget the crash roughly halfway through the search's writes.
        counter = self.engine(
            search_dataset,
            backing=lambda layout: FaultInjectingBackingStore(
                MemoryBackingStore.from_layout(layout)))
        ml_search(counter, **self.SEARCH)
        total_writes = counter.store.backing.writes_completed
        assert total_writes > 0

        ckpt = tmp_path / "search.ckpt"
        crashing = self.engine(
            search_dataset,
            backing=lambda layout: FaultInjectingBackingStore(
                MemoryBackingStore.from_layout(layout),
                crash_after_writes=total_writes // 2))
        with pytest.raises(SimulatedCrash):
            ml_search(crashing, checkpoint_path=ckpt, checkpoint_every=1,
                      **self.SEARCH)
        assert ckpt.exists()  # at least one round was checkpointed

        start, aln, model = search_dataset
        restored, extra = load_checkpoint(ckpt, aln)
        state = extra["search"]
        assert 0 < state["rounds"] < reference.rounds  # genuinely partial
        resumed = ml_search(restored, checkpoint_path=ckpt,
                            checkpoint_every=1, resume_state=state,
                            **self.SEARCH)

        assert resumed.lnl == reference.lnl  # bit-identical
        assert resumed.rounds == reference.rounds
        assert resumed.moves_applied == reference.moves_applied
        assert resumed.moves_evaluated == reference.moves_evaluated
        assert resumed.lnl_history == reference.lnl_history

    def test_resume_of_converged_search_is_a_no_op(self, search_dataset,
                                                   tmp_path):
        from repro.phylo.search import ml_search

        ckpt = tmp_path / "done.ckpt"
        eng = self.engine(search_dataset)
        done = ml_search(eng, checkpoint_path=ckpt, checkpoint_every=1,
                         radius=3, max_rounds=8, min_improvement=0.5)
        start, aln, model = search_dataset
        restored, extra = load_checkpoint(ckpt, aln)
        resumed = ml_search(restored, resume_state=extra["search"],
                            radius=3, max_rounds=8, min_improvement=0.5)
        assert resumed.lnl == done.lnl
        assert resumed.rounds == done.rounds

    def test_checkpoint_every_spacing(self, search_dataset, tmp_path):
        """checkpoint_every=N skips intermediate rounds but always writes
        the terminal checkpoint."""
        import json

        from repro.phylo.search import ml_search

        ckpt = tmp_path / "sparse.ckpt"
        eng = self.engine(search_dataset)
        result = ml_search(eng, checkpoint_path=ckpt, checkpoint_every=100,
                           **self.SEARCH)
        state = json.loads(ckpt.read_text())["extra"]["search"]
        assert state["rounds"] == result.rounds
        assert state["converged"] or result.rounds == self.SEARCH["max_rounds"]

    def test_bad_checkpoint_every_rejected(self, search_dataset):
        from repro.errors import SearchError
        from repro.phylo.search import ml_search

        with pytest.raises(SearchError, match="checkpoint_every"):
            ml_search(self.engine(search_dataset), checkpoint_every=0)
