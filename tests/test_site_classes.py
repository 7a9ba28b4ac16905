"""Site classes: each distinct CLV row is computed once, stored at the front
of its slot, and expanded to per-site width only at an evaluation edge.

The contract is the parent's bits: every stored class row, expanded through
its node's map, equals a full-width ``kernels.update_clv`` of the same
node, scale counts included; the rows past ``k`` are never read (a
transfer moves only rows ``[0, k)``, and under the sanitizer a read-in
poisons the rest); and maps follow the topology through every edit
without being rebuilt for a branch length.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GTR, LikelihoodEngine, RateModel, simulate_alignment, yule_tree
from repro.errors import LikelihoodError
from repro.phylo.likelihood import kernels
from repro.phylo.likelihood.executor import Executor
from repro.phylo.likelihood.siteclasses import (
    ClassMaps,
    SiteClasses,
    build,
    tip_blocks,
)
from repro.phylo.models import Poisson


def _reference(engine: LikelihoodEngine) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Full-width CLV and scale counts of every valid inner node, computed
    node by node with ``kernels.update_clv`` in the orientation the engine
    stored it."""
    tree, n = engine.tree, engine.tree.num_tips
    orient = engine.orientation.orient
    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def compute(x: int) -> None:
        if x in out:
            return
        kids = [y for y in tree.neighbors(x) if y != orient[x]]
        operands = []
        counts = np.zeros(engine.num_patterns, dtype=np.int32)
        for child in kids:
            if child < n:
                operands.append((None, engine._tip_codes[child]))
            else:
                compute(child)
                clv, child_counts = out[child]
                counts += child_counts
                operands.append((clv, None))
        (l_clv, l_codes), (r_clv, r_codes) = operands
        clv = np.empty(engine.clv_shape, dtype=engine.dtype)
        kernels.update_clv(clv, engine._P(x, kids[0]), engine._P(x, kids[1]),
                           l_clv, r_clv, l_codes, r_codes, engine._code_matrix,
                           counts, engine.scaling)
        out[x] = clv, counts

    for x in range(n, tree.num_nodes):
        assert orient[x] >= 0
        compute(x)
    return out


def _expanded(engine: LikelihoodEngine, node: int) -> np.ndarray:
    """The stored class rows of ``node``, expanded to every site."""
    layout, n = engine.layout, engine.tree.num_tips
    classes = engine.classes.current[node]
    parts = []
    for b, block in enumerate(classes.blocks):
        lo, hi = layout.block_bounds(b)
        stored = engine.store.read_item(layout.item_of(node - n, b))
        rows = block.expand(stored[:block.k])
        assert rows.shape[0] == hi - lo
        parts.append(rows)
    return np.concatenate(parts)


def _dataset(taxa: int, sites: int, seed: int, scale: float = 0.3):
    tree = yule_tree(taxa, seed=seed, scale=scale)
    model = GTR((1, 2.5, 0.9, 1.1, 3.0, 1), (0.28, 0.22, 0.26, 0.24))
    rates = RateModel.gamma(0.6, 4)
    aln = simulate_alignment(tree, model, sites, rates=rates, seed=seed + 1)
    return tree, aln, model, rates


def _ragged_block(patterns: int) -> int:
    """A block size that leaves a ragged last block (and several blocks)."""
    return next(b for b in (7, 11, 13, 17, 19, 23) if patterns % b
                and patterns > b)


@settings(max_examples=25, deadline=None)
@given(
    taxa=st.integers(min_value=4, max_value=40),
    seed=st.integers(min_value=0, max_value=10**6),
    blocked=st.booleans(),
    dtype=st.sampled_from(["float64", "float32"]),
)
def test_class_rows_expand_to_the_full_width_update(taxa, seed, blocked, dtype):
    tree, aln, model, rates = _dataset(taxa, 90, seed, scale=2.0)
    options = {}
    if blocked:
        options = {"layout": "block",
                   "block_sites": _ragged_block(aln.compress().num_patterns)}
    engine = LikelihoodEngine(tree.copy(), aln, model, rates, dtype=dtype,
                              **options)
    try:
        engine.full_traversals(1)
        reference = _reference(engine)
        for node, (clv, counts) in reference.items():
            got = _expanded(engine, node)
            assert got.tobytes() == clv.tobytes(), node
            np.testing.assert_array_equal(
                engine.scale_counts[node - tree.num_tips], counts)
    finally:
        engine.close()


def test_rescaling_is_exercised_and_class_rows_are_fewer():
    """The case the property test is about: rescaled classes, and maps
    that compact (fewer class rows than sites) at most nodes."""
    tree, aln, model, rates = _dataset(40, 300, 17, scale=2.0)
    engine = LikelihoodEngine(tree.copy(), aln, model, rates, dtype="float32")
    try:
        engine.full_traversals(1)
        assert engine.scale_counts.sum() > 0
        reference = _reference(engine)
        for node, (clv, counts) in reference.items():
            assert _expanded(engine, node).tobytes() == clv.tobytes()
            np.testing.assert_array_equal(
                engine.scale_counts[node - tree.num_tips], counts)
        classes = [engine.classes.current[x].blocks[0].k
                   for x in range(tree.num_tips, tree.num_nodes)]
        assert sum(classes) < 0.6 * len(classes) * engine.num_patterns
    finally:
        engine.close()


def test_protein_class_rows_expand_to_the_full_width_update():
    tree = yule_tree(12, seed=30, scale=0.5)
    model = Poisson()
    rates = RateModel.gamma(1.0, 4)
    aln = simulate_alignment(tree, model, 80, rates=rates, seed=31)
    engine = LikelihoodEngine(tree.copy(), aln, model, rates, layout="block",
                              block_sites=_ragged_block(aln.compress().num_patterns))
    twin = LikelihoodEngine(tree.copy(), aln, model, rates, fraction=0.25,
                            poison_skipped_reads=True)
    try:
        engine.full_traversals(1)
        for node, (clv, _) in _reference(engine).items():
            assert _expanded(engine, node).tobytes() == clv.tobytes()
        assert twin.full_traversals(1).hex() == engine.full_traversals(1).hex()
    finally:
        engine.close()
        twin.close()


class TestTailIsNeverRead:
    """Rows ``[k, span)`` of a slot are neither read nor written by a
    kernel: with every skipped read poisoned, the out-of-core engine
    still gives the in-core twin's bits."""

    @pytest.mark.parametrize("options", [
        {}, {"layout": "block", "block_sites": 29}, {"batch": -1},
        {"layout": "block", "block_sites": 29, "batch": -1}])
    def test_poisoned_ooc_equals_the_in_core_twin(self, closing, options):
        tree, aln, model, rates = _dataset(24, 200, 5)
        twin = closing(LikelihoodEngine(tree.copy(), aln, model, rates))
        ooc = closing(LikelihoodEngine(tree.copy(), aln, model, rates,
                                       fraction=0.25, poison_skipped_reads=True,
                                       **options))
        for engine in (twin, ooc):
            engine.full_traversals(2)
        got, want = [], []
        for engine, out in ((twin, want), (ooc, got)):
            for x in range(tree.num_tips, tree.num_nodes, 3):
                nbr = engine.tree.neighbors(x)[0]
                out.append(engine.edge_loglikelihood(x, nbr).hex())
                out.append(float(engine.optimize_branch(x, nbr)).hex())
            out.append(float(engine.site_loglikelihoods().sum()).hex())
        assert got == want


class TestMapsFollowTopology:
    """Maps follow topology, never branch lengths or the model: after any
    edit the engine's bits equal a freshly built engine's."""

    @staticmethod
    def _fresh(engine, aln, model, rates) -> str:
        fresh = LikelihoodEngine(engine.tree.copy(), aln, model, rates)
        try:
            return fresh.edge_loglikelihood(*engine.root_edge).hex()
        finally:
            fresh.close()

    @pytest.fixture(params=[{"fraction": 1.0},
                            {"fraction": 0.3, "layout": "block",
                             "block_sites": 37}])
    def setting(self, request, closing):
        tree, aln, model, rates = _dataset(20, 240, 8)
        engine = closing(LikelihoodEngine(tree.copy(), aln, model, rates,
                                          **request.param))
        engine.full_traversals(1)
        return engine, aln, model, rates

    def test_a_branch_length_change_reuses_every_map(self, setting):
        engine, aln, model, rates = setting
        u = engine.tree.num_tips + 4
        v = engine.tree.neighbors(u)[1]
        engine.edge_loglikelihood(u, v)     # the orientations toward (u, v)
        builds = engine.classes.builds
        assert builds > 0
        engine.set_branch_length(u, v, 0.173)
        engine.optimize_branch(u, v)
        w = engine.tree.neighbors(v)[0]
        engine.set_branch_length(v, w, 0.061)
        lnl = engine.edge_loglikelihood(u, v).hex()
        assert lnl == self._fresh(engine, aln, model, rates)
        engine.full_traversals(1)
        assert engine.classes.builds == builds

    def test_spr_and_its_undo(self, setting):
        engine, aln, model, rates = setting
        tree = engine.tree
        p = tree.num_tips + 3
        s = tree.neighbors(p)[0]
        target = tree.spr_candidates(p, s, radius=4)[-1]
        engine.edge_loglikelihood(p, s)
        undo = engine.apply_spr(p, s, target)
        moved = engine.edge_loglikelihood(p, s).hex()
        assert moved == self._fresh(engine, aln, model, rates)
        engine.undo_spr(undo)
        builds = engine.classes.builds
        back = engine.loglikelihood().hex()
        assert back == self._fresh(engine, aln, model, rates)
        # The old maps were still cached: undoing rebuilt none of them.
        assert engine.classes.builds == builds

    def test_nni(self, setting):
        engine, aln, model, rates = setting
        edge = engine.tree.internal_edges()[2]
        engine.apply_nni(edge, 1)
        assert engine.loglikelihood().hex() == self._fresh(engine, aln, model, rates)
        undo = engine.apply_nni(engine.tree.internal_edges()[0], 0)
        engine.undo_nni(undo)
        assert engine.loglikelihood().hex() == self._fresh(engine, aln, model, rates)

    def test_set_model_keeps_the_maps(self, setting):
        engine, aln, _, rates = setting
        builds = engine.classes.builds
        model = GTR((2, 1, 1, 3, 1, 1), (0.2, 0.3, 0.3, 0.2))
        engine.set_model(model)
        engine.set_rates(RateModel.gamma(1.7, 4))
        rates = engine.rates
        assert engine.full_traversals(1).hex() == self._fresh(engine, aln, model,
                                                              rates)
        assert engine.classes.builds == builds


class TestStaleTailIsPoisoned:
    """A transfer moves an item's ``k`` live rows only. Under the
    sanitizer a read-in fills rows ``[k, w)`` of its slot with NaN, so a
    reader that strays past ``k`` is caught, not silently wrong."""

    @staticmethod
    def _evaluate(sanitize, monkeypatch, reader=None):
        monkeypatch.setenv("REPRO_SANITIZE", "1" if sanitize else "0")
        if reader is not None:
            monkeypatch.setattr(Executor, "_site_rows", reader)
        tree, aln, model, rates = _dataset(24, 200, 5)
        engine = LikelihoodEngine(tree.copy(), aln, model, rates,
                                  fraction=0.25)
        try:
            engine.full_traversals(1)
            engine.store.evict_all()       # every end is read back in
            # A compacted vector that is no cherry (those are recomputed).
            u = next(x for x in range(tree.num_tips, tree.num_nodes)
                     if engine.classes.current[x].blocks[0].cls is not None
                     and sorted(tree.neighbors(x))[1] >= tree.num_tips)
            # First the edge ``u`` is current toward: ``u`` is read in.
            toward = engine.orientation.orient[u]
            return [engine.edge_loglikelihood(u, v) for v in
                    (toward, *(x for x in tree.neighbors(u) if x != toward))]
        finally:
            engine.close()

    @staticmethod
    def _past_k(self, node, block, view, side):
        """A reader that takes a block's leading rows as its sites,
        ignoring the class map: it reads rows past ``k``."""
        lo, hi = self.layout.block_bounds(block)
        return view[:hi - lo]

    def test_the_right_reader_is_unaffected(self, monkeypatch):
        assert ([x.hex() for x in self._evaluate(True, monkeypatch)]
                == [x.hex() for x in self._evaluate(False, monkeypatch)])

    def test_a_reader_touching_row_k_is_caught(self, monkeypatch):
        with pytest.raises(LikelihoodError, match="site likelihood .*nan"):
            self._evaluate(True, monkeypatch, self._past_k)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       edits=st.integers(min_value=1, max_value=10))
def test_edits_out_of_core_equal_a_fresh_engine(seed, edits):
    """Random moves and lengths on a poisoned few-slot engine with ragged
    blocks: refreshed cherries, rebuilt maps and stale tails everywhere,
    and still a fresh engine's bits."""
    _edits_equal_a_fresh_engine("memory", seed, edits)


@pytest.mark.parametrize("backing", ["file", "compressed"])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       edits=st.integers(min_value=1, max_value=10))
def test_edits_on_a_device_backing_equal_a_fresh_engine(backing, seed, edits):
    """The same on the backings that keep bytes on a device, whose
    transfers move only the live rows (the compressed one stores only
    them)."""
    _edits_equal_a_fresh_engine(backing, seed, edits)


def _edits_equal_a_fresh_engine(backing: str, seed: int, edits: int) -> None:
    from repro.utils.rng import as_rng

    rng = as_rng(seed)
    tree, aln, model, rates = _dataset(12, 120, seed)
    workdir = tempfile.TemporaryDirectory()
    engine = LikelihoodEngine(
        tree, aln, model, rates, num_slots=5, layout="block",
        block_sites=_ragged_block(aln.compress().num_patterns),
        poison_skipped_reads=True, backing=backing, workdir=workdir.name)
    try:
        for _ in range(edits):
            op = rng.integers(3)
            if op == 0:
                u, v = list(tree.edges())[rng.integers(tree.num_nodes - 1)]
                engine.set_branch_length(u, v, float(rng.uniform(0.01, 0.4)))
            elif op == 1:
                internal = tree.internal_edges()
                engine.apply_nni(internal[rng.integers(len(internal))],
                                 int(rng.integers(2)))
            else:
                p = int(rng.integers(tree.num_tips, tree.num_nodes))
                s = tree.neighbors(p)[rng.integers(3)]
                candidates = tree.spr_candidates(p, s, radius=3)
                if candidates:
                    engine.apply_spr(p, s, candidates[rng.integers(len(candidates))])
            u, v = list(tree.edges())[rng.integers(tree.num_nodes - 1)]
            got = [engine.edge_loglikelihood(u, v).hex() for _ in range(2)]
            fresh = LikelihoodEngine(tree.copy(), aln, model, rates)
            try:
                assert got == [fresh.edge_loglikelihood(u, v).hex()] * 2
            finally:
                fresh.close()
    finally:
        engine.close()
        workdir.cleanup()


class TestMapBuilder:
    """The two build paths and the identity shortcut agree with a direct
    count of distinct child pairs."""

    @staticmethod
    def _tips(codes, bounds, num_codes):
        return [SiteClasses(serial, None, tip_blocks(c, bounds, num_codes))
                for serial, c in enumerate(codes)]

    @pytest.mark.parametrize("num_codes", [4, 100])  # table path, then sort
    def test_both_paths(self, num_codes):
        rng = np.random.default_rng(num_codes)
        pairs = rng.integers(0, num_codes, size=(2, 60))
        codes = pairs[:, rng.integers(0, 60, size=500)].astype(np.intp)
        bounds = [(0, 256), (256, 500)]
        a, b = self._tips(codes, bounds, num_codes)
        for (lo, hi), block in zip(bounds, build(a, b, bounds)):
            a_cls, b_cls = codes[0, lo:hi], codes[1, lo:hi]
            assert block.cls is not None
            assert block.k == len(np.unique(np.stack([a_cls, b_cls]), axis=1).T)
            # Class-equal sites have equal child pairs, the rows decode
            # them, and each representative lies in its own class.
            np.testing.assert_array_equal(block.rows[0][block.cls], a_cls)
            np.testing.assert_array_equal(block.rows[1][block.cls], b_cls)
            np.testing.assert_array_equal(block.cls[block.rep],
                                          np.arange(block.k))

    @pytest.mark.parametrize("num_codes", [4, 100])
    def test_half_distinct_blocks_are_stored_whole(self, num_codes):
        span = 3 * num_codes          # every pair distinct: through the
        # table (4 codes) or the sort (100), then stored whole
        codes = np.stack([np.arange(span) % num_codes,
                          np.arange(span) // 3 % num_codes]).astype(np.intp)
        a, b = self._tips(codes, [(0, span)], num_codes)
        (block,) = build(a, b, [(0, span)])
        assert block.cls is None and block.k == span
        np.testing.assert_array_equal(block.rows[0], codes[0])

    def test_a_child_past_the_bound_decides_unbuilt(self):
        bounds = [(0, 6)]
        codes = np.array([[0, 1, 2, 3, 0, 1], [0, 0, 0, 0, 0, 0],
                          [1, 1, 1, 1, 1, 1]], dtype=np.intp)
        a, b, c = self._tips(codes, bounds, 4)   # 4 codes >= 6 / 2
        (ab,) = build(a, b, bounds)
        assert ab.cls is None and ab.k == 6
        whole = SiteClasses(3, (0, 1), [ab])
        (above,) = build(whole, c, bounds)
        assert above.cls is None and above.rows[0] is None
        np.testing.assert_array_equal(above.rows[1], codes[2])

    def test_lookup_caches_three_per_node_by_child_maps(self):
        codes = np.array([[0, 1, 0, 0, 0, 1, 0, 0], [1, 1, 0, 1, 1, 1, 0, 1],
                          [0, 0, 1, 0, 2, 2, 1, 0], [2, 2, 2, 2, 2, 2, 2, 2]],
                         dtype=np.intp)
        maps = ClassMaps(codes, 3, [(0, 8)], num_inner=2)
        node = 4
        first = maps.lookup(node, 1, 0)
        assert first.blocks[0].k == 3 and maps.builds == 1
        assert maps.lookup(node, 0, 1) is first        # either child order
        others = [maps.lookup(node, 0, 2), maps.lookup(node, 1, 2),
                  maps.lookup(node, 2, 3)]
        assert maps.builds == 4
        assert maps.lookup(node, 0, 2) is others[0]    # still cached
        maps.lookup(node, 0, 1)                         # evicted: rebuilt
        assert maps.builds == 5
