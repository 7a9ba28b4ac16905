"""Integration tests for the likelihood engine: correctness gold standards."""

import itertools
import threading

import numpy as np
import pytest

from repro import (
    GTR,
    HKY85,
    JC69,
    Alignment,
    LikelihoodEngine,
    Poisson,
    RateModel,
    Tree,
    simulate_alignment,
    yule_tree,
)
from repro.core.backing import FileBackingStore
from repro.errors import LikelihoodError, OutOfCoreError, ReproError
from tests.oracle import FLOAT32_SITE_BOUND, pectinate_tree


def brute_force_lnl(tree, aln, model, rates):
    """Sum over all internal state assignments — exponential gold standard."""
    comp = aln.compress()
    codes = aln.pattern_codes()
    tipind = aln.alphabet.code_matrix()
    inner = list(tree.inner_nodes())
    root = inner[0]
    directed = []
    stack = [(x, root) for x in tree.neighbors(root)]
    while stack:
        node, par = stack.pop()
        directed.append((par, node))
        if not tree.is_tip(node):
            stack.extend((y, node) for y in tree.neighbors(node) if y != par)
    S = model.num_states
    total = np.zeros(comp.num_patterns)
    for c in range(rates.num_categories):
        Ps = {
            e: model.transition_matrices(
                tree.branch_length(*e), np.array([rates.rates[c]])
            )[0]
            for e in directed
        }
        cat_l = np.zeros(comp.num_patterns)
        for assign in itertools.product(range(S), repeat=len(inner)):
            amap = dict(zip(inner, assign))
            prob = np.full(comp.num_patterns, model.frequencies[amap[root]])
            for p, ch in directed:
                P = Ps[(p, ch)]
                if tree.is_tip(ch):
                    row = codes[aln.index_of(tree.names[ch])]
                    prob = prob * (tipind[row] * P[amap[p], :][None, :]).sum(axis=1)
                else:
                    prob = prob * P[amap[p], amap[ch]]
            cat_l += prob
        total += rates.weights[c] * cat_l
    return float(comp.weights @ np.log(total))


class TestBruteForceAgreement:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_gtr_gamma(self, n):
        tree = yule_tree(n, seed=n * 7)
        model = GTR((1, 2.2, 0.7, 1.1, 3.1, 1), (0.32, 0.18, 0.24, 0.26))
        rates = RateModel.gamma(0.6, 3)
        aln = simulate_alignment(tree, model, 40, rates=rates, seed=n)
        eng = LikelihoodEngine(tree.copy(), aln, model, rates)
        assert eng.loglikelihood() == pytest.approx(
            brute_force_lnl(tree, aln, model, rates), abs=1e-9
        )

    def test_with_ambiguity_and_gaps(self):
        tree = yule_tree(4, seed=3)
        aln = Alignment.from_sequences(
            [("t0", "ACGTN-R"), ("t1", "ACGTAAY"), ("t2", "AC-TACG"), ("t3", "AWGTACG")]
        )
        model = HKY85(2.0, (0.3, 0.2, 0.2, 0.3))
        rates = RateModel.gamma(1.0, 2)
        eng = LikelihoodEngine(tree.copy(), aln, model, rates)
        assert eng.loglikelihood() == pytest.approx(
            brute_force_lnl(tree, aln, model, rates), abs=1e-9
        )

    def test_uniform_rates(self):
        tree = yule_tree(5, seed=8)
        model = JC69()
        rates = RateModel.uniform()
        aln = simulate_alignment(tree, model, 60, rates=rates, seed=9)
        eng = LikelihoodEngine(tree.copy(), aln, model, rates)
        assert eng.loglikelihood() == pytest.approx(
            brute_force_lnl(tree, aln, model, rates), abs=1e-9
        )

    def test_invariant_sites_model(self):
        tree = yule_tree(4, seed=10)
        model = JC69()
        rates = RateModel.gamma_invariant(0.9, 0.25, 2)
        aln = simulate_alignment(tree, model, 50, rates=rates, seed=11)
        eng = LikelihoodEngine(tree.copy(), aln, model, rates)
        assert eng.loglikelihood() == pytest.approx(
            brute_force_lnl(tree, aln, model, rates), abs=1e-9
        )


class TestRootInvariance:
    def test_all_edges_give_same_lnl(self, engine_factory):
        eng = engine_factory()
        vals = [eng.edge_loglikelihood(u, v) for u, v in eng.tree.edges()]
        assert max(vals) - min(vals) < 1e-9

    def test_full_flag_matches_incremental(self, engine_factory):
        eng = engine_factory()
        incremental = eng.loglikelihood()
        full = eng.edge_loglikelihood(*eng.default_edge(), full=True)
        assert incremental == full


class TestScaling:
    def test_deep_caterpillar_forces_rescaling(self):
        """A deep pectinate (caterpillar) tree with long branches drives CLV
        entries below 2^-256, so scaling must engage for lnL to stay finite."""
        n = 150
        tree = Tree(n)
        inner = iter(tree.inner_nodes())
        prev = next(inner)
        tree._connect(0, prev, 0.8)
        tree._connect(1, prev, 0.8)
        for tip in range(2, n - 1):
            cur = next(inner)
            tree._connect(prev, cur, 0.8)
            tree._connect(tip, cur, 0.8)
            prev = cur
        tree._connect(n - 1, prev, 0.8)
        tree.validate()
        aln = simulate_alignment(tree, JC69(), 30, seed=21)
        eng = LikelihoodEngine(tree, aln, JC69())
        lnl = eng.loglikelihood()
        assert np.isfinite(lnl)
        assert eng.scale_counts.sum() > 0  # scaling actually engaged

    def test_scaled_matches_brute_force_via_small_tree(self):
        # Force scaling by huge branch lengths on a tiny tree and compare
        # against log-space brute force.
        tree = yule_tree(4, seed=22, scale=3.0)
        model = JC69()
        rates = RateModel.uniform()
        aln = simulate_alignment(tree, model, 20, seed=23)
        eng = LikelihoodEngine(tree.copy(), aln, model, rates)
        assert eng.loglikelihood() == pytest.approx(
            brute_force_lnl(tree, aln, model, rates), abs=1e-8
        )


class TestSiteLikelihoods:
    def test_sum_matches_total(self, engine_factory):
        eng = engine_factory()
        total = eng.loglikelihood()
        per_site = eng.site_loglikelihoods()
        assert per_site.shape == (eng.alignment.num_sites,)
        assert per_site.sum() == pytest.approx(total, abs=1e-9)

    def test_both_fall_back_when_a_move_dissolves_the_evaluation_edge(
            self, engine_factory):
        """Regression: ``site_loglikelihoods()`` raised "(u,v) is not an
        edge of the tree" where ``loglikelihood()`` fell back."""
        eng = engine_factory()
        tree = eng.tree
        p = list(tree.inner_nodes())[4]
        s, a, _b = tree.neighbors(p)
        eng.edge_loglikelihood(p, a)
        assert eng.root_edge == (p, a)
        target = next(edge for edge in tree.spr_candidates(p, s, radius=5)
                      if a not in edge)
        eng.apply_spr(p, s, target)
        assert not tree.has_edge(p, a)
        assert eng.root_edge == eng.default_edge()
        per_site = eng.site_loglikelihoods()
        assert per_site.sum() == pytest.approx(eng.loglikelihood(), abs=1e-9)
        fresh = engine_factory(tree=tree.copy())
        assert eng.loglikelihood() == fresh.loglikelihood()


class TestFullTraversals:
    def test_recomputes_every_vector(self, engine_factory):
        eng = engine_factory(fraction=1.0)
        eng.full_traversals(1)
        base = eng.stats.requests
        eng.full_traversals(1)
        # Each full traversal touches every inner vector at least once.
        assert eng.stats.requests - base >= eng.num_inner

    def test_count_validation(self, engine_factory):
        with pytest.raises(LikelihoodError, match="count"):
            engine_factory().full_traversals(0)

    def test_value_stable_across_repeats(self, engine_factory):
        eng = engine_factory()
        assert eng.full_traversals(3) == eng.full_traversals(1)


class TestDtypes:
    def test_float32_close_to_float64(self, small_tree, small_alignment, small_model):
        e64 = LikelihoodEngine(small_tree.copy(), small_alignment, small_model)
        e32 = LikelihoodEngine(small_tree.copy(), small_alignment, small_model,
                               dtype=np.float32)
        l64, l32 = e64.loglikelihood(), e32.loglikelihood()
        assert abs(l32 - l64) <= FLOAT32_SITE_BOUND * small_alignment.num_sites

    def test_float32_halves_store_bytes(self, small_tree, small_alignment, small_model):
        e64 = LikelihoodEngine(small_tree.copy(), small_alignment, small_model)
        e32 = LikelihoodEngine(small_tree.copy(), small_alignment, small_model,
                               dtype=np.float32)
        assert e64.ancestral_vector_bytes() == 2 * e32.ancestral_vector_bytes()


class TestProteinEngine:
    def test_poisson_protein_runs(self):
        tree = yule_tree(5, seed=30)
        model = Poisson()
        aln = simulate_alignment(tree, model, 40, seed=31)
        eng = LikelihoodEngine(tree.copy(), aln, model, RateModel.gamma(1.0, 4))
        assert np.isfinite(eng.loglikelihood())
        # CLV width: 20 states x 4 categories x 8 bytes per pattern.
        assert eng.ancestral_vector_bytes() == eng.num_patterns * 20 * 4 * 8


    def test_tip_tables_cover_only_the_codes_present(self):
        """The amino-acid alphabet has 2^20 bitmask codes (a 168 MB
        indicator matrix); the engine indexes tips densely over the codes
        the alignment actually contains and never builds the full one."""
        import tracemalloc

        from tests.oracle import oracle_lnl

        tree = yule_tree(5, seed=30)
        model = Poisson()
        rates = RateModel.gamma(1.0, 4)
        aln = simulate_alignment(tree, model, 40, seed=31)
        distinct = len(np.unique(aln.pattern_codes()))
        tracemalloc.start()
        try:
            eng = LikelihoodEngine(tree.copy(), aln, model, rates)
            lnl = eng.loglikelihood()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20
        assert eng._code_matrix.shape == (distinct, 20)
        assert eng._tip_codes.max() == distinct - 1
        assert eng._P(*eng.default_edge()).tips.shape == (distinct, 4 * 20)
        assert lnl == pytest.approx(oracle_lnl(tree, aln, model, rates),
                                    rel=1e-12)

    def test_dense_codes_equal_alphabet_codes(self, small_tree, small_model):
        """Re-indexing is a relabelling: with ambiguity codes and gaps in
        the data, dense tips give the bits raw alphabet codes give."""
        rng = np.random.default_rng(5)
        names = small_tree.names
        seqs = ["".join(rng.choice(list("ACGTRYN-"), 120)) for _ in names]
        aln = Alignment.from_sequences(list(zip(names, seqs)))
        dense = LikelihoodEngine(small_tree.copy(), aln, small_model)
        raw = LikelihoodEngine(small_tree.copy(), aln, small_model)
        rows = [aln.index_of(name) for name in names]
        raw._tip_codes = aln.pattern_codes()[rows].astype(np.int64)
        raw._code_matrix = aln.alphabet.code_matrix()
        assert len(dense._code_matrix) < len(raw._code_matrix)
        assert dense.loglikelihood() == raw.loglikelihood()


class TestConstructionErrors:
    def test_too_few_taxa(self, small_alignment, small_model):
        t = Tree(2)
        t._connect(0, 1, 0.1)
        with pytest.raises(LikelihoodError, match="at least 3"):
            LikelihoodEngine(t, small_alignment, small_model)

    def test_state_count_mismatch(self, small_tree, small_alignment):
        with pytest.raises(LikelihoodError, match="states"):
            LikelihoodEngine(small_tree.copy(), small_alignment, Poisson())

    def test_store_and_geometry_conflict(self, small_tree, small_alignment,
                                         small_model, engine_factory):
        eng = engine_factory()
        with pytest.raises(ReproError, match="fraction .* explicit store"):
            LikelihoodEngine(small_tree.copy(), small_alignment, small_model,
                             store=eng.store, fraction=0.5)

    @pytest.mark.parametrize("store_was_built", [False, True])
    def test_failed_construction_leaks_nothing(self, engine_factory, tmp_path,
                                               monkeypatch, store_was_built):
        """A rejected argument is caught before the store, its write-behind
        threads and the prefetch thread exist; a step that still fails
        after the store was built closes it (threads, backing fd)."""
        probe = engine_factory()
        backing = FileBackingStore(tmp_path / "vectors.bin", probe.num_inner,
                                   probe.clv_shape)
        probe.close()
        before = set(threading.enumerate())
        kwargs = {"fraction": 0.5, "writeback_depth": 2, "io_threads": 2,
                  "prefetch_depth": 2, "backing": backing}
        if store_was_built:
            def no_prefetcher(*args, **kwargs):
                raise OutOfCoreError("no prefetcher today")
            monkeypatch.setattr("repro.core.prefetch.ThreadedPrefetcher",
                                no_prefetcher)
        else:
            kwargs["batch"] = "bogus"
        try:
            with pytest.raises(ReproError):
                engine_factory(**kwargs)
            assert [t.name for t in threading.enumerate()
                    if t not in before and t.is_alive()] == []
            # the backing passes to the store that is built over it
            assert backing._closed == store_was_built
        finally:
            backing.close()

    def test_tip_has_no_vector(self, engine_factory):
        with pytest.raises(LikelihoodError, match="no ancestral vector"):
            engine_factory().item(0)

    def test_rate_model_swap_requires_same_categories(self, engine_factory):
        eng = engine_factory()
        with pytest.raises(LikelihoodError, match="category count"):
            eng.set_rates(RateModel.uniform())


class TestRandomPolicyIsSeeded:
    """``seed`` is a field like any other: the constructor's default is the
    front ends' 42, and ``seed=3`` evicts what ``policy_kwargs={"seed": 3}``
    evicted before the keyword was folded into the configuration."""

    @staticmethod
    def counters(engine):
        from repro.core.stats import PARITY_COUNTERS

        engine.full_traversals(3)
        row = engine.stats.as_row()
        return [int(row[key]) for key in PARITY_COUNTERS]

    def test_default_seed_is_deterministic(self, engine_factory):
        runs = [self.counters(engine_factory(fraction=0.5, policy="random"))
                for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]
        assert runs[0] == [48, 24, 24, 2, 22, 20, 0, 44032, 440320]

    def test_seed_field_reproduces_the_policy_kwarg(self, engine_factory):
        assert self.counters(engine_factory(fraction=0.5, policy="random",
                                            seed=3)) \
            == [48, 20, 28, 4, 24, 24, 0, 88064, 528384]


class TestMemoryAccounting:
    def test_matches_alignment_formula(self, engine_factory):
        eng = engine_factory()
        assert eng.total_ancestral_bytes() == \
            eng.alignment.total_ancestral_bytes(num_rates=4)


class TestTransitionMatrixCache:
    """The per-branch-length P cache: bounded LRU, no caller aliasing."""

    def test_admission_continues_past_limit(self, engine_factory):
        eng = engine_factory()
        eng._P_CACHE_LIMIT = 4  # shrink the bound to make churn cheap
        u, v = eng.default_edge()
        lengths = [0.01 * (i + 1) for i in range(10)]
        for t in lengths:
            eng.tree.set_branch_length(u, v, t)
            eng._P(u, v)
            # The cache never exceeds its bound...
            assert len(eng._p_cache) <= 4
        # ...and keeps admitting: the most recent lengths are all cached
        # (the historical bug stopped admitting once the limit was hit).
        assert set(eng._p_cache) == set(lengths[-4:])
        for t in lengths[-4:]:
            eng.tree.set_branch_length(u, v, t)
            cached = eng._p_cache[t]
            assert eng._P(u, v) is cached  # a hit, not a rebuild

    def test_eviction_is_lru_not_fifo(self, engine_factory):
        eng = engine_factory()
        eng._P_CACHE_LIMIT = 3
        u, v = eng.default_edge()

        def P_for(t):
            eng.tree.set_branch_length(u, v, t)
            return eng._P(u, v)

        for t in (0.1, 0.2, 0.3):
            P_for(t)
        oldest = P_for(0.1)       # refresh 0.1: eviction order is now 0.2,
        P_for(0.4)                # 0.3, 0.1 — adding 0.4 must drop 0.2
        assert set(eng._p_cache) == {0.3, 0.1, 0.4}
        assert P_for(0.1) is oldest

    def test_freezing_never_aliases_model_buffer(self, small_tree,
                                                 small_alignment,
                                                 monkeypatch):
        model = GTR((1.0, 2.5, 1.2, 0.8, 3.0, 1.0), (0.3, 0.2, 0.25, 0.25))
        rates = RateModel.gamma(0.8, 4)
        eng = LikelihoodEngine(small_tree.copy(), small_alignment, model,
                               rates)
        u, v = eng.default_edge()
        t = eng.tree.branch_length(u, v)
        # A model that hands out its own long-lived, already C-contiguous
        # float64 buffer — the case where astype(copy=False)-style
        # conversions return the input and freezing would corrupt it.
        shared = np.ascontiguousarray(
            model.transition_matrices(t, rates.rates), dtype=np.float64)
        assert shared.flags.writeable
        monkeypatch.setattr(model, "transition_matrices",
                            lambda _t, _r: shared)
        P = eng._P(u, v).P                 # the stack the operator was lowered from
        assert not P.flags.writeable       # the cache entry is frozen
        assert P is not shared             # but it is the engine's copy
        assert shared.flags.writeable      # the model's buffer is untouched
        assert np.array_equal(P, shared)


class TestFloat32BlockLayouts:
    """Single-precision end-to-end under site-block paging (§4 fig. setup)."""

    def _build(self, tree, aln, model, rates, dtype, **kw):
        return LikelihoodEngine(tree.copy(), aln, model, rates, dtype=dtype,
                                layout="block", block_sites=64, num_slots=8,
                                policy="lru", poison_skipped_reads=True, **kw)

    def test_parity_counters_match_float64(self, small_tree, small_alignment,
                                           small_model):
        from repro.core.stats import PARITY_COUNTERS

        rates = RateModel.gamma(0.8, 4)
        e64 = self._build(small_tree, small_alignment, small_model, rates,
                          np.float64)
        e32 = self._build(small_tree, small_alignment, small_model, rates,
                          np.float32)
        l64, l32 = e64.full_traversals(2), e32.full_traversals(2)
        assert abs(l32 - l64) <= FLOAT32_SITE_BOUND * small_alignment.num_sites
        r64, r32 = e64.stats.as_row(), e32.stats.as_row()
        for key in PARITY_COUNTERS:
            if key.startswith("bytes_"):
                # Same transfers, half-width items.
                assert r64[key] == 2 * r32[key], key
            else:
                assert r64[key] == r32[key], key

    def test_narrow_exponent_rescale_fires(self):
        # A pectinate tree deep enough to underflow float32's 2^-30
        # threshold long before float64's 2^-256 — single precision must
        # engage its own rescaling to keep the likelihood finite and close.
        tree = pectinate_tree(60, 0.6)
        aln = simulate_alignment(tree, JC69(), 80, seed=44)
        rates = RateModel.gamma(1.0, 2)
        e64 = self._build(tree, aln, JC69(), rates, np.float64)
        e32 = self._build(tree, aln, JC69(), rates, np.float32)
        l64, l32 = e64.full_traversals(1), e32.full_traversals(1)
        assert np.isfinite(l32)
        assert abs(l32 - l64) <= FLOAT32_SITE_BOUND * aln.num_sites
        assert e32.scale_counts.sum() > 0          # 2^-30 rescale engaged
        assert e32.scale_counts.sum() > e64.scale_counts.sum()

    def test_float32_batched_matches_unbatched_bitwise(self, small_tree,
                                                       small_alignment,
                                                       small_model):
        rates = RateModel.gamma(0.8, 4)
        plain = self._build(small_tree, small_alignment, small_model, rates,
                            np.float32)
        batched = self._build(small_tree, small_alignment, small_model,
                              rates, np.float32, batch=-1)
        assert batched.full_traversals(2) == plain.full_traversals(2)
