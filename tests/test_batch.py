"""Traversal schedule: bit-identity across group caps.

Whatever the group cap (``LikelihoodEngine(batch=...)``), execution
promises the §4.1 criterion in its strongest form: the same store-access
sequence, the same demand/eviction counters under every replacement
policy, and the same CLV bits — only fewer, larger kernel calls. These
tests enforce the contract at three levels: the fused kernels against
per-member loops, the schedule against an independent derivation of the
access sequence (:func:`reference_accesses`), and whole engines against
each other.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    GTR,
    JC69,
    LikelihoodEngine,
    RateModel,
    clv_geometry,
    simulate_alignment,
    yule_tree,
)
from repro.errors import LikelihoodError, ReproError
from repro.phylo.likelihood import kernels
from repro.phylo.likelihood.schedule import (
    ScheduleCache,
    build_batched_schedule,
    default_group_cap,
)
from repro.core.stats import PARITY_COUNTERS


def reference_accesses(layout, num_tips, plan):
    """The §3.2 access sequence, derived here rather than by the schedule.

    Steps outer, blocks inner; per (step, block) each inner child is
    fetched pinning the other operands' same-numbered block (other child,
    then target), then the target is fetched write-only pinning the
    children. The engine executes — and reports — the schedule's own
    sequence, so this is the oracle both are checked against.
    """
    def pins(nodes, b):
        return tuple(layout.item_of(x - num_tips, b)
                     for x in nodes if x >= num_tips)

    out = []
    for step in plan.steps:
        operands = (step.left, step.right, step.node)
        for b in range(layout.blocks_per_node):
            for c in (step.left, step.right):
                if c >= num_tips:
                    out.append((layout.item_of(c - num_tips, b),
                                pins([x for x in operands if x != c], b),
                                False))
            out.append((layout.item_of(step.node - num_tips, b),
                        pins([step.left, step.right], b), True))
    return out


def _random_stack(rng, M, I, C, S, dtype):
    """Random stochastic P matrices and positive CLVs with a member axis."""
    P = rng.random((M, C, S, S))
    P /= P.sum(axis=-1, keepdims=True)
    clv = rng.random((M, I, C, S)) + 1e-3
    return P.astype(dtype), clv.astype(dtype)


class TestBatchedKernels:
    """Fused kernels vs loops of the per-member kernels: bit equality."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("M,I,C,S", [(1, 17, 4, 4), (5, 33, 3, 4),
                                         (9, 8, 2, 20),
                                         (3, 1, 4, 4),      # ragged block of 1
                                         (4, 33, 5, 4)])    # C·S = 20: padded
    def test_propagate_inner_batch(self, rng, dtype, M, I, C, S):
        P, clv = _random_stack(rng, M, I, C, S, dtype)
        batched = kernels.propagate_inner(P, clv)  # leading member axis
        for m in range(M):
            single = kernels.propagate_inner(P[m], clv[m])
            assert np.array_equal(batched[m], single)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_propagate_tip_batch(self, rng, dtype):
        M, I, C, S, K = 6, 21, 3, 4, 16
        P, _ = _random_stack(rng, M, I, C, S, dtype)
        code_matrix = (rng.random((K, S)) < 0.5).astype(dtype)
        code_matrix[:S] = np.eye(S, dtype=dtype)  # canonical states exist
        codes = rng.integers(0, K, size=(M, I))
        batched = kernels.propagate_tip(P, codes, code_matrix)
        assert batched.shape == (M, I, C, S)
        for m in range(M):
            single = kernels.propagate_tip(P[m], codes[m], code_matrix)
            assert np.array_equal(batched[m], single)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_combine_and_rescale_batch_matches_and_counts(self, rng, dtype):
        M, I, C, S = 4, 25, 3, 4
        scheme = kernels.ScalingScheme(dtype)
        _, left = _random_stack(rng, M, I, C, S, dtype)
        _, right = _random_stack(rng, M, I, C, S, dtype)
        # Drive some (member, site) cells under the threshold so the
        # rescale branch actually runs.
        left[1, :10] *= scheme.threshold
        right[3, 5:] *= scheme.threshold
        ref = np.empty_like(left)
        ref_rows = np.zeros((M, I), dtype=np.int32)
        ref_n = 0
        for m in range(M):
            np.multiply(left[m], right[m], out=ref[m])
            ref_n += kernels.rescale_clv(ref[m], ref_rows[m], scheme)
        out = np.empty_like(left)
        rows = np.zeros((M, I), dtype=np.int32)
        n = kernels.combine_and_rescale_batch(
            left, right, out, [rows[m] for m in range(M)], scheme)
        assert n == ref_n > 0
        assert np.array_equal(out, ref)
        assert np.array_equal(rows, ref_rows)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_update_clv_batch_inner_inner(self, rng, dtype):
        self._inner_inner(rng, dtype, 5, 19, 3, 4)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("M,I,C,S", [(4, 1, 4, 4),      # ragged block of 1
                                         (3, 21, 5, 4)])    # C·S = 20: padded
    def test_update_clv_batch_ragged_one_and_padded(self, rng, dtype,
                                                    M, I, C, S):
        self._inner_inner(rng, dtype, M, I, C, S)

    @staticmethod
    def _inner_inner(rng, dtype, M, I, C, S):
        scheme = kernels.ScalingScheme(dtype)
        P_l, clv_l = _random_stack(rng, M, I, C, S, dtype)
        P_r, clv_r = _random_stack(rng, M, I, C, S, dtype)
        code_matrix = np.eye(S, dtype=dtype)
        ref = np.empty_like(clv_l)
        ref_rows = np.zeros((M, I), dtype=np.int32)
        for m in range(M):
            kernels.update_clv(ref[m], P_l[m], P_r[m], clv_l[m], clv_r[m],
                               None, None, code_matrix, ref_rows[m], scheme)
        out = np.empty_like(clv_l)
        rows = np.zeros((M, I), dtype=np.int32)
        kernels.update_clv_batch(out, P_l, P_r, clv_l, clv_r, None, None,
                                 code_matrix, [rows[m] for m in range(M)],
                                 scheme)
        assert np.array_equal(out, ref)
        assert np.array_equal(rows, ref_rows)

    def test_update_clv_batch_tip_tip(self, rng):
        M, I, C, S, K = 3, 14, 2, 4, 16
        scheme = kernels.ScalingScheme(np.float64)
        P_l, _ = _random_stack(rng, M, I, C, S, np.float64)
        P_r, _ = _random_stack(rng, M, I, C, S, np.float64)
        code_matrix = (rng.random((K, S)) < 0.5).astype(np.float64)
        code_matrix[:S] = np.eye(S)
        codes_l = rng.integers(0, K, size=(M, I))
        codes_r = rng.integers(0, K, size=(M, I))
        ref = np.empty((M, I, C, S))
        ref_rows = np.zeros((M, I), dtype=np.int32)
        for m in range(M):
            kernels.update_clv(ref[m], P_l[m], P_r[m], None, None,
                               codes_l[m], codes_r[m], code_matrix,
                               ref_rows[m], scheme)
        out = np.empty_like(ref)
        rows = np.zeros((M, I), dtype=np.int32)
        kernels.update_clv_batch(out, P_l, P_r, None, None, codes_l, codes_r,
                                 code_matrix, [rows[m] for m in range(M)],
                                 scheme)
        assert np.array_equal(out, ref)

    def test_update_clv_batch_validates_sides(self, rng):
        M, I, C, S = 2, 5, 2, 4
        scheme = kernels.ScalingScheme(np.float64)
        P, clv = _random_stack(rng, M, I, C, S, np.float64)
        rows = [np.zeros(I, dtype=np.int32) for _ in range(M)]
        eye = np.eye(S)
        out = np.empty_like(clv)
        with pytest.raises(LikelihoodError, match="left child"):
            kernels.update_clv_batch(out, P, P, None, clv, None, None,
                                     eye, rows, scheme)
        with pytest.raises(LikelihoodError, match="right child"):
            kernels.update_clv_batch(out, P, P, clv, None, None, None,
                                     eye, rows, scheme)


class TestScheduleBuild:
    @pytest.fixture()
    def dataset(self):
        tree = yule_tree(12, seed=5)
        aln = simulate_alignment(tree, JC69(), 100, seed=6)
        return tree, aln

    def _engine(self, dataset, **kwargs):
        tree, aln = dataset
        kwargs.setdefault("rates", None)
        rates = kwargs.pop("rates")
        return LikelihoodEngine(tree.copy(), aln, JC69(),
                                rates or RateModel.gamma(1.0, 2), **kwargs)

    def test_default_group_cap(self):
        assert default_group_cap(1) == 1
        assert default_group_cap(3) == 1
        assert default_group_cap(9) == 3
        assert default_group_cap(32) == 10

    def test_accesses_equal_plan_accesses(self, dataset):
        eng = self._engine(dataset, layout="block", block_sites=32,
                           num_slots=9, batch=-1)
        plan = eng.plan(*eng.default_edge(), full=True)
        expected = reference_accesses(eng.layout, eng.tree.num_tips, plan)
        assert eng.plan_accesses(plan) == expected
        for cap in (1, 2, 5, 100):
            sched = build_batched_schedule(plan, eng.layout,
                                           eng.tree.num_tips, cap)
            assert sched.accesses() == expected
            assert sched.num_members == len(plan.steps) * \
                eng.layout.blocks_per_node
        eng.close()

    def test_groups_are_independent_and_capped(self, dataset):
        eng = self._engine(dataset, layout="block", block_sites=32,
                           num_slots=9, batch=-1)
        plan = eng.plan(*eng.default_edge(), full=True)
        cap = 4
        sched = build_batched_schedule(plan, eng.layout,
                                       eng.tree.num_tips, cap)
        for group in sched.groups:
            assert 1 <= len(group) <= cap
            written = {m.node for m in group.members}
            items = [m.out_item for m in group.members]
            assert len(set(items)) == len(items)  # outputs distinct
            for m in group.members:
                # No member consumes another member's output.
                assert m.left not in written or m.left == m.node
                assert m.right not in written or m.right == m.node
        eng.close()

    def test_cap_validation(self, dataset):
        eng = self._engine(dataset, num_slots=4)
        plan = eng.plan(*eng.default_edge(), full=True)
        with pytest.raises(LikelihoodError, match="max_members"):
            build_batched_schedule(plan, eng.layout, eng.tree.num_tips, 0)
        eng.close()

    def test_schedule_cache_hit_and_eviction(self, dataset):
        eng = self._engine(dataset, num_slots=4, batch=2)
        plan = eng.plan(*eng.default_edge(), full=True)
        cache = ScheduleCache(capacity=2)
        first = cache.get(plan, eng.layout, eng.tree.num_tips, 2)
        assert cache.get(plan, eng.layout, eng.tree.num_tips, 2) is first
        other = cache.get(plan, eng.layout, eng.tree.num_tips, 3)
        assert other is not first
        # Capacity 2: a third distinct key evicts the least recently used
        # entry (cap=2), while cap=3 survives.
        cache.get(plan, eng.layout, eng.tree.num_tips, 4)
        assert cache.get(plan, eng.layout, eng.tree.num_tips, 3) is other
        assert cache.get(plan, eng.layout, eng.tree.num_tips, 2) is not first
        eng.close()

    def test_batch_constructor_validation(self, dataset):
        with pytest.raises(ReproError, match="batch"):
            self._engine(dataset, num_slots=4, batch="bogus")
        eng = self._engine(dataset, num_slots=9, batch="auto")
        assert eng.batch_members == default_group_cap(9) == 3
        eng.close()
        for off in (None, 0):
            eng = self._engine(dataset, num_slots=9, batch=off)
            assert eng.batch_members == 1  # groups of one, in place
            eng.close()


def _run_pair(policy, layout, block_sites, batch, *, num_slots,
              dtype=np.float64, traversals=2,
              taxa=12, sites=150, rates=None, **extra):
    """(lnL, counters, engine) for unbatched vs batched on one dataset."""
    tree = yule_tree(taxa, seed=71)
    model = GTR((1.0, 2.1, 0.9, 1.3, 2.8, 1.0), (0.28, 0.22, 0.26, 0.24))
    aln = simulate_alignment(tree, model, sites,
                             rates=RateModel.gamma(0.9, 3), seed=72)
    rates = rates or RateModel.gamma(0.9, 3)
    results = []
    for b in (None, batch):
        eng = LikelihoodEngine(
            tree.copy(), aln, model, rates,
            layout=layout, block_sites=block_sites, num_slots=num_slots,
            policy=policy, poison_skipped_reads=True,
            seed=9, batch=b, dtype=dtype, **extra)
        lnl = eng.full_traversals(traversals)
        eng.store.drain()
        row = eng.stats.as_row()
        results.append((lnl, {k: row[k] for k in PARITY_COUNTERS}, eng))
    return results


class TestBatchedEngineParity:
    """End-to-end: batched == unbatched, bit for bit, per policy/layout."""

    @pytest.mark.parametrize("policy,layout,block_sites,batch", [
        ("lru", "block", 64, -1),
        ("random", "block", 37, 4),
        ("fifo", "whole", None, 16),
        ("lfu", "block", 64, 3),
    ])
    def test_lnl_and_counters_bit_identical(self, policy, layout,
                                            block_sites, batch):
        (l0, c0, e0), (l1, c1, e1) = _run_pair(
            policy, layout, block_sites, batch, num_slots=8)
        try:
            assert l1 == l0
            assert c1 == c0
        finally:
            e0.close()
            e1.close()

    def test_lru_auto_cap_never_spills(self):
        (l0, c0, e0), (l1, c1, e1) = _run_pair(
            "lru", "block", 64, -1, num_slots=9, traversals=3)
        try:
            assert (l1, c1) == (l0, c0)
            assert e1.store.fill_spills == 0  # the residency guarantee
        finally:
            e0.close()
            e1.close()

    def test_spilled_fills_keep_parity(self):
        # A group cap far above the residency bound plus a non-LRU policy
        # forces deferred outputs to be evicted before their fill lands;
        # the fill path must absorb that without touching the counters.
        (l0, c0, e0), (l1, c1, e1) = _run_pair(
            "random", "block", 37, 24, num_slots=6, traversals=3)
        try:
            assert (l1, c1) == (l0, c0)
            assert e1.store.fill_spills > 0
        finally:
            e0.close()
            e1.close()

    def test_float32_batched_bit_identical_to_float32_unbatched(self):
        (l0, c0, e0), (l1, c1, e1) = _run_pair(
            "lru", "block", 64, -1, num_slots=8, dtype=np.float32)
        try:
            assert (l1, c1) == (l0, c0)
        finally:
            e0.close()
            e1.close()

    def test_writeback_and_track_dirty_bit_identical(self):
        (l0, c0, e0), (l1, c1, e1) = _run_pair(
            "lru", "block", 64, -1, num_slots=8, traversals=3,
            track_dirty=True, writeback_depth=2)
        try:
            assert (l1, c1) == (l0, c0)
        finally:
            e0.close()
            e1.close()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("batch", [-1, 4])
    def test_ragged_one_block_and_padded_width(self, batch, dtype):
        """Γ4+I gives C·S = 20 (an operator width the GEMM must pad) and
        the block size leaves a last block of one pattern (a product numpy
        would hand to GEMV): both fused against in place, bit for bit."""
        tree = yule_tree(12, seed=71)
        patterns = simulate_alignment(
            tree, GTR((1.0, 2.1, 0.9, 1.3, 2.8, 1.0), (0.28, 0.22, 0.26, 0.24)),
            150, rates=RateModel.gamma(0.9, 3), seed=72).compress().num_patterns
        block = next(b for b in range(9, patterns) if patterns % b == 1)
        (l0, c0, e0), (l1, c1, e1) = _run_pair(
            "lru", "block", block, batch, num_slots=9, dtype=dtype,
            rates=RateModel.gamma_invariant(0.9, 0.15, 4))
        try:
            assert e1.clv_shape[1] * e1.clv_shape[2] == 20
            assert e1.layout.block_bounds(e1.layout.blocks_per_node - 1)[1] \
                - e1.layout.block_bounds(e1.layout.blocks_per_node - 1)[0] == 1
            assert (l1, c1) == (l0, c0)
        finally:
            e0.close()
            e1.close()

    def test_batch_needs_fill_protocol(self):
        from repro.vm.disk import DiskModel
        from repro.vm.standardstore import PagedStandardStore

        tree = yule_tree(8, seed=3)
        aln = simulate_alignment(tree, JC69(), 60, seed=4)
        store = PagedStandardStore(
            *clv_geometry(tree, aln, JC69(), RateModel.uniform()),
            ram_bytes=1 << 20, disk=DiskModel.hdd())
        with pytest.raises(ReproError, match="fill"):
            LikelihoodEngine(tree.copy(), aln, JC69(), RateModel.uniform(),
                             store=store, batch=4)


@settings(max_examples=12, deadline=None)
@given(
    num_taxa=st.integers(min_value=4, max_value=14),
    seed=st.integers(min_value=0, max_value=10**6),
    block_sites=st.sampled_from([None, 16, 23]),
    cap=st.integers(min_value=1, max_value=12),
    slots=st.integers(min_value=3, max_value=10),
)
def test_schedule_matches_runtime_access_sequence(num_taxa, seed,
                                                  block_sites, cap, slots):
    """reference_accesses == plan_accesses == what execution actually
    issues — with identical lnL and parity counters — for cap 1, an
    explicit cap and cap auto, over random trees and geometries; cap 1
    also over a store without ``fill``."""
    tree = yule_tree(num_taxa, seed=seed)
    model = JC69()
    rates = RateModel.gamma(1.0, 2)
    aln = simulate_alignment(tree, model, 48, rates=rates, seed=seed + 1)
    layout = "whole" if block_sites is None else "block"

    def recorded_run(batch, store=None):
        geometry = {} if store is not None else {
            "layout": layout, "block_sites": block_sites,
            "num_slots": slots, "policy": "lru"}
        eng = LikelihoodEngine(tree.copy(), aln, model, rates,
                               store=store, batch=batch, **geometry)
        u, v = eng.default_edge()
        plan = eng.plan(u, v, full=True)
        expected = reference_accesses(eng.layout, eng.tree.num_tips, plan)
        assert eng.plan_accesses(plan) == expected
        recorded = []
        real_get = eng.store.get

        def recording_get(item, pins=(), write_only=False):
            recorded.append((item, tuple(pins), write_only))
            return real_get(item, pins=pins, write_only=write_only)

        eng.store.get = recording_get
        try:
            eng.execute_plan(plan)
            assert recorded == expected
            lnl = eng.edge_loglikelihood(u, v)
        finally:
            eng.store.get = real_get
            eng.close()
        row = eng.stats.as_row()
        return lnl.hex(), {k: row[k] for k in PARITY_COUNTERS}

    in_place = recorded_run(batch=None)
    assert recorded_run(batch=1) == in_place
    assert recorded_run(batch=cap) == in_place
    assert recorded_run(batch=-1) == in_place

    from repro.vm.disk import DiskModel
    from repro.vm.standardstore import PagedStandardStore

    paged = PagedStandardStore(tree.num_inner, (aln.compress().num_patterns,
                                                rates.num_categories, 4),
                               ram_bytes=1 << 14, disk=DiskModel.hdd())
    assert not hasattr(paged, "fill")
    assert recorded_run(batch=1, store=paged)[0] == in_place[0]
