"""Write only what a read wants: a dirty victim nothing will read is dropped.

A store told that the running operation does not read a dirty victim
(``declare_reads``) and that recomputing it is priced below writing it
(``mark_recomputable``) vacates its slot without writing: the item is
*unbacked* until a real write. The invariant these tests hold: an evicted
vector is on the backing store, or it is unbacked and never read.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import GTR, LikelihoodEngine, RateModel, simulate_alignment, yule_tree
from repro.core.backing import SimulatedDiskBackingStore
from repro.core.layout import StorageLayout
from repro.core.shadow import ShadowStore, TeeStore
from repro.core.trace import AccessTrace, simulate_policy_on_trace
from repro.core.vecstore import AncestralVectorStore
from repro.errors import OutOfCoreError
from repro.obs import Observer
from repro.vm.disk import DiskModel

N, SHAPE = 6, (4,)


def _store(**kwargs) -> AncestralVectorStore:
    return AncestralVectorStore(N, SHAPE, num_slots=3, **kwargs)


def _written(store, items) -> None:
    """Each of ``items`` fetched write-only and set to ``item + 1``."""
    for item in items:
        store.get(item, write_only=True)[:] = item + 1.0


def _dropping_zero(store) -> None:
    """Fill the three slots dirty, declare 0 recomputable and read by
    nothing, then miss on 3: LRU evicts 0."""
    _written(store, (0, 1, 2))
    store.declare_reads(())
    store.mark_recomputable([0])
    store.get(3, write_only=True)


class TestDrop:
    def test_a_dropped_victim_is_unbacked(self, closing):
        store = closing(_store())
        _dropping_zero(store)
        stats = store.stats
        assert (stats.writes, stats.write_skips, stats.write_drops) == (0, 0, 1)
        assert stats.bytes_written == 0
        assert store.is_unbacked(0) and not store.is_resident(0)
        assert not any(map(store.is_unbacked, (1, 2, 3)))
        store.validate()

    def test_a_victim_the_operation_reads_is_written(self, closing):
        store = closing(_store())
        _written(store, (0, 1, 2))
        store.declare_reads([0, 5])
        store.mark_recomputable([0])
        store.get(3, write_only=True)
        assert (store.stats.writes, store.stats.write_drops) == (1, 0)
        assert not store.is_unbacked(0)
        np.testing.assert_array_equal(store.read_item(0), 1.0)

    def test_a_victim_not_marked_recomputable_is_written(self, closing):
        store = closing(_store())
        _written(store, (0, 1, 2))
        store.get(3, write_only=True)
        assert (store.stats.writes, store.stats.write_drops) == (1, 0)

    def test_a_write_revokes_the_mark(self, closing):
        store = closing(_store())
        _written(store, (0, 1, 2))
        store.mark_recomputable([0, 1])
        store.get(0, write_only=True)            # a hit that rewrites 0
        store.mark_dirty(1)                      # ... and a declared write
        store.get(2)
        store.get(3, write_only=True)            # evicts 1
        store.get(4, write_only=True)            # evicts 0
        assert (store.stats.writes, store.stats.write_drops) == (2, 0)

    def test_a_clean_victim_is_skipped_not_dropped(self, closing):
        store = closing(_store())
        _written(store, (0, 1, 2))
        store.flush()
        store.mark_recomputable([0])
        store.get(3, write_only=True)
        assert (store.stats.write_skips, store.stats.write_drops) == (1, 0)
        assert not store.is_unbacked(0)

    def test_a_read_of_an_unbacked_item_raises(self, closing):
        store = closing(_store())
        _dropping_zero(store)
        misses = store.stats.misses
        with pytest.raises(OutOfCoreError, match="unbacked"):
            store.get(0)
        with pytest.raises(OutOfCoreError, match="unbacked"):
            store.read_item(0)
        assert store.stats.misses == misses
        store.validate()

    def test_a_write_only_access_recomputes_it(self, closing):
        store = closing(_store())
        _dropping_zero(store)
        store.get(0, write_only=True)[:] = 7.0
        assert store.stats.read_skips == 5
        assert store.is_unbacked(0)              # the backing copy is stale
        store.mark_clean(0)                      # ... so the slot stays dirty
        store.validate()
        for item in (4, 5, 1):
            store.get(item, write_only=True)     # evicts 2, 3 and 0
        assert not store.is_unbacked(0)
        np.testing.assert_array_equal(store.read_item(0), 7.0)

    def test_a_prefetch_claim_refuses_it(self, closing):
        store = closing(_store())
        _dropping_zero(store)
        assert store.prefetch_load(0) is False
        assert store.stats.prefetch_reads == 0

    def test_a_prefetch_victim_is_written_not_dropped(self, closing):
        store = closing(_store())
        _written(store, (0, 1, 2))
        store.mark_recomputable([0, 1])
        assert store.prefetch_load(3)            # evicts 0, a prefetch's victim
        assert (store.stats.writes, store.stats.write_drops) == (1, 0)

    def test_fill_makes_it_backed_again(self, closing):
        store = closing(_store())
        _dropping_zero(store)
        store.fill(0, np.full(SHAPE, 9.0))
        assert not store.is_unbacked(0)
        np.testing.assert_array_equal(store.get(0), 9.0)

    def test_flush_and_evict_all_still_write(self, closing):
        store = closing(_store())
        _written(store, (0, 1, 2))
        store.declare_reads(())
        store.mark_recomputable([0, 1, 2])
        store.flush()
        assert (store.stats.writes, store.stats.write_drops) == (3, 0)
        _written(store, (0, 1))
        store.mark_recomputable([0, 1])
        store.evict_all()
        assert (store.stats.writes, store.stats.write_drops) == (5, 0)
        for item in (0, 1, 2):
            np.testing.assert_array_equal(store.read_item(item), item + 1.0)

    def test_flush_makes_a_resident_unbacked_item_backed(self, closing):
        store = closing(_store())
        _dropping_zero(store)
        store.get(0, write_only=True)[:] = 4.0
        store.flush()
        assert not store.is_unbacked(0)
        np.testing.assert_array_equal(store.read_item(0), 4.0)

    def test_write_behind_drops_without_staging(self, closing):
        store = closing(_store(writeback_depth=2))
        _dropping_zero(store)
        store.drain()
        assert store.stats.write_drops == 1
        assert store.stats.writeback_writes == 0
        assert store.is_unbacked(0)

    def test_check_copy_of_an_unbacked_item_compares_nothing(self, closing):
        store = closing(_store(sanitize=True))
        _dropping_zero(store)
        store.check_copy(0, np.full(SHAPE, 99.0))     # no copy to compare
        store.evict_all()
        with pytest.raises(OutOfCoreError, match="differ"):
            store.check_copy(1, np.full(SHAPE, 99.0))

    def test_shadow_and_replay_count_what_the_store_counted(self, closing):
        primary = closing(_store())
        shadow = ShadowStore(N, 3, "lru")
        trace = AccessTrace(N)
        tee = TeeStore(primary, [shadow, trace])
        for item in (0, 1, 2):
            tee.get(item, write_only=True)[:] = 1.0
        tee.declare_reads([1])
        tee.mark_recomputable([0, 1, 2])
        tee.get(3, write_only=True)              # drops 0
        tee.get(4, write_only=True)              # writes 1: it is read
        tee.get(0, write_only=True)              # drops 2
        tee.mark_clean(0)                        # unbacked: stays dirty
        tee.get(5, write_only=True)              # writes 3
        tee.get(1)                               # writes 4
        live = primary.stats.as_row()
        assert (live["write_drops"], live["writes"]) == (2, 3)
        assert shadow.stats.as_row() == live | {
            "bytes_read": 0, "bytes_written": 0}
        replayed = simulate_policy_on_trace(trace, 3, "lru").as_row()
        assert replayed == shadow.stats.as_row()
        assert [ev.kind for ev in trace.events].count("reads") == 1


# -- the engine drops on a priced backing, and only there ---------------------------

MODEL = GTR((1, 2, 1, 1, 2, 1), (0.3, 0.2, 0.3, 0.2))
RATES = RateModel.gamma(0.9, 4)


def _incore_results(tree, aln, ops) -> list[str]:
    eng = LikelihoodEngine(tree.copy(), aln, MODEL, RATES)
    try:
        return _run_ops(eng, ops)
    finally:
        eng.close()


def _central_edge(tree) -> tuple[int, int]:
    """The inner edge ``(a, b)`` whose smaller side is largest, ``b``'s
    side the larger."""
    best = None
    for a, b in tree.internal_edges():
        hops_a, hops_b = tree.hop_distances_from(a), tree.hop_distances_from(b)
        side_a = int(np.sum(hops_a < hops_b))
        key = (min(side_a, tree.num_nodes - side_a), a, b)
        if best is None or key > best[0]:
            best = (key, (a, b) if 2 * side_a <= tree.num_nodes else (b, a))
    return best[1]


def _run_ops(engine, ops) -> list[str]:
    """Each op's results as hex: re-roots, SPRs evaluated and undone,
    branch optimisations. ``"central"`` re-roots at :func:`_central_edge`
    ``(a, b)`` — its plan computes ``b``'s side last, so that is what
    stays resident — and ``"away"`` at the tip edge on ``a``'s side
    farthest from ``b``: its plan reads ``b`` but nothing below it."""
    tree = engine.tree
    out = []
    for op, *args in ops:
        edges = sorted(tree.edges())
        if op == "reroot":
            out.append(engine.edge_loglikelihood(*edges[args[0] % len(edges)]))
        elif op == "central":
            out.append(engine.edge_loglikelihood(*_central_edge(tree)))
        elif op == "away":
            a, b = _central_edge(tree)
            hops_a, hops_b = tree.hop_distances_from(a), tree.hop_distances_from(b)
            tip = max((t for t in range(tree.num_tips) if hops_a[t] < hops_b[t]),
                      key=lambda t: (hops_b[t], t))
            out.append(engine.edge_loglikelihood(tip, tree.neighbors(tip)[0]))
        elif op == "spr":
            inner = list(range(tree.num_tips, tree.num_nodes))
            p = inner[args[0] % len(inner)]
            s = tree.neighbors(p)[args[1] % 3]
            candidates = tree.spr_candidates(p, s, radius=4)
            if not candidates:
                continue
            target = candidates[args[2] % len(candidates)]
            undo = engine.apply_spr(p, s, target)
            out.append(engine.edge_loglikelihood(p, s))
            engine.undo_spr(undo)
            out.append(engine.edge_loglikelihood(*edges[args[0] % len(edges)]))
        else:
            u, v = edges[args[0] % len(edges)]
            out.append(engine.optimize_branch(u, v))
            out.append(engine.edge_loglikelihood(u, v))
    return [x.hex() for x in out]


_OPS = st.lists(st.one_of(
    st.tuples(st.just("reroot"), st.integers(0, 200)),
    st.tuples(st.just("spr"), st.integers(0, 200), st.integers(0, 2),
              st.integers(0, 200)),
    st.tuples(st.just("opt"), st.integers(0, 200))), min_size=1, max_size=6)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(taxa=st.integers(8, 20), seed=st.integers(0, 10**6),
       slot_share=st.floats(0.0, 0.5), disk=st.sampled_from(["hdd", "ssd"]),
       depth=st.sampled_from([0, 4]), ops=_OPS)
def test_drops_keep_every_bit_and_account_every_eviction(
        taxa, seed, slot_share, disk, depth, ops):
    """Under the sanitizer, over a modelled disk that does not sleep:
    every result is the in-core twin's, every eviction is one write, one
    skip or one drop, and on the HDD with more than three slots something
    is dropped: two re-roots open every sequence, the second evicting
    vectors the first left resident that it does not read
    (:func:`_run_ops`). Three slots leave the first re-root's two ends
    and a vector the second one reads, so there may be nothing to drop."""
    tree = yule_tree(taxa, seed=seed, scale=0.1)
    aln = simulate_alignment(tree, MODEL, 60, rates=RATES, seed=seed + 1)
    ops = [("central",), ("away",), *ops]
    want = _incore_results(tree, aln, ops)
    shape = (aln.compress().num_patterns, RATES.num_categories,
             MODEL.num_states)
    layout = StorageLayout(tree.num_inner, shape)
    slots = 3 + int(slot_share * (tree.num_inner - 4))
    backing = SimulatedDiskBackingStore.from_layout(
        layout, disk=getattr(DiskModel, disk)())
    store = AncestralVectorStore(layout=layout, num_slots=slots,
                                 backing=backing, writeback_depth=depth,
                                 sanitize=True)
    eng = LikelihoodEngine(tree.copy(), aln, MODEL, RATES, store=store)
    obs = Observer().attach(eng)
    try:
        got = _run_ops(eng, ops)
        store.drain()
        evictions = obs.spans.by_name().get("evict", 0)
        stats = store.stats
        store.validate()
    finally:
        obs.detach(eng)
        eng.close()
    assert got == want
    assert stats.writes + stats.write_skips + stats.write_drops == evictions
    if disk == "hdd" and slots > 3:
        assert stats.write_drops > 0


def test_a_free_backing_drops_nothing(closing):
    """Memory and file backings price a read at 0: the engine declares
    nothing, so every dirty victim is written as before."""
    tree = yule_tree(16, seed=3, scale=0.1)
    aln = simulate_alignment(tree, MODEL, 60, rates=RATES, seed=4)
    eng = closing(LikelihoodEngine(tree.copy(), aln, MODEL, RATES,
                                   num_slots=4))
    ops = [("reroot", k) for k in range(0, 29, 3)]
    assert _run_ops(eng, ops) == _incore_results(tree, aln, ops)
    assert eng.stats.write_drops == 0 and eng.stats.writes > 0


def test_a_full_traversal_drops_nothing(closing):
    """A full traversal reads every vector it writes."""
    tree = yule_tree(16, seed=3, scale=0.1)
    aln = simulate_alignment(tree, MODEL, 60, rates=RATES, seed=4)
    eng = closing(LikelihoodEngine(tree.copy(), aln, MODEL, RATES,
                                   num_slots=4, backing="simulated"))
    eng.full_traversals(3)
    assert eng.stats.write_drops == 0 and eng.stats.writes > 0
