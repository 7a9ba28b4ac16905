"""A write that reproduces a stored vector leaves its slot clean.

A store told which writes of the running operation reproduce the bits
each item stored last (``declare_reproduced``) leaves such a write as
clean as the backing copy was just before the access: a hit keeps the
slot's dirty bit, a miss is clean unless the item is unbacked. The
invariant these tests hold: a clean slot equals its backing copy — in
every store's own geometry, shadows included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import GTR, LikelihoodEngine, RateModel, simulate_alignment, yule_tree
from repro.core.backing import MemoryBackingStore, SimulatedDiskBackingStore
from repro.core.layout import make_layout
from repro.core.shadow import ShadowStore, TeeStore
from repro.core.trace import AccessTrace, simulate_policy_on_trace
from repro.core.vecstore import AncestralVectorStore
from repro.errors import BorrowError, OutOfCoreError
from repro.phylo.search import lazy_spr_round

N, SHAPE = 6, (4,)

#: The counters a shadow keeps (it moves no bytes).
COUNTERS = ("requests", "hits", "misses", "reads", "read_skips", "writes",
            "write_skips", "write_drops")


def _store(**kwargs) -> AncestralVectorStore:
    return AncestralVectorStore(N, SHAPE, num_slots=3, **kwargs)


def _written(store, items) -> None:
    """Each of ``items`` fetched write-only and set to ``item + 1``."""
    for item in items:
        store.get(item, write_only=True)[:] = item + 1.0


def _writes(store) -> tuple[int, int, int]:
    stats = store.stats
    return stats.writes, stats.write_skips, stats.write_drops


class TestTheRule:
    def test_a_miss_is_clean(self, closing):
        store = closing(_store())
        _written(store, (0, 1, 2, 3))            # evicts 0: written
        store.declare_reproduced([0])
        _written(store, (0,))                    # a read-skipped miss
        assert store.stats.read_skips == 5
        _written(store, (4, 5, 1))               # evicts 2, 3 and 0
        assert _writes(store) == (4, 1, 0)       # 0 was skipped, clean
        np.testing.assert_array_equal(store.read_item(0), 1.0)

    def test_a_hit_keeps_the_dirty_bit(self, closing):
        store = closing(_store())
        _written(store, (0,))
        store.declare_reproduced([0])
        _written(store, (0,))                    # a hit on a dirty slot
        _written(store, (1, 2, 3))               # evicts 0
        assert _writes(store) == (1, 0, 0)
        np.testing.assert_array_equal(store.read_item(0), 1.0)

    def test_a_clean_hit_stays_clean(self, closing):
        store = closing(_store())
        _written(store, (0, 1, 2, 3))            # evicts 0: written
        store.get(0)                             # read back: clean
        store.declare_reproduced([0])
        _written(store, (0,))
        _written(store, (4, 5, 1))               # evicts 2, 3 and 0
        assert _writes(store) == (4, 1, 0)

    def test_an_unbacked_miss_is_dirty(self, closing):
        store = closing(_store())
        _written(store, (0, 1, 2))
        store.declare_reads(())
        store.mark_recomputable([0])
        _written(store, (3,))                    # drops 0
        assert store.is_unbacked(0)
        store.declare_reproduced([0])
        _written(store, (0,))                    # stale copy: stays dirty
        store.validate()
        _written(store, (4, 5, 1))               # evicts 2, 3 and 0
        assert _writes(store) == (4, 0, 1)
        assert not store.is_unbacked(0)
        np.testing.assert_array_equal(store.read_item(0), 1.0)

    def test_each_declaration_replaces_the_last(self, closing):
        store = closing(_store())
        _written(store, (0, 1, 2, 3))            # evicts 0: written
        store.declare_reproduced([0])
        store.declare_reproduced([1])
        _written(store, (0,))                    # not declared any more
        _written(store, (4, 5, 1))
        assert _writes(store) == (5, 0, 0)

    def test_a_read_access_is_not_a_write(self, closing):
        store = closing(_store())
        _written(store, (0, 1, 2, 3))
        store.declare_reproduced([0])
        store.get(0)
        _written(store, (4, 5, 1))
        assert _writes(store) == (4, 1, 0)


class TestSanitizer:
    def test_a_write_that_changes_the_bits_raises(self, closing):
        store = closing(_store(sanitize=True))
        _written(store, (0, 1, 2, 3))
        store.declare_reproduced([0])
        store.get(0, write_only=True)[:] = 99.0  # not what is stored
        with pytest.raises(OutOfCoreError, match="reproducing"):
            store.get(1)

    def test_a_barrier_compares_too(self, closing):
        store = closing(_store(sanitize=True))
        _written(store, (0, 1, 2, 3))
        store.declare_reproduced([0])
        store.get(0, write_only=True)[:] = 99.0
        with pytest.raises(OutOfCoreError, match="reproducing"):
            store.flush()

    def test_an_equal_write_passes_and_its_view_is_sealed(self, closing):
        store = closing(_store(sanitize=True))
        _written(store, (0, 1, 2, 3))
        store.declare_reproduced([0])
        view = store.get(0, write_only=True)
        view[:] = 1.0
        store.get(1)                             # compared: equal
        with pytest.raises(BorrowError, match="read view"):
            view[0] = 1.0                        # the slot is clean now
        store.validate()

    def test_the_compare_is_no_transfer_of_a_modelled_disk(self, closing):
        backing = SimulatedDiskBackingStore(N, SHAPE)
        store = closing(_store(sanitize=True, backing=backing))
        _written(store, (0, 1, 2, 3))
        store.declare_reproduced([0])
        _written(store, (0,))
        charged = backing.simulated_seconds
        store.get(2)                             # a hit: compares 0
        assert backing.simulated_seconds == charged
        store.get(0, write_only=True)[:] = 99.0  # a clean hit, changed
        with pytest.raises(OutOfCoreError, match="reproducing"):
            store.get(2)

    def test_a_dirty_hit_is_not_compared(self, closing):
        store = closing(_store(sanitize=True))
        _written(store, (0,))
        store.declare_reproduced([0])
        store.get(0, write_only=True)[:] = 5.0   # dirty anyway: no claim
        store.get(1)
        _written(store, (2, 3))                  # evicts 0: written
        np.testing.assert_array_equal(store.read_item(0), 5.0)


def test_tee_trace_and_replay_count_what_the_store_counted(closing):
    """``TeeStore`` forwards the declaration, the shadow applies it, the
    trace records it and the replay applies it."""
    primary = closing(_store())
    shadow = ShadowStore(N, 3, "lru")
    trace = AccessTrace(N)
    tee = TeeStore(primary, [shadow, trace])
    for item in (0, 1, 2, 3):                    # evicts 0
        tee.get(item, write_only=True)[:] = item + 1.0
    tee.get(0)                                   # evicts 1; 0 is clean
    tee.declare_reproduced([0, 1, 2])
    tee.get(0, write_only=True)[:] = 1.0         # a clean hit: clean
    tee.get(2, write_only=True)[:] = 3.0         # a dirty hit: dirty
    tee.get(1, write_only=True)[:] = 2.0         # a miss: clean
    for item in (4, 5, 3):                       # evicts 0, 2 and 1
        tee.get(item, write_only=True)[:] = item + 1.0
    live = primary.stats.as_row()
    assert (live["writes"], live["write_skips"]) == (4, 2)
    assert shadow.stats.as_row() == live | {"bytes_read": 0,
                                            "bytes_written": 0}
    assert simulate_policy_on_trace(trace, 3, "lru").as_row() \
        == shadow.stats.as_row()
    assert [ev.kind for ev in trace.events].count("reproduced") == 1


# -- shadows of another geometry -----------------------------------------------

MODEL = GTR((1, 2, 1, 1, 2, 1), (0.3, 0.2, 0.3, 0.2))
RATES = RateModel.gamma(0.9, 4)


def _replay_into_store(trace: AccessTrace, store: AncestralVectorStore) -> None:
    """Replay ``trace`` into a real store, each write filling its slot with
    its item's *version*: a write the running operation declared
    reproducing writes the version stored last, any other a new one. So a
    store that leaves a slot clean whose backing copy holds another
    version is caught by its sanitizer."""
    version = [0] * trace.num_items
    reproduced: set[int] = set()
    for ev in trace.events:
        if ev.kind != "get":
            if ev.kind == "reproduced":
                reproduced = set(ev.items)
            ev.replay(store)
            continue
        view = store.get(ev.item, ev.pins, ev.write_only)
        if ev.write_only:
            if ev.item not in reproduced:
                version[ev.item] += 1
            view[...] = version[ev.item]


@pytest.fixture(scope="module")
def searched_trace():
    """The access trace of a 4-slot store: one full traversal, a lazy-SPR
    round at radius 3, then the likelihood at every third edge — and the
    store's own counters."""
    tree = yule_tree(40, seed=11, scale=0.1)
    aln = simulate_alignment(tree, MODEL, 300, rates=RATES, seed=12)
    shape = (aln.compress().num_patterns, RATES.num_categories,
             MODEL.num_states)
    primary = AncestralVectorStore(layout=make_layout("whole", tree.num_inner,
                                                      shape), num_slots=4)
    trace = AccessTrace(tree.num_inner)
    eng = LikelihoodEngine(tree.copy(), aln, MODEL, RATES,
                           store=TeeStore(primary, [trace]))
    try:
        eng.full_traversals(1)
        lazy_spr_round(eng, radius=3)
        for u, v in list(eng.tree.edges())[::3]:
            eng.edge_loglikelihood(u, v)
        live = primary.stats.as_row()
    finally:
        eng.close()
    return trace, live, shape


@pytest.mark.parametrize("slots", [4, 7, 12, 19, 30])
def test_a_shadow_counts_what_a_store_of_its_geometry_counts(
        searched_trace, slots):
    """Replayed into a shadow and into a real store with ``slots`` slots,
    the same trace gives the same counters; the real store's sanitizer
    checks every slot the rule leaves clean against its backing copy.
    (A ``mark_clean`` replayed in another geometry would declare clean a
    slot whose backing copy that geometry never wrote.)"""
    trace, live, shape = searched_trace
    shadow = ShadowStore(trace.num_items, slots, "lru")
    for ev in trace.events:
        ev.replay(shadow)
    store = AncestralVectorStore(
        trace.num_items, shape, num_slots=slots, sanitize=True,
        backing=MemoryBackingStore(trace.num_items, shape, np.float64))
    try:
        _replay_into_store(trace, store)
        store.validate()
        counted = store.stats.as_row()
    finally:
        store.close()
    for counter in COUNTERS:
        assert getattr(shadow.stats, counter) == counted[counter], counter
    if slots == 4:
        assert all(counted[c] == live[c] for c in COUNTERS)
    assert any(ev.kind == "reproduced" and ev.items for ev in trace.events)


# -- the engine: full traversals write back only what changed ------------------

def _lnl(engine, lnls):
    evaluate = engine.edge_loglikelihood

    def recorded(u, v, full=False):
        lnl = evaluate(u, v, full)
        lnls.append(float(lnl).hex())
        return lnl

    engine.edge_loglikelihood = recorded


def _run(engine, ops) -> list[str]:
    """Full traversals, re-roots and small lazy-SPR rounds; every lnL in
    hex."""
    lnls: list[str] = []
    _lnl(engine, lnls)
    tree = engine.tree
    for op, arg in ops:
        if op == "full":
            engine.full_traversals(arg)
        elif op == "reroot":
            edges = sorted(tree.edges())
            engine.edge_loglikelihood(*edges[arg % len(edges)])
        else:
            p = tree.num_tips + arg % tree.num_inner
            lazy_spr_round(engine, radius=2,
                           prune_points=[(p, s) for s in tree.neighbors(p)])
    return lnls


def test_a_full_traversal_writes_only_what_changed(closing):
    """Once every vector is current, further full traversals write
    nothing: each recomputation reproduces its stored bits. Every lnL is
    the in-core twin's."""
    tree = yule_tree(16, seed=3, scale=0.1)
    aln = simulate_alignment(tree, MODEL, 60, rates=RATES, seed=4)
    incore = closing(LikelihoodEngine(tree.copy(), aln, MODEL, RATES))
    want = incore.full_traversals(4)
    eng = closing(LikelihoodEngine(tree.copy(), aln, MODEL, RATES,
                                   num_slots=4))
    eng.full_traversals(2)
    writes = eng.stats.writes
    assert writes > 0
    assert eng.full_traversals(2) == want
    assert eng.stats.writes == writes
    assert eng.stats.write_skips > 0


def test_an_in_core_store_is_told_nothing(closing):
    tree = yule_tree(10, seed=3, scale=0.1)
    aln = simulate_alignment(tree, MODEL, 60, rates=RATES, seed=4)
    shape = (aln.compress().num_patterns, RATES.num_categories,
             MODEL.num_states)
    trace = AccessTrace(tree.num_inner)
    primary = AncestralVectorStore(tree.num_inner, shape)
    closing(LikelihoodEngine(tree.copy(), aln, MODEL, RATES,
                             store=TeeStore(primary, [trace]))
            ).full_traversals(3)
    assert not [ev for ev in trace.events if ev.kind == "reproduced"]


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(taxa=st.integers(6, 14), seed=st.integers(0, 10**6),
       slot_share=st.floats(0.0, 0.6),
       layout=st.sampled_from(["whole", "block"]),
       batch=st.sampled_from([0, -1]), depth=st.sampled_from([0, 4]),
       ops=st.lists(st.one_of(
           st.tuples(st.just("full"), st.integers(1, 2)),
           st.tuples(st.just("reroot"), st.integers(0, 200)),
           st.tuples(st.just("spr"), st.integers(0, 200))),
           min_size=1, max_size=5))
def test_reproduced_writes_keep_every_bit_and_account_every_eviction(
        taxa, seed, slot_share, layout, batch, depth, ops):
    """Under the sanitizer — which compares every slot a reproducing write
    left clean with its backing copy — full traversals interleaved with
    re-roots and lazy SPR give the in-core twin's lnL bit for bit, and
    every eviction is one write, one skip or one drop."""
    tree = yule_tree(taxa, seed=seed, scale=0.1)
    aln = simulate_alignment(tree, MODEL, 60, rates=RATES, seed=seed + 1)
    ops = [("full", 1), *ops]
    incore = LikelihoodEngine(tree.copy(), aln, MODEL, RATES)
    try:
        want = _run(incore, ops)
    finally:
        incore.close()
    shape = (aln.compress().num_patterns, RATES.num_categories,
             MODEL.num_states)
    lay = make_layout(layout, tree.num_inner, shape,
                      block_sites=24 if layout == "block" else None)
    slots = 3 + int(slot_share * (lay.num_items - 4))
    store = AncestralVectorStore(layout=lay, num_slots=slots,
                                 writeback_depth=depth, sanitize=True)
    eng = LikelihoodEngine(tree.copy(), aln, MODEL, RATES, store=store,
                           batch=batch)
    try:
        got = _run(eng, ops)
        store.validate()
        stats = store.stats.as_row()
        evictions = stats["misses"] - len(store.resident_items())
    finally:
        eng.close()
    assert got == want
    assert stats["writes"] + stats["write_skips"] + stats["write_drops"] \
        == evictions
