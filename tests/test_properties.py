"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trace import AccessTrace, lru_miss_curve, simulate_policy_on_trace
from repro.core.vecstore import AncestralVectorStore
from repro.phylo.alphabet import DNA
from repro.phylo.models import GTR
from repro.phylo.models.rates import discrete_gamma_rates
from repro.phylo.newick import parse_newick, write_newick
from repro.phylo.tree import Tree
from repro.vm.pagecache import PageCache

# ---------------------------------------------------------------------------
# alphabet

dna_strings = st.text(alphabet="ACGTRYSWKMBDHVN-", min_size=1, max_size=200)


@given(dna_strings)
def test_encode_decode_reencode_fixpoint(s):
    """decode∘encode is idempotent under re-encoding (codes are canonical)."""
    codes = DNA.encode(s)
    decoded = DNA.decode(codes)
    assert np.array_equal(DNA.encode(decoded), codes)


@given(dna_strings)
def test_pack_unpack_roundtrip(s):
    codes = DNA.encode(s)
    assert np.array_equal(DNA.unpack(DNA.pack(codes), len(codes)), codes)


# ---------------------------------------------------------------------------
# trees / newick

@given(st.integers(min_value=3, max_value=40), st.integers(min_value=0, max_value=10**6))
def test_random_tree_invariants(n, seed):
    t = Tree.random_topology(n, seed=seed)
    t.validate()
    assert t.num_edges == 2 * n - 3
    assert len(list(t.postorder_edge(0, t.neighbors(0)[0]))) == n - 2


@given(st.integers(min_value=3, max_value=25), st.integers(min_value=0, max_value=10**6))
def test_newick_roundtrip_topology(n, seed):
    t = Tree.random_topology(n, seed=seed)
    again = parse_newick(write_newick(t, precision=17))
    # names are t0..t{n-1} in both; tip ids may permute, so compare via names
    assert sorted(again.names) == sorted(t.names)
    assert again.num_edges == t.num_edges
    # patristic distance between two fixed names must be preserved
    i, j = t.names[0], t.names[-1]
    d1 = t.patristic_distance(t.names.index(i), t.names.index(j))
    d2 = again.patristic_distance(again.names.index(i), again.names.index(j))
    assert abs(d1 - d2) < 1e-9


@given(st.integers(min_value=4, max_value=30), st.integers(min_value=0, max_value=10**6),
       st.data())
def test_spr_undo_is_identity(n, seed, data):
    t = Tree.random_topology(n, seed=seed)
    ref = t.copy()
    inner = list(t.inner_nodes())
    p = data.draw(st.sampled_from(inner))
    s = data.draw(st.sampled_from(list(t.neighbors(p))))
    cands = t.spr_candidates(p, s)
    if not cands:
        return
    target = data.draw(st.sampled_from(cands))
    undo = t.spr_move(p, s, target)
    t.validate()
    t.undo_spr(undo)
    assert t.robinson_foulds(ref) == 0
    assert all(
        abs(t.branch_length(u, v) - ref.branch_length(u, v)) < 1e-12
        for u, v in ref.edges()
    )


# ---------------------------------------------------------------------------
# models

@given(st.floats(min_value=0.05, max_value=50.0),
       st.integers(min_value=2, max_value=12))
def test_gamma_rates_mean_one(alpha, k):
    rates = discrete_gamma_rates(alpha, k)
    assert abs(rates.mean() - 1.0) < 1e-9
    assert np.all(rates >= 0)


@given(st.floats(min_value=1e-4, max_value=5.0))
def test_transition_matrix_is_stochastic(t):
    m = GTR((1, 2, 3, 4, 5, 6), (0.1, 0.2, 0.3, 0.4))
    P = m.transition_matrices(t, np.array([0.5, 1.0, 2.0]))
    assert np.all(P >= 0)
    assert np.allclose(P.sum(axis=2), 1.0, atol=1e-10)


# ---------------------------------------------------------------------------
# out-of-core store vs dict reference

@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=4, max_value=20),   # num_items
    st.integers(min_value=3, max_value=8),    # num_slots
    st.sampled_from(["lru", "lfu", "fifo"]),
    st.lists(st.tuples(st.integers(min_value=0, max_value=19), st.booleans()),
             min_size=1, max_size=120),
)
def test_store_matches_dict_reference(n, m, policy, workload):
    store = AncestralVectorStore(n, (4,), num_slots=min(m, n), policy=policy)
    reference = {i: np.zeros(4) for i in range(n)}
    for step, (raw_item, write) in enumerate(workload):
        item = raw_item % n
        view = store.get(item, write_only=write)
        if write:
            view[:] = float(step + 1)
            reference[item][:] = float(step + 1)
        else:
            assert np.array_equal(view, reference[item])
        store.validate()
    # total misses + hits == requests always
    assert store.stats.hits + store.stats.misses == store.stats.requests


# ---------------------------------------------------------------------------
# LRU miss curve vs replay

@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=300),
       st.integers(min_value=1, max_value=16))
def test_lru_curve_equals_replay(items, m):
    trace = AccessTrace(num_items=16)
    for item in items:
        trace.access(item)
    predicted = lru_miss_curve(trace, [m])[m]
    actual = simulate_policy_on_trace(trace, m, "lru").miss_rate
    assert abs(predicted - actual) < 1e-12


# ---------------------------------------------------------------------------
# page cache vs reference LRU

@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=40), st.booleans()),
                min_size=1, max_size=300),
       st.integers(min_value=2, max_value=16))
def test_pagecache_matches_reference_lru(accesses, capacity):
    pc = PageCache(capacity_bytes=capacity * 4096, readahead_pages=1)
    reference: list[int] = []
    faults = 0
    for page, write in accesses:
        if page not in reference:
            faults += 1
        else:
            reference.remove(page)
        reference.append(page)
        if len(reference) > capacity:
            reference.pop(0)
        pc.touch_range(page * 4096, 4096, write=write)
    assert pc.faults == faults
    assert pc.resident_pages == len(reference)
