"""Ablation — implemented strategies vs. the clairvoyant Belady optimum.

The paper compares four implementable strategies against each other; here
we additionally replay the search access trace — the one the Fig. 2–4
shadow grid recorded of its own lazy-SPR round — against Belady's MIN
(the provable lower bound on misses) to quantify how much headroom is
left. The paper's conclusion that Random/LRU suffice is confirmed when
their miss counts sit close to OPT.

The write side (``track_dirty=True``, the store's default): the search
trace and a re-rooting trace — one steady pass of the ``reroot_hdd_sync``
operations of ``benchmarks/ooc`` — replayed per policy, counting reads,
writes and write skips, priced at ``DiskModel.hdd()``. A synchronous miss
writes its dirty victim out and then reads its own item in, each a
transfer of its own, so device time is (reads + writes)·t. The writes are
what a clean-first victim choice (CFLRU) could at most remove, so their
share of the device time is that policy's ceiling; the table says whether
it clears the 15 % gate for building one live. t is the price of a
full-width vector: a transfer moves only an item's live rows, but a trace
carries no live-row count — and the shares do not depend on t.
"""

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import report
from repro import AncestralVectorStore, LikelihoodEngine, clv_geometry
from repro.core.policies import BeladyPolicy
from repro.core.shadow import ShadowStore, TeeStore
from repro.core.trace import AccessTrace, simulate_policy_on_trace
from repro.core.vecstore import slots_for_fraction
from repro.vm.disk import DiskModel

POLICIES = ("belady", "lru", "clock", "random", "fifo", "lfu")
#: Offline device-time saving a live policy must promise before it is built.
GATE = 0.15
REROOT_SEED = 42


def _policy_kwargs(policy: str) -> dict | None:
    return {"seed": 3} if policy == "random" else None


@pytest.fixture(scope="module")
def recorded_trace(shadow_grid):
    """The vector access trace of the shadow grid's lazy-SPR round."""
    return shadow_grid.trace


@dataclass
class ReplayedTrace:
    """A trace, the index where its measured part starts, one vector's bytes."""

    trace: AccessTrace
    start: int
    item_bytes: int


@pytest.fixture(scope="module")
def reroot_trace():
    """Two passes of the ``reroot_hdd_sync`` operations (D128x4k, seed 42)
    recorded in core; the second pass is the steady state a timed pass of
    that workload repeats."""
    sys.path.insert(0, str(Path(__file__).parent / "ooc"))
    import catalogue
    import workloads

    geometry = catalogue.GEOMETRIES["D128x4k"]
    tree, alignment, model, rates = workloads.dataset(REROOT_SEED, geometry)
    ops = workloads.operations("reroot", tree, REROOT_SEED, geometry)
    num_inner, clv_shape = clv_geometry(tree, alignment, model, rates)
    trace = AccessTrace(num_inner)
    store = TeeStore(AncestralVectorStore(num_inner, clv_shape), [trace])
    engine = LikelihoodEngine(tree.copy(), alignment, model, rates,
                              store=store)
    try:
        for op in ops:
            op(engine)
        start = len(trace)
        for op in ops:
            op(engine)
        return ReplayedTrace(trace, start,
                             int(np.prod(clv_shape)) * np.float64().itemsize)
    finally:
        engine.close()


@dataclass
class WriteSide:
    """Replayed counters of one policy."""

    misses: int = 0
    reads: int = 0
    writes: int = 0
    write_skips: int = 0


def replay_write_side(trace: AccessTrace, num_slots: int, policy: str,
                      start: int = 0) -> WriteSide:
    """Replay ``trace`` with dirty tracking, counting from event ``start``
    on."""
    shadow = ShadowStore(trace.num_items, num_slots, policy,
                         policy_kwargs=_policy_kwargs(policy))
    if isinstance(shadow.policy, BeladyPolicy):
        shadow.policy.load_future(trace.items())
    s = shadow.stats
    out = WriteSide()
    for index, ev in enumerate(trace.events):
        if ev.clean:
            shadow.mark_clean(ev.item)
            continue
        before = (s.misses, s.reads, s.writes, s.write_skips)
        shadow.access(ev.item, ev.pins, ev.write_only)
        if index < start:
            continue
        out.misses += s.misses - before[0]
        out.reads += s.reads - before[1]
        out.writes += s.writes - before[2]
        out.write_skips += s.write_skips - before[3]
    return out


def test_opt_headroom_table(benchmark, recorded_trace, shadow_grid, ds1288):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    num_inner = ds1288.start_tree.num_inner
    m = slots_for_fraction(0.25, num_inner)
    lines = [
        f"trace: {len(recorded_trace)} accesses over {num_inner} vectors, "
        f"replayed at m={m} (f=0.25)",
        f"{'policy':>8} {'misses':>8} {'miss rate':>10} {'vs OPT':>8}",
    ]
    results = {}
    for policy in POLICIES:
        stats = simulate_policy_on_trace(
            recorded_trace, m, policy, policy_kwargs=_policy_kwargs(policy),
        )
        results[policy] = stats
    # The trace is the grid's live run: replayed at the grid's f = 0.25
    # slot count it counts exactly what the live shadows counted.
    for policy in ("lru", "lfu"):
        assert results[policy] == shadow_grid.get(policy, 0.25), policy
    opt = results["belady"].misses
    for policy in POLICIES:
        s = results[policy]
        ratio = s.misses / opt if opt else float("inf")
        lines.append(f"{policy:>8} {s.misses:>8} {s.miss_rate:>10.2%} "
                     f"{ratio:>7.2f}x")
    lines += [""]
    search = ReplayedTrace(recorded_trace, 0, int(np.prod(ds1288.geometry()[1]))
                           * np.float64().itemsize)
    lines += _write_side_table("search", search, m, results)
    report("ablation_policies_vs_opt", lines)

    # OPT is a true lower bound.
    for policy in POLICIES[1:]:
        assert results[policy].misses >= opt
    # The paper's preferred cheap policies stay within a small factor of OPT.
    assert results["lru"].misses <= 3.0 * opt
    # LFU is the clear outlier, far worse than LRU (Fig. 2's finding).
    assert results["lfu"].misses > 2.0 * results["lru"].misses


def _write_side_table(name: str, replayed: ReplayedTrace, m: int,
                      full_replay: dict | None = None) -> list[str]:
    """The write-side rows of one trace, and the CFLRU verdict under LRU."""
    t = DiskModel.hdd().transfer_time(replayed.item_bytes)
    accesses = len(replayed.trace) - replayed.start
    lines = [
        f"write side, {name} trace: {accesses} accesses, m={m}, dirty "
        f"tracking on; t = one full-width {replayed.item_bytes / 1e3:.0f} KB "
        f"transfer = {t * 1e3:.1f} ms on hdd (the trace carries no live-row "
        f"count; the shares do not depend on t)",
        f"{'policy':>8} {'reads':>7} {'writes':>7} {'skips':>7} "
        f"{'device s':>9} {'writes %':>9}",
    ]
    rows = {}
    for policy in POLICIES:
        row = rows[policy] = replay_write_side(replayed.trace, m, policy,
                                               replayed.start)
        share = row.writes / max(row.reads + row.writes, 1)
        lines.append(
            f"{policy:>8} {row.reads:>7} {row.writes:>7} {row.write_skips:>7} "
            f"{(row.reads + row.writes) * t:>9.3f} {share:>9.1%}")
        # every eviction is a write or a write skip; none owes more
        evictions = row.misses - (m if replayed.start == 0 else 0)
        assert row.writes + row.write_skips == evictions, policy
        if full_replay is not None:
            assert row.reads == full_replay[policy].reads, policy
    lru = rows["lru"]
    ceiling = lru.writes / max(lru.reads + lru.writes, 1)
    verdict = "clears" if ceiling >= GATE else "does not clear"
    lines.append(
        f"CFLRU ceiling under LRU: {lru.writes} writes = {ceiling:.1%} of "
        f"the synchronous device time, which {verdict} the {GATE:.0%} gate")
    return lines


def test_write_side_of_a_rerooting_pass(benchmark, reroot_trace):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    m = slots_for_fraction(0.25, reroot_trace.trace.num_items)
    report("ablation_policies_write_side",
           _write_side_table("re-rooting (reroot_hdd_sync, seed 42, one "
                             "steady pass)", reroot_trace, m))


@pytest.mark.parametrize("policy", ["lru", "belady"])
def test_replay_speed(benchmark, recorded_trace, ds1288, policy):
    """Time trace replay itself (the offline analysis tool)."""
    num_inner = ds1288.start_tree.num_inner
    m = slots_for_fraction(0.25, num_inner)

    def run():
        return simulate_policy_on_trace(recorded_trace, m, policy)

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    assert stats.requests == len(recorded_trace)
