"""Isolated per-layer microbenchmarks with in-process machine ceilings.

Each number is a tight loop over one public function on D128x4k-shaped
data (real CLVs from one in-core traversal), reported as the median of
:data:`BATCHES` batches. The machine rows (memcpy, GEMM, sleep) are
measured in the same process so a layer can be read as a fraction of what
this box can do at all.
"""

from __future__ import annotations

import itertools
import os
import shutil
import statistics
import time

import numpy as np

from repro.core.backing import FileBackingStore, MemoryBackingStore
from repro.core.compress import CompressedFileBackingStore
from repro.core.layout import make_layout
from repro.core.policies import LruPolicy
from repro.core.sharded import ShardedBackingStore
from repro.core.vecstore import AncestralVectorStore
from repro.core.writebehind import WriteBehindQueue
from repro.obs import Observer
from repro.phylo.likelihood import kernels
from repro.phylo.likelihood.branch_opt import optimize_branch_from_sumtable
from repro.phylo.likelihood.engine import LikelihoodEngine
from repro.phylo.likelihood.schedule import build_batched_schedule, default_group_cap
from repro.phylo.likelihood.traversal import OrientationState, plan_edge_traversal

from catalogue import BY_NAME, FRACTION, GEOMETRIES, llc_bytes
from workloads import build_engine, dataset

BATCHES = 7
BATCH_SECONDS = 0.05
MIB = 1 << 20
#: One inner-inner CLV update per pattern: two (C,S)x(S,S) products plus
#: the elementwise combine, for C = S = 4.
FLOPS_PER_PATTERN_UPDATE = 2 * (4 * 4 * 4 * 2) + 16
#: ... and it reads two CLV rows and writes one (computed, not measured).
BYTES_PER_PATTERN_UPDATE = 3 * 4 * 4 * 8


def per_call_s(fn, setup=None) -> float:
    """Median seconds per call of ``fn`` (``setup`` runs untimed per batch)."""
    if setup is not None:
        setup()
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    calls = 1 if setup is not None else max(1, int(BATCH_SECONDS / max(once, 1e-7)))
    samples = []
    for _ in range(BATCHES):
        if setup is not None:
            setup()
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def _cycle(n: int):
    """0, 1, ..., n-1, 0, ... as a cheap callable."""
    return itertools.cycle(range(n)).__next__


def run(seed: int, geometry_name: str, workdir: str) -> dict:
    geometry = GEOMETRIES[geometry_name]
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(seed, geometry, geometry_name == "smoke", workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(seed: int, geometry: dict, small: bool, workdir: str) -> dict:
    out: dict[str, dict] = {}

    def put(name: str, value: float, unit: str, note: str | None = None) -> None:
        out[name] = {"value": float(value), "unit": unit}
        if note:
            out[name]["note"] = note

    # -- machine ceilings -----------------------------------------------------
    llc = llc_bytes()
    array_bytes = 32 * MIB if small else min(1024 * MIB, max(256 * MIB, 4 * llc))
    src = np.ones(array_bytes // 8)
    dst = np.empty_like(src)
    copy_s = per_call_s(lambda: np.copyto(dst, src))
    memcpy_gb_s = array_bytes / copy_s / 1e9
    put("machine.memcpy_gb_s", memcpy_gb_s, "GB/s",
        f"{array_bytes // MIB} MiB arrays, LLC {llc // MIB} MiB")
    del src, dst
    n = 256 if small else 1024
    a, b = np.random.default_rng(seed).random((2, n, n))
    gemm_gflops = 2.0 * n ** 3 / per_call_s(lambda: a @ b) / 1e9
    put("machine.gemm_gflops", gemm_gflops, "GFLOP/s", f"float64 {n}x{n}, 1 thread")
    sleeps = []
    for _ in range(BATCHES * 10):
        t0 = time.perf_counter()
        time.sleep(1e-3)
        sleeps.append(time.perf_counter() - t0 - 1e-3)
    put("machine.sleep_overshoot_us", 1e6 * statistics.median(sleeps), "us",
        "of time.sleep(1e-3): added to every modelled-HDD transfer")
    put("machine.nproc", os.cpu_count() or 1, "count")

    # -- real operands: CLVs of one in-core traversal ----------------------
    tree, alignment, model, rates = data = dataset(seed, geometry)
    twin = LikelihoodEngine(tree.copy(), alignment, model, rates, fraction=1.0)
    try:
        twin.full_traversals(1)
        # spread over the tree: the lowest-numbered inner nodes are cherries,
        # whose vectors are unrepresentatively regular
        clvs = [twin.store.read_item(i)
                for i in range(0, twin.num_inner, max(1, twin.num_inner // 16))]
        clv_shape, patterns = twin.clv_shape, twin.num_patterns
        pattern_weights = twin.pattern_weights
        code_matrix = alignment.alphabet.code_matrix().astype(np.float64)
    finally:
        twin.close()
    item_bytes = clvs[0].nbytes
    num_inner = tree.num_inner
    scaling = kernels.ScalingScheme(np.float64)
    P1 = np.ascontiguousarray(model.transition_matrices(0.07, rates.rates))
    P2 = np.ascontiguousarray(model.transition_matrices(0.11, rates.rates))

    # -- kernels ------------------------------------------------------------------
    target = np.empty(clv_shape)
    counts = np.zeros(patterns, dtype=np.int32)
    s = per_call_s(lambda: kernels.update_clv(
        target, P1, P2, clvs[0], clvs[1], None, None, code_matrix, counts, scaling))
    clv_mpups = patterns / s / 1e6
    put("kernels.update_clv_mpups", clv_mpups, "M/s", "inner-inner, whole vector")
    block = geometry["block_sites"]
    blocks = -(-patterns // block)
    members = default_group_cap(int(FRACTION * num_inner * blocks + 0.5))
    span = min(block, patterns)
    stack_l = np.stack([clvs[m % len(clvs)][:span] for m in range(members)])
    stack_r = np.stack([clvs[(m + 1) % len(clvs)][:span] for m in range(members)])
    Pl, Pr = np.stack([P1] * members), np.stack([P2] * members)
    targets = np.empty_like(stack_l)
    rows = [np.zeros(span, dtype=np.int32) for _ in range(members)]
    s = per_call_s(lambda: kernels.update_clv_batch(
        targets, Pl, Pr, stack_l, stack_r, None, None, code_matrix, rows, scaling))
    put("kernels.update_clv_batch_mpups", members * span / s / 1e6, "M/s",
        f"{members} members x {span} sites, as full_block_mem groups them")
    ev, iev = model.eigenvectors, model.inv_eigenvectors
    s = per_call_s(lambda: kernels.branch_sumtable(
        ev, iev, model.frequencies, clvs[0], clvs[1], None, None, code_matrix))
    put("kernels.sumtable_mpups", patterns / s / 1e6, "M/s")
    put("kernels.bytes_per_pattern", BYTES_PER_PATTERN_UPDATE, "B",
        "computed from array shapes, not measured")
    put("kernels.frac_of_gemm_peak",
        clv_mpups * 1e6 * FLOPS_PER_PATTERN_UPDATE / 1e9 / gemm_gflops, "ratio",
        f"{FLOPS_PER_PATTERN_UPDATE} flop per pattern update (computed)")

    # -- vecstore and policies --------------------------------------------------
    store = AncestralVectorStore(num_inner, clv_shape, num_slots=num_inner)
    for i in range(num_inner):
        store.get(i, write_only=True)
    nxt = _cycle(num_inner)
    put("vecstore.hit_ns", 1e9 * per_call_s(lambda: store.get(nxt())), "ns")
    store.close()
    whole_slots = max(3, int(FRACTION * num_inner + 0.5))
    block_layout = make_layout("block", num_inner, clv_shape, block_sites=block)
    block_slots = max(3, int(FRACTION * block_layout.num_items + 0.5))
    for label, kwargs, slots in (
            ("whole", {"num_items": num_inner, "item_shape": clv_shape}, whole_slots),
            ("block", {"layout": block_layout}, block_slots)):
        store = AncestralVectorStore(num_slots=slots, **kwargs)
        nxt = _cycle(store.num_items)   # a cyclic sweep never hits under LRU
        for _ in range(store.num_items):
            store.get(nxt(), write_only=True)
        s = per_call_s(lambda store=store, nxt=nxt: store.get(nxt()))
        name = "vecstore.miss_us_32slots" if label == "whole" else "vecstore.miss_us_473slots"
        put(name, 1e6 * s, "us",
            f"{slots} slots over {store.num_items} items of {store.item_bytes} B, "
            "memory backing, write-out + read-in")
        store.close()
        policy = LruPolicy()
        for i in range(slots):
            policy.on_access(i, False)
        candidates = list(range(slots))
        s = per_call_s(lambda policy=policy, c=candidates: policy.choose_victim(c, -1))
        name = "policies.lru_choose_us_32" if label == "whole" else "policies.lru_choose_us_473"
        put(name, 1e6 * s, "us", f"{slots} candidates")

    # -- backing stores ------------------------------------------------------------
    buf = np.empty(clv_shape)

    def transfer_rates(backing, prefix: str) -> None:
        nxt = _cycle(num_inner)

        def write_next() -> None:
            i = nxt()
            backing.write(i, clvs[i % len(clvs)])

        s = per_call_s(write_next)
        put(f"{prefix}write_mb_s", item_bytes / s / 1e6, "MB/s")
        s = per_call_s(lambda: backing.read(nxt(), buf))
        put(f"{prefix}read_mb_s", item_bytes / s / 1e6, "MB/s")

    backing = MemoryBackingStore(num_inner, clv_shape)
    transfer_rates(backing, "backing.memory_")
    backing.close()
    backing = FileBackingStore(os.path.join(workdir, "file.bin"), num_inner, clv_shape)
    try:
        transfer_rates(backing, "backing.file_")
    finally:
        backing.close()
    put("backing.file_frac_of_memcpy",
        out["backing.file_write_mb_s"]["value"] / (memcpy_gb_s * 1e3), "ratio",
        "page-cache-served file writes over the memcpy ceiling")
    backing = CompressedFileBackingStore(
        os.path.join(workdir, "vectors.czb"), num_inner, clv_shape)
    try:
        transfer_rates(backing, "compress.")
        put("compress.ratio", backing.compression_ratio, "ratio", "zlib:6 on real CLVs")
    finally:
        backing.close()

    # -- sharded tier: one file shard, CLV-sized items ---------------------
    sharded = ShardedBackingStore(os.path.join(workdir, "shards"), num_inner,
                                  clv_shape, num_shards=1, kind="file")
    try:
        nxt = _cycle(num_inner)
        put("sharded.write_us",
            1e6 * per_call_s(lambda: sharded.write(nxt(), clvs[0])), "us")
        put("sharded.read_us",
            1e6 * per_call_s(lambda: sharded.read(nxt(), buf)), "us")
        bufs = [np.empty(clv_shape) for _ in range(min(32, num_inner))]

        def batch_read() -> None:
            for ticket in sharded.read_batch(list(enumerate(bufs))):
                ticket.wait()

        put("sharded.batch_read_mb_s",
            len(bufs) * item_bytes / per_call_s(batch_read) / 1e6, "MB/s",
            f"{len(bufs)} reads in one vectored send")
    finally:
        sharded.close()

    # -- write-behind queue ---------------------------------------------------------
    depth = min(32, num_inner)
    backing = MemoryBackingStore(num_inner, clv_shape)
    queue = WriteBehindQueue(backing, clv_shape, np.float64, depth=2 * depth)
    try:
        def stage() -> None:
            for i in range(depth):
                queue.put(i, clvs[i % len(clvs)])

        put("writebehind.put_us", 1e6 * per_call_s(stage, setup=queue.drain) / depth,
            "us", "staging copy of one CLV, no back-pressure")

        def stage_and_drain() -> None:
            stage()
            queue.drain()

        put("writebehind.drain_mb_s",
            depth * item_bytes / per_call_s(stage_and_drain, setup=queue.drain) / 1e6,
            "MB/s", "first put to drained, memory backing, 1 writer")
    finally:
        queue.close()
        backing.close()

    # -- planning, scheduling, branch optimisation ---------------------------
    (anchor,) = tree.neighbors(0)
    state = OrientationState(tree)
    put("traversal.plan_full_us", 1e6 * per_call_s(
        lambda: plan_edge_traversal(tree, state, 0, anchor, full=True)), "us")
    plan = plan_edge_traversal(tree, state, 0, anchor, full=True)
    put("schedule.build_ms", 1e3 * per_call_s(
        lambda: build_batched_schedule(plan, block_layout, tree.num_tips, members)),
        "ms", f"full plan, {block_layout.blocks_per_node} blocks per node")
    sumtable = kernels.branch_sumtable(
        ev, iev, model.frequencies, clvs[0], clvs[1], None, None, code_matrix)
    put("branch_opt.optimize_us", 1e6 * per_call_s(
        lambda: optimize_branch_from_sumtable(
            sumtable, model.eigenvalues, rates.rates, rates.weights,
            pattern_weights, 0.1)), "us", "Newton-Raphson on one real sumtable")

    # -- observability overhead (ROADMAP 5(d)) -------------------------------
    engine = build_engine(BY_NAME["full_whole_file"], data, geometry,
                          os.path.join(workdir, "obs"))
    try:
        engine.full_traversals(1)
        observer = Observer(metrics=True, spans=True)
        plain, observed = [], []
        for _ in range(BATCHES):
            t0 = time.perf_counter()
            engine.full_traversals(2)
            plain.append(time.perf_counter() - t0)
            observer.attach(engine)
            t0 = time.perf_counter()
            engine.full_traversals(2)
            observed.append(time.perf_counter() - t0)
            observer.detach(engine)
        put("obs.overhead_ratio",
            statistics.median(observed) / statistics.median(plain), "ratio",
            "repro.obs.Observer (tracer, metrics, spans) attached vs not, "
            "full_whole_file")
    finally:
        engine.close()
    return {"metrics": out,
            "sizes": {"patterns": patterns, "item_bytes": item_bytes,
                      "memcpy_array_bytes": array_bytes, "llc_bytes": llc}}
