"""``python -m repro.bench`` — the regression-tracking benchmark runner.

Drives one small instance of each paper evaluation workload — Fig. 2
miss rates (LRU vs random, whole-vector and site-block layouts), Fig. 3
read skipping on/off, Fig. 5 runtime under a simulated HDD (out-of-core
vs OS paging), and the §4.3 lazy SPR search — and writes a versioned
``BENCH_results.json`` (:mod:`repro.bench.schema`).

The Fig. 5 workloads also run under the batched kernel schedule
(``--batch``, :mod:`repro.phylo.likelihood.schedule`); the runner fails
unless each batched entry reproduces its unbatched partner's likelihood
and I/O counters bit-for-bit, and it records the wall-time speedup as a
derived metric so ``--baseline`` tracks kernel regressions.

Every out-of-core workload runs with a live metrics registry attached;
the reported counters come from the engine's :class:`IoStats` and are
cross-checked against the registry snapshot, so a bench run doubles as
an end-to-end test of the telemetry path. ``--baseline FILE`` compares
against a stored document and exits nonzero on regression; CI's
``bench-smoke`` job runs ``--quick`` and uploads the artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.bench.schema import (
    RESULT_METRICS,
    RESULTS_SCHEMA,
    compare_results,
    validate_results,
)
from repro.config import EngineConfig
from repro.core.backing import make_backing
from repro.errors import ReproError
from repro.obs import Observer, validate_file

#: Cache fraction shared by all out-of-core workloads (a paper midpoint).
FRACTION = 0.25


def _dataset(taxa: int, sites: int, seed: int):
    from repro.phylo.models import GTR
    from repro.phylo.models.rates import RateModel
    from repro.simulate import simulate_alignment, yule_tree

    tree = yule_tree(taxa, seed=seed, scale=0.1)
    model = GTR()
    rates = RateModel.gamma(1.0, 4)
    alignment = simulate_alignment(tree, model, sites, seed=seed + 1)
    return tree, alignment, model, rates


def _build_engine(dataset, scratch, config: EngineConfig,
                  make_backing_in=None):
    """One engine from ``config`` on a fresh copy of the run's tree.

    Every build gets its own directory under ``scratch`` (removed with
    it), so a repeat never reattaches the previous repeat's files.
    ``make_backing_in(workdir)`` supplies a backing no kind name describes.
    """
    tree, alignment, model, rates = dataset
    workdir = tempfile.mkdtemp(dir=scratch)
    backing = make_backing_in(workdir) if make_backing_in else None
    return config.build(tree.copy(), alignment, model, rates,
                        workdir=workdir, backing=backing)


def _run_entry(figure, engine, run, config, *, use_registry=True):
    """Execute one workload and build its result entry.

    With ``use_registry`` the run happens under a live
    :class:`MetricsRegistry` and the reported counters are cross-checked
    against its snapshot — any disagreement is a telemetry bug and
    aborts the bench.
    """
    obs = Observer(metrics=True) if use_registry else None
    if obs is not None:
        obs.attach(engine)
    try:
        t0 = time.perf_counter()
        lnl = run(engine)
        drain = getattr(engine.store, "drain", None)
        if drain is not None:
            drain()
        wall = time.perf_counter() - t0
        stats = engine.stats
        row = stats.as_row()
        counters = {key: int(row[key]) for key in RESULT_METRICS}
        derived = {"miss_rate": float(stats.miss_rate),
                   "read_rate": float(stats.read_rate)}
        if obs is not None:
            snapshot = obs.metrics.snapshot()
            snap = snapshot["counters"]
            for key in RESULT_METRICS:
                if snap.get(key) != counters[key]:
                    raise ReproError(
                        f"metrics registry disagrees with IoStats on "
                        f"{key!r}: {snap.get(key)} vs {counters[key]}")
            backing = getattr(engine.store, "backing", None)
            if getattr(backing, "num_shards", 0):
                # Sharded tier: the per-shard labelled series must
                # aggregate to the same physical totals the unsharded
                # registry check would see — summing over labels is the
                # sharded extension of the IoStats cross-check above.
                labeled = snapshot["labeled"]
                expect = {
                    "backing_reads": stats.physical_reads,
                    "backing_writes": stats.physical_writes,
                    "backing_bytes_read":
                        stats.physical_reads * backing.item_bytes,
                    "backing_bytes_written":
                        stats.physical_writes * backing.item_bytes,
                }
                for key, want in expect.items():
                    got = sum(labeled.get(key, {}).values())
                    if got != want:
                        raise ReproError(
                            f"per-shard {key!r} labels sum to {got}, but "
                            f"IoStats says {want} physical: shard "
                            "accounting lost operations")
                # Cross-process telemetry gate: pull the workers' own
                # histograms over OP_TELEMETRY and require their op counts
                # to equal the parent's IoStats totals bit-exactly — both
                # sides count each successful physical op exactly once.
                backing.collect_telemetry()
                for op, want in (("read", stats.physical_reads),
                                 ("write", stats.physical_writes)):
                    hist = getattr(backing.worker_probe, f"{op}_hist")
                    if hist.count != want:
                        raise ReproError(
                            f"worker-side {op} histogram counted "
                            f"{hist.count} ops, but IoStats says {want} "
                            f"physical_{op}s: cross-process telemetry "
                            "lost or double-counted operations")
    finally:
        if obs is not None:
            obs.detach(engine)
        engine.close()
    entry = {
        "figure": figure,
        "config": config,
        "wall_seconds": wall,
        "log_likelihood": float(lnl),
        "metrics": counters,
        "derived": derived,
        "registry_checked": use_registry,
    }
    if obs is not None:
        # Per-op latency percentiles from the backing probe attached for
        # this (instrumented) repeat; --baseline tracks them as timing
        # figures, and run_bench carries the block onto the best-of-N
        # entry when a bare repeat wins on wall time.
        entry["latency"] = {
            op: {"count": hist.count,
                 "p50": hist.percentile(50.0) if hist.count else 0.0,
                 "p95": hist.percentile(95.0) if hist.count else 0.0}
            for op, hist in (("read", obs.probe.read_hist),
                             ("write", obs.probe.write_hist))
        }
    return entry


def _run_full(traversals):
    return lambda engine: engine.full_traversals(traversals)


def _run_search(radius):
    def run(engine):
        from repro.phylo.search.spr import lazy_spr_round
        return lazy_spr_round(engine, radius=radius).lnl
    return run


def _workloads(args, dataset, scratch):
    """Yield ``(name, figure, config_block, build, run)`` for every workload.

    ``config_block`` is ``EngineConfig.to_dict()`` verbatim, so
    ``EngineConfig.from_dict(block).build(...)`` rebuilds the workload's
    engine — except where an ``"external"`` key says the engine was handed
    a store or backing instance the configuration cannot name.
    """
    from repro.phylo.likelihood.engine import LikelihoodEngine, clv_geometry
    from repro.vm.disk import DiskModel
    from repro.vm.standardstore import PagedStandardStore

    full = _run_full(args.traversals)
    search = _run_search(args.radius)
    num_inner, clv_shape = clv_geometry(*dataset)
    hdd_model = DiskModel.hdd()

    def ooc(config, make_backing_in=None, external=None):
        block = config.to_dict()
        if external is not None:
            block["external"] = external
        return block, lambda: _build_engine(dataset, scratch, config,
                                            make_backing_in)

    def paging_engine():
        # The Fig. 5 "standard with paging" baseline: every vector in one
        # demand-paged address space with FRACTION of it in physical RAM.
        item_bytes = int(np.prod(clv_shape)) * 8
        ram = max(4096, int(FRACTION * num_inner * item_bytes))
        store = PagedStandardStore(num_inner, clv_shape, ram_bytes=ram,
                                   disk=hdd_model)
        tree, alignment, model, rates = dataset
        return LikelihoodEngine(tree.copy(), alignment, model, rates,
                                store=store)

    def sleeping_hdd_shards(num_shards):
        # Sleeping simulated-HDD workers: each shard charges real wall
        # time for its transfers, so overlapping the write-behind drain
        # across N worker processes shows up as a measurable speedup over
        # the same store with one shard.
        return lambda workdir: make_backing(
            "sharded", num_inner, clv_shape, np.float64, path=workdir,
            num_shards=num_shards, kind="simulated",
            disk=(hdd_model.access_latency, hdd_model.bandwidth), sleep=True)

    lru = EngineConfig(fraction=FRACTION, seed=args.seed)
    block = replace(lru, layout="block", block_sites=args.block_sites)
    hdd = replace(lru, backing="simulated")
    hdd_block = replace(block, backing="simulated")
    # Real per-shard files: exercises the full wire protocol and the
    # labelled-metrics aggregation against actual disk I/O.
    sharded = replace(lru, backing="sharded", shards=args.shards,
                      writeback_depth=8)
    hdd_note = "backing=sharded over sleeping simulated-HDD workers"

    yield ("fig2_lru_whole", "fig2", *ooc(lru), full)
    yield ("fig2_random_whole", "fig2", *ooc(replace(lru, policy="random")),
           full)
    yield ("fig2_lru_block", "fig2", *ooc(block), full)
    yield ("fig3_skip", "fig3", *ooc(lru), full)
    yield ("fig3_noskip", "fig3", *ooc(replace(lru, read_skipping=False)),
           full)
    yield ("fig5_ooc_whole", "fig5", *ooc(hdd), full)
    yield ("fig5_ooc_block", "fig5", *ooc(hdd_block), full)
    yield ("fig5_ooc_whole_batch", "fig5",
           *ooc(replace(hdd, batch=args.batch)), full)
    yield ("fig5_ooc_block_batch", "fig5",
           *ooc(replace(hdd_block, batch=args.batch)), full)
    yield ("fig5_paging", "fig5",
           {"fraction": FRACTION,
            "external": "store=PagedStandardStore over DiskModel.hdd()"},
           paging_engine, full)
    # Real (temp-dir) file I/O: the compression-ratio numbers must come
    # from actual on-disk records, not a model.
    yield ("fig5_ooc_compressed", "fig5",
           *ooc(replace(lru, backing="compressed")), full)
    yield ("fig5_ooc_sharded", "fig5", *ooc(sharded), full)
    yield ("fig5_ooc_sharded_hdd", "fig5",
           *ooc(sharded, sleeping_hdd_shards(args.shards), hdd_note), full)
    yield ("fig5_ooc_sharded_hdd1", "fig5",
           *ooc(replace(sharded, shards=1), sleeping_hdd_shards(1), hdd_note),
           full)
    yield ("spr_search_whole", "spr", *ooc(lru), search)
    yield ("spr_search_block", "spr", *ooc(block), search)


def _warm_kernels(dataset, scratch):
    """One throwaway traversal per kernel (per-member, fused) before
    anything is timed.

    The first numpy contraction in a process pays one-off setup (BLAS
    initialisation, einsum path search, allocator growth) that would
    otherwise be charged to whichever workload happens to run first and
    skew the batched-vs-unbatched speedup both ways.
    """
    for batch in (0, 2):
        engine = _build_engine(dataset, scratch,
                               EngineConfig(fraction=FRACTION, batch=batch))
        try:
            engine.full_traversals(1)
        finally:
            engine.close()


def _require_identical(workloads, name, partner, why):
    """``name`` must reproduce ``partner``'s lnL and counters bit for bit."""
    got, want = workloads[name], workloads[partner]
    if got["log_likelihood"] != want["log_likelihood"]:
        raise ReproError(
            f"{name} lnL {got['log_likelihood']!r} differs from {partner} "
            f"{want['log_likelihood']!r}: {why}")
    diff = [k for k in RESULT_METRICS
            if got["metrics"][k] != want["metrics"][k]]
    if diff:
        raise ReproError(
            f"{name} counters differ from {partner} on {diff}: {why}")


def run_bench(args, scratch: str) -> int:
    """Run every workload; ``scratch`` holds the file-backed stores."""
    dataset = _dataset(args.taxa, args.sites, args.seed)
    _warm_kernels(dataset, scratch)

    workloads = {}
    for name, figure, config, build, run in _workloads(args, dataset,
                                                       scratch):
        # Best-of-N wall time: single cold runs of these millisecond-scale
        # workloads are dominated by scheduler noise, which would swamp the
        # batched-vs-unbatched speedup.  Likelihoods and counters are
        # deterministic, so repeat runs must agree bit-for-bit — N repeats
        # double as a determinism check.  The SPR searches are seconds-long
        # (noise-insensitive) and run once.
        repeats = 1 if figure == "spr" else max(1, args.repeats)
        entry = None
        checked = False
        for r in range(repeats):
            engine = build()
            store = engine.store
            # The registry cross-check instruments every store call; doing
            # it on the first repeat only keeps the timed repeats bare (the
            # bit-for-bit agreement assertion below extends its verdict to
            # them).
            use_registry = r == 0 and hasattr(store, "attach")
            checked = checked or use_registry
            rep = _run_entry(figure, engine, run, config,
                             use_registry=use_registry)
            if name == "fig5_paging":
                rep["simulated_io_seconds"] = float(store.simulated_seconds)
                rep["faults"] = int(store.faults)
            elif name == "fig5_ooc_compressed":
                backing = store.backing
                rep["compression_ratio"] = float(backing.compression_ratio)
                rep["backing_bytes_written"] = int(
                    backing.stored_bytes_written)
            elif name.startswith("fig5_ooc_sharded"):
                # The workers' clocks (and any simulated-disk seconds)
                # live in the child processes; report topology instead.
                rep["shards"] = int(store.backing.num_shards)
                rep["shard_restarts"] = int(store.backing.restarts())
            elif figure == "fig5":
                rep["simulated_io_seconds"] = float(
                    store.backing.simulated_seconds)
            if entry is None:
                entry = rep
            else:
                if (rep["log_likelihood"] != entry["log_likelihood"]
                        or rep["metrics"] != entry["metrics"]):
                    raise ReproError(
                        f"{name}: repeat runs disagree on likelihood or "
                        "I/O counters — workload is nondeterministic")
                if rep["wall_seconds"] < entry["wall_seconds"]:
                    # Latency percentiles only exist on the instrumented
                    # first repeat; keep them when a bare repeat wins.
                    if "latency" in entry and "latency" not in rep:
                        rep["latency"] = entry["latency"]
                    entry = rep
        entry["repeats"] = repeats
        entry["registry_checked"] = checked
        workloads[name] = entry
        print(f"{name:>18}: lnL {entry['log_likelihood']:.4f}  "
              f"{entry['wall_seconds']:.3f}s  "
              f"miss {entry['derived']['miss_rate']:.2%}  "
              f"read {entry['derived']['read_rate']:.2%}")

    # The batched fig5 entries must be bit-identical to their unbatched
    # partners — same lnL, same demand/eviction counters — or the batched
    # execution path is broken.  A bench run therefore doubles as the
    # batching correctness gate; the speedup lands in ``derived`` so a
    # --baseline comparison tracks it like any other timing figure.
    batch_pairs = (("fig5_ooc_whole", "fig5_ooc_whole_batch"),
                   ("fig5_ooc_block", "fig5_ooc_block_batch"))
    for plain_name, batch_name in batch_pairs:
        plain, batched = workloads[plain_name], workloads[batch_name]
        _require_identical(workloads, batch_name, plain_name,
                           "batched schedule broke access-sequence parity")
        speedup = plain["wall_seconds"] / max(batched["wall_seconds"], 1e-9)
        batched["derived"]["speedup_vs_unbatched"] = float(speedup)
        print(f"{batch_name:>24}: {speedup:.2f}x vs {plain_name} "
              "(lnL + counters bit-identical)")

    # Compressed-backing gate: same LRU/whole-vector workload as
    # fig5_ooc_whole, so the likelihood and demand counters must match
    # bit-for-bit (CLVs round-trip exactly through the codec), while the
    # physical bytes on disk must come in BELOW the logical write traffic
    # — otherwise compression is costing I/O instead of saving it.
    comp = workloads["fig5_ooc_compressed"]
    _require_identical(workloads, "fig5_ooc_compressed", "fig5_ooc_whole",
                       "compression must be transparent to the store")
    if comp["backing_bytes_written"] >= comp["metrics"]["bytes_written"]:
        raise ReproError(
            f"compressed backing wrote {comp['backing_bytes_written']} "
            f"physical bytes >= {comp['metrics']['bytes_written']} logical "
            "bytes: compression is not reducing I/O")
    comp["derived"]["compression_ratio"] = comp["compression_ratio"]
    print(f"{'fig5_ooc_compressed':>24}: ratio "
          f"{comp['compression_ratio']:.2f}x, "
          f"{comp['backing_bytes_written']}/{comp['metrics']['bytes_written']}"
          " physical/logical bytes written (lnL bit-identical)")

    # Sharded-backing gate: routing items across N worker processes (and
    # draining evictions through the asynchronous write-behind batch path)
    # must be invisible to the paper's metrics — same likelihood, same
    # demand/eviction counters as the single-file fig5 workload.  The
    # demand counters are backing- and writeback-invariant by design, so
    # the comparison is exact.
    for sharded_name in ("fig5_ooc_sharded", "fig5_ooc_sharded_hdd",
                         "fig5_ooc_sharded_hdd1"):
        _require_identical(workloads, sharded_name, "fig5_ooc_whole",
                           "sharding must be transparent to the store")
    print(f"{'fig5_ooc_sharded':>24}: lnL + counters bit-identical to "
          "fig5_ooc_whole across "
          f"{workloads['fig5_ooc_sharded']['shards']} shards")

    # Shard scaling: the same sleeping simulated-HDD workload with N
    # worker processes vs one.  The write-behind drain overlaps transfers
    # across shards, so N shards should beat one; the ratio lands in
    # ``derived`` so --baseline (and the optional --min-shard-speedup
    # gate) track it.
    hdd = workloads["fig5_ooc_sharded_hdd"]
    one = workloads["fig5_ooc_sharded_hdd1"]
    shard_speedup = one["wall_seconds"] / max(hdd["wall_seconds"], 1e-9)
    hdd["derived"]["speedup_vs_one_shard"] = float(shard_speedup)
    print(f"{'fig5_ooc_sharded_hdd':>24}: {shard_speedup:.2f}x vs one shard "
          f"({hdd['shards']} sleeping HDD workers)")

    doc = {
        "schema": RESULTS_SCHEMA,
        "quick": bool(args.quick),
        "config": {
            "taxa": args.taxa,
            "sites": args.sites,
            "seed": args.seed,
            "traversals": args.traversals,
            "radius": args.radius,
            "block_sites": args.block_sites,
            "fraction": FRACTION,
        },
        "workloads": workloads,
    }
    problems = validate_results(doc)
    if problems:  # a bug in this module, not in the caller's input
        for p in problems:
            print(f"internal schema violation: {p}", file=sys.stderr)
        return 1

    out = Path(args.out)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"results written : {out} ({len(workloads)} workloads)")

    if args.min_batch_speedup is not None:
        got = workloads["fig5_ooc_block_batch"]["derived"][
            "speedup_vs_unbatched"]
        if got < args.min_batch_speedup:
            print(f"REGRESSION: fig5_ooc_block_batch speedup {got:.2f}x < "
                  f"required {args.min_batch_speedup:.2f}x", file=sys.stderr)
            return 1
        print(f"batch speedup   : {got:.2f}x "
              f">= {args.min_batch_speedup:.2f}x required")

    if args.min_shard_speedup is not None:
        got = workloads["fig5_ooc_sharded_hdd"]["derived"][
            "speedup_vs_one_shard"]
        if got < args.min_shard_speedup:
            print(f"REGRESSION: fig5_ooc_sharded_hdd speedup {got:.2f}x < "
                  f"required {args.min_shard_speedup:.2f}x", file=sys.stderr)
            return 1
        print(f"shard speedup   : {got:.2f}x "
              f">= {args.min_shard_speedup:.2f}x required")

    if args.baseline:
        try:
            baseline = json.loads(Path(args.baseline).read_text())
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2
        regressions, notes = compare_results(
            doc, baseline,
            time_tolerance=args.time_tolerance,
            rate_tolerance=args.rate_tolerance,
            counter_tolerance=args.counter_tolerance,
        )
        for note in notes:
            print(f"note: {note}")
        if regressions:
            for r in regressions:
                print(f"REGRESSION: {r}", file=sys.stderr)
            print(f"{len(regressions)} regression(s) vs {args.baseline}",
                  file=sys.stderr)
            return 1
        print(f"no regressions vs {args.baseline}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the paper-evaluation benchmark suite and write "
                    "BENCH_results.json; optionally compare against a "
                    "stored baseline and fail on regression.",
    )
    parser.add_argument("--validate", metavar="PATH",
                        help="validate an existing results file and exit")
    parser.add_argument("--quick", action="store_true",
                        help="small geometry for CI smoke runs "
                             "(12 taxa, 120 sites, 2 traversals, radius 2)")
    parser.add_argument("--taxa", type=int, default=None,
                        help="simulated taxa (default 24; 12 with --quick)")
    parser.add_argument("--sites", type=int, default=None,
                        help="alignment length (default 300; 120 with "
                             "--quick)")
    parser.add_argument("--traversals", type=int, default=None,
                        help="full traversals per workload (default 3; "
                             "2 with --quick)")
    parser.add_argument("--radius", type=int, default=None,
                        help="SPR rearrangement radius (default 3; 2 with "
                             "--quick)")
    parser.add_argument("--block-sites", type=int, default=64,
                        help="sites per block for the block-layout "
                             "workloads (default 64)")
    parser.add_argument("--batch", type=int, default=-1,
                        help="group cap for the *_batch workloads: -1 = "
                             "auto (num_slots // 3), N > 0 = explicit cap "
                             "(default -1)")
    parser.add_argument("--min-batch-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless fig5_ooc_block_batch is at least "
                             "X times faster than fig5_ooc_block (off by "
                             "default; timing gates need a quiet machine)")
    parser.add_argument("--shards", type=int, default=4,
                        help="worker processes for the fig5_ooc_sharded* "
                             "workloads (default 4)")
    parser.add_argument("--min-shard-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless fig5_ooc_sharded_hdd is at least "
                             "X times faster than the same workload with "
                             "one shard (off by default)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N wall time for the traversal "
                             "workloads; repeat runs must reproduce the "
                             "same likelihood and counters bit-for-bit "
                             "(searches always run once; default 3)")
    parser.add_argument("--baseline", metavar="PATH",
                        help="compare against this results file; exit 1 on "
                             "regression")
    parser.add_argument("--time-tolerance", type=float, default=1.0,
                        help="relative slowdown tolerated on timing "
                             "figures (default 1.0 = 2x)")
    parser.add_argument("--rate-tolerance", type=float, default=0.02,
                        help="absolute increase tolerated on miss/read "
                             "rates (default 0.02)")
    parser.add_argument("--counter-tolerance", type=float, default=0.0,
                        help="relative increase tolerated on deterministic "
                             "I/O counters (default 0 = exact)")
    parser.add_argument("-o", "--out", default="BENCH_results.json",
                        help="output path (default BENCH_results.json)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.validate:
        return validate_file(args.validate, validate_results, "results")
    defaults = (12, 120, 2, 2) if args.quick else (24, 300, 3, 3)
    args.taxa = args.taxa if args.taxa is not None else defaults[0]
    args.sites = args.sites if args.sites is not None else defaults[1]
    args.traversals = (args.traversals if args.traversals is not None
                       else defaults[2])
    args.radius = args.radius if args.radius is not None else defaults[3]
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as scratch:
        return run_bench(args, scratch)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
