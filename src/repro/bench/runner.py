"""``python -m repro.bench`` — the parity gate.

Runs one small instance of each paper evaluation configuration — Fig. 2
miss rates (LRU vs random, whole-vector and site-block layouts), Fig. 3
read skipping on/off, Fig. 5 under a modelled HDD (out-of-core vs OS
paging; batched, compressed and sharded twins) and the §4.3 lazy SPR
search — once, at one fixed geometry, and writes a versioned
``BENCH_results.json`` (:mod:`repro.bench.schema`) that is a pure
function of the commit: likelihoods, I/O counters, derived rates and
modelled device seconds. Nothing here reads a clock; timing belongs to
``benchmarks/ooc/``.

The run gates, each failure exiting 1 with one ``PARITY:`` line:

* every out-of-core workload runs under a live metrics registry whose
  snapshot must equal the engine's :class:`IoStats` (sharded: per-shard
  label sums and the workers' own histograms too) — a run doubles as an
  end-to-end test of the telemetry path;
* the batched, compressed and sharded Fig. 5 entries must reproduce
  ``fig5_ooc_whole``/``_block`` bit for bit: same lnL, same counters;
* the compressed backing must store fewer bytes than it was handed.

``--baseline FILE`` then requires the document to equal a stored one
(:func:`repro.bench.schema.compare_results`); CI's ``bench-smoke`` job
runs that against the committed ``BENCH_results.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
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
from repro.errors import ReproError
from repro.obs import Observer, validate_file

#: The one geometry: small enough for CI, large enough that every
#: configuration evicts, re-reads and (sharded) touches every worker.
TAXA, SITES, SEED = 12, 120, 42
TRAVERSALS = 2      #: full traversals per fig2/fig3/fig5 workload
RADIUS = 2          #: SPR rearrangement radius of the search workloads
BLOCK_SITES = 64    #: sites per block of the block-layout workloads
SHARDS = 4          #: worker processes of fig5_ooc_sharded
#: Cache fraction shared by all out-of-core workloads (a paper midpoint).
FRACTION = 0.25


def _dataset():
    from repro.phylo.models import GTR
    from repro.phylo.models.rates import RateModel
    from repro.simulate import simulate_alignment, yule_tree

    tree = yule_tree(TAXA, seed=SEED, scale=0.1)
    model = GTR()
    rates = RateModel.gamma(1.0, 4)
    alignment = simulate_alignment(tree, model, SITES, seed=SEED + 1)
    return tree, alignment, model, rates


def _run_entry(figure, engine, run, config):
    """Execute one workload and build its result entry.

    A store that takes an observer runs under a live
    :class:`MetricsRegistry` and the reported counters are cross-checked
    against its snapshot — any disagreement is a telemetry bug and
    fails the gate.
    """
    use_registry = hasattr(engine.store, "attach")
    obs = Observer().attach(engine) if use_registry else None
    try:
        lnl = run(engine)
        drain = getattr(engine.store, "drain", None)
        if drain is not None:
            drain()
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
                # Cross-process telemetry gate: the snapshot pulled the
                # workers' own histograms over OP_TELEMETRY; their op
                # counts must equal the parent's IoStats totals
                # bit-exactly — both sides count each successful physical
                # op exactly once.
                for op, want in (("read", stats.physical_reads),
                                 ("write", stats.physical_writes)):
                    got = snapshot["histograms"][
                        f"shard_disk_{op}_seconds"]["count"]
                    if got != want:
                        raise ReproError(
                            f"worker-side {op} histogram counted {got} "
                            f"ops, but IoStats says {want} physical_{op}s: "
                            "cross-process telemetry lost or "
                            "double-counted operations")
    finally:
        if obs is not None:
            obs.detach(engine)
        engine.close()
    return {
        "figure": figure,
        "config": config,
        "log_likelihood": float(lnl),
        # The bits: what the in-run gates compare. A same-machine
        # property — --baseline holds the float to LNL_RTOL instead.
        "log_likelihood_hex": float(lnl).hex(),
        "metrics": counters,
        "derived": derived,
        "registry_checked": use_registry,
    }


def _run_full(engine):
    return engine.full_traversals(TRAVERSALS)


def _run_search(engine):
    from repro.phylo.search.spr import lazy_spr_round
    return lazy_spr_round(engine, radius=RADIUS).lnl


def _workloads(dataset, scratch):
    """Yield ``(name, figure, config_block, build, run)`` for every workload.

    ``config_block`` is ``EngineConfig.to_dict()`` verbatim, so
    ``LikelihoodEngine(..., EngineConfig.from_dict(block))`` rebuilds the
    workload's engine — except where an ``"external"`` key says the engine was handed
    a store the configuration cannot name.
    """
    from repro.phylo.likelihood.engine import LikelihoodEngine, clv_geometry
    from repro.vm.disk import DiskModel
    from repro.vm.standardstore import PagedStandardStore

    tree, alignment, model, rates = dataset

    def ooc(config):
        # Each build gets its own directory under ``scratch`` (removed
        # with it) and a fresh copy of the run's tree.
        return config.to_dict(), lambda: LikelihoodEngine(
            tree.copy(), alignment, model, rates, config,
            workdir=tempfile.mkdtemp(dir=scratch))

    def paging_engine():
        # The Fig. 5 "standard with paging" baseline: every vector in one
        # demand-paged address space with FRACTION of it in physical RAM.
        num_inner, clv_shape = clv_geometry(*dataset)
        item_bytes = int(np.prod(clv_shape)) * 8
        ram = max(4096, int(FRACTION * num_inner * item_bytes))
        store = PagedStandardStore(num_inner, clv_shape, ram_bytes=ram,
                                   disk=DiskModel.hdd())
        return LikelihoodEngine(tree.copy(), alignment, model, rates,
                                store=store)

    lru = EngineConfig(fraction=FRACTION, seed=SEED)
    block = replace(lru, layout="block", block_sites=BLOCK_SITES)
    hdd = replace(lru, backing="simulated")
    hdd_block = replace(block, backing="simulated")

    yield ("fig2_lru_whole", "fig2", *ooc(lru), _run_full)
    yield ("fig2_random_whole", "fig2", *ooc(replace(lru, policy="random")),
           _run_full)
    yield ("fig2_lru_block", "fig2", *ooc(block), _run_full)
    yield ("fig3_skip", "fig3", *ooc(lru), _run_full)
    yield ("fig3_noskip", "fig3", *ooc(replace(lru, read_skipping=False)),
           _run_full)
    yield ("fig5_ooc_whole", "fig5", *ooc(hdd), _run_full)
    yield ("fig5_ooc_block", "fig5", *ooc(hdd_block), _run_full)
    # batch=-1: the automatic group cap, num_slots // 3.
    yield ("fig5_ooc_whole_batch", "fig5", *ooc(replace(hdd, batch=-1)),
           _run_full)
    yield ("fig5_ooc_block_batch", "fig5", *ooc(replace(hdd_block, batch=-1)),
           _run_full)
    yield ("fig5_paging", "fig5",
           {"fraction": FRACTION,
            "external": "store=PagedStandardStore over DiskModel.hdd()"},
           paging_engine, _run_full)
    # Real (temp-dir) file I/O: the compression-ratio numbers must come
    # from actual on-disk records, not a model.
    yield ("fig5_ooc_compressed", "fig5",
           *ooc(replace(lru, backing="compressed")), _run_full)
    # Real per-shard files behind worker processes and the write-behind
    # batch path: exercises the full wire protocol and the
    # labelled-metrics aggregation against actual disk I/O.
    yield ("fig5_ooc_sharded", "fig5",
           *ooc(replace(lru, backing="sharded", shards=SHARDS,
                        writeback_depth=8)), _run_full)
    yield ("spr_search_whole", "spr", *ooc(lru), _run_search)
    yield ("spr_search_block", "spr", *ooc(block), _run_search)


def _require_identical(workloads, name, partner, why):
    """``name`` must reproduce ``partner``'s lnL and counters bit for bit."""
    got, want = workloads[name], workloads[partner]
    if got["log_likelihood_hex"] != want["log_likelihood_hex"]:
        raise ReproError(
            f"{name}: lnL {got['log_likelihood_hex']} differs from "
            f"{partner} {want['log_likelihood_hex']}: {why}")
    diff = [k for k in RESULT_METRICS
            if got["metrics"][k] != want["metrics"][k]]
    if diff:
        raise ReproError(
            f"{name}: counters differ from {partner} on {diff}: {why}")


def run_bench(scratch: str) -> dict:
    """Run every workload once and return the results document.

    ``scratch`` holds the file-backed stores. A failed gate raises
    :class:`ReproError` naming the workload and what differed.
    """
    dataset = _dataset()
    workloads = {}
    for name, figure, config, build, run in _workloads(dataset, scratch):
        engine = build()
        store = engine.store
        try:
            entry = _run_entry(figure, engine, run, config)
        except ReproError as exc:
            raise ReproError(f"{name}: {exc}") from exc
        if name == "fig5_paging":
            entry["simulated_io_seconds"] = float(store.simulated_seconds)
            entry["faults"] = int(store.faults)
        elif name == "fig5_ooc_compressed":
            # Host-dependent (zlib build): recorded, gated below, never
            # compared with a baseline.
            backing = store.backing
            entry["compression_ratio"] = float(backing.compression_ratio)
            entry["backing_bytes_written"] = int(backing.stored_bytes_written)
        elif name == "fig5_ooc_sharded":
            # Any modelled seconds live in the child processes; report
            # topology instead.
            entry["shards"] = int(store.backing.num_shards)
            entry["shard_restarts"] = int(store.backing.restarts())
        elif figure == "fig5":
            entry["simulated_io_seconds"] = float(
                store.backing.simulated_seconds)
        workloads[name] = entry
        print(f"{name:>20}: lnL {entry['log_likelihood']:.4f}  "
              f"miss {entry['derived']['miss_rate']:.2%}  "
              f"read {entry['derived']['read_rate']:.2%}")

    # Each twin runs fig5_ooc_whole's (or _block's) access sequence
    # through a different execution path or device, all of which must be
    # invisible to the paper's metrics: CLVs round-trip the codec exactly,
    # and the demand counters are backing- and writeback-invariant by
    # design, so the comparison is exact.
    for name, partner, why in (
            ("fig5_ooc_whole_batch", "fig5_ooc_whole",
             "batched schedule broke access-sequence parity"),
            ("fig5_ooc_block_batch", "fig5_ooc_block",
             "batched schedule broke access-sequence parity"),
            ("fig5_ooc_compressed", "fig5_ooc_whole",
             "compression must be transparent to the store"),
            ("fig5_ooc_sharded", "fig5_ooc_whole",
             "sharding must be transparent to the store")):
        _require_identical(workloads, name, partner, why)
        print(f"{name:>20}: lnL + counters bit-identical to {partner}")

    # The physical bytes on disk must come in BELOW the logical write
    # traffic — otherwise compression is costing I/O instead of saving it.
    comp = workloads["fig5_ooc_compressed"]
    if comp["backing_bytes_written"] >= comp["metrics"]["bytes_written"]:
        raise ReproError(
            f"fig5_ooc_compressed: wrote {comp['backing_bytes_written']} "
            f"physical bytes >= {comp['metrics']['bytes_written']} logical "
            "bytes: compression is not reducing I/O")
    print(f"{'fig5_ooc_compressed':>20}: ratio "
          f"{comp['compression_ratio']:.2f}x, "
          f"{comp['backing_bytes_written']}/{comp['metrics']['bytes_written']}"
          " physical/logical bytes written")

    return {
        "schema": RESULTS_SCHEMA,
        "config": {"taxa": TAXA, "sites": SITES, "seed": SEED,
                   "traversals": TRAVERSALS, "radius": RADIUS,
                   "block_sites": BLOCK_SITES, "fraction": FRACTION},
        "workloads": workloads,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run every paper-evaluation store configuration once, "
                    "require them to agree, and write the deterministic "
                    "BENCH_results.json; optionally require it to equal a "
                    "stored baseline.",
    )
    parser.add_argument("--validate", metavar="PATH",
                        help="validate an existing results file and exit")
    parser.add_argument("--baseline", metavar="PATH",
                        help="compare against this results file; exit 1 on "
                             "any difference")
    parser.add_argument("-o", "--out", default="BENCH_results.json",
                        help="output path (default BENCH_results.json)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.validate:
        return validate_file(args.validate, validate_results, "results")
    baseline = None
    if args.baseline:
        try:
            baseline = json.loads(Path(args.baseline).read_text())
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2

    try:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as scratch:
            doc = run_bench(scratch)
    except ReproError as exc:
        print(f"PARITY: {exc}", file=sys.stderr)
        return 1
    problems = validate_results(doc)
    if problems:  # a bug in this module, not in the caller's input
        print("internal schema violation: " + "; ".join(problems),
              file=sys.stderr)
        return 1
    out = Path(args.out)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"results written : {out} ({len(doc['workloads'])} workloads)")

    if baseline is not None:
        differences, notes = compare_results(doc, baseline)
        for note in notes:
            print(f"note: {note}")
        if differences:
            for d in differences:
                print(f"BASELINE: {d}", file=sys.stderr)
            print(f"{len(differences)} difference(s) vs {args.baseline}: if "
                  "intended, regenerate it in the same change",
                  file=sys.stderr)
            return 1
        print(f"identical to {args.baseline}")
    return 0
