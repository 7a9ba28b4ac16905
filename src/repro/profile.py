"""``python -m repro.profile`` — profile an out-of-core likelihood workload.

Runs one of the paper's evaluation workloads with an observer attached
(:mod:`repro.obs`: the metrics registry and the record ring) and writes
a ``BENCH_profile.json`` summary:

* **full** — the §4.3 benchmark mode: N full tree traversals, the
  worst case for vector locality;
* **search** — one lazy-SPR search round, the workload whose locality the
  replacement strategies exploit (§4.2).

The store configuration (slot fraction, policy, write-behind, prefetch,
backing store) is fully controllable, so the same command profiles every
point of the paper's design space. Tracing is passive by construction:
``--check-parity`` re-runs the identical workload untraced and fails if
any demand or eviction counter differs.

Examples
--------
::

    python -m repro.profile --workload full --fraction 0.25 --traversals 3
    python -m repro.profile --workload search --policy lru --fraction 0.5 \\
        --backing file --events events.jsonl --timeline timeline.json
    python -m repro.profile --workload search --metrics-port 9107 \\
        --spans-out trace.json
    python -m repro.profile --validate BENCH_profile.json

Every counter, phase total and latency of a profile is in its metrics
snapshot, once (the same values a live ``/metrics`` scrape exposes);
``--metrics-port`` serves the registry over HTTP for the duration of
the run, and ``--spans-out`` writes the record ring as a Chrome
trace-event timeline loadable in Perfetto. With ``--backing sharded``
the timeline gains one process track per shard worker (spans shipped
back over the wire protocol's TELEMETRY op), and the ``attribution``
block names the catalogue histograms that decompose per-op latency into
pipeline stages — window wait, wire, worker disk, reply — merged from
the workers; ``--attribution`` prints the stage table to stdout, and
beneath it the compute thread's ``store_wait`` seconds split by what
``get`` waited for: a load in flight, write-behind back-pressure, or a
demand read nobody had prefetched.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.cli import _parse_model, _read_alignment
from repro.config import EngineConfig
from repro.core.stats import PARITY_COUNTERS
from repro.errors import ReproError
from repro.obs import (
    ENGINE_PHASES,
    PROFILE_SCHEMA,
    MetricsServer,
    Observer,
    records_to_jsonl,
    slot_timeline,
    validate_file,
    validate_profile,
)
from repro.phylo.likelihood.engine import LikelihoodEngine
from repro.phylo.newick import parse_newick


def _dataset(args):
    """(alignment, tree) from files or the built-in simulator."""
    if args.msa:
        alignment = _read_alignment(args.msa)
        if args.tree:
            tree = parse_newick(Path(args.tree).read_text())
        else:
            from repro.phylo.parsimony import stepwise_addition_tree
            tree = stepwise_addition_tree(alignment, seed=args.seed)
        return alignment, tree
    from repro.phylo.models import GTR
    from repro.simulate import simulate_alignment, yule_tree
    tree = yule_tree(args.simulate_taxa, seed=args.seed, scale=0.1)
    alignment = simulate_alignment(tree, GTR(), args.simulate_length,
                                   seed=args.seed + 1)
    return alignment, tree


def _build_engine(config: EngineConfig, alignment, tree, args,
                  workdir: str) -> LikelihoodEngine:
    model, rates = _parse_model(args.model, alignment)
    return LikelihoodEngine(tree.copy(), alignment, model, rates, config,
                            workdir=workdir)


def _run_workload(engine: LikelihoodEngine, args) -> float:
    if args.workload == "full":
        return engine.full_traversals(args.traversals)
    from repro.phylo.search import lazy_spr_round
    return lazy_spr_round(engine, radius=args.radius).lnl


def _derived_block(engine: LikelihoodEngine) -> dict:
    """What ``IoStats`` derives that no catalogue row holds."""
    stats = engine.stats
    return {"physical_reads": stats.physical_reads,
            "physical_writes": stats.physical_writes,
            "swaps": stats.swaps, "miss_rate": stats.miss_rate,
            "read_rate": stats.read_rate}


def _run_block(args, engine: LikelihoodEngine) -> dict:
    """What ran, beside the engine configuration: data, model and the
    geometry the configuration resolved to on it."""
    return {
        "model": args.model,
        "dataset": args.msa or
            f"simulated({args.simulate_taxa}x{args.simulate_length})",
        "traversals": args.traversals,
        "radius": args.radius,
        "num_slots": engine.store.num_slots,
        "num_items": engine.store.num_items,
        "layout": engine.layout.describe(),
        "batch_members": engine.batch_members,
    }


def _find_sharded(backing):
    """Unwrap fault/retry wrappers down to a ShardedBackingStore, if any."""
    seen = 0
    while backing is not None and seen < 8:
        if getattr(backing, "num_shards", 0) and hasattr(backing,
                                                         "collect_telemetry"):
            return backing
        backing = getattr(backing, "inner", None)
        seen += 1
    return None


#: The stages of one backing op, each a catalogue histogram: op ->
#: (end-to-end total, stages over a local backing, stages over shards).
_STAGES = {
    "read": ("backing_read_seconds", {"disk": "backing_read_seconds"},
             {"wire": "shard_wire_read_seconds",
              "disk": "shard_disk_read_seconds",
              "reply": "shard_reply_read_seconds"}),
    "write": ("backing_write_seconds", {"disk": "backing_write_seconds"},
              {"wire": "shard_wire_write_seconds",
               "disk": "shard_disk_write_seconds",
               "reply": "shard_reply_write_seconds"}),
}


def _attribution_block(args, sharded) -> dict:
    """Which registry histograms decompose per-op latency into stages.

    The totals are the parent-side request latencies; over shards the
    stages are the worker histograms merged back over OP_TELEMETRY.
    Stage sums need not add up to the total — the stages time distinct
    sub-intervals of a request (wire transit, worker disk time, reply
    transit) and queueing between them is real.
    """
    return {
        "backing": args.backing,
        "window_wait": "shard_window_wait_seconds",
        "ops": {op: {"total": total,
                     "stages": local if sharded is None else remote}
                for op, (total, local, remote) in _STAGES.items()},
    }


def _attribution_crosscheck(snapshot: dict, derived: dict) -> list[str]:
    """Worker-side op counts must equal the parent's IoStats totals.

    Every successful physical read/write is counted exactly once on each
    side of the wire (workers count completions, IoStats counts issued
    ops that returned); any drift means lost or double-counted telemetry.
    """
    problems = []
    for op, key in (("read", "physical_reads"), ("write", "physical_writes")):
        count = snapshot["histograms"][f"shard_disk_{op}_seconds"]["count"]
        if count != derived[key]:
            problems.append(
                f"worker {op} count {count} != IoStats {key} {derived[key]}")
    return problems


def _print_attribution(attribution: dict, snapshot: dict,
                       per_shard: dict) -> None:
    hists = snapshot["histograms"]

    def fmt(name: str) -> str:
        s = hists[name]
        return (f"count={s['count']:>6}  sum={s['sum']:.4f}s  "
                f"p50={s['p50'] * 1e6:9.1f}us  p95={s['p95'] * 1e6:9.1f}us  "
                f"p99={s['p99'] * 1e6:9.1f}us")

    print(f"latency attribution ({attribution['backing']} backing)")
    print(f"  window_wait     : {fmt(attribution['window_wait'])}")
    for op in ("read", "write"):
        entry = attribution["ops"][op]
        print(f"  {op:<5} total     : {fmt(entry['total'])}")
        for stage, name in entry["stages"].items():
            print(f"    stage {stage:<5}   : {fmt(name)}")
    for shard in sorted(per_shard, key=int):
        row = per_shard[shard]
        print(f"  shard {shard}: {row['reads']} reads, "
              f"{row['writes']} writes, {row['restarts']} restarts")


def _print_store_wait_split(obs: Observer, snapshot: dict) -> None:
    """The compute thread's ``store_wait`` seconds by what ``get`` waited
    for: a load in flight, a full staging buffer or a read of its own
    (records of this thread); the rest is the store's own bookkeeping."""
    causes = {"inflight_wait": "in-flight wait",
              "writeback_stall": "back-pressure", "demand_read": "demand read"}
    me = threading.current_thread().name
    waits = [(r.name, r.dur) for r in obs.spans.records()
             if r.thread == me and r.name in causes and r.dur > 0.0]
    store_wait = snapshot["histograms"]["store_wait_seconds"]
    total = rest = store_wait["sum"]
    print(f"  store_wait      : {total:.4f}s over "
          f"{store_wait['count']} gets")
    for name, label in causes.items():
        durations = [dur for cause, dur in waits if cause == name]
        rest -= sum(durations)
        print(f"    {label:<14}: count={len(durations):>6}  "
              f"sum={sum(durations):.4f}s")
    print(f"    {'store itself':<14}: sum={rest:.4f}s")


def _print_device_overlap(snapshot: dict, writeback: bool) -> None:
    """How much of the device time the compute thread did not wait for:
    the synchronous path's overlapped swaps (write-out beside read-in)
    beside the write-behind queue, whose writer threads do every write."""
    hists = snapshot["histograms"]
    reads = hists["backing_read_seconds"]["sum"]
    writes = hists["backing_write_seconds"]["sum"]
    device = reads + writes
    if device <= 0.0:
        return
    swaps = hists["swap_hidden_seconds"]
    behind = writes if writeback else 0.0
    print(f"device overlap  : {device:.4f}s in transfers; "
          f"{swaps['count']} overlapped swaps hid {swaps['sum']:.4f}s "
          f"({swaps['sum'] / device:.1%}), write-behind wrote "
          f"{behind:.4f}s off-thread ({behind / device:.1%})")


def _parity_check(config: EngineConfig, alignment, tree, args, workdir: str,
                  traced: dict) -> list[str]:
    """Re-run untraced; return mismatch descriptions (empty = parity holds)."""
    engine = _build_engine(config, alignment, tree, args, workdir)
    try:
        _run_workload(engine, args)
        engine.store.drain()
        bare = engine.stats.as_row()
    finally:
        engine.close()
    problems = []
    for key in PARITY_COUNTERS:
        if traced[key] != bare[key]:
            problems.append(
                f"counter {key!r}: traced={traced[key]} untraced={bare[key]}")
    return problems


def run_profile(args) -> int:
    if args.check_parity and args.prefetch_depth:
        # A prefetch thread's policy touches depend on scheduling, so two
        # runs can evict different victims regardless of tracing; the
        # parity assertion is only meaningful for deterministic configs.
        print("error: --check-parity requires --prefetch-depth 0 "
              "(prefetch victim choice is timing-dependent)", file=sys.stderr)
        return 2
    config = EngineConfig.from_args(args)
    alignment, tree = _dataset(args)
    with tempfile.TemporaryDirectory(prefix="repro-profile-") as workdir:
        obs = Observer(capacity=args.trace_capacity)
        engine = _build_engine(config, alignment, tree, args, workdir)
        obs.attach(engine)
        server = None
        try:
            if args.metrics_port is not None:
                server = MetricsServer(obs.metrics,
                                       port=args.metrics_port).start()
                print(f"metrics endpoint: {server.url}")
            t0 = time.perf_counter()
            lnl = _run_workload(engine, args)
            engine.store.drain()
            wall = time.perf_counter() - t0
            sharded = _find_sharded(engine.store.backing)
            # Collects while the shard workers are still up: the snapshot
            # already holds their final deltas.
            snapshot = obs.metrics.snapshot()
            counters = engine.stats.as_row()
            derived = _derived_block(engine)
            writeback = engine.stats.writeback_enabled
            per_shard = {} if sharded is None else sharded.per_shard_counts()
        finally:
            if server is not None:
                server.close()
            engine.close()

        if sharded is not None:
            mismatches = _attribution_crosscheck(snapshot, derived)
            if mismatches:
                for m in mismatches:
                    print(f"attribution cross-check FAILED: {m}",
                          file=sys.stderr)
                return 1

        ring = obs.spans
        doc = {
            "schema": PROFILE_SCHEMA,
            "workload": args.workload,
            "config": config.to_dict(),
            "run": _run_block(args, engine),
            "log_likelihood": lnl,
            "wall_seconds": wall,
            "derived": derived,
            "records": {"emitted": ring.emitted, "captured": len(ring),
                        "dropped": ring.dropped},
            "metrics": snapshot,
            "attribution": _attribution_block(args, sharded),
        }
        problems = validate_profile(doc)
        if problems:  # a bug in this module, not in the caller's input
            for p in problems:
                print(f"internal schema violation: {p}", file=sys.stderr)
            return 1

        out = Path(args.out)
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"profile written : {out}")
        print(f"workload        : {args.workload} (lnL {lnl:.4f}, "
              f"{wall:.3f}s wall)")
        for phase in ENGINE_PHASES:
            hist = snapshot["histograms"][f"{phase}_seconds"]
            print(f"phase {phase:>10}: {hist['sum']:.4f}s "
                  f"over {hist['count']} laps")
        _print_device_overlap(snapshot, writeback)
        rec = doc["records"]
        print(f"records         : {rec['emitted']} emitted, "
              f"{rec['captured']} captured, {rec['dropped']} dropped")
        if sharded is not None:
            print(f"telemetry       : worker histograms match IoStats "
                  f"({derived['physical_reads']} reads, "
                  f"{derived['physical_writes']} writes)")
        if args.attribution:
            _print_attribution(doc["attribution"], snapshot, per_shard)
            _print_store_wait_split(obs, snapshot)

        if args.spans_out:
            worker_spans = 0
            if sharded is not None:
                worker_spans = sharded.export_spans_into(ring)
            ring.write_chrome_trace(args.spans_out)
            extra = (f", {worker_spans} worker spans on "
                     f"{sharded.num_shards} tracks" if sharded is not None
                     else "")
            print(f"span timeline   : {args.spans_out} "
                  f"({len(ring)} records, {ring.dropped} dropped"
                  f"{extra}; load in Perfetto / chrome://tracing)")
        if args.events:
            n = records_to_jsonl(ring.records(), args.events)
            print(f"event dump      : {args.events} ({n} records)")
        if args.timeline:
            intervals = slot_timeline(ring.records())
            Path(args.timeline).write_text(
                json.dumps(intervals, indent=2) + "\n")
            print(f"slot timeline   : {args.timeline} "
                  f"({len(intervals)} intervals)")

        if args.check_parity:
            mismatches = _parity_check(config, alignment, tree, args,
                                       workdir, counters)
            if mismatches:
                for m in mismatches:
                    print(f"parity FAILED: {m}", file=sys.stderr)
                return 1
            print(f"parity          : OK ({len(PARITY_COUNTERS)} demand/"
                  "eviction counters bit-identical untraced)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.profile",
        description="Profile an out-of-core PLF workload with the repro.obs "
                    "observability stack and emit BENCH_profile.json",
    )
    parser.add_argument("--validate", metavar="PATH",
                        help="validate an existing profile document and exit")
    parser.add_argument("-s", "--msa", help="alignment file (FASTA/PHYLIP); "
                        "omit to use the built-in simulator")
    parser.add_argument("-t", "--tree", help="Newick tree file")
    parser.add_argument("--simulate-taxa", type=int, default=24,
                        help="taxa for the simulated dataset (default: 24)")
    parser.add_argument("--simulate-length", type=int, default=300,
                        help="sites for the simulated dataset (default: 300)")
    parser.add_argument("-m", "--model", default="GTR+G")
    parser.add_argument("--workload", choices=["full", "search"],
                        default="full",
                        help="full: -f z traversals (§4.3); search: one lazy "
                             "SPR round (default: full)")
    parser.add_argument("-N", "--traversals", type=int, default=3,
                        help="full traversals for --workload full")
    parser.add_argument("--radius", type=int, default=3,
                        help="SPR radius for --workload search")
    EngineConfig.add_arguments(parser)
    parser.set_defaults(fraction=0.25)
    parser.add_argument("--trace-capacity", type=int, default=1 << 16,
                        help="event ring-buffer capacity (oldest records "
                             "drop beyond this; default: 65536)")
    parser.add_argument("-o", "--out", default="BENCH_profile.json",
                        help="profile output path (default: "
                             "BENCH_profile.json)")
    parser.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="serve the live metrics registry as Prometheus "
                             "text on http://127.0.0.1:PORT/metrics for the "
                             "duration of the run (0 = ephemeral port)")
    parser.add_argument("--spans-out", metavar="PATH",
                        help="also record span timelines and write them as "
                             "Chrome trace-event JSON (Perfetto-loadable)")
    parser.add_argument("--events", metavar="PATH",
                        help="also dump the raw event stream as JSONL")
    parser.add_argument("--timeline", metavar="PATH",
                        help="also write the slot-occupancy timeline (JSON)")
    parser.add_argument("--attribution", action="store_true",
                        help="print the per-op latency attribution table "
                             "(stage decomposition from the merged "
                             "cross-process histograms) and store_wait "
                             "split by cause")
    parser.add_argument("--check-parity", action="store_true",
                        help="re-run untraced and fail unless all demand/"
                             "eviction counters are bit-identical")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.validate:
        return validate_file(args.validate, validate_profile, "profile")
    try:
        return run_profile(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
