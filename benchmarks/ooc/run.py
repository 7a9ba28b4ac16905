"""The out-of-core PLF benchmark: one command, every metric by name.

Contract mode (what ``BENCHMARK.json`` names; one workload per call)::

    python3 benchmarks/ooc/run.py --workload full_block_mem --seed 7 \\
        --seconds 8 --trace 0        # end-to-end metrics, tracing off
    python3 benchmarks/ooc/run.py ... --trace 1   # per-layer metrics

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Full mode (every workload, one JSON document)::

    python3 benchmarks/ooc/run.py --seed 42 --out run.json \\
        [--traced] [--layers] [--trace-out DIR] [--smoke]
    python3 benchmarks/ooc/run.py --compare A.json B.json

Each workload runs in its own child process, sequentially, after an
oracle process has produced the twin's results; see ``README.md``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from catalogue import (  # noqa: E402
    BY_NAME,
    KINDS,
    MIN_PASSES,
    PROBE_NOMINAL_S,
    WORKLOADS,
    cache_sizes,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCHEMA = "ooc-bench/1"
#: Scratch space (file backings, shard directories): inside the checkout,
#: removed after every workload.
WORK = ROOT / ".ooc_work"
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
CHILD_WATCHDOG_S = 120.0
ORACLE_WATCHDOG_S = 40.0
REFERENCE_TOLERANCE = 1e-9
UNACCOUNTED_LIMIT = 0.05
TRACE_OVERHEAD_FLAG = 1.5
TRACED_PASSES = 3

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


class WorkloadFailed(Exception):
    """A child was wedged, crashed, or left a process behind."""


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- child processes ---------------------------------------------------------------


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def spawn(role_args: list[str], stdin: str, watchdog_s: float) -> tuple[dict, float]:
    """Run one child to completion; returns (its JSON document, wall seconds).

    The child leads its own process group, so a wedged run — or a shard
    worker it leaves behind — can be found and killed as a unit.
    """
    env = {**os.environ, **THREAD_ENV}
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), *role_args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        start_new_session=True)
    try:
        out, _ = proc.communicate(stdin, timeout=watchdog_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkloadFailed(
            f"{' '.join(role_args)}: no result within {watchdog_s:.0f} s "
            "(watchdog killed the process group)") from None
    wall = time.perf_counter() - t0
    deadline = time.perf_counter() + 1.0
    while _group_alive(proc.pid) and time.perf_counter() < deadline:
        time.sleep(0.02)
    if _group_alive(proc.pid):
        os.killpg(proc.pid, signal.SIGKILL)
        raise WorkloadFailed(
            f"{' '.join(role_args)}: a process outlived its workload")
    if proc.returncode != 0:
        raise WorkloadFailed(
            f"{' '.join(role_args)}: exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), wall


def _child_main(opts) -> int:
    """Entry point of the oracle, workload and layers processes."""
    sys.path.insert(0, str(ROOT / "src"))
    if opts.role == "layers":
        import layers
        doc = layers.run(opts.seed, opts.geometry, str(WORK / "layers"))
    else:
        import workloads
        if opts.role == "oracle":
            doc = workloads.run_oracle(opts.seed, opts.geometry, opts.kind)
        else:
            doc = workloads.run_workload(
                opts.workload, opts.seed, opts.geometry,
                json.loads(sys.stdin.read()),
                str(WORK / f"{opts.workload}-{os.getpid()}"), opts.seconds,
                opts.min_passes, opts.traced_passes, opts.trace_out, _STARTED)
    print(json.dumps(doc))
    return 0


# -- one workload, as the parent sees it -------------------------------------------


def run_oracle(seed: int, geometry: str, kind: str) -> dict:
    doc, wall = spawn(["--role", "oracle", "--seed", str(seed), "--geometry",
                       geometry, "--kind", kind], "", ORACLE_WATCHDOG_S)
    doc["process_s"] = wall
    return doc


def run_one(name: str, seed: int, geometry: str, oracle: dict, *,
            seconds: float, min_passes: int, traced_passes: int,
            trace_out: str | None) -> dict:
    """Run ``name`` in a child and fold in the parent-side observations."""
    args = ["--role", "workload", "--workload", name, "--seed", str(seed),
            "--geometry", geometry, "--seconds", str(seconds),
            "--min-passes", str(min_passes),
            "--traced-passes", str(traced_passes)]
    if trace_out:
        args += ["--trace-out", trace_out]
    try:
        doc, wall = spawn(args, json.dumps(oracle["expected"]), CHILD_WATCHDOG_S)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    doc["process_s"] = wall
    if doc["leaked_children"]:
        raise WorkloadFailed(f"{name}: {doc['leaked_children']} worker "
                             "process(es) alive after engine.close()")
    doc["reference_rel_err"] = oracle["reference_rel_err"]
    if "untraced" in doc:
        doc["end_to_end"] = end_to_end(doc, oracle)
    doc["problems"] = problems(name, doc)
    return doc


def end_to_end(doc: dict, oracle: dict) -> dict:
    """The user-visible metrics of one untraced run.

    Set-up is everything before the first timed pass: the oracle process,
    this process up to its dataset, and the median of the repeated
    backing + engine + warm-pass set-ups. ``wall_s`` and ``setup_s`` are
    seconds at nominal machine speed (see ``workloads.at_nominal_speed``);
    the ``*_raw_s`` rows are the same intervals as the clock read them.
    """
    run = doc["untraced"]
    # The oracle's own clock cannot see its interpreter start; the parent's
    # wall around it can, and its CPU seconds cover the whole process.
    oracle_cpu = min(oracle["cpu_s"], oracle["process_s"])
    oracle_s = (oracle["process_s"] - oracle_cpu
                + oracle_cpu * PROBE_NOMINAL_S / oracle["probe_s"])
    engine = run["setup_engine"]
    setup = {"s": oracle_s + doc["setup_begin"]["s"]
             + statistics.median(e["s"] for e in engine),
             "raw_s": oracle["process_s"] + doc["setup_begin"]["raw_s"]
             + statistics.median(e["raw_s"] for e in engine)}
    return {
        "wall_s": dict(run["wall_s"], value=run["wall_s"]["median"], unit="s"),
        "setup_s": {"value": setup["s"], "unit": "s", "n": len(engine)},
        "peak_rss_mb": {"value": doc["peak_rss_mb"], "unit": "MB"},
        "hit_rate": {"value": run["hit_rate"], "unit": "ratio"},
        "wall_raw_s": dict(run["wall_raw_s"], value=run["wall_raw_s"]["median"],
                           unit="s"),
        "setup_raw_s": {"value": setup["raw_s"], "unit": "s", "n": len(engine)},
        "miss_rate": {"value": run["miss_rate"], "unit": "ratio"},
        "read_rate": {"value": run["read_rate"], "unit": "ratio"},
        "backing_mb_per_pass": {"value": run["backing_mb_per_pass"], "unit": "MB"},
        "op_fail_frac": {"value": run["failed"] / run["attempted"],
                         "unit": "ratio"},
    }


def problems(name: str, doc: dict) -> list[str]:
    """Everything that makes this run's numbers untrustworthy."""
    found = []
    if doc["reference_rel_err"] > REFERENCE_TOLERANCE:
        found.append(f"in-core twin differs from reference.py by "
                     f"{doc['reference_rel_err']:.2e} relative")
    for phase in ("untraced", "traced"):
        run = doc.get(phase)
        if run and run["failed"]:
            found.append(f"{phase}: {run['failed']}/{run['attempted']} ops failed "
                         f"or differ from the twin: {run['first_failures']}")
    run = doc.get("untraced")
    if run and BY_NAME[name].synchronous and not run["counts_repeat"]:
        found.append("I/O counters differ between passes of a synchronous workload")
    traced = doc.get("traced")
    if traced:
        metrics = traced["metrics"]
        if metrics["driver.unaccounted_frac"] >= UNACCOUNTED_LIMIT:
            found.append(f"unaccounted share {metrics['driver.unaccounted_frac']:.3f}"
                         f" >= {UNACCOUNTED_LIMIT}")
        total = sum(traced["budget_self_s"].values())
        if abs(total - traced["budget_pass_wall_s"]) > 1e-6:
            found.append("layer self times do not sum to the pass wall")
        if run and BY_NAME[name].synchronous and run["counts_repeat"]:
            want = run["counters_per_pass"]
            got = {"requests": metrics["vecstore.gets"],
                   "hits": metrics["vecstore.hits"],
                   "misses": metrics["vecstore.misses"],
                   "reads": metrics["backing.reads"],
                   "writes": metrics["backing.writes"]}
            for key, value in got.items():
                if value != want[key]:
                    found.append(f"traced {key}={value} but untraced "
                                 f"IoStats {key}={want[key]}")
    return found


# -- output ---------------------------------------------------------------------------


def print_metrics(name: str, doc: dict) -> None:
    for metric, row in doc.get("end_to_end", {}).items():
        spread = (f"  q1 {row['q1']:.4g}  q3 {row['q3']:.4g}  n {row['n']}"
                  if "q1" in row else "")
        print(f"{name:>20} {metric:<28} {row['value']:.6g} {row['unit']}{spread}")
    if "traced" in doc:
        units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
        for metric, value in doc["traced"]["metrics"].items():
            shown = "undefined" if value is None else f"{value:.6g}"
            print(f"{name:>20} {metric:<28} {shown} {units.get(metric, '')}")
        ratio = doc["traced"]["metrics"]["driver.trace_overhead_ratio"]
        if ratio > TRACE_OVERHEAD_FLAG:
            print(f"{name:>20} note: tracing overhead {ratio:.2f}x exceeds "
                  f"{TRACE_OVERHEAD_FLAG}x; read the layer seconds as upper bounds")
    for problem in doc["problems"]:
        print(f"{name:>20} PROBLEM: {problem}")


def contract_line(doc: dict, trace: bool) -> str:
    """The one JSON object the benchmark contract asks for."""
    spec = benchmark_spec()
    if trace:
        values = doc["traced"]["metrics"]
        # A per-layer metric with no traffic behind it on this workload is
        # undefined; the contract line needs a number, so it carries 0 there
        # and the full document carries null.
        metrics = {m["name"]: {"value": values[m["name"]] or 0.0, "unit": m["unit"]}
                   for m in spec["per_layer"]}
        run = doc["traced"]
    else:
        metrics = {m["name"]: {"value": doc["end_to_end"][m["name"]]["value"],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        run = doc["untraced"]
    return json.dumps({
        "correct": not doc["problems"], "attempted": run["attempted"],
        "failed": run["failed"], "metrics": metrics})


# -- modes ------------------------------------------------------------------------------


def contract_mode(opts) -> int:
    phases = ({"seconds": 0.0, "min_passes": 0, "traced_passes": TRACED_PASSES}
              if opts.trace else
              {"seconds": opts.seconds, "min_passes": MIN_PASSES, "traced_passes": 0})
    geometry = "D128x4k"
    oracle = run_oracle(opts.seed, geometry, BY_NAME[opts.workload].kind)
    doc = run_one(opts.workload, opts.seed, geometry, oracle, trace_out=None,
                  **phases)
    print_metrics(opts.workload, doc)
    print(contract_line(doc, bool(opts.trace)))
    return 0


def full_mode(opts) -> int:
    geometry = "smoke" if opts.smoke else "D128x4k"
    seconds, min_passes = (0.0, 2) if opts.smoke else (opts.seconds, MIN_PASSES)
    traced = (2 if opts.smoke else TRACED_PASSES) if (opts.traced or opts.smoke) else 0
    if opts.trace_out:
        os.makedirs(opts.trace_out, exist_ok=True)
    # One oracle per kind of operation, as in contract mode, so that
    # setup_s means the same in both.
    oracles = {kind: run_oracle(opts.seed, geometry, kind) for kind in KINDS}
    out = {"schema": SCHEMA, "seed": opts.seed, "geometry": geometry,
           "machine": {"nproc": os.cpu_count(), "cache_bytes": cache_sizes(),
                       "python": sys.version.split()[0],
                       "threads_env": THREAD_ENV},
           "workloads": {}, "failures": {}}
    for name in WORKLOAD_NAMES:
        trace_out = (os.path.abspath(os.path.join(opts.trace_out, f"{name}.spans.json"))
                     if opts.trace_out and traced else None)
        try:
            doc = run_one(name, opts.seed, geometry, oracles[BY_NAME[name].kind],
                          seconds=seconds, min_passes=min_passes,
                          traced_passes=traced, trace_out=trace_out)
        except WorkloadFailed as exc:
            # A wedged or leaking workload fails every one of its
            # operations; the other workloads still run.
            print(f"{name:>20} FAILED: {exc}")
            out["failures"][name] = str(exc)
            out["workloads"][name] = {
                "end_to_end": {"op_fail_frac": {"value": 1.0, "unit": "ratio"}},
                "problems": [str(exc)]}
            continue
        out["workloads"][name] = doc
        print_metrics(name, doc)
    derive(out)
    if opts.layers or opts.smoke:
        layers, _ = spawn(["--role", "layers", "--seed", str(opts.seed),
                           "--geometry", geometry], "", CHILD_WATCHDOG_S)
        shutil.rmtree(WORK, ignore_errors=True)
        out["layers"] = layers
        for metric, row in layers["metrics"].items():
            print(f"{'layers':>20} {metric:<28} {row['value']:.6g} {row['unit']}")
    if opts.out:
        with open(opts.out, "w") as fh:
            json.dump(out, fh, indent=1)
    bad = [n for n, d in out["workloads"].items() if d["problems"]]
    if bad:
        print(f"problems in: {', '.join(bad)}")
    return 1 if bad else 0


def derive(out: dict) -> None:
    """Numbers that need two workloads: the multiprocess tier against its
    single-process twin (Moreno et al.), never against itself."""
    docs = out["workloads"]
    try:
        sharded = docs["reroot_hdd_sharded"]["end_to_end"]["wall_s"]["value"]
        twin = docs["reroot_hdd_async"]["end_to_end"]["wall_s"]["value"]
    except KeyError:
        return
    out["derived"] = {"sharded.overhead_ratio": {
        "value": sharded / twin, "unit": "ratio",
        "base": "reroot_hdd_async wall_s"}}
    print(f"{'derived':>20} {'sharded.overhead_ratio':<28} {sharded / twin:.4g} "
          f"ratio (reroot_hdd_sharded {sharded:.4g} s / reroot_hdd_async {twin:.4g} s)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measure each workload for at least this long "
                         "(and at least five passes)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 prints the per-layer metrics")
    ap.add_argument("--out", help="write the full JSON document here")
    ap.add_argument("--traced", action="store_true",
                    help="repeat each workload under the span wrappers")
    ap.add_argument("--trace-out", help="directory for the raw span files")
    ap.add_argument("--layers", action="store_true",
                    help="also run the isolated per-layer microbenchmarks")
    ap.add_argument("--smoke", action="store_true",
                    help="16 taxa x 400 sites: same code paths, checks only")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    # Internal: how the parent addresses its children.
    ap.add_argument("--role", choices=("oracle", "workload", "layers"))
    ap.add_argument("--geometry", default="D128x4k")
    ap.add_argument("--kind", choices=KINDS, default="full")
    ap.add_argument("--min-passes", type=int, default=MIN_PASSES)
    ap.add_argument("--traced-passes", type=int, default=0)
    opts = ap.parse_args(argv)
    if opts.compare:
        from compare import compare_files
        return compare_files(*opts.compare, benchmark_spec())
    if opts.role:
        return _child_main(opts)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: the program under test is missing ({ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2
    try:
        return contract_mode(opts) if opts.workload else full_mode(opts)
    except WorkloadFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
