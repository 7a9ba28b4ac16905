"""Running one workload: inputs from the seed, set-up, timed passes, checks.

Protocol: closed loop, one client, one operation in flight. The seed
makes the tree, the alignment and the operation list (edges to re-root
at, prune points to try); the program under test only ever receives those.
One *pass* is a fixed list of user-level operations ending in
``store.drain()``; every timed number is a median over passes.

Two processes serve one workload. The **oracle** process evaluates the
store-free reference PLF and runs the operation list on the in-core twin;
the **workload** process sets the engine up, warms it, times the passes
and compares every result bit for bit against the oracle's. They are kept
apart so that the workload's peak RSS is the engine's, not the twin's.

Calibrated seconds. This class of box changes speed by tens of percent
over minutes, so every timed interval is also reported *at nominal
speed*: its compute share (process CPU seconds) is rescaled by a fixed
numpy probe timed right beside it, its waiting share (device sleep) is
left alone. Raw seconds are always reported next to the calibrated ones.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import os
import resource
import shutil
import statistics
import time
from collections import OrderedDict

import numpy as np

from repro.core.backing import (
    FileBackingStore,
    MemoryBackingStore,
    SimulatedDiskBackingStore,
)
from repro.core.layout import make_layout
from repro.core.sharded import ShardedBackingStore
from repro.phylo.likelihood.engine import LikelihoodEngine
from repro.phylo.models import GTR
from repro.phylo.models.rates import RateModel
from repro.phylo.search import spr
from repro.simulate import simulate_alignment, yule_tree
from repro.vm.disk import DiskModel

import tracing
from catalogue import (
    BY_NAME,
    FRACTION,
    GEOMETRIES,
    PROBE_NOMINAL_S,
    PROBE_ROUNDS,
    REROOT_CANDIDATES,
    REROOT_HOPS,
    SETUP_BUDGET_S,
    SETUP_REPEATS,
    SPR_RADIUS,
    TRACE_BASE_PASSES,
    Workload,
)
from reference import reference_loglikelihood

COUNTERS = ("requests", "hits", "misses", "reads", "read_skips", "writes",
            "bytes_read", "bytes_written", "prefetch_reads", "prefetch_bytes",
            "prefetch_hits", "prefetch_unused", "writeback_writes",
            "writeback_stalls", "writeback_read_hits")


# -- machine speed ----------------------------------------------------------------


class SpeedProbe:
    """A fixed piece of numpy work; its duration tracks the box's speed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._clv = rng.random((4096, 4, 4))
        self._P = rng.random((4, 4, 4))
        self._out = np.empty_like(self._clv)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(PROBE_ROUNDS):
            moved = np.einsum("cab,icb->ica", self._P, self._clv, optimize=True)
            np.multiply(moved, moved, out=self._out)
        return time.perf_counter() - t0

    def steady(self) -> float:
        """Median of five readings: for the few set-up intervals, where one
        reading's own jitter would not average out over many ops."""
        return statistics.median(self() for _ in range(5))


def at_nominal_speed(wall: float, cpu: float, probe_s: float) -> float:
    """``wall`` with its compute share rescaled to the probe's nominal time."""
    cpu = min(cpu, wall)
    return wall - cpu + cpu * PROBE_NOMINAL_S / probe_s


class _Interval:
    """Wall and process-CPU seconds of a ``with`` block."""

    def __enter__(self) -> "_Interval":
        self._cpu0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._t0
        self.cpu = time.process_time() - self._cpu0


# -- inputs, all drawn from the seed ----------------------------------------------


def dataset(seed: int, geometry: dict):
    tree = yule_tree(geometry["taxa"], seed=seed, scale=0.1)
    model = GTR()
    rates = RateModel.gamma(1.0, 4)
    alignment = simulate_alignment(tree, model, geometry["sites"],
                                   rates=rates, seed=seed + 1)
    return tree, alignment, model, rates


def _modelled_transfers(tree, edges, slots: int) -> int:
    """Vector transfers of one steady-state pass over ``edges``, by the book.

    The benchmark's own model, independent of the program under test:
    re-rooting recomputes, in post-order, every inner vector not already
    facing the new root; each step reads its inner children and writes
    its target; ``slots`` vectors stay resident under plain LRU, a miss
    on a full store writes the victim out, and a miss that is not
    write-only reads the vector in. Counted over the second of two passes.
    """
    facing: dict[int, int] = {}
    resident: OrderedDict[int, None] = OrderedDict()
    transfers = 0

    def touch(node: int, write_only: bool) -> None:
        nonlocal transfers
        if node in resident:
            resident.move_to_end(node)
            return
        if len(resident) >= slots:
            resident.popitem(last=False)
            transfers += 1
        if not write_only:
            transfers += 1
        resident[node] = None

    def evaluate(u: int, v: int) -> None:
        for start, parent in ((u, v), (v, u)):
            stack = [(start, parent, False)]
            while stack:
                node, toward, expanded = stack.pop()
                if tree.is_tip(node) or facing.get(node) == toward:
                    continue
                kids = [k for k in tree.neighbors(node) if k != toward]
                if not expanded:
                    stack.append((node, toward, True))
                    stack.extend((k, node, False) for k in kids)
                    continue
                for kid in kids:
                    if not tree.is_tip(kid):
                        touch(kid, False)
                touch(node, True)
                facing[node] = toward
        for end in (u, v):
            if not tree.is_tip(end):
                touch(end, False)

    for _ in range(2):
        before = transfers
        for u, v in edges:
            evaluate(u, v)
    return transfers - before


def reroot_edges(tree, seed: int, geometry: dict) -> list[tuple[int, int]]:
    """The edges one re-rooting pass evaluates, in order.

    A candidate sequence starts at a seeded inner node; from node ``x``
    the next node is a seeded choice among the inner nodes
    :data:`REROOT_HOPS` hops away (the nearest available distance when the
    tree has none), and the edge evaluated is the one entering it from
    ``x``'s side, so the re-rooting recomputes the vectors along that
    path. Among :data:`REROOT_CANDIDATES` candidates the one whose
    modelled transfers are nearest ``geometry["reroot_transfers"]`` wins.
    """
    rng = np.random.default_rng(seed + 2)
    inner = np.arange(tree.num_tips, tree.num_nodes)
    slots = max(3, int(FRACTION * tree.num_inner + 0.5))
    best: tuple[int, list[tuple[int, int]]] | None = None
    for _ in range(REROOT_CANDIDATES):
        x = int(rng.choice(inner))
        edges = []
        for i in range(geometry["reroot_ops"]):
            dist = tree.hop_distances_from(x)
            reachable = dist[inner]
            want = REROOT_HOPS[i % len(REROOT_HOPS)]
            options = np.unique(reachable[reachable > 0])
            d = int(options[np.argmin(np.abs(options - want))])
            y = int(rng.choice(inner[reachable == d]))
            toward_x = next(nb for nb in tree.neighbors(y) if dist[nb] == d - 1)
            edges.append((y, toward_x))
            x = y
        off_target = abs(_modelled_transfers(tree, edges, slots)
                         - geometry["reroot_transfers"])
        if best is None or off_target < best[0]:
            best = (off_target, edges)
    assert best is not None
    return best[1]


def spr_slices(tree, seed: int, slices: int,
               evaluations: int) -> list[list[tuple[int, int]]]:
    """``slices`` lists of seeded prune points, ``evaluations`` moves each.

    Pairs are taken in seeded order; one whose regraft candidates would
    overshoot the slice's total is skipped, so every seed tries the same
    number of moves (up to the few a move applied mid-pass adds or removes).
    """
    rng = np.random.default_rng(seed + 3)
    pairs = [(p, s) for p in tree.inner_nodes() for s in tree.neighbors(p)]
    out: list[list[tuple[int, int]]] = [[]]
    total = 0
    for k in rng.permutation(len(pairs)):
        p, s = pairs[int(k)]
        n = len(tree.spr_candidates(p, s, SPR_RADIUS))
        if not n or total + n > evaluations:
            continue
        out[-1].append((p, s))
        total += n
        if total == evaluations:
            if len(out) == slices:
                return out
            out.append([])
            total = 0
    raise ValueError(f"tree too small for {slices} SPR slices of {evaluations} moves")


def operations(kind: str, tree, seed: int, geometry: dict, traversals: int = 1):
    """One pass as a list of ``engine -> result`` callables."""
    if kind == "full":
        return [lambda e: e.full_traversals(1)] * traversals
    if kind == "reroot":
        return [lambda e, u=u, v=v: e.edge_loglikelihood(u, v)
                for u, v in reroot_edges(tree, seed, geometry)]

    def spr_slice(points):
        def run(engine):
            res = spr.lazy_spr_round(engine, radius=SPR_RADIUS, prune_points=points)
            return [res.lnl, res.moves_applied, res.moves_evaluated]
        return run

    return [spr_slice(points) for points in spr_slices(
        tree, seed, geometry["spr_slices"], geometry["spr_slice_evaluations"])]


def encode(result):
    """Results cross the process boundary as hex floats: bit-exact."""
    if isinstance(result, list):
        return [encode(r) for r in result]
    return result.hex() if isinstance(result, float) else result


# -- the oracle process -------------------------------------------------------------


def run_oracle(seed: int, geometry_name: str, kind: str) -> dict:
    """Reference lnL, in-core twin lnL, and the twin's result for every op
    of one pass of a ``kind`` workload."""
    geometry = GEOMETRIES[geometry_name]
    tree, alignment, model, rates = dataset(seed, geometry)
    reference = reference_loglikelihood(tree, alignment, model, rates)
    twin = LikelihoodEngine(tree.copy(), alignment, model, rates, fraction=1.0)
    try:
        twin_lnl = twin.full_traversals(1)
        expected = [encode(op(twin))
                    for op in operations(kind, twin.tree, seed, geometry)]
    finally:
        twin.close()
    return {
        "reference_lnl": reference.hex(),
        "twin_lnl": twin_lnl.hex(),
        "reference_rel_err": abs(twin_lnl - reference) / abs(reference),
        "expected": expected,
        "probe_s": SpeedProbe().steady(),
        "cpu_s": time.process_time(),
    }


# -- building one engine ---------------------------------------------------------------


def _make_backing(spec: Workload, layout, geometry: dict, workdir: str):
    if spec.backing == "memory":
        return MemoryBackingStore.from_layout(layout)
    if spec.backing == "file":
        return FileBackingStore.from_layout(
            os.path.join(workdir, "vectors.bin"), layout)
    disk = getattr(DiskModel, geometry["disk"])()
    if spec.backing == "simulated":
        return SimulatedDiskBackingStore.from_layout(layout, disk=disk, sleep=True)
    return ShardedBackingStore.from_layout(
        os.path.join(workdir, "shards"), layout, num_shards=2,
        kind="simulated", disk=(disk.access_latency, disk.bandwidth), sleep=True)


def build_engine(spec: Workload, data, geometry: dict, workdir: str,
                 recorder: tracing.SpanRecorder | None = None) -> LikelihoodEngine:
    """Backing + engine for ``spec``, its scratch files under ``workdir``.

    With a ``recorder`` the backing is wrapped in the pass-through timing
    store; nothing else differs from the untraced build.
    """
    tree, alignment, model, rates = data
    kwargs = dict(spec.engine)
    clv_shape = (alignment.compress().num_patterns, rates.num_categories,
                 model.num_states)
    kind = kwargs.pop("layout", "whole")
    layout = make_layout(
        kind, tree.num_inner, clv_shape,
        block_sites=geometry["block_sites"] if kind == "block" else None)
    os.makedirs(workdir, exist_ok=True)
    backing = _make_backing(spec, layout, geometry, workdir)
    if recorder is not None:
        backing = tracing.timing_backing(backing, recorder)
    try:
        return LikelihoodEngine(tree.copy(), alignment, model, rates,
                                layout=layout, backing=backing, **kwargs)
    except BaseException:
        backing.close()
        raise


# -- running passes ------------------------------------------------------------------------


def _counters(engine) -> dict:
    row = engine.stats.as_row()
    return {key: int(row[key]) for key in COUNTERS}


class _Checker:
    """Counts operations and those that raised or differ from the twin."""

    def __init__(self, expected: list) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.first_failures: list[str] = []

    def run(self, index: int, op, engine):
        """Run one op; returns its encoded result (or the error text)."""
        self.attempted += 1
        try:
            got = encode(op(engine))
        except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
            got = f"{type(exc).__name__}: {exc}"
        want = self.expected[index % len(self.expected)]
        if got != want:
            self.failed += 1
            if len(self.first_failures) < 5:
                self.first_failures.append(f"op {index}: got {got}, twin {want}")
        return got


def _run_pass(engine, ops, checker: _Checker, first_op: int, *,
              recorder: tracing.SpanRecorder | None = None,
              probe: SpeedProbe | None = None, probe_ops: bool = False) -> dict:
    """One pass: every op, then the drain barrier.

    ``wall_raw_s`` is the ops plus the drain, as measured. With a
    ``probe`` the pass also gets ``wall_s``, its time at nominal speed:
    the probe runs before and after the pass — and, with ``probe_ops``,
    between ops, which is only harmless when nothing works in the
    background — and each stretch is calibrated by the probes around it.
    Probe time is in neither number.
    """
    before = _counters(engine)
    op_s: list[float] = []
    moves = 0
    raw = cpu = calibrated = 0.0
    stretch_wall = stretch_cpu = 0.0     # not yet calibrated
    last_probe = probe() if probe is not None else 0.0
    with (recorder.span("driver.pass") if recorder is not None
          else contextlib.nullcontext()):
        for i, op in enumerate(ops):
            if recorder is not None:
                recorder.op = first_op + i
            with _Interval() as took, (
                    recorder.span("driver.op") if recorder is not None
                    else contextlib.nullcontext()):
                got = checker.run(first_op + i, op, engine)
            op_s.append(took.wall)
            raw += took.wall
            cpu += took.cpu
            stretch_wall += took.wall
            stretch_cpu += took.cpu
            if isinstance(got, list):
                moves += got[2]          # an SPR slice reports moves_evaluated
            if probe is not None and probe_ops:
                now = probe()
                calibrated += at_nominal_speed(stretch_wall, stretch_cpu,
                                               (last_probe + now) / 2)
                stretch_wall = stretch_cpu = 0.0
                last_probe = now
        with _Interval() as took:
            engine.store.drain()
        raw += took.wall
        cpu += took.cpu
        stretch_wall += took.wall
        stretch_cpu += took.cpu
    after = _counters(engine)
    out = {"wall_raw_s": raw, "cpu_s": cpu, "op_s": op_s, "moves": moves,
           "counters": {k: after[k] - before[k] for k in COUNTERS}}
    if probe is not None:
        out["wall_s"] = calibrated + at_nominal_speed(
            stretch_wall, stretch_cpu, (last_probe + probe()) / 2)
    return out


def _quartiles(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


class _Runner:
    """Owns the engine of one phase: set-up, passes, guaranteed tear-down."""

    def __init__(self, spec: Workload, data, geometry: dict, seed: int,
                 workdir: str, recorder: tracing.SpanRecorder | None) -> None:
        self.spec, self.data, self.geometry = spec, data, geometry
        self.workdir = workdir
        self.recorder = recorder
        self.probe = SpeedProbe()
        self.ops = operations(spec.kind, data[0], seed, geometry, spec.traversals)
        self.engine: LikelihoodEngine | None = None
        self._builds = 0

    def build(self) -> LikelihoodEngine:
        """A fresh engine on a fresh scratch directory, first traversal done."""
        self.close()
        self._builds += 1
        self.engine = build_engine(
            self.spec, self.data, self.geometry,
            os.path.join(self.workdir, f"e{self._builds}"), self.recorder)
        if self.spec.fresh_engine:
            # The search starts from an evaluated tree; the operation
            # list was drawn on the same topology (a copy of data[0]).
            self.engine.full_traversals(1)
            self.engine.store.drain()
        return self.engine

    def close(self) -> None:
        engine, self.engine = self.engine, None
        if engine is not None:
            try:
                engine.close()
            finally:
                shutil.rmtree(os.path.join(self.workdir, f"e{self._builds}"),
                              ignore_errors=True)

    def setup(self, warm_checker: _Checker) -> list[dict]:
        """Build + warm pass, repeated for a median; leaves the last engine."""
        samples: list[dict] = []
        last_probe = self.probe.steady()
        while True:
            with _Interval() as took:
                engine = self.build()
                _run_pass(engine, self.ops, warm_checker, 0)
            now = self.probe.steady()
            samples.append({"raw_s": took.wall, "s": at_nominal_speed(
                took.wall, took.cpu, (last_probe + now) / 2)})
            last_probe = now
            if (len(samples) >= SETUP_REPEATS
                    or sum(s["raw_s"] for s in samples) >= SETUP_BUDGET_S):
                return samples

    def timed_pass(self, checker: _Checker, index: int, *,
                   traced: bool = False, calibrate: bool = True) -> dict:
        if self.spec.fresh_engine:
            self.build()
        assert self.engine is not None
        first_op = index * len(self.ops)
        if not traced:
            return _run_pass(self.engine, self.ops, checker, first_op,
                             probe=self.probe if calibrate else None,
                             probe_ops=self.spec.synchronous)
        rec = self.recorder
        assert rec is not None
        with contextlib.ExitStack() as stack:
            tracing.install_module_wrappers(rec, stack)
            tracing.install_engine_wrappers(rec, self.engine, stack)
            rec.enabled = True
            try:
                return _run_pass(self.engine, self.ops, checker, first_op,
                                 recorder=rec)
            finally:
                rec.enabled = False


def _rates(passes: list[dict]) -> dict:
    total = {k: sum(p["counters"][k] for p in passes) for k in COUNTERS}
    req = max(total["requests"], 1)
    moved = total["bytes_read"] + total["bytes_written"] + total["prefetch_bytes"]
    return {
        "miss_rate": total["misses"] / req,
        "hit_rate": total["hits"] / req,
        "read_rate": total["reads"] / req,
        "backing_mb_per_pass": moved / len(passes) / 1e6,
    }


def _percentile(values: list[float], pct: float) -> float:
    return float(np.percentile(np.asarray(values), pct))


def _op_latency(passes: list[dict]) -> dict:
    """Median and the highest percentile with at least ten samples beyond."""
    ops = [s for p in passes for s in p["op_s"]]
    tail_pct = max(50.0, 100.0 * (1.0 - 10.0 / len(ops)))
    return {"driver.op_p50_ms": 1e3 * _percentile(ops, 50.0),
            "driver.op_tail_ms": 1e3 * _percentile(ops, tail_pct),
            "driver.op_tail_pct": tail_pct, "ops": len(ops)}


def untraced_phase(runner: _Runner, expected: list, seconds: float,
                   min_passes: int) -> dict:
    """Set-up, then timed passes with tracing off and nothing attached."""
    warm = _Checker(expected)
    setup_samples = runner.setup(warm)
    gc.collect()
    checker = _Checker(expected)
    passes: list[dict] = []
    t0 = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - t0 < seconds:
        passes.append(runner.timed_pass(checker, len(passes)))
    counts_repeat = all(p["counters"] == passes[0]["counters"] for p in passes)
    return {
        "setup_engine": setup_samples,
        "passes": passes,
        "wall_s": _quartiles([p["wall_s"] for p in passes]),
        "wall_raw_s": _quartiles([p["wall_raw_s"] for p in passes]),
        "cpu_s": _quartiles([p["cpu_s"] for p in passes]),
        **_rates(passes),
        **_op_latency(passes),
        "counters_per_pass": passes[0]["counters"] if counts_repeat else None,
        "counts_repeat": counts_repeat,
        "attempted": checker.attempted + warm.attempted,
        "failed": checker.failed + warm.failed,
        "first_failures": (warm.first_failures + checker.first_failures)[:5],
    }


def traced_phase(runner: _Runner, expected: list, traced_passes: int,
                 trace_out: str | None) -> dict:
    """Set-up with the timing backing, base passes, then traced passes."""
    rec = runner.recorder
    assert rec is not None
    warm = _Checker(expected)
    runner.setup(warm)
    gc.collect()
    checker = _Checker(expected)
    base = [runner.timed_pass(checker, i, calibrate=False)
            for i in range(TRACE_BASE_PASSES)]
    passes = [runner.timed_pass(checker, TRACE_BASE_PASSES + i, traced=True)
              for i in range(traced_passes)]
    backing = runner.engine.store.backing if runner.engine else None
    restarts = backing.restarts() if hasattr(backing, "restarts") else None
    budget = tracing.layer_budget(rec)
    if trace_out:
        rec.dump(trace_out)
    walls = [p["wall_raw_s"] for p in passes]
    chosen = passes[budget["chosen"]]
    metrics = layer_metrics(runner.spec, budget, chosen, restarts)
    metrics["driver.wall_raw_s"] = statistics.median(walls)
    metrics["driver.trace_overhead_ratio"] = (
        statistics.median(walls)
        / statistics.median(p["wall_raw_s"] for p in base))
    metrics.update({k: v for k, v in _op_latency(passes).items() if k != "ops"})
    rates = _rates(base + passes)
    metrics.update({k: rates[k] for k in
                    ("miss_rate", "read_rate", "backing_mb_per_pass")})
    failed = checker.failed + warm.failed
    attempted = checker.attempted + warm.attempted
    metrics["op_fail_frac"] = failed / attempted
    return {
        "passes": len(passes),
        "wall_raw_s": _quartiles(walls),
        "base_wall_raw_s": _quartiles([p["wall_raw_s"] for p in base]),
        "counters_per_pass": chosen["counters"],
        "budget_self_s": budget["self_s"],
        "budget_pass_wall_s": budget["pass_wall_s"],
        "spans": budget["span"],
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "first_failures": (warm.first_failures + checker.first_failures)[:5],
    }


def layer_metrics(spec: Workload, budget: dict, chosen_pass: dict,
                  restarts: int | None) -> dict:
    """The per-layer metrics of one traced pass; ``None`` means undefined
    on this workload (no such traffic), which is not the same as zero."""
    span, every, self_s = budget["span"], budget["all_threads"], budget["self_s"]
    wall = budget["pass_wall_s"]
    counters = chosen_pass["counters"]

    def get(table: dict, name: str, key: str) -> float:
        return table[name][key] if name in table else 0

    def ratio(num: float, den: float) -> float | None:
        return num / den if den else None

    kernel_rows = [row for name, row in span.items() if name.startswith("kernels.")]
    updates = sum(row["size"] for row in kernel_rows)
    gets = get(span, "store.get", "calls")
    vec_self = get(span, "store.get", "self_s") + get(span, "store.fill", "self_s")
    read_s, write_s = (get(every, f"backing.{op}", "total_s")
                       for op in ("read", "write"))
    blocking = self_s["backing"]
    is_async = not spec.synchronous
    moves = chosen_pass["moves"] if spec.kind == "spr" else None
    requests = budget["durations"].get("backing.read", []) + \
        budget["durations"].get("backing.write", [])
    return {
        "driver.cpu_s": chosen_pass["cpu_s"],
        "driver.unaccounted_frac": budget["unaccounted_frac"],
        "traversal.plan_s": get(span, "engine.plan", "total_s"),
        "traversal.plans": get(span, "engine.plan", "calls"),
        "traversal.steps": get(span, "engine.plan", "size"),
        "schedule.build_s": get(span, "schedule.build_batched_schedule", "total_s"),
        "schedule.builds": get(span, "schedule.build_batched_schedule", "calls"),
        "engine.execute_s": get(span, "engine.execute_plan", "total_s"),
        "engine.self_s": self_s["engine"],
        "kernels.busy_s": self_s["kernels"],
        "kernels.calls": sum(row["calls"] for row in kernel_rows),
        "kernels.pattern_updates": updates,
        "kernels.mpups": ratio(updates / 1e6, self_s["kernels"]),
        "branch_opt.self_s": self_s["branch_opt"],
        "branch_opt.calls": get(span, "engine.optimize_branch", "calls"),
        "search.moves": moves,
        "search.moves_per_s": ratio(moves, wall) if moves else None,
        "search.self_s": self_s["search"],
        "vecstore.get_s": get(span, "store.get", "total_s"),
        "vecstore.gets": gets,
        "vecstore.self_s": vec_self,
        "vecstore.self_us_per_get": ratio(1e6 * vec_self, gets),
        "vecstore.hits": counters["hits"],
        "vecstore.misses": counters["misses"],
        "vecstore.read_skips": counters["read_skips"],
        "vecstore.drain_s": get(span, "store.drain", "total_s"),
        "policies.choose_s": get(span, "policy.choose_victim", "total_s"),
        "policies.choose_calls": get(span, "policy.choose_victim", "calls"),
        "policies.candidates_mean": ratio(
            get(span, "policy.choose_victim", "size"),
            get(span, "policy.choose_victim", "calls")),
        "backing.read_s": read_s,
        "backing.reads": get(every, "backing.read", "calls"),
        "backing.write_s": write_s,
        "backing.writes": get(every, "backing.write", "calls"),
        "backing.read_mb_s": ratio(get(every, "backing.read", "size") / 1e6, read_s),
        "backing.write_mb_s": ratio(get(every, "backing.write", "size") / 1e6, write_s),
        "backing.blocking_s": blocking,
        "writebehind.writes": counters["writeback_writes"] if is_async else None,
        "writebehind.stalls": counters["writeback_stalls"] if is_async else None,
        "writebehind.read_hits": counters["writeback_read_hits"] if is_async else None,
        "writebehind.blocking_s": self_s["writebehind"] if is_async else None,
        "writebehind.hidden_frac": (
            ratio(read_s + write_s - blocking, read_s + write_s)
            if is_async else None),
        "prefetch.reads": counters["prefetch_reads"] if is_async else None,
        "prefetch.hits": counters["prefetch_hits"] if is_async else None,
        "prefetch.unused": counters["prefetch_unused"] if is_async else None,
        "prefetch.useful_frac": (
            ratio(counters["prefetch_hits"], counters["prefetch_reads"])
            if is_async else None),
        "sharded.req_p50_us": (1e6 * _percentile(requests, 50.0)
                               if restarts is not None and requests else None),
        "sharded.restarts": restarts,
    }


# -- the workload process --------------------------------------------------------------------


def _sizes(engine: LikelihoodEngine) -> dict:
    return {
        "patterns": engine.num_patterns,
        "vector_kb": engine.ancestral_vector_bytes() / 1e3,
        "all_vectors_mb": engine.total_ancestral_bytes() / 1e6,
        "slots": engine.store.num_slots,
        "items": engine.store.num_items,
        "slots_mb": engine.store.ram_bytes() / 1e6,
    }


def _peak_rss_mb() -> float:
    """This process's high-water mark plus the largest reaped child's
    (shard workers are reaped by ``engine.close()``)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def run_workload(name: str, seed: int, geometry_name: str, expected: list,
                 workdir: str, seconds: float, min_passes: int,
                 traced_passes: int, trace_out: str | None,
                 started: float) -> dict:
    """Everything one workload process does; returns its JSON document.

    ``started`` is the ``perf_counter`` reading at the top of the process.
    """
    spec = BY_NAME[name]
    geometry = GEOMETRIES[geometry_name]
    data = dataset(seed, geometry)
    runner = _Runner(spec, data, geometry, seed, workdir, None)
    # Process start to here: interpreter, imports, dataset.
    begin = {"raw_s": time.perf_counter() - started, "cpu_s": time.process_time()}
    begin["s"] = at_nominal_speed(begin["raw_s"], begin["cpu_s"],
                                  runner.probe.steady())
    doc: dict = {"workload": name, "seed": seed, "geometry": geometry_name,
                 "setup_begin": begin}
    try:
        if seconds > 0 or min_passes > 0:
            doc["untraced"] = untraced_phase(runner, expected, seconds, min_passes)
            doc["sizes"] = _sizes(runner.engine)
        runner.close()
        # Read before the traced phase: spans in memory are not the engine's.
        doc["peak_rss_mb"] = _peak_rss_mb()
        if traced_passes > 0:
            runner = _Runner(spec, data, geometry, seed, workdir,
                             tracing.SpanRecorder())
            doc["traced"] = traced_phase(runner, expected, traced_passes, trace_out)
            doc["sizes"] = _sizes(runner.engine)
    finally:
        runner.close()
        shutil.rmtree(workdir, ignore_errors=True)
    # Shard workers are children of this process: none may outlive close().
    deadline = time.perf_counter() + 2.0
    while multiprocessing.active_children() and time.perf_counter() < deadline:
        time.sleep(0.02)
    doc["leaked_children"] = len(multiprocessing.active_children())
    return doc
