"""One oracle × the configuration matrix (ROADMAP 4a, reduced).

Every cell is an :class:`~repro.config.EngineConfig` dict splatted into
the engine constructor: {substitution/rate model} × {layout, block size} ×
{group cap} × {dtype}. Each cell must agree with the independent
store-free oracle (``tests/oracle.py``) to 1e-9 relative — float32 to an
explicit per-site bound — and, bit for bit, with the whole-vector in-core
cell of its own dtype: same lnL hex, same scale counters (§4.1 across
configurations; it rests on the kernels' GEMM being row-independent, see
``tests/test_kernels.py::TestRowIndependence``).

Two slices cross one model row with the store's own axes: the write side
({backing} × {write-behind} × {dirty tracking}: every eviction accounted
as exactly one write or one write skip) and the read side ({replacement
strategy} × {prefetch}: every request one hit or one miss). Both keep
the in-core twin's lnL hex.

The paper's evaluation grid (§4: Fig. 2 miss rates, Fig. 3 read
skipping, Fig. 5 against OS paging, §4.3 lazy SPR) is fourteen *pinned*
cells on one 12-taxon dataset: each cell's lnL, parity counters, rates
and modelled device figures are held to ``fixtures/matrix_pin.json``
(:func:`write_matrix_pin`), the registry must equal ``IoStats`` wherever
the store takes an observer, and the batched, compressed and sharded
twins must reproduce their partner bit for bit.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro import (
    GTR,
    JC69,
    Alignment,
    DiskModel,
    EngineConfig,
    LikelihoodEngine,
    PagedStandardStore,
    Poisson,
    RateModel,
    Tree,
    clv_geometry,
    simulate_alignment,
    yule_tree,
)
from repro.config import POLICIES
from repro.core.backing import MemoryBackingStore
from repro.core.faults import FaultInjectingBackingStore
from repro.core.stats import PARITY_COUNTERS, IoStats
from repro.core.vecstore import AncestralVectorStore
from repro.obs import Observer
from repro.phylo.alphabet import DNA
from repro.phylo.search import lazy_spr_round
from tests.oracle import (
    FLOAT32_SITE_BOUND,
    jc69_star_lnl,
    oracle_lnl,
    pectinate_tree,
)
from tests.test_async_io import GatedBackingStore


@functools.lru_cache(maxsize=None)
def _dataset(name: str):
    """``(tree, alignment, model, rates)`` of one model row."""
    gtr = GTR((1.0, 2.5, 1.2, 0.8, 3.0, 1.0), (0.3, 0.2, 0.25, 0.25))
    if name == "protein-G4":
        tree = yule_tree(6, seed=811)
        freqs = np.linspace(1.0, 3.0, 20)
        model = Poisson(freqs / freqs.sum())
        rates = RateModel.gamma(1.0, 4)
        return tree, simulate_alignment(tree, model, 90, rates=rates,
                                        seed=812), model, rates
    if name == "dna-G4-deep":
        # 150 taxa in a caterpillar: float64's 2^-256 rescale engages too.
        tree = pectinate_tree(150, 0.5)
        rates = RateModel.gamma(1.0, 4)
        return tree, simulate_alignment(tree, JC69(), 70, rates=rates,
                                        seed=813), JC69(), rates
    rates = {"dna-G4": RateModel.gamma(0.8, 4),
             "dna-G4+I": RateModel.gamma_invariant(0.8, 0.1, 4),   # C·S = 20
             "dna-1cat": RateModel.uniform()}[name]
    tree = yule_tree(10, seed=801)
    aln = simulate_alignment(tree, gtr, 220, rates=RateModel.gamma(0.8, 4),
                             seed=802)
    return tree, aln, gtr, rates


def _exercise(engine: LikelihoodEngine):
    """``(lnL after two full traversals and a re-rooting, scale counters)``."""
    engine.full_traversals(2)
    far = max(engine.tree.edges())          # an edge away from tip 0
    engine.edge_loglikelihood(*far)
    lnl = engine.edge_loglikelihood(*engine.default_edge())
    return lnl, engine.scale_counts.copy()


def _evaluate(name: str, **config):
    tree, aln, model, rates = _dataset(name)
    engine = LikelihoodEngine(tree.copy(), aln, model, rates, **config)
    try:
        return _exercise(engine)
    finally:
        engine.close()


@functools.lru_cache(maxsize=None)
def _reference(name: str, dtype: str):
    """The whole-vector, every-vector-resident, groups-of-one cell."""
    return _evaluate(name, dtype=dtype)


@functools.lru_cache(maxsize=None)
def _oracle(name: str) -> float:
    return oracle_lnl(*_dataset(name))


def _ragged_one(name: str) -> int:
    """A block size that leaves a last block of exactly one pattern."""
    patterns = _dataset(name)[1].compress().num_patterns
    return next(b for b in range(5, patterns) if patterns % b == 1)


LAYOUTS = {
    "whole": lambda name: {"layout": "whole"},
    "block64": lambda name: {"layout": "block", "block_sites": 64},
    "block7": lambda name: {"layout": "block", "block_sites": 7},
    "ragged1": lambda name: {"layout": "block",
                             "block_sites": _ragged_one(name)},
}


MODELS = ["dna-G4", "dna-G4+I", "dna-1cat", "protein-G4", "dna-G4-deep"]
BATCHES = [0, -1]
DTYPES = ["float64", "float32"]


def _cell(name: str, layout: str, batch: int, dtype: str) -> dict:
    return {"fraction": 0.5, "batch": batch, "dtype": dtype,
            **LAYOUTS[layout](name)}


def cells(name: str) -> list[dict]:
    """Every configuration cell of model row ``name``."""
    return [_cell(name, layout, batch, dtype) for layout in LAYOUTS
            for batch in BATCHES for dtype in DTYPES]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("name", MODELS)
def test_cell_matches_oracle_and_in_core_twin(name, layout, batch, dtype):
    lnl, counts = _evaluate(name, **_cell(name, layout, batch, dtype))
    oracle = _oracle(name)
    if dtype == "float64":
        assert abs(lnl - oracle) <= 1e-9 * abs(oracle)
    else:
        sites = _dataset(name)[1].num_sites
        assert abs(lnl - oracle) <= FLOAT32_SITE_BOUND * sites
    ref_lnl, ref_counts = _reference(name, dtype)
    assert lnl.hex() == ref_lnl.hex()
    assert np.array_equal(counts, ref_counts)


def test_deep_row_exercises_float64_rescaling():
    """The matrix's counter equality is vacuous unless something rescaled."""
    rescaled64 = _reference("dna-G4-deep", "float64")[1].sum()
    assert 0 < rescaled64 < _reference("dna-G4-deep", "float32")[1].sum()


# -- the write side: backing × write-behind × dirty tracking ----------------

def _faulty(geometry) -> dict:
    """A seeded fault schedule on every transfer, absorbed by retries."""
    backing = FaultInjectingBackingStore(
        MemoryBackingStore(*geometry), seed=27, read_error_rate=0.3,
        write_error_rate=0.3, short_read_rate=0.1, short_write_rate=0.1)
    return {"backing": backing, "backing_retries": 12}


BACKINGS = {
    "memory": lambda geometry: {"backing": "memory"},
    "file": lambda geometry: {"backing": "file"},
    "compressed": lambda geometry: {"backing": "compressed"},
    "faulty": _faulty,
}


@pytest.mark.parametrize("track_dirty", [True, False])
@pytest.mark.parametrize("writeback_depth", [0, 4])
@pytest.mark.parametrize("backing", list(BACKINGS))
def test_write_side_cell(backing, writeback_depth, track_dirty, tmp_path):
    """Every eviction is one write or one write skip, and skipping the
    write of a clean victim changes no bit of the likelihood."""
    name = "dna-G4"
    tree, aln, model, rates = _dataset(name)
    config = {"fraction": 0.5, "writeback_depth": writeback_depth,
              **BACKINGS[backing](clv_geometry(tree, aln, model, rates))}
    engine = LikelihoodEngine(tree.copy(), aln, model, rates,
                              workdir=tmp_path, track_dirty=track_dirty,
                              **config)
    obs = Observer().attach(engine)
    try:
        lnl, _ = _exercise(engine)
        engine.store.drain()
        stats = engine.stats
    finally:
        engine.close()
    assert lnl.hex() == _reference(name, "float64")[0].hex()
    evictions = obs.spans.by_name()["evict"]
    assert stats.writes + stats.write_skips == evictions > 0
    assert (stats.write_skips > 0) == track_dirty
    if backing == "faulty":
        assert config["backing"].faults_injected > 0


def test_clean_eviction_of_a_vector_read_from_staging_reaches_the_backing():
    """"Clean" is relative to the write-behind staging buffer there: the
    backing has not received the vector yet when its clean slot is
    evicted, and it must still arrive once the queue drains."""
    n, shape = 6, (4,)
    gated = GatedBackingStore(MemoryBackingStore(n, shape))
    store = AncestralVectorStore(n, shape, num_slots=3, backing=gated,
                                 writeback_depth=8)
    try:
        for item in range(3):
            store.get(item, write_only=True)[:] = item + 10.0
        gated.gate.clear()                    # writes block: 0 stays staged
        store.get(3, write_only=True)         # evicts 0 (dirty): staged
        assert gated.write_started.wait(10.0)
        np.testing.assert_array_equal(store.get(0), 10.0)
        assert store.stats.writeback_read_hits == 1
        for item in (4, 5, 1):                # evict 2, 3, then 0 (clean)
            store.get(item, write_only=True)
        assert not store.is_resident(0)
        assert store.stats.write_skips == 1
        gated.gate.set()
        store.drain()
        out = np.empty(shape)
        gated.inner.read(0, out)
        np.testing.assert_array_equal(out, 10.0)
    finally:
        gated.gate.set()
        store.close()


# -- the read side: replacement strategy × prefetch -------------------------

@pytest.mark.parametrize("prefetch_depth", [0, 3])
@pytest.mark.parametrize("policy", POLICIES)
def test_policy_prefetch_cell(policy, prefetch_depth):
    """Whatever the victim choice and whether the prefetch workers run,
    the vectors are the in-core twin's, and every demand request is one
    hit or one miss (skipped reads poisoned, so a wrong skip shows)."""
    name = "dna-G4"
    tree, aln, model, rates = _dataset(name)
    engine = LikelihoodEngine(tree.copy(), aln, model, rates, fraction=0.5,
                              policy=policy, prefetch_depth=prefetch_depth,
                              poison_skipped_reads=True)
    try:
        lnl, counts = _exercise(engine)
    finally:
        engine.close()
    stats = engine.stats
    ref_lnl, ref_counts = _reference(name, "float64")
    assert lnl.hex() == ref_lnl.hex()
    assert np.array_equal(counts, ref_counts)
    assert stats.hits + stats.misses == stats.requests
    assert stats.misses > 0
    assert stats.prefetch_hits <= stats.prefetch_reads
    assert prefetch_depth or stats.prefetch_reads == 0


# -- the pinned cells: the paper's evaluation grid (§4) ----------------------

PIN_FIXTURE = Path(__file__).parent / "fixtures" / "matrix_pin.json"

#: The pinned cells' one dataset — small enough for every run, large
#: enough that every cell evicts, re-reads and (sharded) touches every
#: worker — and the cache fraction of every out-of-core cell.
PIN_TAXA, PIN_SITES, PIN_SEED, PIN_FRACTION = 12, 120, 42, 0.25

#: Relative lnL agreement with the pin: the oracle's constant. The lnL
#: hex is a same-machine property (BLAS build): it is pinned for the
#: reader and compared only between cells of one run.
LNL_RTOL = 1e-9

#: Held exactly, in either direction, beside the parity counters.
#: ``simulated_io_seconds`` and ``faults`` exist where the cell has a disk
#: model in-process (sums of modelled costs, not clock readings). The
#: compressed backing's physical bytes and ratio depend on the zlib build
#: and are never pinned.
RATES = ("miss_rate", "read_rate")
MODELLED = ("simulated_io_seconds", "faults")

FULL, SPR = "full_traversals(2)", "lazy_spr_round(radius=2)"
RUNS = {FULL: lambda engine: engine.full_traversals(2),
        SPR: lambda engine: lazy_spr_round(engine, radius=2).lnl}

_LRU = {"fraction": PIN_FRACTION, "seed": PIN_SEED}
_BLOCK = {**_LRU, "layout": "block", "block_sites": 64}
_HDD = {**_LRU, "backing": "simulated"}
_HDD_BLOCK = {**_BLOCK, "backing": "simulated"}

#: ``name -> (EngineConfig dict, run)``. ``None`` is Fig. 5's "standard
#: with paging" baseline: every vector in one demand-paged address space
#: with the same fraction of it in RAM, a store no configuration names.
PINNED = {
    "fig2_lru_whole": (_LRU, FULL),
    "fig2_random_whole": ({**_LRU, "policy": "random"}, FULL),
    "fig2_lru_block": (_BLOCK, FULL),
    "fig3_skip": (_LRU, FULL),
    "fig3_noskip": ({**_LRU, "read_skipping": False}, FULL),
    "fig5_ooc_whole": (_HDD, FULL),
    "fig5_ooc_block": (_HDD_BLOCK, FULL),
    # batch=-1: the automatic group cap, num_slots // 3.
    "fig5_ooc_whole_batch": ({**_HDD, "batch": -1}, FULL),
    "fig5_ooc_block_batch": ({**_HDD_BLOCK, "batch": -1}, FULL),
    "fig5_paging": (None, FULL),
    "fig5_ooc_compressed": ({**_LRU, "backing": "compressed"}, FULL),
    "fig5_ooc_sharded": ({**_LRU, "backing": "sharded", "shards": 4,
                          "writeback_depth": 8}, FULL),
    "spr_search_whole": (_LRU, SPR),
    "spr_search_block": (_BLOCK, SPR),
}
PAGING = {"fraction": PIN_FRACTION,
          "external": "store=PagedStandardStore over DiskModel.hdd()"}

#: Each twin runs its partner's access sequence through another execution
#: path or device, invisible to the paper's metrics: vectors round-trip
#: the codec and the wire exactly, and the demand counters are invariant
#: across write-behind and across backings *of equal declared read price*
#: by design, so the comparison is exact. A priced backing (the simulated
#: disk) lets a plan recompute an absent vector instead of reading it, so
#: its counters may differ from a free one's — but every twin here is a
#: full traversal, whose plans never ask for a price, and the search cells
#: run on the memory backing, which prices a read at 0.
TWINS = {
    "fig5_ooc_whole_batch": "fig5_ooc_whole",
    "fig5_ooc_block_batch": "fig5_ooc_block",
    "fig5_ooc_compressed": "fig5_ooc_whole",
    "fig5_ooc_sharded": "fig5_ooc_whole",
}


@functools.lru_cache(maxsize=None)
def _pin_dataset():
    tree = yule_tree(PIN_TAXA, seed=PIN_SEED, scale=0.1)
    model, rates = GTR(), RateModel.gamma(1.0, 4)
    alignment = simulate_alignment(tree, model, PIN_SITES, seed=PIN_SEED + 1)
    return tree, alignment, model, rates


def run_pinned(name: str, workdir: Path) -> dict:
    """One run of cell ``name``: its pin entry plus what only the run's
    gates read — ``registry`` (the observer's counters, where the store
    takes one) and ``physical_bytes`` (compressed backing).

    An engine is built from the configuration's recorded JSON block, so
    the pinned block alone rebuilds the cell.
    """
    config, run = PINNED[name]
    tree, alignment, model, rates = _pin_dataset()
    if config is None:
        block = PAGING
        num_inner, shape = clv_geometry(tree, alignment, model, rates)
        ram = max(4096, int(PIN_FRACTION * num_inner * int(np.prod(shape)) * 8))
        engine = LikelihoodEngine(
            tree.copy(), alignment, model, rates, store=PagedStandardStore(
                num_inner, shape, ram_bytes=ram, disk=DiskModel.hdd()))
    else:
        block = EngineConfig(**config).to_dict()
        workdir.mkdir(parents=True)
        engine = LikelihoodEngine(tree.copy(), alignment, model, rates,
                                  EngineConfig.from_dict(block),
                                  workdir=workdir)
    store = engine.store
    obs = Observer().attach(engine) if hasattr(store, "attach") else None
    try:
        lnl = float(RUNS[run](engine))
        if config is not None:
            store.drain()
        stats = engine.stats
        row = stats.as_row()
        cell = {"config": block, "run": run, "lnl": lnl, "lnl_hex": lnl.hex(),
                "counters": {key: int(row[key]) for key in PARITY_COUNTERS},
                "miss_rate": float(stats.miss_rate),
                "read_rate": float(stats.read_rate)}
        if config is None:
            cell["simulated_io_seconds"] = float(store.simulated_seconds)
            cell["faults"] = int(store.faults)
        elif block["backing"] == "simulated":
            cell["simulated_io_seconds"] = float(store.backing.simulated_seconds)
        elif block["backing"] == "compressed":
            cell["physical_bytes"] = int(store.backing.stored_bytes_written)
        if obs is not None:
            snap = obs.metrics.snapshot()["counters"]
            cell["registry"] = {key: snap.get(key) for key in PARITY_COUNTERS}
    finally:
        if obs is not None:
            obs.detach(engine)
        engine.close()
    return cell


def write_matrix_pin():
    """Writes the pin: ``PYTHONPATH=src:. python -c "from
    tests.test_oracle_matrix import write_matrix_pin as w; w()"``, run at
    the commit after 7630ee3 that made these cells the evaluation grid's
    only check. Its values equal, field for field, those 7630ee3 recorded
    in its results document. Rewrite it only in a change that says why
    and shows which cells moved."""
    with tempfile.TemporaryDirectory() as root:
        runs = {name: run_pinned(name, Path(root) / name) for name in PINNED}
    cells = {name: {key: value for key, value in run.items()
                    if key not in ("registry", "physical_bytes")}
             for name, run in runs.items()}
    PIN_FIXTURE.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")


def _read_pin() -> dict:
    return json.loads(PIN_FIXTURE.read_text())


def pin_differences(name: str, got: dict, pin: dict) -> list[str]:
    """What of cell ``name``'s run ``got`` breaks the ``pin``: a cell
    missing from either side, a changed configuration, an lnL beyond
    :data:`LNL_RTOL`, or any counter, rate or modelled figure not equal
    to its pin — fewer misses is as much a change of behaviour as more."""
    if name not in pin or name not in PINNED:
        return [f"{name}: not a pinned cell in both the pin and PINNED"]
    want = pin[name]
    if (got["config"], got["run"]) != (want["config"], want["run"]):
        return [f"{name}: config changed: rewrite the pin "
                "(write_matrix_pin) in the same change"]
    differences = []
    if abs(got["lnl"] - want["lnl"]) > LNL_RTOL * abs(want["lnl"]):
        differences.append(f"{name}: lnl {want['lnl']!r} -> {got['lnl']!r}")
    exact = [(f"counters.{key}", got["counters"][key], want["counters"][key])
             for key in PARITY_COUNTERS]
    exact += [(key, got.get(key), want.get(key)) for key in RATES + MODELLED]
    return differences + [f"{name}: {field} {b!r} -> {c!r}"
                          for field, c, b in exact if c != b]


def twin_differences(got: dict, want: dict) -> list[str]:
    """Where a twin's run is not its partner's, bit for bit."""
    differences = []
    if got["lnl_hex"] != want["lnl_hex"]:
        differences.append(f"lnl_hex {want['lnl_hex']} -> {got['lnl_hex']}")
    return differences + [f"counters.{key}" for key in PARITY_COUNTERS
                          if got["counters"][key] != want["counters"][key]]


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    """Every pinned cell, run once for the module."""
    root = tmp_path_factory.mktemp("pinned")
    return {name: run_pinned(name, root / name) for name in PINNED}


@pytest.mark.parametrize("name", list(PINNED))
def test_pinned_cell_matches_its_pin(pinned, name):
    differences = pin_differences(name, pinned[name], _read_pin())
    assert not differences, differences


def test_the_pin_holds_exactly_the_cells():
    """Every cell pinned once, with the fields its run reports: the
    modelled figures where a disk model is in-process, nothing
    host-dependent anywhere."""
    pin = _read_pin()
    assert list(pin) == sorted(PINNED)
    for name, entry in pin.items():
        if name == "fig5_paging":
            modelled = MODELLED
        elif entry["config"]["backing"] == "simulated":
            modelled = ("simulated_io_seconds",)
        else:
            modelled = ()
        assert set(entry) == {"config", "run", "lnl", "lnl_hex", "counters",
                              *RATES, *modelled}, name
        assert entry["lnl"].hex() == entry["lnl_hex"], name
        assert list(entry["counters"]) == sorted(PARITY_COUNTERS), name
    layouts = {entry["config"].get("layout") for entry in pin.values()}
    assert {"whole", "block"} <= layouts


@pytest.mark.parametrize("name", [n for n in PINNED if PINNED[n][0]])
def test_registry_equals_iostats(pinned, name):
    """A pinned cell doubles as an end-to-end test of the telemetry path."""
    assert pinned[name]["registry"] == pinned[name]["counters"]


def test_only_the_paging_cell_runs_unobserved(pinned):
    assert [n for n, cell in pinned.items() if "registry" not in cell] \
        == ["fig5_paging"]


@pytest.mark.parametrize("name", list(TWINS))
def test_twin_is_bit_identical_to_its_partner(pinned, name):
    differences = twin_differences(pinned[name], pinned[TWINS[name]])
    assert not differences, f"{name} vs {TWINS[name]}: {differences}"


def test_compressed_cell_writes_fewer_bytes_than_it_was_handed(pinned):
    """Otherwise compression costs I/O instead of saving it."""
    cell = pinned["fig5_ooc_compressed"]
    assert cell["physical_bytes"] < cell["counters"]["bytes_written"]


def test_fig5_cells_report_simulated_io(pinned):
    """Fig. 5 compares modelled I/O time, so each of its runs reports it."""
    for name in ("fig5_ooc_whole", "fig5_ooc_block", "fig5_paging"):
        assert pinned[name]["simulated_io_seconds"] >= 0, name


def test_read_skipping_cells(pinned):
    skip, noskip = pinned["fig3_skip"], pinned["fig3_noskip"]
    assert noskip["counters"]["reads"] > skip["counters"]["reads"]
    assert noskip["counters"]["read_skips"] == 0


# The gates fire: each rule flags the smallest change it is there for.

def test_pin_rule_finds_nothing_between_the_pin_and_itself():
    pin = _read_pin()
    for name in pin:
        assert pin_differences(name, pin[name], copy.deepcopy(pin)) == []


def test_pin_rule_flags_a_counter_moved_either_way():
    pin = _read_pin()
    name = "fig2_lru_whole"
    for delta in (-1, +1):
        moved = copy.deepcopy(pin)
        moved[name]["counters"]["misses"] += delta
        differences = pin_differences(name, pin[name], moved)
        assert len(differences) == 1
        assert "fig2_lru_whole: counters.misses" in differences[0]


@pytest.mark.parametrize("field", ["miss_rate", "simulated_io_seconds",
                                   "faults"])
def test_pin_rule_holds_rates_and_modelled_exactly(field):
    pin = _read_pin()
    moved = copy.deepcopy(pin)
    moved["fig5_paging"][field] = math.nextafter(pin["fig5_paging"][field],
                                                 math.inf)
    differences = pin_differences("fig5_paging", pin["fig5_paging"], moved)
    assert len(differences) == 1 and field in differences[0]


def test_pin_rule_holds_lnl_to_tolerance_not_to_the_bit():
    pin = _read_pin()
    name = "spr_search_whole"
    got = copy.deepcopy(pin[name])
    got["lnl"] = math.nextafter(got["lnl"], 0.0)      # another BLAS build
    assert pin_differences(name, got, pin) == []
    got["lnl"] = pin[name]["lnl"] * (1 + 1e-6)
    differences = pin_differences(name, got, pin)
    assert len(differences) == 1 and f"{name}: lnl" in differences[0]


def test_pin_rule_ignores_host_dependent_fields():
    pin = _read_pin()
    name = "fig5_ooc_compressed"
    got = {**pin[name], "physical_bytes": 1, "compression_ratio": 0.5}
    assert pin_differences(name, got, pin) == []


def test_pin_rule_fails_a_changed_config():
    pin = _read_pin()
    got = copy.deepcopy(pin["fig2_lru_whole"])
    got["config"]["fraction"] = 0.5
    got["counters"]["misses"] = 0
    assert pin_differences("fig2_lru_whole", got, pin) == [
        "fig2_lru_whole: config changed: rewrite the pin "
        "(write_matrix_pin) in the same change"]


def test_pin_rule_fails_a_cell_missing_from_either_side():
    pin = _read_pin()
    unpinned = {n: e for n, e in pin.items() if n != "fig3_skip"}
    assert pin_differences("fig3_skip", pin["fig3_skip"], unpinned)
    assert pin_differences("fig9", pin["fig3_skip"], {**pin, "fig9": {}})


def test_twin_rule_flags_one_nextafter_and_one_counter(pinned):
    partner = pinned["fig5_ooc_whole"]
    moved = copy.deepcopy(pinned["fig5_ooc_sharded"])
    moved["lnl_hex"] = math.nextafter(partner["lnl"], 0.0).hex()
    assert len(twin_differences(moved, partner)) == 1
    moved = copy.deepcopy(pinned["fig5_ooc_sharded"])
    moved["counters"]["writes"] += 1
    assert twin_differences(moved, partner) == ["counters.writes"]


def test_registry_check_sees_one_extra_miss(monkeypatch, tmp_path):
    real = IoStats.as_row

    def one_extra_miss(self):
        row = dict(real(self))
        row["misses"] += 1
        return row

    monkeypatch.setattr(IoStats, "as_row", one_extra_miss)
    cell = run_pinned("fig2_lru_whole", tmp_path / "cell")
    assert cell["counters"]["misses"] == cell["registry"]["misses"] + 1
    assert cell["registry"] != cell["counters"]


@pytest.mark.parametrize("lengths", [(0.1, 0.2, 0.3), (1e-6, 0.7, 2.5)])
def test_closed_form_jc69_on_three_taxa(lengths):
    sequences = ["ACGTACGTAAGGCCTTAC", "ACGTTCGAAAGCCGTTAA", "ACCTACGTTAGGCATTAC"]
    tree = Tree(3)
    for tip, t in enumerate(lengths):
        tree._connect(tip, 3, t)
    tree.validate()
    aln = Alignment.from_sequences(
        [(tree.names[i], s) for i, s in enumerate(sequences)], DNA)
    expected = jc69_star_lnl(sequences, list(lengths))
    assert oracle_lnl(tree, aln, JC69(), RateModel.uniform()) == \
        pytest.approx(expected, rel=1e-12)
    for config in ({}, {"layout": "block", "block_sites": 5, "batch": -1}):
        engine = LikelihoodEngine(tree.copy(), aln, JC69(),
                                  RateModel.uniform(), **config)
        try:
            assert engine.loglikelihood() == pytest.approx(expected, rel=1e-12)
        finally:
            engine.close()
