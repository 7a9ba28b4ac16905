"""The surface the frozen benchmark instrument (``benchmarks/ooc/``) uses.

The instrument is edited only together with its baselines, so a change
to ``src/`` must keep every name it imports and every call it makes.
This pins both at smoke size: a simplification that would break
``benchmarks/ooc/run.py`` fails here, in the tier-1 suite, instead of in
the benchmark run after the fact.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro import GTR, RateModel, simulate_alignment, yule_tree
from repro.core.layout import make_layout
from repro.core.sharded import ShardedBackingStore
from repro.phylo.likelihood.engine import LikelihoodEngine
from repro.vm.disk import DiskModel

OOC = Path(__file__).resolve().parents[1] / "benchmarks" / "ooc"


def _repro_imports():
    """``(file, module, name)`` for every ``from repro... import name`` of
    the instrument, at module level or inside a function."""
    found = []
    for path in sorted(OOC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "repro"):
                found.extend((path.name, node.module, alias.name)
                             for alias in node.names)
    return found


def test_the_instrument_imports_from_repro():
    modules = {module for _, module, _ in _repro_imports()}
    assert "repro.core.sharded" in modules
    assert "repro.phylo.likelihood.engine" in modules


@pytest.mark.parametrize("source,module,name", _repro_imports())
def test_every_imported_name_resolves(source, module, name):
    mod = importlib.import_module(module)
    assert hasattr(mod, name) or importlib.util.find_spec(
        f"{module}.{name}") is not None, f"{source}: {module}.{name}"


@pytest.fixture(scope="module")
def dataset():
    tree = yule_tree(10, seed=5, scale=0.1)
    model = GTR()
    rates = RateModel.gamma(1.0, 4)
    return tree, simulate_alignment(tree, model, 60, seed=6), model, rates


def test_sharded_engine_as_the_reroot_workload_builds_it(tmp_path, dataset):
    """``reroot_hdd_sharded``: a layout-sized two-shard store over a
    modelled disk, under write-behind and prefetch, bit-identical to the
    in-core twin."""
    tree, alignment, model, rates = dataset
    twin = LikelihoodEngine(tree.copy(), alignment, model, rates,
                            fraction=1.0)
    try:
        want = twin.full_traversals(1)
    finally:
        twin.close()
    clv_shape = (alignment.compress().num_patterns, rates.num_categories,
                 model.num_states)
    layout = make_layout("whole", tree.num_inner, clv_shape)
    disk = DiskModel.hdd()
    backing = ShardedBackingStore.from_layout(
        tmp_path / "shards", layout, num_shards=2, kind="simulated",
        disk=(disk.access_latency, disk.bandwidth), sleep=False)
    engine = LikelihoodEngine(tree.copy(), alignment, model, rates,
                              layout=layout, backing=backing, fraction=0.25,
                              policy="lru", writeback_depth=4,
                              prefetch_depth=2)
    try:
        assert engine.full_traversals(2) == want
        assert engine.stats.physical_writes > 0
    finally:
        engine.close()


def test_one_file_shard_as_the_layer_rows_drive_it(tmp_path):
    """``sharded.*`` layer rows: one file shard, blocking ``read`` /
    ``write`` and a ``read_batch`` whose tickets are waited on."""
    n, shape = 6, (3, 2, 4)
    store = ShardedBackingStore(tmp_path / "shards", n, shape, num_shards=1,
                                kind="file")
    try:
        data = {i: np.full(shape, float(i)) for i in range(n)}
        for item, values in data.items():
            store.write(item, values)
        out = np.empty(shape)
        store.read(2, out)
        np.testing.assert_array_equal(out, data[2])
        bufs = [np.empty(shape) for _ in range(n)]
        tickets = store.read_batch(list(enumerate(bufs)))
        for ticket in tickets:
            ticket.wait()
        assert all(ticket.done for ticket in tickets)
        for item, buf in enumerate(bufs):
            np.testing.assert_array_equal(buf, data[item])
    finally:
        store.close()
