"""Ablation — single binary file vs. several files vs. RAM backing.

§3.2: "Although our implementation allows for storing individual vectors
in several files, we focus on single file performance, because the
performance differences for the two alternatives were minimal (data not
shown)." This bench shows that data: the same out-of-core workload timed
against a single file, 4 striped files, and an in-memory control —
with *real* file I/O through the OS.
"""

import pytest

from benchmarks.conftest import report
from repro import FileBackingStore, MultiFileBackingStore, MemoryBackingStore


def _run(engine):
    engine.invalidate_all()
    return engine.loglikelihood()


@pytest.fixture(scope="module")
def geometries(ds1288):
    return ds1288.geometry()


def test_backing_equivalence(benchmark, ds1288, geometries, tmp_path_factory):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    num_inner, shape = geometries
    reference = ds1288.engine().full_traversals(2)
    tmp = tmp_path_factory.mktemp("backing")
    configs = {
        "memory": MemoryBackingStore(num_inner, shape),
        "single-file": FileBackingStore(tmp / "single.bin", num_inner, shape),
        "multi-file(4)": MultiFileBackingStore(tmp / "multi", num_inner, shape,
                                               num_files=4),
    }
    lines = [f"{'backing':>14} {'lnL check':>10}"]
    for label, backing in configs.items():
        engine = ds1288.engine(fraction=0.25, policy="lru", backing=backing)
        lnl = engine.full_traversals(2)
        assert lnl == reference, label
        lines.append(f"{label:>14} {'exact':>10}")
        backing.close()
    report("ablation_backing_equivalence", lines)


@pytest.mark.parametrize("kind", ["memory", "single-file", "multi-file"])
def test_backing_throughput(benchmark, ds1288, geometries, tmp_path_factory, kind):
    """Real-I/O timing of one out-of-core evaluation per backing layout."""
    num_inner, shape = geometries
    tmp = tmp_path_factory.mktemp(f"bk_{kind}")
    if kind == "memory":
        backing = MemoryBackingStore(num_inner, shape)
    elif kind == "single-file":
        backing = FileBackingStore(tmp / "v.bin", num_inner, shape)
    else:
        backing = MultiFileBackingStore(tmp, num_inner, shape, num_files=4)
    engine = ds1288.engine(fraction=0.25, policy="lru", backing=backing)
    engine.loglikelihood()  # populate the backing store once

    result = benchmark.pedantic(lambda: _run(engine), rounds=3, iterations=1,
                                warmup_rounds=1)
    assert result < 0.0
    backing.close()
