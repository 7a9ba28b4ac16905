"""One oracle × the configuration matrix (ROADMAP 4a, reduced).

Every cell is an :class:`~repro.config.EngineConfig` dict splatted into
the engine constructor: {substitution/rate model} × {layout, block size} ×
{group cap} × {dtype}. Each cell must agree with the independent
store-free oracle (``tests/oracle.py``) to 1e-9 relative — float32 to an
explicit per-site bound — and, bit for bit, with the whole-vector in-core
cell of its own dtype: same lnL hex, same scale counters (§4.1 across
configurations; it rests on the kernels' GEMM being row-independent, see
``tests/test_kernels.py::TestRowIndependence``).
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro import (
    GTR,
    JC69,
    Alignment,
    LikelihoodEngine,
    Poisson,
    RateModel,
    Tree,
    simulate_alignment,
    yule_tree,
)
from repro.phylo.alphabet import DNA
from tests.oracle import (
    FLOAT32_SITE_BOUND,
    jc69_star_lnl,
    oracle_lnl,
    pectinate_tree,
)


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


def _evaluate(name: str, **config):
    """``(lnL after two full traversals and a re-rooting, scale counters)``."""
    tree, aln, model, rates = _dataset(name)
    engine = LikelihoodEngine(tree.copy(), aln, model, rates, **config)
    try:
        engine.full_traversals(2)
        far = max(engine.tree.edges())          # an edge away from tip 0
        engine.edge_loglikelihood(*far)
        lnl = engine.edge_loglikelihood(*engine.default_edge())
        return lnl, engine.scale_counts.copy()
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
