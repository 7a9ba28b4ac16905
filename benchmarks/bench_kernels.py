"""Kernel throughput — the compute the out-of-core layer keeps fed.

"In all popular ML and Bayesian phylogenetic inference programs, the PLF
dominates both the overall execution time as well as the memory
requirements by typically 85%–95%" (§1). These benches measure the raw
numpy PLF kernels (CLV update, edge likelihood, sumtable + Newton
derivative) so the out-of-core swap costs in the other benches can be read
against the compute they overlap with.
"""

import numpy as np
import pytest

from repro import GTR, RateModel
from repro.phylo.alphabet import DNA
from repro.phylo.likelihood import kernels

PATTERNS = 4096
CATS = 4
MODEL = GTR((1, 2.5, 0.9, 1.1, 3.0, 1), (0.28, 0.22, 0.26, 0.24))
RATES = RateModel.gamma(0.8, CATS)


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(5)
    left = rng.uniform(0.1, 1.0, size=(PATTERNS, CATS, 4))
    right = rng.uniform(0.1, 1.0, size=(PATTERNS, CATS, 4))
    out = np.empty_like(left)
    counts = np.zeros(PATTERNS, dtype=np.int32)
    P = MODEL.transition_matrices(0.13, RATES.rates)
    codes = rng.integers(0, 15, size=PATTERNS) + 1
    return left, right, out, counts, P, codes


def test_clv_update_inner_inner(benchmark, operands):
    left, right, out, counts, P, _ = operands
    scheme = kernels.ScalingScheme()

    def run():
        counts.fill(0)
        kernels.update_clv(out, P, P, left, right, None, None,
                           DNA.code_matrix(), counts, scheme)

    benchmark(run)


def test_clv_update_tip_tip(benchmark, operands):
    _, _, out, counts, P, codes = operands
    scheme = kernels.ScalingScheme()
    cm = DNA.code_matrix()

    def run():
        counts.fill(0)
        kernels.update_clv(out, P, P, None, None, codes, codes, cm,
                           counts, scheme)

    benchmark(run)


def test_edge_likelihood(benchmark, operands):
    left, right, _, _, P, _ = operands

    def run():
        return kernels.edge_site_likelihoods(
            P, MODEL.frequencies, RATES.weights, left, right, None, None,
            DNA.code_matrix(),
        )

    site_l = benchmark(run)
    assert site_l.shape == (PATTERNS,)


def test_branch_sumtable_and_derivatives(benchmark, operands):
    left, right, _, _, _, _ = operands
    table = kernels.branch_sumtable(
        MODEL.eigenvectors, MODEL.inv_eigenvectors, MODEL.frequencies,
        left, right, None, None, DNA.code_matrix(),
    )
    pw = np.ones(PATTERNS)

    def run():
        return kernels.branch_lnl_and_derivatives(
            table, MODEL.eigenvalues, RATES.rates, RATES.weights, pw, 0.1
        )

    g, d1, d2 = benchmark(run)
    assert np.isfinite(d1) and np.isfinite(d2)


def test_transition_matrices(benchmark):
    def run():
        return MODEL.transition_matrices(0.2, RATES.rates)

    P = benchmark(run)
    assert P.shape == (CATS, 4, 4)


def test_sites_per_second_report(benchmark, operands):
    """Headline table: per-kernel time and patterns/s on this machine, as
    the engine calls them (cached operators, reused scratch)."""
    import time

    from benchmarks.conftest import report

    left, right, out, counts, P, codes = operands
    scheme = kernels.ScalingScheme()
    cm = DNA.code_matrix()
    scratch = kernels.Scratch()
    a, b = kernels.BranchOperator(P, cm), kernels.BranchOperator(P, cm)
    eigen = kernels.eigen_operators(MODEL.eigenvectors, MODEL.inv_eigenvectors,
                                    MODEL.frequencies, CATS, cm)
    reducer = kernels.site_reducer(MODEL.frequencies, RATES.weights)
    table = np.empty_like(left)
    newton = kernels.BranchTable(table, MODEL.eigenvalues, RATES.rates,
                                 RATES.weights)
    pw = np.ones(PATTERNS)

    def update(l_clv, r_clv, l_codes, r_codes):
        return lambda: kernels.update_clv(out, a, b, l_clv, r_clv, l_codes,
                                          r_codes, cm, counts, scheme, scratch)

    cases = [
        ("update_clv inner-inner", update(left, right, None, None)),
        ("update_clv inner-tip", update(left, None, None, codes)),
        ("update_clv tip-tip", update(None, None, codes, codes)),
        ("update_clv inner-inner, raw P, no scratch",
         lambda: kernels.update_clv(out, P, P, left, right, None, None, cm,
                                    counts, scheme)),
        ("edge_reduce (site likelihoods)",
         lambda: kernels.edge_reduce(a, reducer, left, right, None, None, cm,
                                     scratch)),
        ("child_product (sumtable)",
         lambda: kernels.child_product(table, *eigen, left, right, None, None,
                                       cm, scratch)),
        ("branch_terms (g, g', g'')",
         lambda: kernels.branch_terms(newton, 0.1)),
        ("branch_lnl_and_derivatives",
         lambda: kernels.branch_lnl_and_derivatives(
             table, MODEL.eigenvalues, RATES.rates, RATES.weights, pw, 0.1)),
    ]
    lines = [f"{PATTERNS} patterns x {CATS} Γ rates x 4 states, float64; "
             "best of 5 x 200 calls",
             f"{'kernel':<44} {'us/call':>9} {'M patterns/s':>13}"]
    rates = []
    for name, call in cases:
        call()
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(200):
                call()
            best = min(best, (time.perf_counter() - t0) / 200)
        rates.append(PATTERNS / best)
        lines.append(f"{name:<44} {best * 1e6:9.1f} {rates[-1] / 1e6:13.2f}")
    report("kernel_throughput", lines)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert rates[0] > 100_000  # inner-inner CLV updates per second
