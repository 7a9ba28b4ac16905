"""Kernel throughput — the compute the out-of-core layer keeps fed.

"In all popular ML and Bayesian phylogenetic inference programs, the PLF
dominates both the overall execution time as well as the memory
requirements by typically 85%–95%" (§1). These benches measure the raw
numpy PLF kernels (CLV update, edge likelihood, sumtable + Newton
derivative) so the out-of-core swap costs in the other benches can be read
against the compute they overlap with.
"""

import time

import numpy as np
import pytest

from repro import GTR, LikelihoodEngine, RateModel, simulate_alignment, yule_tree
from repro.phylo.alphabet import DNA
from repro.phylo.likelihood import kernels, siteclasses

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
    lines.extend(site_class_rows())
    report("kernel_throughput", lines)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert rates[0] > 100_000  # inner-inner CLV updates per second


def _best_of(call, repeats: int = 5, calls: int = 20) -> float:
    call()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def site_class_rows() -> list[str]:
    """Site classes at the benchmark's D128x4k class mix: one pass of every
    inner node's update on its class rows (gather + ``update_clv`` into
    rows ``[0, k)``, as the executor runs it) against the same updates at
    full width, and the map builds by path."""
    tree = yule_tree(128, seed=42, scale=0.1)
    model, rates = GTR(), RateModel.gamma(1.0, 4)
    aln = simulate_alignment(tree, model, 4000, rates=rates, seed=43)
    engine = LikelihoodEngine(tree.copy(), aln, model, rates)
    try:
        engine.full_traversals(1)
        n, maps = tree.num_tips, engine.classes
        span, cm = engine.num_patterns, engine._code_matrix
        full = {x: engine.store.read_item(x - n) for x in range(n, tree.num_nodes)}

        def sites(y: int) -> np.ndarray:  # a child's rows at every site
            block = maps.current[y].blocks[0]
            return block.expand(full[y][:block.k])

        classed, whole = [], []
        builds = {"table": [], "sort": []}
        for x in range(n, tree.num_nodes):
            kids = sorted(y for y in tree.neighbors(x)
                          if y != engine.orientation.orient[x])
            ops = (engine._P(x, kids[0]), engine._P(x, kids[1]))
            block = maps.current[x].blocks[0]
            # (clv, rows to gather or None, codes) per child
            classed.append((ops, block.k, [
                (None, None, rows) if y < n else (full[y], rows, None)
                for y, rows in zip(kids, block.rows)]))
            whole.append((ops, [(None, engine._tip_codes[y]) if y < n
                                else (sites(y), None) for y in kids]))
            a, b = (maps.current[y].blocks[0] for y in kids)
            if 2 * max(a.k, b.k) < span:
                builds["table" if a.k * b.k <= 4 * span else "sort"].append(
                    (maps.current[kids[0]], maps.current[kids[1]]))
    finally:
        engine.close()
    out = np.empty((span, CATS, 4))
    counts = np.zeros(span, dtype=np.int32)
    scheme, scratch = kernels.ScalingScheme(), kernels.Scratch()

    def classes_pass(rows: int | None = None) -> None:
        # ``rows=1``: the same calls on one class row each — a step's cost.
        for (Pl, Pr), k, sides in classed:
            k = k if rows is None else rows
            (lc, lr, lk), (rc, rr, rk) = sides
            if lr is not None:
                lc = np.take(lc, lr[:k], axis=0, mode="clip")
            elif lc is not None:
                lc = lc[:k]
            if rr is not None:
                rc = np.take(rc, rr[:k], axis=0, mode="clip")
            elif rc is not None:
                rc = rc[:k]
            lk = None if lk is None else lk[:k]
            rk = None if rk is None else rk[:k]
            kernels.update_clv(out[:k], Pl, Pr, lc, rc, lk, rk, cm,
                               counts[:k], scheme, scratch)

    def whole_pass() -> None:
        for (Pl, Pr), ((lc, lk), (rc, rk)) in whole:
            kernels.update_clv(out, Pl, Pr, lc, rc, lk, rk, cm, counts,
                               scheme, scratch)

    class_rows = sum(k for _, k, _ in classed)
    nodes = len(classed)
    classes_s = _best_of(classes_pass, calls=3)
    step_s = _best_of(lambda: classes_pass(rows=1), calls=3)
    row_s = (classes_s - step_s) / (class_rows - nodes)
    whole_s = _best_of(whole_pass, calls=3)
    lines = [
        f"site classes, D128x4k seed 42 ({nodes} inner nodes, {span} patterns,"
        f" {class_rows / (nodes * span):.1%} of rows):",
        f"{'class update (gather + update_clv, k rows)':<44} "
        f"{classes_s / nodes * 1e6:9.1f} "
        f"{class_rows / classes_s / 1e6:13.2f}  M class rows/s",
        f"{'  the same updates at full width':<44} "
        f"{whole_s / nodes * 1e6:9.1f} "
        f"{nodes * span / whole_s / 1e6:13.2f}",
        f"{'  the same updates on 1 row each (a step)':<44} "
        f"{step_s / nodes * 1e6:9.1f}",
        f"{'recompute price (STEP_PRICE_S, ROW_PRICE_S)':<44} "
        f"{step_s / nodes * 1e6:9.1f}  us per step + "
        f"{row_s * 1e9:.1f} ns per class row",
    ]
    bounds = [(0, span)]
    for path, pairs in builds.items():
        if pairs:
            took = _best_of(lambda pairs=pairs: [
                siteclasses.build(a, b, bounds) for a, b in pairs])
            label = f"map build, {path} path ({len(pairs)} nodes)"
            lines.append(f"{label:<44} {took / len(pairs) * 1e6:9.1f}"
                         f"  us per node")
    return lines
