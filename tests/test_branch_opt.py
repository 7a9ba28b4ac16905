"""Tests for Newton–Raphson branch-length optimization."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import GTR, JC69, LikelihoodEngine, RateModel, simulate_alignment, yule_tree
from repro.errors import LikelihoodError
from repro.phylo.alphabet import DNA
from repro.phylo.likelihood import kernels
from repro.phylo.likelihood.branch_opt import (
    MAX_BRANCH_LENGTH,
    MIN_BRANCH_LENGTH,
    optimize_branch,
    optimize_branch_from_sumtable,
    smooth_all_branches,
)
from repro.phylo.models.protein import EmpiricalProteinModel

#: ``[t_opt.hex(), iterations]`` per :func:`newton_cases` entry, written by
#: :func:`write_parent_fixture` at commit 8237556 — before the Newton loop
#: hoisted its ``t``-independent work. The loop must stay the same function.
PARENT_FIXTURE = Path(__file__).parent / "fixtures" / "newton_parent.json"

NAN_START, MIN_CLAMPED, MAX_CLAMPED = 197, 198, 199


def newton_cases():
    """200 seeded ``(sumtable, eigenvalues, rates, cat_weights,
    pattern_weights, t0)`` inputs: DNA Γ4, protein Γ4 and float32 tables
    in turn, built from two noisy tip-like CLVs a random distance apart;
    the last three start where a pattern has ``g ≤ 0``, end on
    ``MIN_BRANCH_LENGTH`` and end on ``MAX_BRANCH_LENGTH``."""
    cases = []
    for seed in range(200):
        rng = np.random.default_rng(9000 + seed)
        kind = ("dna", "protein", "float32")[seed % 3]
        if kind == "protein":
            R = rng.uniform(0.1, 4.0, size=(20, 20))
            model = EmpiricalProteinModel(R + R.T, rng.dirichlet(np.full(20, 20.0)))
        else:
            model = GTR(rng.uniform(0.5, 3.0, size=6), rng.dirichlet(np.full(4, 8.0)))
        S = model.num_states
        gamma = RateModel.gamma(50.0 if seed == NAN_START else rng.uniform(0.3, 2.0), 4)
        rates, cat_weights = gamma.rates, gamma.weights
        patterns = int(rng.integers(5, 120))
        # Two sequences a true distance apart: each site keeps its state
        # with probability e^{-t}, else redraws it from π.
        x = rng.choice(S, size=patterns, p=model.frequencies)
        redraw = rng.random(patterns) < -np.expm1(-10 ** rng.uniform(-2, 0.5))
        y = np.where(redraw, rng.choice(S, size=patterns, p=model.frequencies), x)
        t0 = float(10 ** rng.uniform(-4, 1))
        if seed == MIN_CLAMPED:
            y = x
        elif seed == MAX_CLAMPED:
            y, rates, t0 = (x + 1) % S, np.array([0.005, 0.01, 0.02, 0.04]), 1.0
        u, v = (1e-4 + np.eye(S)[states][:, None, :]
                * rng.uniform(0.2, 1.0, size=(patterns, 4, 1)) for states in (x, y))
        table = kernels.branch_sumtable(
            model.eigenvectors, model.inv_eigenvectors, model.frequencies,
            u, v, None, None, np.eye(S))
        if seed == NAN_START:
            table[0] = 0.0
            table[0, :, np.argmax(model.eigenvalues)] = -0.5
            table[0, :, np.argmin(model.eigenvalues)] = 2.0
            t0 = 5.0
        if kind == "float32":
            table = table.astype(np.float32)
        cases.append((table, model.eigenvalues, rates, cat_weights,
                      rng.uniform(1.0, 6.0, size=patterns), t0))
    return cases


def _newton_results():
    out = []
    for table, eigenvalues, rates, cat_weights, pw, t0 in newton_cases():
        t_opt, iterations = optimize_branch_from_sumtable(
            table, eigenvalues, rates, cat_weights, pw, t0)
        out.append([float(t_opt).hex(), iterations])
    return out


def write_parent_fixture():
    """``PYTHONPATH=<checkout of 8237556>/src:. python -c "from
    tests.test_branch_opt import write_parent_fixture as w; w()"``."""
    PARENT_FIXTURE.write_text(json.dumps(_newton_results(), indent=0) + "\n")


class TestSameFunctionAsParent:
    def test_optimum_and_iteration_count_bit_identical(self):
        expected = json.loads(PARENT_FIXTURE.read_text())
        got = _newton_results()
        assert len(got) == len(expected) == 200
        wrong = [i for i, (g, e) in enumerate(zip(got, expected)) if g != e]
        assert not wrong, (wrong[:5], got[wrong[0]], expected[wrong[0]])

    def test_the_special_cases_are_what_they_claim(self):
        cases, expected = newton_cases(), json.loads(PARENT_FIXTURE.read_text())
        table, eigenvalues, rates, cat_weights, pw, t0 = cases[NAN_START]
        g, d1, d2 = kernels.branch_lnl_and_derivatives(
            table, eigenvalues, rates, cat_weights, pw, t0)
        assert g[0] <= 0.0 and np.isnan(d1) and np.isnan(d2)
        assert float.fromhex(expected[NAN_START][0]) < t0 / 2
        assert float.fromhex(expected[MIN_CLAMPED][0]) == MIN_BRANCH_LENGTH
        assert float.fromhex(expected[MAX_CLAMPED][0]) == MAX_BRANCH_LENGTH
        assert expected[MAX_CLAMPED][1] > 1      # climbed there, not clipped at t0
        assert {cases[i][0].dtype for i in range(3)} == {
            np.dtype(np.float64), np.dtype(np.float32)}
        assert {cases[i][0].shape[-1] for i in range(3)} == {4, 20}


class TestNumericalCore:
    def _setup(self, rng, model=None):
        model = model or JC69()
        rates = np.array([0.4, 1.6])
        weights = np.array([0.5, 0.5])
        u = rng.uniform(0.1, 1.0, size=(9, 2, 4))
        v = rng.uniform(0.1, 1.0, size=(9, 2, 4))
        pw = rng.uniform(1, 4, size=9)
        table = kernels.branch_sumtable(
            model.eigenvectors, model.inv_eigenvectors, model.frequencies,
            u, v, None, None, DNA.code_matrix(),
        )
        return model, rates, weights, pw, table

    def test_gradient_vanishes_at_optimum(self, rng):
        model, rates, weights, pw, table = self._setup(rng)
        t_opt, _ = optimize_branch_from_sumtable(
            table, model.eigenvalues, rates, weights, pw, t0=0.3
        )
        _, d1, _ = kernels.branch_lnl_and_derivatives(
            table, model.eigenvalues, rates, weights, pw, t_opt
        )
        assert abs(d1) < 1e-6 or t_opt in (MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH)

    def test_optimum_value_independent_of_start(self, rng):
        """Different starting points must reach the same branch likelihood
        (the surface can be extremely flat in t, so we compare φ, not t)."""
        model, rates, weights, pw, table = self._setup(rng)
        phis = []
        for t0 in (0.01, 0.1, 1.0, 5.0):
            t_opt, _ = optimize_branch_from_sumtable(
                table, model.eigenvalues, rates, weights, pw, t0=t0
            )
            g, _, _ = kernels.branch_lnl_and_derivatives(
                table, model.eigenvalues, rates, weights, pw, t_opt)
            phis.append(float(pw @ np.log(g)))
        assert max(phis) - min(phis) < 1e-6

    def test_result_within_clamps(self, rng):
        model, rates, weights, pw, table = self._setup(rng)
        t_opt, _ = optimize_branch_from_sumtable(
            table, model.eigenvalues, rates, weights, pw, t0=49.0
        )
        assert MIN_BRANCH_LENGTH <= t_opt <= MAX_BRANCH_LENGTH

    def _pathological(self):
        """A sumtable where g(t) = 2e^{-t} - 0.5 goes negative for t > ln 4.

        Starting the optimizer in that region makes the derivative kernel
        return ``(g, nan, nan)`` — the numerical-zero sentinel.
        """
        table = np.array([[[-0.5, 2.0]]])
        eigenvalues = np.array([0.0, -1.0])
        rates = np.array([1.0])
        weights = np.array([1.0])
        pw = np.array([1.0])
        return table, eigenvalues, rates, weights, pw

    def test_kernel_reports_nan_on_vanishing_likelihood(self):
        table, eigenvalues, rates, weights, pw = self._pathological()
        g, d1, d2 = kernels.branch_lnl_and_derivatives(
            table, eigenvalues, rates, weights, pw, 5.0
        )
        assert np.any(g <= 0.0)
        assert np.isnan(d1) and np.isnan(d2)

    def test_recovers_from_nan_derivatives(self):
        """Regression for the NaN-backtracking path in the NR loop.

        From t0 = 5 every site likelihood is negative, so the first
        derivative evaluations are NaN; the optimizer must retreat (halve
        t) back into the feasible region t < ln 4 and still converge to a
        finite clamped optimum — never propagate NaN into the result.
        """
        table, eigenvalues, rates, weights, pw = self._pathological()
        t_opt, iters = optimize_branch_from_sumtable(
            table, eigenvalues, rates, weights, pw, t0=5.0
        )
        assert np.isfinite(t_opt)
        assert MIN_BRANCH_LENGTH <= t_opt <= MAX_BRANCH_LENGTH
        g, d1, _ = kernels.branch_lnl_and_derivatives(
            table, eigenvalues, rates, weights, pw, t_opt
        )
        assert np.all(g > 0.0)  # ended inside the feasible region
        # g is strictly decreasing in t here, so the optimum is the clamp
        assert t_opt == pytest.approx(MIN_BRANCH_LENGTH)
        assert iters < 64  # converged, did not just exhaust max_iter


class TestEngineLevel:
    def test_single_branch_improves_lnl(self, engine_factory):
        eng = engine_factory()
        u, v = next(iter(eng.tree.edges()))
        eng.set_branch_length(u, v, 2.5)  # clearly suboptimal
        before = eng.edge_loglikelihood(u, v)
        optimize_branch(eng, u, v)
        after = eng.edge_loglikelihood(u, v)
        assert after > before

    def test_matches_scipy_scalar_optimum(self, engine_factory):
        """NR's optimum agrees with a black-box 1-D optimizer on lnL(t)."""
        from scipy.optimize import minimize_scalar

        eng = engine_factory()
        u, v = eng.tree.internal_edges()[0]

        def neg_lnl(t):
            eng.set_branch_length(u, v, float(t))
            return -eng.edge_loglikelihood(u, v)

        res = minimize_scalar(neg_lnl, bounds=(1e-8, 5.0), method="bounded",
                              options={"xatol": 1e-10})
        t_opt = optimize_branch(eng, u, v)
        assert t_opt == pytest.approx(res.x, abs=1e-4)

    def test_nonexistent_edge_rejected(self, engine_factory):
        eng = engine_factory()
        with pytest.raises(LikelihoodError, match="not an edge"):
            optimize_branch(eng, 0, 1)

    def test_true_branch_length_recovered(self):
        """Long simulation on a fixed 4-taxon tree recovers the central branch."""
        tree = yule_tree(4, seed=40)
        central = tree.internal_edges()[0]
        tree.set_branch_length(*central, 0.2)
        aln = simulate_alignment(tree, JC69(), 20000, rates=RateModel.uniform(),
                                 seed=41)
        eng = LikelihoodEngine(tree.copy(), aln, JC69(), RateModel.uniform())
        t_hat = optimize_branch(eng, *central)
        assert t_hat == pytest.approx(0.2, abs=0.03)

    def test_only_two_vectors_touched(self, engine_factory):
        """§4.2's locality claim: a branch iteration touches only the two
        CLVs at its ends (after they are up to date)."""
        eng = engine_factory(fraction=1.0)
        eng.loglikelihood()
        u, v = eng.tree.internal_edges()[0]
        eng.edge_loglikelihood(u, v)  # make both ends current
        base = eng.stats.requests
        optimize_branch(eng, u, v)
        assert eng.stats.requests - base <= 2


class TestSmoothing:
    def test_never_decreases_lnl(self, engine_factory):
        eng = engine_factory()
        l0 = eng.loglikelihood()
        l1 = smooth_all_branches(eng, passes=1)
        l2 = smooth_all_branches(eng, passes=1)
        assert l1 >= l0 - 1e-9
        assert l2 >= l1 - 1e-9

    def test_converges_across_passes(self, engine_factory):
        eng = engine_factory()
        smooth_all_branches(eng, passes=3)
        before = eng.loglikelihood()
        after = smooth_all_branches(eng, passes=1)
        assert after - before < 1e-3

    def test_pass_count_validated(self, engine_factory):
        with pytest.raises(LikelihoodError, match="passes"):
            smooth_all_branches(engine_factory(), passes=0)

    def test_all_branches_visited(self, engine_factory):
        eng = engine_factory()
        for u, v in eng.tree.edges():
            eng.tree.set_branch_length(u, v, 1.7)
        eng.invalidate_all()
        smooth_all_branches(eng, passes=2)
        # every branch should have moved off the bogus value
        moved = [abs(eng.tree.branch_length(u, v) - 1.7) > 1e-6
                 for u, v in eng.tree.edges()]
        assert all(moved)
