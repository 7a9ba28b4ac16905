"""Model-parameter optimization: Γ shape α, GTR exchangeabilities, frequencies.

Optimizing the α shape parameter requires re-discretizing the Γ categories
and recomputing **all** ancestral vectors per candidate value — this is why
the paper's §4.3 benchmark uses full tree traversals: "full tree traversals
are required to optimize likelihood model parameters such as the α shape
parameter of the Γ model of rate heterogeneity".
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar

from repro.errors import ModelError
from repro.phylo.likelihood.engine import LikelihoodEngine
from repro.phylo.models.dna import GTR

#: Search bounds for the Γ shape parameter (RAxML uses a similar range).
ALPHA_BOUNDS = (0.02, 100.0)


def optimize_alpha(engine: LikelihoodEngine,
                   bounds: tuple[float, float] = ALPHA_BOUNDS,
                   tol: float = 1e-4) -> float:
    """Brent-optimize the Γ shape α in place; returns the optimum.

    Each trial α rebuilds the rate categories and invalidates every CLV —
    the subsequent evaluation is a full traversal (maximum out-of-core
    pressure, as in the paper's Fig. 5 workload).
    """
    if engine.rates.alpha is None:
        raise ModelError("the engine's rate model has no Γ shape to optimize")

    def negative_lnl(alpha: float) -> float:
        engine.set_rates(engine.rates.with_alpha(float(alpha)))
        return -engine.loglikelihood()

    res = minimize_scalar(negative_lnl, bounds=bounds, method="bounded",
                          options={"xatol": tol})
    best = float(res.x)
    engine.set_rates(engine.rates.with_alpha(best))
    return best


def optimize_gtr_rates(engine: LikelihoodEngine, rounds: int = 2,
                       tol: float = 1e-3,
                       bounds: tuple[float, float] = (1e-4, 100.0)) -> np.ndarray:
    """Coordinate-wise Brent over the five free GTR exchangeabilities.

    The sixth rate (GT) stays fixed at 1 (the standard identifiability
    convention). Each trial rebuilds the model's eigensystem and triggers a
    full traversal. Returns the optimized six-rate vector.
    """
    model = engine.model
    if not isinstance(model, GTR):
        raise ModelError(f"GTR rate optimization needs a GTR-family model, got {model.name}")
    rates6 = model.rates6.copy()
    freqs = model.frequencies.copy()

    def rebuild(r6) -> None:
        engine.set_model(GTR(tuple(r6), tuple(freqs), name=model.name))

    for _ in range(rounds):
        for idx in range(5):  # AC, AG, AT, CG, CT free; GT fixed
            def negative_lnl(x: float, idx=idx) -> float:
                trial = rates6.copy()
                trial[idx] = x
                rebuild(trial)
                return -engine.loglikelihood()

            res = minimize_scalar(negative_lnl, bounds=bounds, method="bounded",
                                  options={"xatol": tol})
            rates6[idx] = float(res.x)
        rebuild(rates6)
    return rates6


def use_empirical_frequencies(engine: LikelihoodEngine) -> np.ndarray:
    """Replace model frequencies with the alignment's empirical ones.

    The standard ``+F`` treatment; rebuilds the model and invalidates all
    CLVs. Returns the frequency vector used.
    """
    freqs = engine.alignment.empirical_frequencies()
    model = engine.model
    if isinstance(model, GTR):
        engine.set_model(GTR(tuple(model.rates6), tuple(freqs), name=model.name))
    else:
        from repro.phylo.models.base import ReversibleModel

        R = model.rate_matrix / model.frequencies[None, :]
        np.fill_diagonal(R, 0.0)
        R = (R + R.T) / 2.0
        engine.set_model(ReversibleModel(R, freqs, name=model.name))
    return freqs


def optimize_model(engine: LikelihoodEngine, alpha: bool = True,
                   gtr: bool = False, branch_passes: int = 1) -> dict:
    """One round of joint model + branch-length optimization.

    The usual alternation: branch lengths → α → (optionally) GTR rates →
    branch lengths. Returns a summary dict with the final log-likelihood.
    """
    from repro.phylo.likelihood.branch_opt import smooth_all_branches

    out: dict = {}
    out["lnl_start"] = engine.loglikelihood()
    smooth_all_branches(engine, passes=branch_passes)
    if alpha and engine.rates.alpha is not None:
        out["alpha"] = optimize_alpha(engine)
    if gtr:
        out["gtr_rates"] = optimize_gtr_rates(engine)
    out["lnl_end"] = smooth_all_branches(engine, passes=branch_passes)
    return out
