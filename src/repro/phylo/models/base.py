"""General time-reversible substitution-model machinery.

A reversible rate matrix is built from *exchangeabilities* ``R`` (symmetric,
zero diagonal) and stationary frequencies ``π``: ``Q[i,j] = R[i,j] π[j]``,
diagonal set so rows sum to zero, scaled so the expected substitutions per
unit time equal one. Because ``diag(π)^{1/2} Q diag(π)^{-1/2}`` is symmetric,
the eigendecomposition is computed stably with ``eigh``; transition matrices
``P(t) = V e^{Λt} V⁻¹`` and their first/second derivatives (needed by the
Newton–Raphson branch-length optimizer) then cost one small matrix product
per rate category.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError

#: ``P[c] = V · diag(modes[c]) · V⁻¹`` for a ``(C, S)`` stack of eigen-mode
#: weights.
_SPECTRAL_PRODUCT = "ik,ck,kj->cij"


class ReversibleModel:
    """A time-reversible substitution model over ``num_states`` states.

    Parameters
    ----------
    exchangeabilities:
        Symmetric ``(S, S)`` matrix of relative rates, diagonal ignored.
    frequencies:
        Stationary distribution ``π`` (positive, sums to 1; renormalized).
    name:
        Display name.
    """

    def __init__(self, exchangeabilities: np.ndarray, frequencies: np.ndarray,
                 name: str = "REV") -> None:
        R = np.array(exchangeabilities, dtype=np.float64)
        pi = np.array(frequencies, dtype=np.float64)
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise ModelError("exchangeability matrix must be square")
        S = R.shape[0]
        if pi.shape != (S,):
            raise ModelError(f"frequencies shape {pi.shape} does not match {S} states")
        if np.any(pi <= 0):
            raise ModelError("all stationary frequencies must be positive")
        if not np.allclose(R, R.T):
            raise ModelError("exchangeability matrix must be symmetric")
        offdiag = R[~np.eye(S, dtype=bool)]
        if np.any(offdiag < 0) or not np.any(offdiag > 0):
            raise ModelError("exchangeabilities must be non-negative with some positive")

        pi = pi / pi.sum()
        Q = R * pi[None, :]
        np.fill_diagonal(Q, 0.0)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        # Normalize: expected rate  -Σ π_i Q_ii  == 1 substitution / unit time.
        scale = -float(pi @ np.diag(Q))
        if scale <= 0:
            raise ModelError("degenerate rate matrix (zero total rate)")
        Q /= scale

        # Stable eigendecomposition via the symmetrized matrix.
        sqrt_pi = np.sqrt(pi)
        B = (sqrt_pi[:, None] * Q) / sqrt_pi[None, :]
        B = (B + B.T) / 2.0  # clean numerical asymmetry
        eigvals, U = np.linalg.eigh(B)
        self.name = name
        self.num_states = S
        self.frequencies = pi
        self.rate_matrix = Q
        self.eigenvalues = eigvals
        self.eigenvectors = U / sqrt_pi[:, None]         # V : Q = V Λ V⁻¹
        self.inv_eigenvectors = U.T * sqrt_pi[None, :]   # V⁻¹
        self._contraction_paths: dict[int, list] = {}

    # -- transition probabilities ------------------------------------------------

    def transition_matrices(self, t: float, rates: np.ndarray) -> np.ndarray:
        """``P(r_c · t)`` for each rate category; shape ``(C, S, S)``.

        ``t`` is the branch length in expected substitutions per site at
        rate 1; each category scales time by its relative rate ``r_c``
        (paper §3.1: the Γ model multiplies memory and work by the number
        of discrete rates).
        """
        if t < 0:
            raise ModelError(f"negative branch length {t}")
        rates = np.asarray(rates, dtype=np.float64)
        exp_l = np.exp(self.eigenvalues[None, :] * (rates[:, None] * t))  # (C, S)
        P = self._spectral_product(exp_l)
        np.clip(P, 0.0, None, out=P)
        return P

    def transition_derivatives(self, t: float, rates: np.ndarray):
        """``(P, dP/dt, d²P/dt²)`` for each rate category.

        Differentiating ``P(rt) = V e^{Λrt} V⁻¹`` w.r.t. the branch length
        ``t`` just multiplies each eigen-mode by ``(λ_k r)`` per order.
        """
        rates = np.asarray(rates, dtype=np.float64)
        lam = self.eigenvalues[None, :] * rates[:, None]       # (C, S)
        exp_l = np.exp(lam * t)
        P = self._spectral_product(exp_l)
        dP = self._spectral_product(lam * exp_l)
        d2P = self._spectral_product(lam * lam * exp_l)
        np.clip(P, 0.0, None, out=P)
        return P, dP, d2P

    def _spectral_product(self, modes: np.ndarray) -> np.ndarray:
        """``V · diag(modes[c]) · V⁻¹`` per category; ``(C, S)`` → ``(C, S, S)``.

        The pairwise contraction order is numpy's greedy choice for these
        shapes — it depends on ``C`` (``V⊗V⁻¹`` first once there are more
        categories than states) — searched once per category count
        instead of on every call, so the bits are those of the searching
        form.
        """
        V, Vi = self.eigenvectors, self.inv_eigenvectors
        path = self._contraction_paths.get(len(modes))
        if path is None:
            path = self._contraction_paths[len(modes)] = np.einsum_path(
                _SPECTRAL_PRODUCT, V, modes, Vi, optimize="greedy")[0]
        return np.einsum(_SPECTRAL_PRODUCT, V, modes, Vi, optimize=path)

    # -- introspection ---------------------------------------------------------------

    def stationary_check(self) -> float:
        """Max |πQ| — zero (to round-off) iff π is the stationary distribution."""
        return float(np.abs(self.frequencies @ self.rate_matrix).max())

    def expected_rate(self) -> float:
        """Expected substitutions per unit time (1.0 after normalization)."""
        return -float(self.frequencies @ np.diag(self.rate_matrix))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.name}({self.num_states} states)"
