"""Unit tests for substitution models (DNA + protein) and their eigensystems."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.phylo.models import GTR, HKY85, JC69, K80, Poisson
from repro.phylo.models.base import ReversibleModel
from repro.phylo.models.protein import NUM_AA, EmpiricalProteinModel

RATES1 = np.ones(1)


class TestRateMatrixConstruction:
    def test_rows_sum_to_zero(self):
        m = GTR((1, 2, 3, 4, 5, 6), (0.1, 0.2, 0.3, 0.4))
        np.testing.assert_allclose(m.rate_matrix.sum(axis=1), 0.0, atol=1e-12)

    def test_normalized_to_one_substitution(self):
        m = GTR((1, 2, 3, 4, 5, 6), (0.1, 0.2, 0.3, 0.4))
        assert m.expected_rate() == pytest.approx(1.0)

    def test_stationarity(self):
        m = HKY85(3.0, (0.4, 0.1, 0.2, 0.3))
        assert m.stationary_check() < 1e-12

    def test_detailed_balance(self):
        m = GTR((1, 2, 3, 4, 5, 6), (0.1, 0.2, 0.3, 0.4))
        pi, Q = m.frequencies, m.rate_matrix
        flux = pi[:, None] * Q
        np.testing.assert_allclose(flux, flux.T, atol=1e-12)

    def test_eigendecomposition_reconstructs_q(self):
        m = GTR((1.5, 2, 0.5, 1, 3, 1), (0.3, 0.2, 0.25, 0.25))
        Q = m.eigenvectors @ np.diag(m.eigenvalues) @ m.inv_eigenvectors
        np.testing.assert_allclose(Q, m.rate_matrix, atol=1e-12)

    def test_frequencies_renormalized(self):
        m = GTR(frequencies=(1, 1, 1, 1))
        np.testing.assert_allclose(m.frequencies, [0.25] * 4)


class TestConstructionErrors:
    def test_nonsquare_rejected(self):
        with pytest.raises(ModelError, match="square"):
            ReversibleModel(np.ones((3, 4)), np.ones(3) / 3)

    def test_frequency_shape_rejected(self):
        with pytest.raises(ModelError, match="does not match"):
            ReversibleModel(np.ones((4, 4)), np.ones(3) / 3)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ModelError, match="positive"):
            GTR(frequencies=(0.5, 0.5, 0.0, 0.0))

    def test_asymmetric_rejected(self):
        R = np.ones((4, 4))
        R[0, 1] = 2.0
        with pytest.raises(ModelError, match="symmetric"):
            ReversibleModel(R, np.ones(4) / 4)

    def test_negative_exchangeability_rejected(self):
        with pytest.raises(ModelError, match="non-negative"):
            GTR((-1, 1, 1, 1, 1, 1))

    def test_six_rates_required(self):
        with pytest.raises(ModelError, match="6 exchangeabilities"):
            GTR((1, 2, 3))

    def test_negative_branch_length_rejected(self):
        with pytest.raises(ModelError, match="negative branch length"):
            JC69().transition_matrices(-0.1, RATES1)

    def test_bad_kappa_rejected(self):
        with pytest.raises(ModelError, match="kappa"):
            K80(kappa=0.0)
        with pytest.raises(ModelError, match="kappa"):
            HKY85(kappa=-1.0)


class TestTransitionMatrices:
    def test_rows_sum_to_one(self):
        m = GTR((1, 2, 3, 4, 5, 6), (0.1, 0.2, 0.3, 0.4))
        P = m.transition_matrices(0.37, np.array([0.5, 1.0, 2.0]))
        np.testing.assert_allclose(P.sum(axis=2), 1.0, atol=1e-12)

    def test_identity_at_zero(self):
        m = HKY85(2.0)
        P = m.transition_matrices(0.0, RATES1)
        np.testing.assert_allclose(P[0], np.eye(4), atol=1e-12)

    def test_limit_is_stationary(self):
        m = GTR((1, 2, 3, 4, 5, 6), (0.1, 0.2, 0.3, 0.4))
        P = m.transition_matrices(500.0, RATES1)
        np.testing.assert_allclose(P[0], np.tile(m.frequencies, (4, 1)), atol=1e-9)

    def test_jc_matches_analytic_formula(self):
        m = JC69()
        for t in (0.01, 0.1, 0.5, 2.0):
            P = m.transition_matrices(t, RATES1)[0]
            np.testing.assert_allclose(P, JC69.analytic_p(t), atol=1e-12)

    def test_rate_scaling_equals_time_scaling(self):
        m = K80(2.5)
        P_rate = m.transition_matrices(0.2, np.array([3.0]))[0]
        P_time = m.transition_matrices(0.6, RATES1)[0]
        np.testing.assert_allclose(P_rate, P_time, atol=1e-12)

    def test_chapman_kolmogorov(self):
        m = GTR((1, 2, 3, 4, 5, 6), (0.1, 0.2, 0.3, 0.4))
        P1 = m.transition_matrices(0.15, RATES1)[0]
        P2 = m.transition_matrices(0.25, RATES1)[0]
        P3 = m.transition_matrices(0.40, RATES1)[0]
        np.testing.assert_allclose(P1 @ P2, P3, atol=1e-12)

    def test_nonnegative_probabilities(self):
        m = GTR((0.2, 9, 0.1, 0.3, 11, 1), (0.4, 0.35, 0.15, 0.1))
        P = m.transition_matrices(1e-9, np.array([1e-3, 1.0]))
        assert np.all(P >= 0.0)


class TestTransitionDerivatives:
    def test_matches_finite_differences(self):
        m = GTR((1, 2, 3, 4, 5, 6), (0.1, 0.2, 0.3, 0.4))
        rates = np.array([0.3, 1.7])
        t = 0.3
        P, dP, d2P = m.transition_derivatives(t, rates)
        h = 1e-6
        Pp = m.transition_matrices(t + h, rates)
        Pm = m.transition_matrices(t - h, rates)
        np.testing.assert_allclose(dP, (Pp - Pm) / (2 * h), atol=1e-6)
        # Wider step for the second difference (cancellation noise ~ eps/h²).
        h = 1e-4
        Pp = m.transition_matrices(t + h, rates)
        Pm = m.transition_matrices(t - h, rates)
        np.testing.assert_allclose(d2P, (Pp - 2 * P + Pm) / h**2, atol=1e-4)

    def test_p_component_matches_transition_matrices(self):
        m = K80(2.0)
        rates = np.array([1.0, 2.0])
        P1 = m.transition_matrices(0.2, rates)
        P2, _, _ = m.transition_derivatives(0.2, rates)
        np.testing.assert_allclose(P1, P2, atol=1e-14)


class TestContractionOrderIsFixedNotMoved:
    """The spectral product no longer searches an einsum path per call;
    the order it fixed is the one the search picked, so no bit moved."""

    @pytest.mark.parametrize("model", [
        GTR((1.0, 2.5, 1.2, 0.8, 3.0, 1.0), (0.3, 0.2, 0.25, 0.25)),
        HKY85(3.0, (0.4, 0.1, 0.2, 0.3)),
        Poisson(),
    ], ids=lambda m: m.name)
    @pytest.mark.parametrize("categories", [1, 4, 8])
    def test_bit_identical_to_the_searched_form(self, model, categories):
        def searched(modes):
            return np.einsum("ik,ck,kj->cij", model.eigenvectors, modes,
                             model.inv_eigenvectors, optimize=True)

        rates = np.linspace(0.2, 2.4, categories)
        lam = model.eigenvalues[None, :] * rates[:, None]
        for t in np.geomspace(1e-8, 50.0, 50):
            exp_l = np.exp(model.eigenvalues[None, :] * (rates[:, None] * t))
            assert np.array_equal(model.transition_matrices(t, rates),
                                  np.clip(searched(exp_l), 0.0, None))
            exp_l = np.exp(lam * t)
            P, dP, d2P = model.transition_derivatives(t, rates)
            assert np.array_equal(P, np.clip(searched(exp_l), 0.0, None))
            assert np.array_equal(dP, searched(lam * exp_l))
            assert np.array_equal(d2P, searched(lam * lam * exp_l))


class TestKappaModels:
    def test_k80_transition_transversion(self):
        m = K80(kappa=5.0)
        P = m.transition_matrices(0.1, RATES1)[0]
        # A->G (transition) should exceed A->C (transversion) for kappa>1.
        assert P[0, 2] > P[0, 1]

    def test_k80_kappa1_is_jc(self):
        np.testing.assert_allclose(
            K80(1.0).rate_matrix, JC69().rate_matrix, atol=1e-12
        )

    def test_hky_reduces_to_k80_with_equal_freqs(self):
        np.testing.assert_allclose(
            HKY85(3.0, (0.25,) * 4).rate_matrix, K80(3.0).rate_matrix, atol=1e-12
        )


class TestProteinModels:
    def test_poisson_dimensions(self):
        m = Poisson()
        assert m.num_states == 20
        P = m.transition_matrices(0.5, RATES1)
        assert P.shape == (1, 20, 20)
        np.testing.assert_allclose(P.sum(axis=2), 1.0, atol=1e-12)

    def test_poisson_with_empirical_frequencies(self):
        freqs = np.linspace(1, 2, 20)
        m = Poisson(freqs)
        np.testing.assert_allclose(m.frequencies, freqs / freqs.sum())
        assert m.stationary_check() < 1e-12

    def test_paml_roundtrip(self):
        rng = np.random.default_rng(3)
        R = np.zeros((NUM_AA, NUM_AA))
        tri = rng.uniform(0.1, 5.0, size=190)
        k = 0
        for i in range(1, NUM_AA):
            for j in range(i):
                R[i, j] = R[j, i] = tri[k]
                k += 1
        freqs = rng.dirichlet(np.ones(NUM_AA))
        m = EmpiricalProteinModel(R, freqs, name="rand")
        again = EmpiricalProteinModel.from_paml(m.to_paml(), name="rand")
        np.testing.assert_allclose(again.rate_matrix, m.rate_matrix, rtol=1e-6)

    def test_paml_too_short_rejected(self):
        with pytest.raises(ModelError, match="190 rates"):
            EmpiricalProteinModel.from_paml("1.0 2.0 3.0")

    def test_paml_trailing_comment_tolerated(self):
        rng = np.random.default_rng(4)
        numbers = " ".join(str(x) for x in rng.uniform(0.1, 1, 190))
        freqs = " ".join(["0.05"] * 20)
        text = numbers + "\n" + freqs + "\nWAG matrix by Whelan and Goldman\n"
        m = EmpiricalProteinModel.from_paml(text)
        assert m.num_states == 20
