"""Unit tests for the vectorized PLF kernels and numerical scaling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LikelihoodError
from repro.phylo.alphabet import AMINO_ACID, DNA
from repro.phylo.likelihood import kernels
from repro.phylo.models import GTR, JC69

CODE_MATRIX = DNA.code_matrix()


def _random_clv(rng, patterns=7, cats=3, states=4):
    return rng.uniform(0.1, 1.0, size=(patterns, cats, states))


class TestScalingScheme:
    def test_float64_uses_2_pow_256(self):
        s = kernels.ScalingScheme(np.float64)
        assert s.multiplier == 2.0**256
        assert s.threshold == 2.0**-256
        assert s.log_multiplier == pytest.approx(256 * np.log(2))

    def test_float32_uses_narrow_range(self):
        s = kernels.ScalingScheme(np.float32)
        assert np.isfinite(s.multiplier)
        assert s.multiplier == np.float32(2.0) ** 30

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(LikelihoodError, match="unsupported"):
            kernels.ScalingScheme(np.float16)


class TestTipLookup:
    def test_matches_manual_sum(self, rng):
        P = JC69().transition_matrices(0.3, np.array([0.5, 2.0]))
        lut = kernels.BranchOperator(P, CODE_MATRIX).tips
        assert lut.shape == (16, 2 * 4)  # one (C·S) row per code
        for c in range(2):
            for code in range(16):
                for a in range(4):
                    manual = sum(P[c, a, b] * CODE_MATRIX[code, b] for b in range(4))
                    assert lut[code, c * 4 + a] == pytest.approx(manual)

    def test_gap_code_gives_row_sums(self):
        P = GTR((1, 2, 3, 4, 5, 6), (0.1, 0.2, 0.3, 0.4)).transition_matrices(
            0.2, np.ones(1)
        )
        lut = kernels.BranchOperator(P, CODE_MATRIX).tips
        np.testing.assert_allclose(lut[15], 1.0, atol=1e-12)  # rows sum to 1


class TestPropagation:
    def test_propagate_inner_matches_matmul(self, rng):
        P = JC69().transition_matrices(0.4, np.array([1.0, 2.0]))
        clv = _random_clv(rng, cats=2)
        out = kernels.propagate_inner(P, clv)
        for i in range(clv.shape[0]):
            for c in range(2):
                np.testing.assert_allclose(out[i, c], P[c] @ clv[i, c], atol=1e-14)

    def test_propagate_tip_matches_inner_on_onehot(self, rng):
        """A tip with unambiguous code equals an inner CLV with a one-hot row."""
        P = GTR((1, 2, 1, 1, 2, 1), (0.3, 0.2, 0.3, 0.2)).transition_matrices(
            0.25, np.array([0.7, 1.3])
        )
        codes = np.array([1, 2, 4, 8, 1])  # A C G T A
        tip_out = kernels.propagate_tip(P, codes, CODE_MATRIX)
        clv = CODE_MATRIX[codes][:, None, :].repeat(2, axis=1)
        inner_out = kernels.propagate_inner(P, clv)
        np.testing.assert_allclose(tip_out, inner_out, atol=1e-14)

    def test_zero_branch_is_identity(self, rng):
        P = JC69().transition_matrices(0.0, np.ones(2))
        clv = _random_clv(rng, cats=2)
        np.testing.assert_allclose(kernels.propagate_inner(P, clv), clv, atol=1e-14)


class TestRescale:
    def test_no_rescale_above_threshold(self, rng):
        scheme = kernels.ScalingScheme()
        clv = _random_clv(rng)
        counts = np.zeros(clv.shape[0], dtype=np.int32)
        assert kernels.rescale_clv(clv, counts, scheme) == 0
        assert counts.sum() == 0

    def test_rescale_small_sites(self):
        scheme = kernels.ScalingScheme()
        clv = np.full((3, 1, 4), 1e-100)
        clv[1] = 0.5   # site 1 is fine
        clv[0] = 1e-70  # above 2^-256 ~ 1.2e-77: no rescale
        clv[2] = 2.0**-300
        counts = np.zeros(3, dtype=np.int32)
        n = kernels.rescale_clv(clv, counts, scheme)
        assert n == 1
        assert counts.tolist() == [0, 0, 1]
        assert clv[2, 0, 0] == pytest.approx(2.0**-300 * 2.0**256)

    def test_rescale_preserves_ratios(self):
        scheme = kernels.ScalingScheme()
        clv = np.array([[[1e-100, 2e-100, 3e-100, 4e-100]]]) * 2.0**-200
        counts = np.zeros(1, dtype=np.int32)
        kernels.rescale_clv(clv, counts, scheme)
        ratios = clv[0, 0] / clv[0, 0, 0]
        np.testing.assert_allclose(ratios, [1, 2, 3, 4])


class TestUpdateClv:
    def test_requires_exactly_one_operand_kind(self, rng):
        scheme = kernels.ScalingScheme()
        P = JC69().transition_matrices(0.1, np.ones(2))
        clv = _random_clv(rng, cats=2)
        out = np.empty_like(clv)
        counts = np.zeros(clv.shape[0], dtype=np.int32)
        with pytest.raises(LikelihoodError, match="left child"):
            kernels.update_clv(out, P, P, clv, clv, np.zeros(7, int), None,
                               CODE_MATRIX, counts, scheme)
        with pytest.raises(LikelihoodError, match="right child"):
            kernels.update_clv(out, P, P, clv, None, None, None,
                               CODE_MATRIX, counts, scheme)

    def test_product_structure(self, rng):
        scheme = kernels.ScalingScheme()
        P = JC69().transition_matrices(0.2, np.ones(1))
        l = _random_clv(rng, cats=1)
        r = _random_clv(rng, cats=1)
        out = np.empty_like(l)
        counts = np.zeros(l.shape[0], dtype=np.int32)
        kernels.update_clv(out, P, P, l, r, None, None, CODE_MATRIX, counts, scheme)
        expected = kernels.propagate_inner(P, l) * kernels.propagate_inner(P, r)
        np.testing.assert_allclose(out, expected, atol=1e-14)


class TestRootLikelihood:
    def test_two_tip_edge_likelihood(self):
        """Analytic check: two taxa across one branch under JC69."""
        model = JC69()
        t = 0.35
        P = model.transition_matrices(t, np.ones(1))
        codes_a = DNA.encode("AAGG").astype(np.int64)
        codes_b = DNA.encode("AGGC").astype(np.int64)
        site_l = kernels.edge_site_likelihoods(
            P, model.frequencies, np.ones(1),
            None, None, codes_a, codes_b, CODE_MATRIX,
        )
        same = 0.25 * (0.25 + 0.75 * np.exp(-4 * t / 3))
        diff = 0.25 * (0.25 - 0.25 * np.exp(-4 * t / 3))
        np.testing.assert_allclose(site_l, [same, diff, same, diff], atol=1e-12)

    def test_log_likelihood_scaling_correction(self):
        scheme = kernels.ScalingScheme()
        site_l = np.array([0.5, 0.25])
        weights = np.array([2.0, 1.0])
        counts = np.array([1, 0])
        lnl = kernels.log_likelihood_from_sites(site_l, weights, counts, scheme)
        expected = 2 * (np.log(0.5) - scheme.log_multiplier) + np.log(0.25)
        assert lnl == pytest.approx(expected)

    def test_nonpositive_site_likelihood_raises(self):
        scheme = kernels.ScalingScheme()
        with pytest.raises(LikelihoodError, match="non-positive"):
            kernels.log_likelihood_from_sites(
                np.array([0.5, 0.0]), np.ones(2), np.zeros(2), scheme
            )


class TestBranchSumtable:
    def test_sumtable_reproduces_edge_likelihood(self, rng):
        """Σ_k A e^{λrt} must equal the direct edge likelihood."""
        model = GTR((1, 2, 3, 4, 5, 6), (0.1, 0.2, 0.3, 0.4))
        rates = np.array([0.5, 1.5])
        weights = np.array([0.5, 0.5])
        u = _random_clv(rng, cats=2)
        v = _random_clv(rng, cats=2)
        t = 0.27
        table = kernels.branch_sumtable(
            model.eigenvectors, model.inv_eigenvectors, model.frequencies,
            u, v, None, None, CODE_MATRIX,
        )
        g, d1, d2 = kernels.branch_lnl_and_derivatives(
            table, model.eigenvalues, rates, weights, np.ones(u.shape[0]), t
        )
        direct = kernels.edge_site_likelihoods(
            model.transition_matrices(t, rates), model.frequencies, weights,
            u, v, None, None, CODE_MATRIX,
        )
        np.testing.assert_allclose(g, direct, atol=1e-12)

    def test_derivatives_match_finite_differences(self, rng):
        model = JC69()
        rates = np.array([0.3, 1.7])
        weights = np.array([0.5, 0.5])
        u = _random_clv(rng, cats=2)
        v = _random_clv(rng, cats=2)
        pw = rng.uniform(1, 3, size=u.shape[0])
        table = kernels.branch_sumtable(
            model.eigenvectors, model.inv_eigenvectors, model.frequencies,
            u, v, None, None, CODE_MATRIX,
        )

        def lnl(t):
            g, _, _ = kernels.branch_lnl_and_derivatives(
                table, model.eigenvalues, rates, weights, pw, t
            )
            return float(pw @ np.log(g))

        t = 0.4
        _, d1, d2 = kernels.branch_lnl_and_derivatives(
            table, model.eigenvalues, rates, weights, pw, t
        )
        h = 1e-6
        fd1 = (lnl(t + h) - lnl(t - h)) / (2 * h)
        assert d1 == pytest.approx(fd1, abs=1e-5)
        h = 1e-4  # wider step: second differences amplify round-off
        fd2 = (lnl(t + h) - 2 * lnl(t) + lnl(t - h)) / h**2
        assert d2 == pytest.approx(fd2, abs=1e-4)

    def test_zero_likelihood_reports_nan(self):
        model = JC69()
        table = np.zeros((2, 1, 4))
        g, d1, d2 = kernels.branch_lnl_and_derivatives(
            table, model.eigenvalues, np.ones(1), np.ones(1), np.ones(2), 0.1
        )
        assert np.isnan(d1) and np.isnan(d2)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


class TestRowIndependence:
    """The §4.1 contract rests on this: a row's output bits do not depend
    on which other rows shared its BLAS call.

    Measured on OpenBLAS 0.3.31 it is *not* free — a 1-row product goes to
    GEMV, and operator widths that are not whole SIMD registers (C·S = 20)
    round differently in the small-matrix and the packed kernel — so
    :func:`kernels.gemm` shapes its calls and this test holds it to the
    result, over the widths the engine can produce. CI also runs it under
    ``OPENBLAS_NUM_THREADS=2`` (threaded GEMM partitions rows).
    """

    SHAPES = [(4, 4), (5, 4), (1, 4), (4, 20), (1, 20)]
    CALLS = (1, 2, 7, 64, 256, 1000)
    ROWS = 1300

    @staticmethod
    def _operands(rng, C, S, dtype, rows):
        P = rng.random((3, C, S, S))
        P /= P.sum(axis=-1, keepdims=True)
        clv = rng.random((rows, C, S)) * 10.0 ** rng.integers(-6, 1, (rows, 1, 1))
        return P.astype(dtype), clv.astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("C,S", SHAPES)
    def test_propagate_any_partition_any_offset(self, rng, C, S, dtype):
        P, clv = self._operands(rng, C, S, dtype, self.ROWS)
        branch = kernels.BranchOperator(P[0], np.eye(S, dtype=dtype))
        whole = kernels.propagate_inner(branch, clv)
        for n in self.CALLS:
            for off in (0, 1, 13, self.ROWS - n):
                part = kernels.propagate_inner(branch, clv[off:off + n])
                assert np.array_equal(_bits(part), _bits(whole[off:off + n])), \
                    (n, off)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("C,S", SHAPES)
    def test_member_axis_changes_nothing(self, rng, C, S, dtype):
        M, span = 3, 257
        P, clv = self._operands(rng, C, S, dtype, M * span)
        stacked = kernels.propagate_inner(P, clv.reshape(M, span, C, S))
        for m in range(M):
            single = kernels.propagate_inner(P[m], clv[m * span:(m + 1) * span])
            assert np.array_equal(_bits(stacked[m]), _bits(single))
        lone = kernels.propagate_inner(P, clv[:M, None])        # span 1
        for m in range(M):
            assert np.array_equal(
                _bits(lone[m]), _bits(kernels.propagate_inner(P[m], clv[m:m + 1])))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("C,S", SHAPES)
    def test_whole_update_and_edge_kernels_by_blocks(self, rng, C, S, dtype):
        """update_clv (tips, rescale), the sumtable and both edge reducers,
        block by block at every block size, against one whole call."""
        rows = self.ROWS
        scheme = kernels.ScalingScheme(dtype)
        P, left = self._operands(rng, C, S, dtype, rows)
        _, right = self._operands(rng, C, S, dtype, rows)
        left[::7] *= scheme.threshold        # some sites rescale
        cm = np.vstack([np.eye(S), np.ones((1, S))]).astype(dtype)
        codes = rng.integers(0, len(cm), rows)
        freqs = np.full(S, 1.0 / S, dtype=dtype)
        weights = np.full(C, 1.0 / C, dtype=dtype)
        model_ev = rng.random((S, S)).astype(dtype)

        def run(lo, hi):
            sl = slice(lo, hi)
            out = np.empty((hi - lo, C, S), dtype=dtype)
            counts = np.zeros(hi - lo, dtype=np.int32)
            kernels.update_clv(out, P[0], P[1], left[sl], None, None, codes[sl],
                               cm, counts, scheme)
            table = kernels.branch_sumtable(model_ev, model_ev.T, freqs,
                                            left[sl], right[sl], None, None, cm)
            site = kernels.edge_site_likelihoods(P[2], freqs, weights, None,
                                                 right[sl], codes[sl], None, cm)
            # categories summed per state: column a holds w_c·π_a at c·S + a
            per_state = kernels.pad_columns(np.multiply.outer(
                weights, np.diag(freqs)).reshape(-1, S))
            joint = kernels.edge_reduce(
                P[2], per_state, left[sl], right[sl], None, None, cm)[:, :S]
            return out, counts, table, site, joint

        whole = run(0, rows)
        for n in self.CALLS:
            for lo in range(0, rows, n):
                hi = min(lo + n, rows)          # 1300 % 7, % 64 … ragged tails
                for got, ref in zip(run(lo, hi), whole):
                    assert np.array_equal(_bits(got), _bits(ref[lo:hi])), (n, lo)
                if n > 64 and lo > 2 * n:
                    break                       # large calls: a few suffice

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("C,S", SHAPES)
    def test_mask_rescale_equals_max_rescale(self, rng, C, S, dtype):
        """``all(x < t)`` ≡ ``max(x) < t`` row by row — NaN, ±0, subnormals."""
        scheme = kernels.ScalingScheme(dtype)
        tiny = np.finfo(dtype).tiny
        below = float(scheme.threshold) / 4
        rows = [
            np.full(C * S, below),                     # rescales
            np.full(C * S, 0.5),                       # does not
            np.full(C * S, 0.0), np.full(C * S, -0.0),  # zeros rescale (stay 0)
            np.full(C * S, tiny / 8),                  # subnormal rescales
            np.full(C * S, np.nan),                    # NaN never does
        ]
        for special in (np.nan, 0.5, float(scheme.threshold)):
            for pos in (0, C * S - 1):                 # one spoiler per row
                row = np.full(C * S, below)
                row[pos] = special
                rows.append(row)
        rows += [rng.choice([below, 0.5, 0.0, tiny / 8], C * S) for _ in range(40)]
        clv = np.array(rows, dtype=dtype).reshape(len(rows), C, S)
        with np.errstate(invalid="ignore"):
            expect = clv.max(axis=(1, 2)) < scheme.threshold
        want = clv.copy()
        want[expect] *= scheme.multiplier
        counts = np.zeros(len(rows), dtype=np.int32)
        n = kernels.rescale_clv(clv, counts, scheme)
        assert n == expect.sum() and np.array_equal(counts, expect.astype(np.int32))
        assert np.array_equal(_bits(clv), _bits(want))
        # … and under a member axis, through the fused entry point.
        stack = np.array(rows, dtype=dtype).reshape(1, len(rows), C, S).repeat(2, 0)
        ones = np.ones_like(stack)
        member_rows = [np.zeros(len(rows), np.int32) for _ in range(2)]
        assert kernels.combine_and_rescale_batch(
            stack, ones, stack, member_rows, scheme) == 2 * n
        for m in range(2):
            assert np.array_equal(member_rows[m], counts)
            assert np.array_equal(_bits(stack[m]), _bits(want))


#: Each alphabet's unambiguous states plus ambiguity codes and the gap.
_TIP_SYMBOLS = {DNA.name: "ACGTRYKMSWBDHVN-",
                AMINO_ACID.name: "ACDEFGHIKLMNPQRSTVWYBZX-"}


class TestTipPairGather:
    """A cherry's update is one gather from the pair table of its two
    branches' tip tables; it must carry the bits of the fused group path
    — two ``propagate_tip`` gathers, then the product and the rescale —
    and the same scale counts, at every row count."""

    @settings(max_examples=40, deadline=None)
    @given(alphabet=st.sampled_from([DNA, AMINO_ACID]),
           dtype=st.sampled_from([np.float64, np.float32]),
           categories=st.integers(1, 4),
           rows=st.sampled_from([1, 2, 257, None]),
           seed=st.integers(0, 2**32 - 1))
    def test_pair_gather_equals_two_gathers_and_product(
            self, alphabet, dtype, categories, rows, seed):
        rng = np.random.default_rng(seed)
        S = alphabet.num_states
        # The engine's dense codes: indices into the codes present.
        present = np.unique([alphabet.encode_char(c)
                             for c in _TIP_SYMBOLS[alphabet.name]])
        bits = np.arange(S, dtype=present.dtype)
        cm = ((present[:, None] >> bits) & 1).astype(dtype)
        patterns = 600
        codes = rng.integers(0, len(present), (2, patterns))
        P = rng.random((2, categories, S, S))
        P /= P.sum(axis=-1, keepdims=True)
        # Some pairs underflow, so the rescale fires on some sites.
        P[1, :, :, :] *= 10.0 ** rng.integers(-80, 1)
        P = P.astype(dtype)
        left, right = (kernels.BranchOperator(P[i], cm) for i in (0, 1))
        scheme = kernels.ScalingScheme(dtype)
        lo = 0 if rows is None else int(rng.integers(0, patterns - rows + 1))
        hi = patterns if rows is None else lo + rows
        l_codes, r_codes = codes[0, lo:hi], codes[1, lo:hi]

        got = np.empty((hi - lo, categories, S), dtype=dtype)
        got_counts = np.zeros(hi - lo, dtype=np.int32)
        kernels.update_clv(got, left, right, None, None, l_codes, r_codes,
                           cm, got_counts, scheme, kernels.Scratch())

        stack = np.empty((2, 1, hi - lo, categories, S), dtype=dtype)
        kernels.propagate_tip(left, l_codes, cm, stack[0, 0])
        kernels.propagate_tip(right, r_codes, cm, stack[1, 0])
        want_counts = np.zeros(hi - lo, dtype=np.int32)
        kernels.combine_and_rescale_batch(stack[0], stack[1], stack[0],
                                          [want_counts], scheme)
        assert np.array_equal(_bits(got), _bits(stack[0, 0]))
        assert np.array_equal(got_counts, want_counts)
