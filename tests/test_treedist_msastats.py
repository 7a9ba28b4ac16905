"""Tests for the alignment diagnostics (``repro.phylo.msa_stats``)."""

import numpy as np
import pytest

from repro import Alignment, GTR, simulate_alignment, yule_tree
from repro.phylo.msa_stats import (
    composition_chi2_test,
    gap_fraction,
    mean_pairwise_identity,
    per_taxon_composition,
    proportion_invariant_sites,
    summarize,
)


class TestMsaStats:
    def test_gap_fraction(self):
        aln = Alignment.from_sequences([("a", "AC-T"), ("b", "A--T")])
        assert gap_fraction(aln) == pytest.approx(3 / 8)

    def test_invariant_proportion(self):
        aln = Alignment.from_sequences([("a", "AACG"), ("b", "AATG")])
        # cols 0,1,3 invariant; col 2 differs
        assert proportion_invariant_sites(aln) == pytest.approx(0.75)

    def test_ambiguity_counts_as_compatible(self):
        aln = Alignment.from_sequences([("a", "R"), ("b", "A")])
        assert proportion_invariant_sites(aln) == 1.0

    def test_identity_identical_rows(self):
        aln = Alignment.from_sequences([("a", "ACGT"), ("b", "ACGT")])
        assert mean_pairwise_identity(aln) == 1.0

    def test_per_taxon_composition_rows_sum_one(self, small_alignment):
        comp = per_taxon_composition(small_alignment)
        np.testing.assert_allclose(comp.sum(axis=1), 1.0, atol=1e-12)

    def test_composition_test_homogeneous_data(self):
        tree = yule_tree(10, seed=54, scale=0.05)
        aln = simulate_alignment(tree, GTR(), 2000, seed=55)
        result = composition_chi2_test(aln)
        assert result.homogeneous
        assert result.degrees_of_freedom == 9 * 3

    def test_composition_test_detects_heterogeneity(self):
        rng = np.random.default_rng(56)
        n, s = 6, 2000
        codes = np.empty((n, s), dtype=np.uint8)
        # half the taxa GC-rich, half AT-rich: grossly heterogeneous
        for i in range(n):
            probs = [0.05, 0.45, 0.45, 0.05] if i < 3 else [0.45, 0.05, 0.05, 0.45]
            codes[i] = np.left_shift(1, rng.choice(4, size=s, p=probs))
        from repro import DNA
        aln = Alignment([f"t{i}" for i in range(n)], codes, DNA)
        assert not composition_chi2_test(aln).homogeneous

    def test_summarize(self, small_alignment):
        summary = summarize(small_alignment)
        assert summary.num_taxa == small_alignment.num_taxa
        assert "taxa" in str(summary)
