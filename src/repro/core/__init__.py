"""Out-of-core ancestral-probability-vector machinery — the paper's contribution.

The central class is :class:`~repro.core.vecstore.AncestralVectorStore`,
the Python equivalent of the paper's ``map``/``nodemap`` bookkeeping
structures (§3.2): ``n`` logical vectors live either in one of ``m < n``
RAM *slots* or in a backing store (a single binary file in the paper), and
every access goes through :meth:`~repro.core.vecstore.AncestralVectorStore.get`
— the paper's ``getxvector()`` — which transparently swaps vectors, honours
pinned slots, applies a pluggable replacement strategy (§3.3) and the
read-skipping optimization (§3.4), and counts every hit, miss, read and
write for the evaluation (§4).
"""
