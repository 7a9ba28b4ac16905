"""Numpy PLF kernels on one GEMM lowering.

All kernels operate on *conditional likelihood vectors* (CLVs, the paper's
"ancestral probability vectors") laid out as contiguous arrays of shape
``(patterns, categories, states)`` — for DNA under Γ4 that is the
``s × 4 × 4`` doubles block whose size the paper computes in §3.1.

Every per-pattern contraction is lowered the same way (DESIGN.md, "Kernel
lowering"): a CLV is viewed as contiguous ``(rows, C·S)``, and the tiny
per-branch operator — the block-diagonal ``(C·S, C·S)`` form of ``P``, see
:class:`BranchOperator` — multiplies it in one BLAS call (:func:`gemm`)
written straight into preallocated memory. A tip side is one table
gather (two tip sides one gather from their pair table), the
Felsenstein product is one in-place ``multiply``, and the
rescale is decided from a compare mask rather than a second float
reduction: three streams per update, no temporaries. A leading member
axis on every operand runs a stack of independent updates through the
very same calls, so per-member ≡ batched holds by construction. Newton's
terms, always evaluated on a whole sumtable, are the one product that
does not go through :func:`gemm` (:func:`branch_terms`).

Numerical scaling follows RAxML: whenever every state's likelihood at a
site drops below ``2^-256``, the site is multiplied by ``2^256`` and a
per-site counter is incremented; the log-likelihood subtracts
``count · 256 · ln 2`` at the root. Scaling decisions depend only on CLV
values and :func:`gemm` is row-independent, so out-of-core, blocked and
batched execution reproduce in-core results bit-for-bit (the paper's §4.1
correctness criterion).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import LikelihoodError

#: The declared price of recomputing a vector that the planner weighs
#: against a read (:func:`~repro.phylo.likelihood.traversal.plan_edge_traversal`):
#: ``STEP_PRICE_S`` per update plus ``ROW_PRICE_S`` per class row of a
#: DNA Γ4 operator (C·S = 16). A row of another width is priced
#: ``ROW_PRICE_S · (C·S / 16)²``, the growth of its product by the
#: ``(C·S, C·S)`` operator: a protein Γ4 row (80) costs 25 × a DNA one.
#: From ``benchmarks/out/kernel_throughput.txt``, row "recompute price"
#: (``bench_kernels.py``: D128x4k seed 42, gather + :func:`update_clv`).
#: Committed, not clocked, so a plan stays a pure function of its inputs.
STEP_PRICE_S = 28.5e-6
ROW_PRICE_S = 56e-9


class ScalingScheme:
    """Dtype-dependent rescaling constants.

    float64 uses RAxML's ``2^±256``; float32 (the single-precision mode of
    Berger & Stamatakis 2010, paper ref. [1]) must stay inside its narrow
    exponent range and uses ``2^±30``.
    """

    def __init__(self, dtype=np.float64) -> None:
        dtype = np.dtype(dtype)
        if dtype == np.float64:
            self.exponent = 256
        elif dtype == np.float32:
            self.exponent = 30
        else:
            raise LikelihoodError(f"unsupported CLV dtype {dtype}")
        self.dtype = dtype
        self.threshold = dtype.type(2.0) ** (-self.exponent)
        self.multiplier = dtype.type(2.0) ** self.exponent
        self.log_multiplier = self.exponent * np.log(2.0)  # ln(2^exponent)


# -- the primitive ---------------------------------------------------------------


def gemm_width(n: int, dtype) -> int:
    """``n`` rounded up to the operator width :func:`gemm` may be given.

    OpenBLAS switches between a small-matrix kernel and the packed one on
    ``rows · K · N``, and the two round differently in the columns past
    the last full SIMD register. With ``N`` a whole number of 64-byte
    registers (8 doubles, 16 floats) there is no such remainder and a
    row's bits do not depend on how many rows share its call.
    """
    quantum = 64 // np.dtype(dtype).itemsize
    return -(-n // quantum) * quantum


def pad_columns(columns: np.ndarray) -> np.ndarray:
    """``(K, n)`` operator columns zero-padded to ``(K, gemm_width(n))``."""
    K, n = columns.shape
    out = np.zeros((K, gemm_width(n, columns.dtype)), dtype=columns.dtype)
    out[:, :n] = columns
    return out


def gemm(x: np.ndarray, op: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x @ op`` for ``x`` of ``(…, rows, K)``, row-independent.

    The one BLAS call every kernel goes through. ``op``'s last axis must
    be a :func:`gemm_width`; a single row is computed as two (numpy hands
    a 1-row product to GEMV, which accumulates in a different order), so
    any row's output bits are the same in a call of 1, 2, 256 or all rows,
    at any offset, with or without leading member axes —
    tests/test_kernels.py holds this as a property.
    """
    if x.shape[-2] == 1:
        res = np.matmul(np.concatenate((x, x), axis=-2), op)[..., :1, :]
        if out is None:
            return res
        out[...] = res
        return out
    return np.matmul(x, op, out=out)


class Scratch:
    """Reusable kernel work space: buffers grown on demand, never shrunk.

    An engine owns one and passes it to every kernel call, so the steady
    state allocates nothing; kernels called without one allocate afresh.
    """

    def __init__(self) -> None:
        self._buffers: dict = {}

    def get(self, key, shape: tuple, dtype) -> np.ndarray:
        """An uninitialised C-contiguous ``shape`` array on buffer ``key``."""
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[key] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


def _rows(clv: np.ndarray, writable: bool = False) -> np.ndarray:
    """``(…, rows, C, S)`` viewed as ``(…, rows, C·S)``.

    An operand may be copied to make it contiguous; an output may not.
    """
    if not clv.flags.c_contiguous:
        if writable:
            raise LikelihoodError("kernel outputs must be C-contiguous")
        clv = np.ascontiguousarray(clv)
    return clv.reshape(*clv.shape[:-2], -1)


def block_diagonal(P: np.ndarray) -> np.ndarray:
    """``(…, C, S, S)`` matrices as one ``(…, C·S, gemm_width(C·S))`` operator.

    ``clv2d @ op`` is then ``out[i, c·S+a] = Σ_b P[c,a,b] · clv[i,c,b]``
    for every category at once; columns past ``C·S`` are zero padding.
    """
    *lead, C, S, _ = P.shape
    W = C * S
    op = np.zeros((*lead, W, gemm_width(W, P.dtype)), dtype=P.dtype)
    for c in range(C):
        lo = c * S
        op[..., lo:lo + S, lo:lo + S] = P[..., c, :, :].swapaxes(-1, -2)
    return op


def indicator_table(code_matrix: np.ndarray, categories: int) -> np.ndarray:
    """The tip CLV row of every code: ``(K, S)`` repeated to ``(K, C·S)``."""
    return np.tile(code_matrix, (1, categories))


class BranchOperator:
    """One branch's constants in the form the kernels consume.

    ``P`` is the ``(C, S, S)`` matrix stack it was lowered from (any
    leading member axes allowed), ``op`` its :func:`block_diagonal` form
    and ``tips`` the ``(K, C·S)`` table whose row ``k`` is the branch's
    contribution for observed code ``k`` — RAxML's ``tipVector``
    precomputation, built on first use. Whoever caches the operator (the
    engine, per branch length) pays the lowering once.
    """

    __slots__ = ("P", "op", "_code_matrix", "_tips")

    def __init__(self, P: np.ndarray, code_matrix: np.ndarray) -> None:
        self.P = P
        self.op = block_diagonal(P)
        self._code_matrix = code_matrix
        self._tips: np.ndarray | None = None

    @property
    def tips(self) -> np.ndarray:
        if self._tips is None:
            W = self.op.shape[-2]
            table = gemm(indicator_table(self._code_matrix, self.P.shape[-3]),
                         self.op)
            self._tips = np.ascontiguousarray(table[..., :W])
        return self._tips


def lower(P, code_matrix: np.ndarray) -> BranchOperator:
    """``P`` as a :class:`BranchOperator` (itself, if it already is one)."""
    return P if isinstance(P, BranchOperator) else BranchOperator(P, code_matrix)


def _gather(table: np.ndarray, codes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[…, i, :] = table[…, codes[…, i], :]`` in one ``take``.

    ``codes`` must index the table's rows (the engine's dense codes do);
    ``mode="clip"`` is what lets ``take`` write ``out`` unbuffered.
    """
    K, W = table.shape[-2:]
    if table.ndim > 2:  # one table per member: offset into the flat stack
        codes = codes + K * np.arange(len(table))[:, None]
        table = table.reshape(-1, W)
    return np.take(table, codes, axis=0, out=out, mode="clip")


def _one_of(clv, codes, name: str) -> None:
    if (clv is None) == (codes is None):
        raise LikelihoodError(f"{name} must be exactly one of CLV or tip codes")


def _contribution(branch: BranchOperator, clv, codes, scratch: Scratch, key,
                  dest: np.ndarray | None = None) -> np.ndarray:
    """One child's conditionals at the parent end of ``branch``, as rows.

    Computed into ``dest`` (contiguous ``(…, rows, C·S)``; default:
    scratch buffer ``key``) and returned — except under a padded operator
    width, where the result is the ``[..., :C·S]`` view of a padded
    scratch product and ``dest`` is left untouched.
    """
    op = branch.op
    W, padded = op.shape[-2:]
    if clv is None:
        if dest is None:
            dest = scratch.get(key, (*codes.shape, W), op.dtype)
        return _gather(branch.tips, codes, dest)
    x = _rows(clv)
    if W != padded:
        wide = scratch.get(key, (*x.shape[:-1], padded), x.dtype)
        return gemm(x, op, out=wide)[..., :W]
    if dest is None:
        dest = scratch.get(key, x.shape, x.dtype)
    return gemm(x, op, out=dest)


#: The byte pattern of an all-True run of ``size`` bools, as one word.
_ALL_TRUE = {size: int.from_bytes(b"\x01" * size, "little") for size in (8, 4, 2, 1)}


def _all_true_rows(mask: np.ndarray) -> np.ndarray:
    """``mask.all(axis=-1)`` of a contiguous bool array, over packed words.

    Reducing along a short last axis is numpy's slow case; AND-ing the
    row's bytes as a few machine words is not.
    """
    size = next(s for s in _ALL_TRUE if mask.shape[-1] % s == 0)
    words = mask.view(f"u{size}")
    acc = words[..., 0]
    for j in range(1, words.shape[-1]):
        acc = acc & words[..., j]
    return acc == _ALL_TRUE[size]


def _rescale(rows: np.ndarray, scale_counts, scheme: ScalingScheme,
             scratch: Scratch) -> int:
    """Rescale ``(…, I, C·S)`` rows in place; returns how many were.

    ``all(x < threshold)`` is ``max(x) < threshold`` — a NaN fails both —
    so the decision needs one compare pass writing a byte per element, not
    a second float reduction. With a member axis ``scale_counts`` is the
    list of per-member rows.
    """
    mask = scratch.get("mask", rows.shape, np.bool_)
    np.less(rows, scheme.threshold, out=mask)
    hit = _all_true_rows(mask)
    n = int(np.count_nonzero(hit))
    if n:
        rows[hit] *= scheme.multiplier
        if hit.ndim == 1:
            scale_counts[hit] += 1
        else:
            for m in np.flatnonzero(hit.any(axis=1)):
                scale_counts[m][hit[m]] += 1
    return n


# -- propagation and the Felsenstein step ------------------------------------------


def propagate_tip(P, codes: np.ndarray, code_matrix: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Child contribution of a *tip* across branch ``P``: ``(…, patterns, C, S)``.

    A pure gather from the branch's tip table — no arithmetic — written
    into ``out`` when given.
    """
    branch = lower(P, code_matrix)
    if out is None:
        out = np.empty((*codes.shape, *branch.P.shape[-3:-1]),
                       dtype=branch.op.dtype)
    _gather(branch.tips, codes, _rows(out, writable=True))
    return out


def propagate_inner(P, clv: np.ndarray, out: np.ndarray | None = None,
                    scratch: Scratch | None = None) -> np.ndarray:
    """Child contribution of an *inner* CLV across branch ``P``.

    ``clv`` is ``(…, patterns, C, S)``; returns the same shape (``out``
    when given): ``out[i,c,a] = Σ_b P[c,a,b] · clv[i,c,b]``.
    """
    if out is None:
        out = np.empty(clv.shape, dtype=clv.dtype)
    dest = _rows(out, writable=True)
    got = _contribution(lower(P, None), clv, None, scratch or Scratch(), 0, dest)
    if got is not dest:
        np.copyto(dest, got)
    return out


def rescale_clv(clv: np.ndarray, scale_counts: np.ndarray, scheme: ScalingScheme,
                scratch: Scratch | None = None) -> int:
    """Apply per-site underflow rescaling in place; returns sites rescaled.

    ``scale_counts`` is the ``(patterns,)`` int32 row for this node; it must
    already hold the *sum of the children's counts* (the caller's job) and
    is incremented where this update triggered a rescale.
    """
    return _rescale(_rows(clv, writable=True), scale_counts, scheme,
                    scratch or Scratch())


def combine_and_rescale_batch(
    left: np.ndarray,
    right: np.ndarray,
    out: np.ndarray,
    scale_rows: list[np.ndarray],
    scheme: ScalingScheme,
    scratch: Scratch | None = None,
) -> int:
    """The Felsenstein product fused with :func:`rescale_clv`, over a stack.

    ``left``/``right``/``out`` are ``(M, I, C, S)`` (``out`` may be
    ``left``); ``scale_rows[m]`` is member ``m``'s ``(I,)`` int32
    scale-count slice (pre-loaded with the children's counts, exactly as
    :func:`rescale_clv` requires). Returns the total number of (member,
    site) rescales applied. The product and the compare mask are elementwise
    and the power-of-two multiply is exact, so scaling decisions — and
    hence the counters and the CLV bits — match the per-member path.
    """
    np.multiply(left, right, out=out)
    return _rescale(_rows(out, writable=True), scale_rows, scheme,
                    scratch or Scratch())


def child_product(
    out: np.ndarray,
    left,
    right,
    left_clv: np.ndarray | None,
    right_clv: np.ndarray | None,
    left_codes: np.ndarray | None,
    right_codes: np.ndarray | None,
    code_matrix: np.ndarray,
    scratch: Scratch | None = None,
) -> np.ndarray:
    """``out = (left · its child) ∘ (right · its child)``; returns its rows.

    The body shared by :func:`update_clv` (transition operators, then a
    rescale) and :func:`branch_sumtable` (eigenvector operators): the
    left contribution lands in scratch, the right one straight in
    ``out``, and the product is taken in place. ``left``/``right`` are
    ``(C, S, S)`` stacks or cached :class:`BranchOperator`; each side is
    an inner CLV or tip codes. ``out`` must not alias an operand.

    Two tips (no member axis) are one gather from the pair table
    ``tips_L[l] ∘ tips_R[r]`` at row ``l·K_R + r``: each row is the very
    product the two gathers and the ``multiply`` would compute.
    """
    _one_of(left_clv, left_codes, "left child")
    _one_of(right_clv, right_codes, "right child")
    if scratch is None:
        scratch = Scratch()
    rows = _rows(out, writable=True)
    left = lower(left, code_matrix)
    right = lower(right, code_matrix)
    if left_codes is not None and right_codes is not None \
            and left_codes.ndim == 1:
        tips_l, tips_r = left.tips, right.tips
        (k_l, width), k_r = tips_l.shape, len(tips_r)
        pairs = scratch.get("pairs", (k_l, k_r, width), tips_l.dtype)
        np.multiply(tips_l[:, None, :], tips_r[None, :, :], out=pairs)
        codes = scratch.get("pair_codes", left_codes.shape, np.intp)
        np.multiply(left_codes, k_r, out=codes)
        np.add(codes, right_codes, out=codes)
        return _gather(pairs.reshape(-1, width), codes, rows)
    lc = _contribution(left, left_clv, left_codes, scratch, 0)
    rc = _contribution(right, right_clv, right_codes, scratch, 1, rows)
    np.multiply(lc, rc, out=rows)
    return rows


def update_clv(
    out: np.ndarray,
    P_left,
    P_right,
    left_clv: np.ndarray | None,
    right_clv: np.ndarray | None,
    left_codes: np.ndarray | None,
    right_codes: np.ndarray | None,
    code_matrix: np.ndarray,
    scale_counts,
    scheme: ScalingScheme,
    scratch: Scratch | None = None,
) -> None:
    """One Felsenstein-pruning step: fill ``out`` from its two children.

    Each child is either an inner CLV (``*_clv`` given) or a tip
    (``*_codes`` given); exactly one of the two must be non-None per side.
    ``scale_counts`` must be pre-loaded with the children's counts.
    ``P_*`` are ``(C, S, S)`` transition stacks or the engine's cached
    :class:`BranchOperator`.
    """
    if scratch is None:
        scratch = Scratch()
    rows = child_product(out, P_left, P_right, left_clv, right_clv,
                         left_codes, right_codes, code_matrix, scratch)
    _rescale(rows, scale_counts, scheme, scratch)


def update_clv_batch(
    out: np.ndarray,
    P_left,
    P_right,
    left_clv: np.ndarray | None,
    right_clv: np.ndarray | None,
    left_codes: np.ndarray | None,
    right_codes: np.ndarray | None,
    code_matrix: np.ndarray,
    scale_rows: list[np.ndarray],
    scheme: ScalingScheme,
    scratch: Scratch | None = None,
) -> None:
    """A stack of independent Felsenstein steps as one fused update.

    :func:`update_clv` with a leading member axis ``M`` on every operand
    (``P_*`` of ``(M, C, S, S)``, ``*_clv`` of ``(M, I, C, S)``,
    ``*_codes`` of ``(M, I)``, one scale row per member): numpy runs the
    same per-member GEMM ``M`` times inside one call, so the bits equal a
    loop of :func:`update_clv` calls. Each *side* is homogeneous — all
    inner or all tips; the engine, whose groups mix the two, propagates
    member by member at fetch time and fuses only the product and the
    rescale (:func:`combine_and_rescale_batch`).
    """
    update_clv(out, P_left, P_right, left_clv, right_clv, left_codes,
               right_codes, code_matrix, scale_rows, scheme, scratch)


# -- evaluation across an edge -------------------------------------------------------


def site_reducer(freqs: np.ndarray, cat_weights: np.ndarray) -> np.ndarray:
    """The :func:`edge_reduce` operator whose column 0 is ``w_c · π_a``."""
    return pad_columns(np.outer(cat_weights, freqs).reshape(-1, 1))


def edge_reduce(
    P,
    reducer: np.ndarray,
    u_clv: np.ndarray | None,
    v_clv: np.ndarray | None,
    u_codes: np.ndarray | None,
    v_codes: np.ndarray | None,
    code_matrix: np.ndarray,
    scratch: Scratch | None = None,
) -> np.ndarray:
    """``(U ∘ P·V) @ reducer``: per-pattern sums across the virtual-root edge.

    ``U`` is the CLV (or tip indicator) at one end and ``V`` at the other;
    the branch matrix ``P`` is folded into the ``V`` side. ``reducer`` is
    a ``(C·S, gemm_width)`` operator (e.g. :func:`site_reducer`); the
    result has its column count.
    """
    _one_of(u_clv, u_codes, "u side")
    _one_of(v_clv, v_codes, "v side")
    if scratch is None:
        scratch = Scratch()
    branch = lower(P, code_matrix)
    folded = _contribution(branch, v_clv, v_codes, scratch, 1)
    prod = scratch.get(0, folded.shape, folded.dtype)
    if u_clv is None:
        categories = folded.shape[-1] // code_matrix.shape[1]
        U = _gather(indicator_table(code_matrix, categories), u_codes, prod)
    else:
        U = _rows(u_clv)
    np.multiply(U, folded, out=prod)
    return gemm(prod, reducer)


def edge_site_likelihoods(
    P,
    freqs: np.ndarray,
    cat_weights: np.ndarray,
    u_clv: np.ndarray | None,
    v_clv: np.ndarray | None,
    u_codes: np.ndarray | None,
    v_codes: np.ndarray | None,
    code_matrix: np.ndarray,
) -> np.ndarray:
    """Per-pattern likelihoods evaluated across the virtual-root edge.

    ``L_i = Σ_c w_c Σ_a π_a · U[i,c,a] · (P_c · V)[i,c,a]``. Scaling
    counters are *not* applied here — the caller adds
    ``(counts_u + counts_v) · log_multiplier`` in log space.
    """
    return edge_reduce(P, site_reducer(freqs, cat_weights), u_clv, v_clv,
                       u_codes, v_codes, code_matrix)[:, 0]


def log_likelihood_from_sites(
    site_l: np.ndarray,
    pattern_weights: np.ndarray,
    scale_counts_sum: np.ndarray,
    scheme: ScalingScheme,
) -> float:
    """Weighted log-likelihood with scaling-counter correction.

    ``lnL = Σ_i w_i · (ln L_i − counts_i · ln(multiplier))``. Raises if any
    site likelihood is non-positive (a kernel bug or a zero-probability
    pattern under the model).
    """
    if np.any(site_l <= 0.0) or not np.all(np.isfinite(site_l)):
        bad = int(np.argmin(site_l))
        raise LikelihoodError(
            f"non-positive site likelihood at pattern {bad}: {site_l[bad]!r}"
        )
    return float(
        pattern_weights @ (np.log(site_l) - scale_counts_sum * scheme.log_multiplier)
    )


# -- branch-length optimization (makenewz) ---------------------------------------------


def eigen_operators(
    eigenvectors: np.ndarray,
    inv_eigenvectors: np.ndarray,
    freqs: np.ndarray,
    categories: int,
    code_matrix: np.ndarray,
) -> tuple[BranchOperator, BranchOperator]:
    """The two sumtable operators: ``π_a V[a,k]`` for the ``u`` end and
    ``V⁻¹[k,b]`` for the ``v`` end, the same block for every category."""
    S = len(freqs)
    left = (freqs[:, None] * eigenvectors).T
    return (BranchOperator(np.broadcast_to(left, (categories, S, S)), code_matrix),
            BranchOperator(np.broadcast_to(inv_eigenvectors, (categories, S, S)),
                           code_matrix))


def branch_sumtable(
    eigenvectors: np.ndarray,
    inv_eigenvectors: np.ndarray,
    freqs: np.ndarray,
    u_clv: np.ndarray | None,
    v_clv: np.ndarray | None,
    u_codes: np.ndarray | None,
    v_codes: np.ndarray | None,
    code_matrix: np.ndarray,
) -> np.ndarray:
    """RAxML's ``makenewz`` sumtable: eigen-basis cross terms of the two CLVs.

    Returns ``A`` of shape ``(patterns, C, S)`` with
    ``A[i,c,k] = (Σ_a π_a U[i,c,a] V[a,k]) · (Σ_b V⁻¹[k,b] W[i,c,b])``
    so the per-site likelihood across the branch is the single exponential
    sum ``L_i(t) = Σ_c w_c Σ_k A[i,c,k] e^{λ_k r_c t}`` — the whole
    Newton–Raphson iteration then runs on this table without touching any
    other ancestral vector, which is the access-locality property §4.2
    credits for the low miss rates at tiny slot counts. It is
    :func:`child_product` under :func:`eigen_operators` (the engine caches
    those and calls it directly).
    """
    _one_of(u_clv, u_codes, "u side")
    _one_of(v_clv, v_codes, "v side")
    inner = u_clv if u_clv is not None else v_clv
    categories = 1 if inner is None else inner.shape[-2]
    patterns = len(u_codes if u_clv is None else u_clv)
    left, right = eigen_operators(eigenvectors, inv_eigenvectors, freqs,
                                  categories, code_matrix)
    out = np.empty((patterns, categories, len(freqs)), dtype=left.op.dtype)
    child_product(out, left, right, u_clv, v_clv, u_codes, v_codes, code_matrix)
    return out


class BranchTable:
    """A sumtable bound to its rate spectrum: all of :func:`branch_terms`
    that does not depend on the branch length.

    Newton's loop evaluates one sumtable at several candidate lengths;
    ``lam[c·S+k] = λ_k r_c``, the per-column category weights, the
    transposed ``(C·S, patterns)`` table (cast once to the operator's
    dtype — the cast a mixed-dtype product would repeat per call) and the
    ``(3, C·S)`` operator whose rows each evaluation overwrites are built
    here, once.
    """

    def __init__(self, sumtable: np.ndarray, eigenvalues: np.ndarray,
                 rates: np.ndarray, cat_weights: np.ndarray) -> None:
        self.lam = (eigenvalues[None, :] * rates[:, None]).ravel()
        self.weights = np.repeat(cat_weights, len(eigenvalues))
        dtype = np.result_type(self.weights, self.lam)
        self.columns = np.ascontiguousarray(
            _rows(sumtable).T, dtype=np.result_type(sumtable, dtype))
        self.op = np.empty((3, self.lam.size), dtype=dtype)


def branch_terms(table: BranchTable, t: float) -> tuple[np.ndarray, bool]:
    """``g, g′, g″`` at branch length ``t`` as rows 0–2 of one product,
    and whether every ``g_i`` is positive.

    With ``g_i(t) = Σ_{c,k} w_c A[i,c,k] e^{λ_k r_c t}``, one
    ``(3, C·S) @ (C·S, patterns)`` product of the weighted exponentials
    and their ``λ``, ``λ²`` multiples with the transposed table serves the
    likelihood and both derivatives, each a contiguous row. A length that
    drives some site to numerical zero (or below) has no log-likelihood
    and no derivatives; that is decided here, once per evaluation, for
    every consumer of the terms.
    """
    lam, op = table.lam, table.op
    np.multiply(lam, t, out=op[0])
    np.exp(op[0], out=op[0])
    np.multiply(table.weights, op[0], out=op[0])
    np.multiply(op[0], lam, out=op[1])
    np.multiply(op[1], lam, out=op[2])
    terms = op @ table.columns
    return terms, not np.any(terms[0] <= 0.0)


def derivatives_from_terms(terms: np.ndarray,
                           pattern_weights: np.ndarray) -> tuple[float, float]:
    """``(lnL′, lnL″)`` of the branch log-likelihood from :func:`branch_terms`
    whose ``g`` row is positive throughout.

    The slope is ``Σ_i w_i g′_i/g_i`` and the curvature ``Σ_i w_i
    (g″_i/g_i − (g′_i/g_i)²)``; scaling constants multiply ``g_i`` and
    cancel in the ratios, so no counters are needed.
    """
    g = terms[0]
    r1 = terms[1] / g
    return (float(pattern_weights @ r1),
            float(pattern_weights @ (terms[2] / g - r1 * r1)))


def branch_lnl_and_derivatives(
    sumtable: np.ndarray,
    eigenvalues: np.ndarray,
    rates: np.ndarray,
    cat_weights: np.ndarray,
    pattern_weights: np.ndarray,
    t: float,
):
    """``(site_l, d1, d2)``: raw site likelihoods and the two derivatives
    of the total log-likelihood at branch length ``t`` — NaN for both
    where some site likelihood is not positive, so an optimizer
    backtracks."""
    terms, positive = branch_terms(
        BranchTable(sumtable, eigenvalues, rates, cat_weights), t)
    d1, d2 = (derivatives_from_terms(terms, pattern_weights) if positive
              else (np.nan, np.nan))
    return terms[0], d1, d2
