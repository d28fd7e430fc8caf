"""Constructive Berbee couplings on finite spaces.

Both constructions materialize the extended joint law explicitly, after
checking its cell count against ``pmf.CELL_CAP`` and before building any array,
and both are array operations over every conditioning atom at once.  The
maximal coupling of each conditional law P(.|v) with P(w) places the overlap
mass min(P(w|v), P(w)) on the diagonal and matches the residuals
proportionally; atoms of zero mass get zero rows.  The single-pair coupling
weights these couplings by P(v).  The sequence version proceeds by backward
induction: each step couples V_k against the block formed by the original past
and the already-starred future, and lays the row-normalized couplings over the
extended joint's axes.

The sequence version holds its extended joint in one fixed layout throughout:
V_1..V_N, then the stars in reverse, V*_N..V*_1, each a single cell until it
is drawn.  The result is a transposed view, V_1..V_N, V*_1..V*_N, of that
memory.  The stars stay reversed in memory because the pair marginals behind
the mismatch probabilities sum in memory order: another order changes the
mismatches in their last bits.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import MalformedInputError
from .mixing import _dependence, pairwise_beta
from .pmf import JointPmf, _check_cells, _sum_onto, joint_to_json


def _maximal_coupling(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Maximal couplings (..., s, s) of a C-ordered stack of pmfs p (..., s) with one pmf q.

    Each coupling's rows sum to its p and its columns to q.  The diagonal carries
    min(p, q); off-diagonal residual mass is the product of the two residual
    profiles normalized by the total variation distance.
    """
    overlap = np.minimum(p, q)
    d = 1.0 - overlap.sum(axis=-1)[..., None, None]
    residual = np.zeros(overlap.shape + overlap.shape[-1:])
    outer = (p - overlap)[..., :, None] * (q - overlap)[..., None, :]
    np.divide(outer, d, out=residual, where=d > 1e-15)
    return residual + overlap[..., None] * np.eye(overlap.shape[-1])


@dataclass(frozen=True)
class CouplingResult:
    """Extended joint over the original axes followed by starred copies.

    ``starred_indices`` names the original axis position behind each trailing
    starred axis, in the order the starred axes appear; ``mismatch_probs`` is
    aligned with it.
    """

    extended_joint: JointPmf
    n_original: int
    starred_indices: tuple
    mismatch_probs: tuple

    def starred_axis(self, k: int) -> int:
        """Position in the extended joint of the starred copy of original axis k."""
        return self.n_original + self.starred_indices.index(k)

    def to_json(self) -> dict:
        doc = joint_to_json(self.extended_joint)
        doc["n_original"] = self.n_original
        doc["starred_indices"] = list(self.starred_indices)
        doc["mismatch_probs"] = list(self.mismatch_probs)
        return doc


def berbee_couple(joint: JointPmf) -> CouplingResult:
    """Couple W against V: extend a two-axis joint (V, W) with W*.

    W* has the law of W, is independent of V, and P(W != W*) equals the
    dependence coefficient of the input joint exactly.  Conditioning atoms of
    V with zero mass contribute nothing (diagonal coupling by convention).
    """
    if joint.n_axes != 2:
        raise MalformedInputError(f"expected a two-axis joint, got {joint.n_axes} axes")
    p = joint.probs
    _check_cells(p.size * p.shape[1])
    p_v = p.sum(axis=1, keepdims=True)
    cond = np.divide(p, p_v, out=np.zeros(p.shape), where=p_v > 0.0)
    ext = p_v[..., None] * _maximal_coupling(cond, p.sum(axis=0))
    # off-diagonal mass, exactly zero when the coupling is diagonal
    mismatch = float(ext.sum() - np.einsum("vww->", ext))
    extended = JointPmf(joint.axes + (joint.axes[1],), ext)
    return CouplingResult(extended, 2, (1,), (max(mismatch, 0.0),))


def generalized_berbee(process: JointPmf) -> CouplingResult:
    """Backward-induction coupling of a whole finite process.

    Produces starred copies V*_1..V*_N with independent entries, each with the
    law of its original, V*_1 = V_1 a.s., and P(V_k != V*_k) equal to the
    dependence coefficient between V_k and V_{1:k-1}.  Step k couples V_k
    against the block (V_{1:k-1}, V*_{k+1:N}).
    """
    n = process.n_axes
    shape = process.probs.shape
    _check_cells(process.probs.size**2)  # each step only grows ext: the result is the largest
    ext = process.probs.reshape(shape + (1,) * n)  # the fixed layout, no star drawn yet

    for k in range(n - 1, 0, -1):
        p_w = process.marginal((k,))
        # joint of the conditioning block (V_{1:k-1}, V*_{N..k+1}) and V_k, block
        # axes leading; C order so that each atom's row sums as it would on its own
        keep = [*range(k), *range(n, 2 * n - 1 - k), k]
        block = np.ascontiguousarray(_sum_onto(ext, keep))
        p_u = block.sum(axis=-1, keepdims=True)
        cond = np.divide(block, p_u, out=np.zeros(block.shape), where=p_u > 0.0)
        coupling = _maximal_coupling(cond, p_w)
        # P(V*_k | block, V_k), indexed (block atom, V_k, V*_k), laid over ext's axes
        rows = np.divide(coupling, cond[..., None], out=np.zeros(coupling.shape), where=cond[..., None] > 0.0)
        singles = (*range(k + 1, n), *range(2 * n - k, 2 * n))
        ext = ext * np.expand_dims(np.moveaxis(rows, -2, k), singles)

    # V*_1 is V_1 itself: a diagonal copy of axis 0 in the last axis
    s0 = shape[0]
    ext = ext * np.eye(s0).reshape(s0, *([1] * (2 * n - 2)), s0)
    ext = np.transpose(ext, [*range(n), *range(2 * n - 1, n - 1, -1)])
    extended = JointPmf(process.axes + process.axes, ext)

    pairs = (extended.marginal((k, n + k)) for k in range(n))
    mismatch = tuple(max(float(pair.sum() - np.trace(pair)), 0.0) for pair in pairs)
    return CouplingResult(extended, n, tuple(range(n)), mismatch)


@dataclass(frozen=True)
class CouplingReport:
    """Max-norm discrepancies of the three coupling properties."""

    marginal_error: float
    independence_error: float
    mismatch_error: float


def verify_coupling(result: CouplingResult, original: JointPmf) -> CouplingReport:
    """Exhaustively check marginal preservation, independence, and mismatch equality.

    Marginal: the extended joint restricted to the original axes reproduces the
    input, and each starred marginal equals the corresponding original one.
    Independence: the starred block factorizes into its one-dimensional
    marginals, and for each starred index k the original past V_{1:k-1} is
    independent of the starred block from k on.  Mismatch: each recorded
    mismatch probability equals the pairwise dependence coefficient computed
    from the original joint.
    """
    ext = result.extended_joint
    n = result.n_original
    if ext.n_axes != n + len(result.starred_indices):
        raise MalformedInputError("extended joint shape inconsistent with starred indices")
    if original.n_axes != n:
        raise MalformedInputError("original joint has wrong axis count")

    marg_err = float(np.abs(ext.marginal(range(n)) - original.probs).max())
    for k in result.starred_indices:
        star = ext.marginal((result.starred_axis(k),))
        orig = original.marginal((k,))
        marg_err = max(marg_err, float(np.abs(star - orig).max()))

    star_axes = tuple(result.starred_axis(k) for k in result.starred_indices)
    indep_err = 0.0
    if len(star_axes) > 1:
        block = ext.marginal(star_axes)
        product = functools.reduce(np.multiply.outer, (ext.marginal((ax,)) for ax in star_axes))
        indep_err = float(np.abs(block - product).max())
    for k in sorted(k for k in result.starred_indices if k > 0):
        future_stars = tuple(result.starred_axis(j) for j in result.starred_indices if j >= k)
        dependence = _dependence(ext.grouped(tuple(range(k)), future_stars))
        indep_err = max(indep_err, float(np.abs(dependence).max()))

    mm_err = 0.0
    for k, mm in zip(result.starred_indices, result.mismatch_probs):
        mm_err = max(mm_err, abs(mm - pairwise_beta(original, tuple(range(k)), (k,))))

    return CouplingReport(marg_err, indep_err, mm_err)
