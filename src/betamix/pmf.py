"""Exact probability mass functions on finite alphabets and finite product grids.

These are the substrate for everything else in the package: dependence
coefficients and couplings are computed by explicit atom sums over dense
joint grids, so all types here validate total mass and nonnegativity at
construction time and keep the full grid in memory: at most ``CELL_CAP`` cells,
a coupling's extended joint included (checked before it is built).  Marginals
and grouped blocks of a joint are plain arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import MalformedInputError, SizeError

MASS_TOL = 1e-12
CELL_CAP = 10**6


def _check_cells(cells: int) -> None:
    if cells > CELL_CAP:
        raise SizeError(f"joint with {cells} cells exceeds cap {CELL_CAP}")


def _sum_onto(probs: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """``probs`` summed onto the axis positions in ``keep``, in that order (a view if none drop)."""
    keep = tuple(int(k) for k in keep)
    if len(set(keep)) != len(keep) or any(k < 0 or k >= probs.ndim for k in keep):
        raise MalformedInputError(f"invalid axis subset {keep}")
    drop = tuple(i for i in range(probs.ndim) if i not in keep)
    probs = np.transpose(probs, keep + drop)
    if drop:
        probs = probs.sum(axis=tuple(range(len(keep), probs.ndim)))
    return probs


@dataclass(frozen=True)
class FinitePmf:
    """A probability mass function over a finite ordered alphabet."""

    support: tuple
    probs: np.ndarray

    def __post_init__(self):
        support = tuple(self.support)
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or len(support) != probs.shape[0]:
            raise MalformedInputError("support and probs must have matching length")
        if len(set(support)) != len(support):
            raise MalformedInputError("support labels must be unique")
        if probs.size == 0:
            raise MalformedInputError("empty support")
        # written so that NaN fails each check
        if not probs.min() >= -MASS_TOL:
            raise MalformedInputError(f"negative probability {probs.min()}")
        if not abs(probs.sum() - 1.0) <= MASS_TOL:
            raise MalformedInputError(f"total mass {probs.sum()} != 1")
        object.__setattr__(self, "probs", np.maximum(probs, 0.0))


@dataclass(frozen=True)
class JointPmf:
    """A pmf over the product grid of finitely many finite alphabets.

    ``probs`` is a dense array with one axis per coordinate.
    """

    axes: tuple
    probs: np.ndarray

    def __post_init__(self):
        axes = tuple(tuple(ax) for ax in self.axes)
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "axes", axes)
        if probs.shape != tuple(len(ax) for ax in axes):
            raise MalformedInputError(
                f"probs shape {probs.shape} does not match axes {tuple(len(a) for a in axes)}"
            )
        _check_cells(probs.size)
        if not probs.min() >= -MASS_TOL:
            raise MalformedInputError(f"negative cell probability {probs.min()}")
        if not abs(probs.sum() - 1.0) <= MASS_TOL:
            raise MalformedInputError(f"total mass {probs.sum()} != 1")
        object.__setattr__(self, "probs", np.maximum(probs, 0.0))

    @property
    def n_axes(self) -> int:
        return len(self.axes)

    def marginal(self, keep: Sequence[int]) -> np.ndarray:
        """Probabilities of the axes in ``keep``, in that order; may share memory with ``probs``."""
        return _sum_onto(self.probs, keep)

    def grouped(self, left: Sequence[int], right: Sequence[int]) -> np.ndarray:
        """Probabilities of the grouped coordinates as a (left block, right block) array.

        Each block is flattened row-major over its member axes, in the order given.
        The array may share memory with ``probs``: read it, do not write to it.
        """
        left, right = tuple(left), tuple(right)
        if set(left) & set(right):
            raise MalformedInputError("left and right groups must be disjoint")
        probs = _sum_onto(self.probs, left + right)
        return probs.reshape(math.prod(probs.shape[: len(left)]), -1)


@dataclass(frozen=True)
class MarkovChainSpec:
    """A finite-state Markov chain: states, row-stochastic transition, initial law."""

    states: tuple
    transition: np.ndarray
    initial: FinitePmf

    def __post_init__(self):
        states = tuple(self.states)
        transition = np.asarray(self.transition, dtype=float)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transition", transition)
        k = len(states)
        if transition.shape != (k, k):
            raise MalformedInputError(f"transition shape {transition.shape} != ({k},{k})")
        if not transition.min() >= -MASS_TOL:
            raise MalformedInputError("negative transition probability")
        rowsums = transition.sum(axis=1)
        if not np.abs(rowsums - 1.0).max() <= MASS_TOL:
            raise MalformedInputError(f"transition rows must sum to 1, got {rowsums}")
        if self.initial.support != states:
            raise MalformedInputError("initial law support must equal the state set")

    @property
    def n_states(self) -> int:
        return len(self.states)

    def marginal_matrix(self, n: int) -> np.ndarray:
        """Stacked marginals mu_1..mu_n as an (n, states) array."""
        out = np.empty((n, self.n_states))
        mu = self.initial.probs.copy()
        for j in range(n):
            out[j] = mu
            mu = mu @ self.transition
        return out


def joint_to_json(joint: JointPmf) -> dict:
    return {
        "axes": [list(ax) for ax in joint.axes],
        "probs": joint.probs.ravel().tolist(),
    }
