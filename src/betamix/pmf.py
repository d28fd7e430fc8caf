"""Exact probability mass functions on finite alphabets and finite product grids.

These are the substrate for everything else in the package: dependence
coefficients and couplings are computed by explicit atom sums over dense
joint grids, so all types here validate total mass and nonnegativity at
construction time and keep the full grid in memory: at most ``CELL_CAP`` cells,
a coupling's extended joint and a chain's marginals included (checked first).
Marginals and grouped blocks of a joint are plain arrays.  A chain's marginals come
from one recursion, mu_{j+1} = mu_j P, which stops at its first exact fixed point:
``MarkovChainSpec.marginal_matrix`` pads its rows with that point, and
``mixing.markov_beta`` scans the distinct rows alone.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import MalformedInputError, SizeError

MASS_TOL = 1e-12
CELL_CAP = 10**6


def _check_cells(cells: int) -> None:
    if cells > CELL_CAP:
        raise SizeError(f"joint with {cells} cells exceeds cap {CELL_CAP}")


def _integer(name: str, value) -> int:
    """``value`` (called ``name``) as an int; a bool, or any value that ``operator.index`` refuses
    (2.0 included), is refused."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise MalformedInputError(f"{name} must be an integer, got {value!r}")


def _check_marginal_cells(name: str, rows: int, k: int) -> None:
    """Refuse ``rows`` (called ``name``) marginal laws over k states: not an integer (``_integer``),
    fewer than 0, or above ``CELL_CAP`` cells."""
    count = _integer(name, rows)
    if count < 0:
        raise MalformedInputError(f"{name} must be >= 0, got {count}")
    if count * k > CELL_CAP:
        raise SizeError(f"{name} {count} needs {count * k} marginal cells, above cap {CELL_CAP}")


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


def _eq_by_value(self, other):
    """``__eq__`` of a dataclass with array fields: each array compares by shape and value.

    The generated ``__eq__`` compares tuples of fields, which asks an array with
    more than one element for a single truth value and raises.
    """
    if other.__class__ is not self.__class__:
        return NotImplemented
    for field in fields(self):
        x, y = getattr(self, field.name), getattr(other, field.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif not x == y:
            return False
    return True


@dataclass(frozen=True)
class FinitePmf:
    """A probability mass function over a finite ordered alphabet."""

    support: tuple
    probs: np.ndarray

    __eq__ = _eq_by_value

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

    __eq__ = _eq_by_value

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

    __eq__ = _eq_by_value

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

    def _distinct_marginals(self, out: np.ndarray) -> np.ndarray:
        """The marginals mu_1..mu_r written into the first r rows of ``out``, and those rows.

        The recursion mu_{j+1} = mu_j P fills the rows of ``out`` in turn and stops at its
        first exact fixed point, where mu_r P equals mu_r bit for bit: the recursion is
        deterministic, so every later marginal would repeat mu_r.  So r is less than the
        row count of ``out`` only there.  Each step has the bits of ``mu @ P``: a P that is
        contiguous in either order goes through ``ndarray.dot``, which takes the same BLAS
        path without the matmul gufunc's per-call overhead, and a strided P, which matmul
        sums in its own loop, goes through ``np.matmul``.
        """
        transition = self.transition
        product = np.ndarray.dot if transition.flags.forc else np.matmul
        mu = self.initial.probs
        out[:1] = mu  # an out of no rows takes none
        bits = mu.tobytes()
        for j in range(1, len(out)):
            step = product(mu, transition)
            step_bits = step.tobytes()
            if step_bits == bits:
                return out[:j]
            out[j] = mu = step
            bits = step_bits
        return out

    def marginal_matrix(self, n: int) -> np.ndarray:
        """Stacked marginals mu_1..mu_n as an (n, states) array.

        The rows are the distinct marginals of the chain's one recursion (see
        ``_distinct_marginals``), then its exact fixed point repeated, if it reaches one:
        the recursion is deterministic, so every later row would repeat it.
        A negative n or more than ``CELL_CAP`` cells is refused before any array is built.
        """
        _check_marginal_cells("n", n, self.n_states)
        out = np.empty((n, self.n_states))
        r = len(self._distinct_marginals(out))
        out[r:] = out[r - 1:r]  # the fixed point, if any; n = 0 has no row to copy
        return out
