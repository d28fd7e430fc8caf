"""Exact probability mass functions on finite alphabets and finite product grids.

These are the substrate for everything else in the package: dependence
coefficients and couplings are computed by explicit atom sums over dense
joint grids, so all types here check their laws at construction time and keep
the full grid in memory: at most ``CELL_CAP`` cells, a coupling's extended joint
and a chain's marginals included (checked first).
Marginals and grouped blocks of a joint are plain arrays.  ``_law`` is the one law
rule, and the one reader of ``MASS_TOL``: laws, joints, a chain's rows and a
generator's noise law (``simulate.GeneratorSpec``) each pass through it, which
refuses an entry more than ``MASS_TOL`` below 0 or a total more than ``MASS_TOL``
from 1 (an empty law's total is 0) and clips the small negatives to 0.  A chain
holds its own C-ordered copy of its transition, so each of its products has one
layout.  A chain's marginals come from one recursion, mu_{j+1} = mu_j P, which
stops at its first exact fixed point: ``MarkovChainSpec.marginal_matrix`` pads
its rows with that point, and ``mixing.markov_beta`` scans the distinct rows alone.
The two float-edge rules live here too, each with one owner: ``_or_inf`` reads a
term past float range as inf, which every bound it enters then carries (the
library's only overflow rule, read by ``bounds``, ``mixing`` and ``entropy``), and
``_check_float_range`` refuses an integer that a closed form would take as a float
when it is past the largest float.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import DomainError, MalformedInputError, SizeError

MASS_TOL = 1e-12
CELL_CAP = 10**6


def _check_cells(cells: int) -> None:
    if cells > CELL_CAP:
        raise SizeError(f"joint with {cells} cells exceeds cap {CELL_CAP}")


def _law(probs: np.ndarray, negative: str, total: str, axis: int | None = None) -> np.ndarray:
    """``probs`` clipped at 0, once no entry lies more than ``MASS_TOL`` below 0 and its total (each
    row's, with ``axis=1``) lies within ``MASS_TOL`` of 1; else a ``MalformedInputError`` whose message
    is ``negative`` formatted with the least entry, or ``total`` with the total.

    NaN fails the entry check first.  An empty law has no least entry and is refused by its total, 0.
    The result keeps the layout of ``probs``.
    """
    if probs.size and not probs.min() >= -MASS_TOL:
        raise MalformedInputError(negative.format(probs.min()))
    miss = abs(probs.sum(axis=axis) - 1.0)
    if not (probs.size and (miss if axis is None else miss.max()) <= MASS_TOL):
        raise MalformedInputError(total.format(probs.sum(axis=axis)))
    return np.maximum(probs, 0.0)


def _or_inf(term, *args) -> float:
    """The value of ``term(*args)``, or inf where it overflows a float: a term past float
    range is infinite, and so is the bound it enters."""
    try:
        return term(*args)
    except OverflowError:
        return math.inf


def _check_float_range(name: str, value: int) -> None:
    """Refuse an integer that a closed form would take as a float: one past the largest float."""
    try:
        float(value)
    except OverflowError:
        raise DomainError(f"{name} must be at most the largest float, {sys.float_info.max:g}") from None


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
        if probs.ndim != 1 or len(support) != probs.shape[0]:
            raise MalformedInputError("support and probs must have matching length")
        if len(set(support)) != len(support):
            raise MalformedInputError("support labels must be unique")
        if probs.size == 0:
            raise MalformedInputError("empty support")
        object.__setattr__(self, "probs", _law(probs, "negative probability {}", "total mass {} != 1"))


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
        shape = tuple(len(ax) for ax in axes)
        if probs.shape != shape:
            raise MalformedInputError(f"probs shape {probs.shape} does not match axes {shape}")
        _check_cells(probs.size)
        object.__setattr__(self, "probs", _law(probs, "negative cell probability {}", "total mass {} != 1"))

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
    """A finite-state Markov chain: states, row-stochastic transition, initial law.

    The chain keeps its own C-ordered copy of the transition, clipped at 0, so chains
    equal under ``==`` give equal bits whatever the layout of the array they were built from.
    """

    states: tuple
    transition: np.ndarray
    initial: FinitePmf

    __eq__ = _eq_by_value

    def __post_init__(self):
        states = tuple(self.states)
        transition = np.asarray(self.transition, dtype=float)
        object.__setattr__(self, "states", states)
        k = len(states)
        if transition.shape != (k, k):
            raise MalformedInputError(f"transition shape {transition.shape} != ({k},{k})")
        transition = _law(transition, "negative transition probability", "transition rows must sum to 1, got {}",
                          axis=1)
        if self.initial.support != states:
            raise MalformedInputError("initial law support must equal the state set")
        object.__setattr__(self, "transition", np.ascontiguousarray(transition))

    @property
    def n_states(self) -> int:
        return len(self.states)

    def _distinct_marginals(self, out: np.ndarray) -> np.ndarray:
        """The marginals mu_1..mu_r written into the first r rows of ``out``, and those rows.

        The recursion mu_{j+1} = mu_j P fills the rows of ``out`` in turn and stops at its
        first exact fixed point, where mu_r P equals mu_r bit for bit: the recursion is
        deterministic, so every later marginal would repeat mu_r.  So r is less than the
        row count of ``out`` only there.  Each step is ``mu.dot(P)`` on the chain's own
        C-ordered P: the bits of ``mu @ P`` at a lower cost per call.
        """
        transition = self.transition
        mu = self.initial.probs
        out[:1] = mu  # an out of no rows takes none
        bits = mu.tobytes()
        for j in range(1, len(out)):
            step = mu.dot(transition)
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
