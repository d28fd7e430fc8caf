"""Hypothesis classes on a finite state alphabet, their empirical L1 covering
numbers, and closed-form uniform entropy estimates.

Exact covering numbers are minimal internal covers found by exhaustive set
cover (small families only); the greedy farthest-point cover provides an upper
bound for larger families, up to ``CELL_CAP`` pairwise distances.  The closed
forms are the Sauer-Shelah estimate for classes of bounded VC dimension and
the bounded-weight network estimate.
Every estimate is uniform: it bounds the log covering number at a radius for
every sample size, so an ``EntropyEstimate`` is a function of the radius alone.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, MalformedInputError, SizeError
from .pmf import CELL_CAP, _eq_by_value

EXACT_COVER_MAX_MEMBERS = 20
# strict d < r implemented with a margin to avoid boundary flapping
STRICT_MARGIN = 1e-12


@dataclass(frozen=True)
class FunctionFamily:
    """A hypothesis class on a finite state alphabet, held as arrays over ``states``.

    A finite family carries a member-by-state value ``table``.  A truncated
    linear span carries a state-by-basis ``design`` instead; it is fitted, not
    enumerated.  Either is the family's own C-ordered copy.
    """

    states: tuple
    table: np.ndarray | None = None
    design: np.ndarray | None = None

    __eq__ = _eq_by_value

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if (self.table is None) == (self.design is None):
            raise MalformedInputError("a family needs exactly one of table and design")
        name, axis = ("table", 1) if self.design is None else ("design", 0)
        values = np.array(getattr(self, name), dtype=float, order="C")
        if values.ndim != 2 or values.shape[axis] != len(self.states) or values.size == 0:
            raise MalformedInputError(f"{name} {values.shape} is not a nonempty array over the states")
        if not np.isfinite(values).all():
            raise MalformedInputError(f"{name} values must be finite")
        object.__setattr__(self, name, values)


def _check_float_range(name: str, value: int) -> None:
    """Refuse an integer that a closed form would take as a float: one past the largest float."""
    try:
        float(value)
    except OverflowError:
        raise DomainError(f"{name} must be at most the largest float, {sys.float_info.max:g}") from None


def l1_distances(values: np.ndarray) -> np.ndarray:
    """Pairwise empirical L1 seminorm distances between family members.

    More than ``CELL_CAP`` distances raise SizeError before any is computed.
    The differences are taken for blocks of rows of at most ``CELL_CAP`` cells
    (one row at least); each distance is the mean of its own row of
    differences, so the blocks do not change it.
    """
    values = np.asarray(values, dtype=float)
    members = len(values)
    if members**2 > CELL_CAP:
        raise SizeError(f"{members} members need {members**2} distance cells, above cap {CELL_CAP}")
    if values.size == 0 or not np.isfinite(values).all():
        raise MalformedInputError("a cover needs a nonempty table of finite values")
    dist = np.empty((members, members))
    rows = max(1, CELL_CAP // values.size)
    for i in range(0, members, rows):
        dist[i:i + rows] = np.abs(values[i:i + rows, None, :] - values).mean(axis=2)
    return dist


def _closed_radius(r: float) -> float:
    """The closed radius that stands for the strict d < r, never below 0 so that
    every member covers itself."""
    if not r > 0:
        raise DomainError("radius must be positive")
    return max(r - STRICT_MARGIN, 0.0)


def _cover_from_distances(dist: np.ndarray, r: float) -> int:
    """Minimal internal cover size from a pairwise distance matrix (strict radius)."""
    radius = _closed_radius(r)
    n = dist.shape[0]
    covers = [
        int(sum(1 << j for j in range(n) if dist[i, j] <= radius))
        for i in range(n)
    ]
    full = (1 << n) - 1
    for size in range(1, n + 1):
        for centers in itertools.combinations(range(n), size):
            mask = 0
            for c in centers:
                mask |= covers[c]
            if mask == full:
                return size
    raise AssertionError("unreachable: the family always covers itself")


def covering_number_exact(values: np.ndarray, r: float) -> int:
    """Minimal internal L1 r-cover of a small family given its value matrix."""
    values = np.asarray(values, dtype=float)
    if values.shape[0] > EXACT_COVER_MAX_MEMBERS:
        raise SizeError(
            f"{values.shape[0]} members exceeds exact-mode cap "
            f"{EXACT_COVER_MAX_MEMBERS}; use covering_number_greedy"
        )
    return _cover_from_distances(l1_distances(values), r)


def covering_number_greedy(values: np.ndarray, r: float) -> int:
    """Farthest-point greedy internal L1 r-cover size (upper bound on the exact one)."""
    radius = _closed_radius(r)
    dist = l1_distances(values)
    centers = [0]
    min_dist = dist[0].copy()
    while True:
        uncovered = min_dist > radius
        if not uncovered.any():
            return len(centers)
        nxt = int(np.argmax(np.where(uncovered, min_dist, -np.inf)))
        centers.append(nxt)
        min_dist = np.minimum(min_dist, dist[nxt])


def sauer_shelah_entropy(V: int, B: float, r: float) -> float:
    """Closed-form log covering bound for a [0, B]-valued class of VC dimension V.

    Valid as printed for r <= B/4; for r in (B/4, B] the estimate at scale 4B
    is used, and for r > B the bound is 0.
    """
    if V < 1:
        raise DomainError("V must be a positive integer")
    _check_float_range("V", V)
    if not B > 0.0:
        raise DomainError("B must be positive")
    if not r > 0.0:
        raise DomainError("radius must be positive")
    if r > B:
        return 0.0
    if r > B / 4.0:
        return sauer_shelah_entropy(V, 4.0 * B, r)
    lbr = math.log(B / r)
    return math.log(3.0) + V * (1.0 + math.log(2.0) + lbr + math.log(1.0 + math.log(3.0) + lbr))


def neural_net_entropy(N: int, d: int, B: float, r: float) -> float:
    """Log covering bound for one-hidden-layer networks with weight budget B.

    Inputs in R^d, N hidden units, outer weights summing (in absolute value) to
    at most B; valid for radii in (0, B/2).
    """
    if N < 1 or d < 1:
        raise DomainError("N and d must be positive integers")
    _check_float_range("N", N)
    _check_float_range("d", d)
    if not B > 0.0:
        raise DomainError("B must be positive")
    if not 0.0 < r < B / 2.0:
        raise DomainError(f"radius must lie in (0, B/2), got {r}")
    try:
        units = float((2 * d + 5) * N + 1)
    except OverflowError:  # a count past float range makes the estimate inf
        units = math.inf
    return units * (1.0 + math.log(12.0) + math.log(B / r) + math.log(N + 1.0))


EntropyEstimate = Callable[[float], float]  # radius -> log covering bound, the same for every sample size


def finite_family_entropy(n_members: int) -> EntropyEstimate:
    """log(n_members) is always a valid uniform entropy estimate for a finite class."""
    if n_members < 1:
        raise DomainError("n_members must be >= 1")
    return lambda r: math.log(n_members)
