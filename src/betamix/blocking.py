"""Index blocking: the m-steps partition and the dependent-case lifting combinator.

The partition splits 1..n into m arithmetic progressions of common difference
m, so the within-block index gap is exactly m; the lifting combinator converts
any independent-case bound function into a dependent-case bound by paying the
per-index dependence price n * beta(m).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, MalformedInputError


def euclidean(n: int, m: int) -> tuple:
    """Quotient and remainder of n divided by m, with 1 <= m <= n."""
    if m < 1 or m > n:
        raise DomainError(f"need 1 <= m <= n, got n={n}, m={m}")
    q, r = divmod(n, m)
    return q, r


@dataclass(frozen=True)
class Partition:
    """The m-steps partition of {1..n}: block k is k, k+m, k+2m, ... up to n."""

    n: int
    m: int

    def __post_init__(self):
        euclidean(self.n, self.m)

    @cached_property
    def blocks(self) -> tuple:
        return tuple(range(k, self.n + 1, self.m) for k in range(1, self.m + 1))

    def check(self) -> None:
        """Assert the partition invariants in O(1).

        The block size k -> floor((n-k)/m) + 1 is nonincreasing in k, so the
        size pattern ((q+1) for k <= r, q for k > r) holds for all k once it
        holds at the boundary blocks; distinct starts 1..m with common step m
        give disjointness, and the size sum q*m + r = n then gives coverage.
        """
        n, m = self.n, self.m
        q, r = euclidean(n, m)
        boundary = sorted({1, max(r, 1), min(r + 1, m), m})
        for k in boundary:
            block = range(k, n + 1, m)
            expected = q + 1 if k <= r else q
            if len(block) != expected:
                raise AssertionError(f"block {k} of ({n},{m}) has size {len(block)} != {expected}")
            if block[0] != k or (len(block) > 1 and block[1] - block[0] != m):
                raise AssertionError(f"block {k} of ({n},{m}) is not a step-{m} progression from {k}")
            last = block[-1]
            if last > n or last + m <= n:
                raise AssertionError(f"block {k} of ({n},{m}) stops at {last}, not maximal in 1..{n}")
        if r * (q + 1) + (m - r) * q != n:
            raise AssertionError(f"sizes of ({n},{m}) do not sum to n")

    def to_lists(self) -> list:
        return [list(b) for b in self.blocks]


def m_steps_partition(n: int, m: int) -> Partition:
    """Partition {1..n} into m blocks of indices in arithmetic progression."""
    return Partition(n, m)


def lifted_bound(
    base: Callable[[int, float], float],
    n: int,
    m: int,
    t: float,
    beta_at_m: float,
    deviation_cap: float,
) -> float:
    """Dependent-case deviation bound from an independent-case bound function.

    Returns 0 for t above the deviation cap; otherwise the r-weighted form
    r*base(q+1,t) + (m-r)*base(q,t) + n*beta_at_m, clipped to 1.
    The size argument is clamped at n, so base(n+1, t) means base(n, t).
    """
    if t < 0:
        raise DomainError("t must be nonnegative")
    q, r = euclidean(n, m)
    if t > deviation_cap:
        return 0.0
    hi = base(min(q + 1, n), t)
    lo = base(q, t)
    if r == 0:
        # skip the zero-coefficient term so the independent case (m=1) recovers
        # the base bound bitwise
        total = m * lo + n * beta_at_m if m > 1 or beta_at_m != 0.0 else lo
    else:
        total = r * hi + (m - r) * lo + n * beta_at_m
    return min(1.0, total)


def wilson_stderr(successes: int, trials: int, z: float = 3.0) -> float:
    """Wilson-score standard error of a Monte Carlo (binomial) frequency.

    Shrinks toward 1/2 with strength z**2 pseudo-counts so the error never
    collapses to zero at observed frequencies of 0 or 1.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    center = (successes + z * z / 2.0) / (trials + z * z)
    return math.sqrt(center * (1.0 - center) / (trials + z * z))


@dataclass(frozen=True)
class UnionBoundReport:
    """Monte Carlo estimates of both sides of the block union bound."""

    lhs_frequency: float
    lhs_stderr: float
    rhs_sum: float
    rhs_stderr: float
    replications: int

    @property
    def consistent(self) -> bool:
        """lhs <= rhs within three combined standard errors."""
        slack = 3.0 * math.hypot(self.lhs_stderr, self.rhs_stderr)
        return self.lhs_frequency <= self.rhs_sum + slack


def union_bound_check(
    sampler: Callable[[int], np.ndarray],
    avg_values: np.ndarray,
    partition: Partition | Sequence[Sequence[int]],
    a: float,
    b: float,
    t: float,
    replications: int,
) -> UnionBoundReport:
    """Estimate both sides of the deviation union bound by Monte Carlo.

    ``sampler(rep)`` returns the matrix of member values g_f(Z_j) with shape
    (members, n) for replication ``rep``; ``avg_values`` holds the per-index
    integrals of the members under the exact marginals, same shape.  The left
    side is the frequency of sup_g (a*empirical + b*average) mean over 1..n
    exceeding t; the right side sums the corresponding per-block frequencies.
    """
    if replications < 1:
        raise DomainError("replications must be >= 1")
    blocks = partition.blocks if isinstance(partition, Partition) else tuple(partition)
    avg_values = np.asarray(avg_values, dtype=float)
    if avg_values.ndim != 2:
        raise MalformedInputError(f"avg_values must be (members, n), got shape {avg_values.shape}")
    block_idx = [np.asarray(blk, dtype=int) - 1 for blk in blocks]

    avg_term = b * avg_values.mean(axis=1)
    block_avg_terms = [b * avg_values[:, idx].mean(axis=1) for idx in block_idx]

    lhs_hits = 0
    rhs_hits = np.zeros(len(blocks), dtype=int)
    for rep in range(replications):
        values = np.asarray(sampler(rep), dtype=float)
        if values.shape != avg_values.shape:
            raise MalformedInputError(
                f"sampler({rep}) returned shape {values.shape}, avg_values has {avg_values.shape}")
        stat = (a * values.mean(axis=1) + avg_term).max()
        if stat >= t:
            lhs_hits += 1
        for i, idx in enumerate(block_idx):
            stat_j = (a * values[:, idx].mean(axis=1) + block_avg_terms[i]).max()
            if stat_j >= t:
                rhs_hits[i] += 1

    lhs_freq = lhs_hits / replications
    lhs_se = wilson_stderr(lhs_hits, replications)
    rhs_freqs = rhs_hits / replications
    rhs_ses = np.array([wilson_stderr(h, replications) for h in rhs_hits])
    return UnionBoundReport(
        lhs_frequency=lhs_freq,
        lhs_stderr=lhs_se,
        rhs_sum=float(rhs_freqs.sum()),
        rhs_stderr=float(np.sqrt((rhs_ses**2).sum())),
        replications=replications,
    )
