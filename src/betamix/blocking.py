"""Index blocking: the m-steps partition and the dependent-case lifting combinator.

The partition splits 1..n into m arithmetic progressions of common difference
m, so the within-block index gap is exactly m; the lifting combinator converts
any independent-case bound function into a dependent-case bound by paying the
per-index dependence price n * beta(m).  The Monte Carlo check of that union
bound takes every block's frequency from one gather per block size: the blocks
of q+1 indices are the rows of one index matrix, those of q indices of another.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, MalformedInputError
from .pmf import _integer


def euclidean(n: int, m: int) -> tuple:
    """Quotient and remainder of n divided by m, with 1 <= m <= n."""
    n, m = _integer("n", n), _integer("m", m)
    if m < 1 or m > n:
        raise DomainError(f"need 1 <= m <= n, got n={n}, m={m}")
    q, r = divmod(n, m)
    return q, r


class Partition:
    """The m-steps partition of {1..n}: block k is k, k+m, k+2m, ... up to n.

    With (q, r) = divmod(n, m), blocks 1..r hold q+1 indices and the rest q.
    """

    __slots__ = ("n", "m", "q", "r")

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m
        self.q, self.r = euclidean(n, m)

    @property
    def blocks(self) -> tuple:
        return tuple(range(k, self.n + 1, self.m) for k in range(1, self.m + 1))

    def check(self) -> None:
        """Assert the partition invariants in O(1).

        Block k is the progression k, k+m, ... of (n-k)//m + 1 indices, so it
        starts at k with step m by construction.  Its size is nonincreasing in
        k, so the size pattern ((q+1) for k <= r, q for k > r) holds for all k
        once it holds at the boundary blocks; distinct starts 1..m with common
        step m give disjointness, and the size sum q*m + r = n then gives
        coverage.
        """
        n, m, q, r = self.n, self.m, self.q, self.r
        for k in (1, max(r, 1), min(r + 1, m), m):
            size = (n - k) // m + 1
            expected = q + 1 if k <= r else q
            if size != expected:
                raise AssertionError(f"block {k} of ({n},{m}) has size {size} != {expected}")
            last = k + (size - 1) * m
            if last > n or last + m <= n:
                raise AssertionError(f"block {k} of ({n},{m}) stops at {last}, not maximal in 1..{n}")
        if r * (q + 1) + (m - r) * q != n:
            raise AssertionError(f"sizes of ({n},{m}) do not sum to n")


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
    r*base(q+1,t) + (m-r)*base(q,t) + n*beta_at_m, clipped to 1.  base(q+1, t)
    is evaluated only when r > 0, where q+1 <= n.  With m = 1 and beta 0 the
    sum is 1*base(n,t) + n*0.0, so the independent case recovers the base
    bound bitwise.
    """
    if not t >= 0.0:
        raise DomainError("t must be nonnegative")
    q, r = euclidean(n, m)
    if t > deviation_cap:
        return 0.0
    if r:
        total = r * base(q + 1, t) + (m - r) * base(q, t) + n * beta_at_m
    else:
        total = m * base(q, t) + n * beta_at_m
    return min(1.0, total)


# standard errors of Monte Carlo slack: the Wilson score's normal quantile, and the
# multiplier of every dominance and consistency rule
Z = 3.0


def wilson_stderr(successes: int, trials: int) -> float:
    """Wilson-score standard error of a Monte Carlo (binomial) frequency.

    Shrinks toward 1/2 with Z**2 = 9 pseudo-counts so the error never
    collapses to zero at observed frequencies of 0 or 1.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    center = (successes + Z * Z / 2.0) / (trials + Z * Z)
    return math.sqrt(center * (1.0 - center) / (trials + Z * Z))


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
        """lhs <= rhs within Z combined standard errors."""
        slack = Z * math.hypot(self.lhs_stderr, self.rhs_stderr)
        return self.lhs_frequency <= self.rhs_sum + slack


def union_bound_check(
    sampler: Callable[[int], np.ndarray],
    avg_values: np.ndarray,
    partition: Partition,
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
    Every replication is drawn first, in order, and held as one stack of
    replications*members*n doubles.  The left side is one reduction over that
    stack; the block frequencies come from one gather per block size (the first
    r blocks hold q+1 columns, the other m-r blocks q), each block a row of an
    index matrix, reduced together.
    """
    replications = _integer("replications", replications)
    if replications < 1:
        raise DomainError("replications must be >= 1")
    avg_values = np.asarray(avg_values, dtype=float)
    if avg_values.ndim != 2:
        raise MalformedInputError(f"avg_values must be (members, n), got shape {avg_values.shape}")
    if avg_values.shape[1] != partition.n:
        raise MalformedInputError(f"partition covers 1..{partition.n}, avg_values has {avg_values.shape[1]} columns")

    samples = np.empty((replications,) + avg_values.shape)
    for rep in range(replications):
        values = np.asarray(sampler(rep), dtype=float)
        if values.shape != avg_values.shape:
            raise MalformedInputError(
                f"sampler({rep}) returned shape {values.shape}, avg_values has {avg_values.shape}")
        samples[rep] = values  # a copy: a sampler may reuse one buffer between calls

    def stats(cols, size):
        # a 2-D cols stacks one block per row; advanced indexing lays the indexed
        # axes outermost, so each block mean sums its columns in index order.  The
        # sum over the last axis divided by its size is what .mean(axis=-1) computes.
        return (a * (np.add.reduce(samples[:, :, cols], axis=-1) / size)
                + b * (np.add.reduce(avg_values[:, cols], axis=-1) / size))

    n, m, q, r = partition.n, partition.m, partition.q, partition.r
    block_stats = stats(np.arange(r, m)[:, None] + m * np.arange(q), q)
    if r:  # m does not divide n: the first r blocks hold one index more
        block_stats = np.concatenate([stats(np.arange(r)[:, None] + m * np.arange(q + 1), q + 1), block_stats],
                                     axis=-1)
    lhs_hits = int((stats(slice(None), n).max(axis=1) >= t).sum())
    rhs_hits = (block_stats.max(axis=1) >= t).sum(axis=0)
    lhs_freq = lhs_hits / replications
    lhs_se = wilson_stderr(lhs_hits, replications)
    rhs_freqs = rhs_hits / replications
    rhs_ses = np.array([wilson_stderr(h, replications) for h in rhs_hits.tolist()])
    return UnionBoundReport(
        lhs_frequency=lhs_freq,
        lhs_stderr=lhs_se,
        rhs_sum=float(rhs_freqs.sum()),
        rhs_stderr=float(np.sqrt((rhs_ses**2).sum())),
        replications=replications,
    )
