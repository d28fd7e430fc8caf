import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betamix.blocking import (
    Partition,
    euclidean,
    lifted_bound,
    m_steps_partition,
    union_bound_check,
)
from betamix.errors import DomainError, MalformedInputError


def exhaustive_verify(part: Partition):
    """Element-wise oracle for the partition invariants."""
    n, m = part.n, part.m
    q, r = divmod(n, m)
    blocks = part.to_lists()
    seen = [i for b in blocks for i in b]
    assert sorted(seen) == list(range(1, n + 1))  # disjoint + covering
    for k, block in enumerate(blocks, start=1):
        assert block[0] == k
        assert all(b - a == m for a, b in zip(block, block[1:]))  # gap exactly m
        assert len(block) == (q + 1 if k <= r else q)  # size pattern


def test_euclidean_identity_and_domain():
    assert euclidean(7, 3) == (2, 1)
    assert euclidean(9, 3) == (3, 0)
    with pytest.raises(DomainError):
        euclidean(3, 4)
    with pytest.raises(DomainError):
        euclidean(3, 0)


@given(st.integers(1, 300), st.data())
@settings(max_examples=80, deadline=None)
def test_partition_invariants_random(n, data):
    m = data.draw(st.integers(1, n))
    part = m_steps_partition(n, m)
    part.check()
    exhaustive_verify(part)


def test_partition_check_matches_exhaustive_small():
    for n in range(1, 40):
        for m in range(1, n + 1):
            part = m_steps_partition(n, m)
            part.check()
            exhaustive_verify(part)


def test_partition_example():
    assert m_steps_partition(7, 3).to_lists() == [[1, 4, 7], [2, 5], [3, 6]]


def test_lifted_bound_hand_computation():
    # n=7, m=3: (q, r) = (2, 1) so the weights are 1 and 2
    beta = 0.01
    val = lifted_bound(lambda size, t: 0.1, 7, 3, 0.5, beta, deviation_cap=2.0)
    assert val == pytest.approx(1 * 0.1 + 2 * 0.1 + 7 * beta)


def test_lifted_bound_clipped_at_one():
    assert lifted_bound(lambda size, t: 0.9, 7, 3, 0.5, 0.5, deviation_cap=2.0) == 1.0


def test_lifted_bound_zero_above_cap():
    assert lifted_bound(lambda size, t: 0.9, 7, 3, 2.5, 0.5, deviation_cap=2.0) == 0.0


def test_lifted_bound_independent_recovery_bitwise():
    def base(size, t):
        return float(np.exp(-size * t**2 / 17.0))

    for n in (1, 5, 100):
        for t in (0.0, 0.05, 0.3, 1.9):
            assert lifted_bound(base, n, 1, t, 0.0, deviation_cap=2.0) == min(1.0, base(n, t))


def test_lifted_bound_size_clamped_at_n():
    calls = []

    def base(size, t):
        calls.append(size)
        return 0.0

    lifted_bound(base, 5, 5, 0.1, 0.0, deviation_cap=2.0)  # q+1 = 2 <= n, fine
    lifted_bound(base, 3, 2, 0.1, 0.0, deviation_cap=2.0)
    assert max(calls) <= 5


def test_union_bound_check_iid_consistency():
    # two members on {0,1}, iid uniform inputs: the sup event over 1..n is
    # contained in the union of the per-block events by convexity of the mean
    rng_tables = np.array([[0.0, 1.0], [1.0, 0.0]])
    n, m, reps = 60, 4, 400
    avg = np.full((2, n), 0.5)
    part = m_steps_partition(n, m)

    def sampler(rep):
        rng = np.random.default_rng(rep)
        xs = rng.integers(0, 2, size=n)
        return rng_tables[:, xs]

    report = union_bound_check(sampler, avg, part, 1.0, -1.0, 0.08, reps)
    assert report.replications == reps
    assert 0.0 <= report.lhs_frequency <= 1.0
    assert report.consistent


# (shape of avg_values, shape of each sample, start of the message)
WRONG_SHAPES = {
    "more members": ((1, 6), (2, 6), r"sampler\(0\) returned shape"),
    "shorter sample": ((1, 6), (1, 5), r"sampler\(0\) returned shape"),
    "one-dimensional averages": ((6,), (6,), "avg_values must be"),
}


@pytest.mark.parametrize("case", sorted(WRONG_SHAPES))
def test_union_bound_check_rejects_wrong_shapes(case):
    avg_shape, sample_shape, message = WRONG_SHAPES[case]
    with pytest.raises(MalformedInputError, match=message):
        union_bound_check(lambda rep: np.zeros(sample_shape), np.full(avg_shape, 0.5),
                          m_steps_partition(6, 2), 1.0, -1.0, 0.1, 3)


def test_union_bound_report_consistency_flag():
    from betamix.blocking import UnionBoundReport

    good = UnionBoundReport(0.1, 0.01, 0.3, 0.01, 100)
    bad = UnionBoundReport(0.5, 0.001, 0.1, 0.001, 100)
    assert good.consistent
    assert not bad.consistent
