import math
import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betamix.blocking import (
    Partition,
    UnionBoundReport,
    euclidean,
    lifted_bound,
    m_steps_partition,
    union_bound_check,
    wilson_stderr,
)
from betamix.errors import DomainError, MalformedInputError


def exhaustive_verify(part: Partition):
    """Element-wise oracle for the partition invariants."""
    n, m = part.n, part.m
    q, r = divmod(n, m)
    blocks = [list(b) for b in part.blocks]
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
    assert [list(b) for b in m_steps_partition(7, 3).blocks] == [[1, 4, 7], [2, 5], [3, 6]]


# (call, start of the MalformedInputError's message) of each input check: a size or lag that is
# not an integer used to end in a TypeError, or to run with a fractional quotient
INPUT_CHECKS = {
    "absent size (partition)": (lambda: m_steps_partition(None, 2), "n must be an integer, got None"),
    "integral float size (partition)": (lambda: m_steps_partition(7.0, 3).blocks, "n must be an integer, got 7.0"),
    "fractional lag (partition)": (lambda: m_steps_partition(7, 1.5), "m must be an integer, got 1.5"),
    "fractional size (lifted bound)": (
        lambda: lifted_bound(lambda size, t: 0.1, 10.5, 2, 0.5, 0.0, 2.0), "n must be an integer, got 10.5"),
    "bool lag (euclidean)": (lambda: euclidean(7, True), "m must be an integer, got True"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_checks_name_the_fault(case):
    call, message = INPUT_CHECKS[case]
    with pytest.raises(MalformedInputError) as exc:
        call()
    assert str(exc.value).startswith(message)


def test_lifted_bound_hand_computation():
    # n=7, m=3: (q, r) = (2, 1) so the weights are 1 and 2; these values round
    # differently if the three terms are summed in another order
    beta = 0.03
    val = lifted_bound(lambda size, t: {3: 0.05, 2: 0.1}[size], 7, 3, 0.5, beta, deviation_cap=2.0)
    assert val == 1 * 0.05 + 2 * 0.1 + 7 * beta


def test_lifted_bound_clipped_at_one():
    assert lifted_bound(lambda size, t: 0.9, 7, 3, 0.5, 0.5, deviation_cap=2.0) == 1.0


def test_lifted_bound_zero_above_cap():
    assert lifted_bound(lambda size, t: 0.9, 7, 3, 2.5, 0.5, deviation_cap=2.0) == 0.0


def test_wilson_stderr_is_the_z3_score_bitwise():
    z = 3.0
    for trials in (1, 40, 1000):
        for successes in (0, trials // 2, trials):
            center = (successes + z * z / 2.0) / (trials + z * z)
            expected = math.sqrt(center * (1.0 - center) / (trials + z * z))
            assert wilson_stderr(successes, trials).hex() == expected.hex()
    with pytest.raises(ValueError, match="trials must be >= 1"):
        wilson_stderr(0, 0)


def test_lifted_bound_independent_recovery_bitwise():
    def base(size, t):
        return float(np.exp(-size * t**2 / 17.0))

    for n in (1, 5, 100):
        for t in (0.0, 0.05, 0.3, 1.9):
            assert lifted_bound(base, n, 1, t, 0.0, deviation_cap=2.0) == min(1.0, base(n, t))


def clamped_lifted_bound(base, n, m, t, beta_at_m, deviation_cap):
    """The lift as it read when it clamped the base size at n, kept as the reference."""
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


@given(st.integers(1, 3000), st.data())
@settings(max_examples=400, deadline=None)
def test_lifted_bound_size_clamped_at_n(n, data):
    m = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)), label="m")
    cap = data.draw(st.floats(0.1, 4.0), label="cap")
    t = data.draw(st.one_of(st.just(0.0), st.floats(0.0, cap),
                            st.floats(cap, 10.0, exclude_min=True)), label="t")
    # n*beta and the weighted base sum mostly stay below the clip at 1
    beta = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0).map(lambda b: b / n),
                               st.floats(0.0, 1.0)), label="beta")
    scale = data.draw(st.floats(0.0, 2.0), label="scale")

    def base(size, tt):
        if not 1 <= size <= n:
            raise AssertionError(f"base evaluated at size {size}, outside 1..{n}")
        return scale / (m + size * tt)

    lifted = lifted_bound(base, n, m, t, beta, deviation_cap=cap)
    assert lifted.hex() == clamped_lifted_bound(base, n, m, t, beta, cap).hex()


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


def per_replication_union_bound_check(sampler, avg_values, partition, a, b, t, replications):
    """The check as it read with one statistic per replication and per block, kept as the reference."""
    block_idx = [np.asarray(blk, dtype=int) - 1 for blk in partition.blocks]
    avg_term = b * avg_values.mean(axis=1)
    block_avg_terms = [b * avg_values[:, idx].mean(axis=1) for idx in block_idx]
    lhs_hits = 0
    rhs_hits = np.zeros(len(block_idx), dtype=int)
    for rep in range(replications):
        values = np.asarray(sampler(rep), dtype=float)
        if (a * values.mean(axis=1) + avg_term).max() >= t:
            lhs_hits += 1
        for i, idx in enumerate(block_idx):
            if (a * values[:, idx].mean(axis=1) + block_avg_terms[i]).max() >= t:
                rhs_hits[i] += 1
    rhs_ses = np.array([wilson_stderr(h, replications) for h in rhs_hits])
    return UnionBoundReport(
        lhs_frequency=lhs_hits / replications,
        lhs_stderr=wilson_stderr(lhs_hits, replications),
        rhs_sum=float((rhs_hits / replications).sum()),
        rhs_stderr=float(np.sqrt((rhs_ses**2).sum())),
        replications=replications,
    )


# (members, whether the tables hold only 0 and 1).  No one-member float table:
# the reference sums a one-row block pairwise but several rows in index order,
# so there a block mean may differ in its last bit and flip a tie with t
UNION_TABLES = [(2, False), (3, False), (4, False), (1, True), (3, True)]


@pytest.mark.parametrize("members, zero_one", UNION_TABLES)
def test_union_bound_check_matches_per_replication_loop(members, zero_one):
    for seed in range(40):
        rng = np.random.default_rng([members, zero_one, seed])
        n = int(rng.integers(1, 80))
        m = int(rng.integers(1, n + 1))
        reps = int(rng.integers(1, 30))
        part = m_steps_partition(n, m)

        def table(gen):
            return gen.integers(0, 2, (members, n)).astype(float) if zero_one else gen.normal(size=(members, n))

        def sampler(rep):
            return table(np.random.default_rng([seed, rep]))

        avg = table(rng)
        a, b = rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)
        # t equal to a sampled full or block statistic, so that ">= t" meets a tie
        values = sampler(int(rng.integers(reps)))
        idx = slice(None) if rng.random() < 0.5 else np.asarray(part.blocks[int(rng.integers(m))]) - 1
        t = (a * values[:, idx].mean(axis=1) + b * avg[:, idx].mean(axis=1)).max()

        report = union_bound_check(sampler, avg, part, a, b, t, reps)
        reference = per_replication_union_bound_check(sampler, avg, part, a, b, t, reps)
        assert [float(x).hex() for x in astuple(report)] == [float(x).hex() for x in astuple(reference)]


def per_block_union_bound_check(sampler, avg_values, partition, a, b, t, replications):
    """The check as it read with one gather and one reduction per block, kept as the reference."""
    samples = np.stack([np.asarray(sampler(rep), dtype=float) for rep in range(replications)])

    def hits(idx) -> int:
        stat = a * samples[:, :, idx].mean(axis=2) + b * avg_values[:, idx].mean(axis=1)
        return int((stat.max(axis=1) >= t).sum())

    lhs_hits = hits(slice(None))
    rhs_hits = np.array([hits(np.asarray(blk, dtype=int) - 1) for blk in partition.blocks])
    rhs_ses = np.array([wilson_stderr(h, replications) for h in rhs_hits])
    return UnionBoundReport(
        lhs_frequency=lhs_hits / replications,
        lhs_stderr=wilson_stderr(lhs_hits, replications),
        rhs_sum=float((rhs_hits / replications).sum()),
        rhs_stderr=float(np.sqrt((rhs_ses**2).sum())),
        replications=replications,
    )


# (n, m, members, zero_one): r = 0 and r > 0, m = 1 and m = n, one-member float tables, and the
# benchmark's n = 200, m = 5 (r = 0: one block size) beside n = 203 (r = 3), with 0/1 tables, whose
# block means are exact, and float tables, whose block means round
GROUPED_CASES = [
    (60, 4, 2, False), (61, 4, 2, False), (37, 1, 3, False), (37, 37, 3, False),
    (50, 7, 1, False), (48, 6, 1, False), (29, 1, 1, False), (29, 29, 1, False),
    (45, 8, 3, True), (1, 1, 1, False), (200, 20, 2, False), (200, 13, 1, False),
    (200, 5, 2, True), (200, 5, 2, False), (203, 5, 2, True), (203, 5, 2, False),
]


@pytest.mark.parametrize("n, m, members, zero_one", GROUPED_CASES)
def test_union_bound_check_matches_per_block_gathers(n, m, members, zero_one):
    part = m_steps_partition(n, m)
    for seed in range(15):
        rng = np.random.default_rng([n, m, members, seed])
        reps = int(rng.choice([1, 2, int(rng.integers(3, 40))]))

        def table(gen):
            return gen.integers(0, 2, (members, n)).astype(float) if zero_one else gen.normal(size=(members, n))

        def sampler(rep):
            return table(np.random.default_rng([seed, rep]))

        avg = table(rng)
        a, b = rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)
        # t equal to a sampled block statistic of the stack, so that ">= t" meets a tie
        stack = np.stack([sampler(rep) for rep in range(reps)])
        idx = np.asarray(part.blocks[int(rng.integers(m))]) - 1
        t = (a * stack[:, :, idx].mean(axis=2) + b * avg[:, idx].mean(axis=1))[int(rng.integers(reps))].max()

        report = union_bound_check(sampler, avg, part, a, b, t, reps)
        reference = per_block_union_bound_check(sampler, avg, part, a, b, t, reps)
        assert [float(x).hex() for x in astuple(report)] == [float(x).hex() for x in astuple(reference)]


def test_union_bound_check_copies_a_reused_buffer():
    n, reps = 30, 50
    tables = np.array([[0.0, 1.0], [1.0, 0.0]])
    buffer = np.empty((2, n))

    def fresh(rep):
        return tables[:, np.random.default_rng(rep).integers(0, 2, size=n)]

    def reused(rep):
        buffer[:] = fresh(rep)
        return buffer

    args = (np.full((2, n), 0.5), m_steps_partition(n, 3), 1.0, -1.0, 0.1, reps)
    report = union_bound_check(reused, *args)
    assert 0.0 < report.lhs_frequency < 1.0
    assert report == union_bound_check(fresh, *args)


# (averages shape, sample shape, partition, start of the message)
WRONG_SHAPES = {
    "more members": ((1, 6), (2, 6), m_steps_partition(6, 2), r"sampler\(0\) returned shape"),
    "shorter sample": ((1, 6), (1, 5), m_steps_partition(6, 2), r"sampler\(0\) returned shape"),
    "one-dimensional averages": ((6,), (6,), m_steps_partition(6, 2), "avg_values must be"),
    "partition shorter than the sample": ((1, 6), (1, 6), m_steps_partition(4, 2), "partition covers 1..4"),
    "partition longer than the sample": ((1, 6), (1, 6), m_steps_partition(8, 2), "partition covers 1..8"),
}


@pytest.mark.parametrize("case", sorted(WRONG_SHAPES))
def test_union_bound_check_rejects_wrong_shapes(case):
    avg_shape, sample_shape, partition, message = WRONG_SHAPES[case]
    with pytest.raises(MalformedInputError, match=message):
        union_bound_check(lambda rep: np.zeros(sample_shape), np.full(avg_shape, 0.5),
                          partition, 1.0, -1.0, 0.1, 3)


def no_sample(rep):
    raise AssertionError("sampled before the check's inputs were checked")


# (t, a, b, every average, the error, its message).  Each can make the statistics NaN, which fails every
# comparison with t: both sides read 0.0, and the report read consistent
NON_FINITE_INPUTS = {
    "NaN t": (math.nan, 1.0, -1.0, 0.5, DomainError, "t must not be NaN"),
    "NaN a": (0.1, math.nan, -1.0, 0.5, DomainError, "a and b must be finite, got a=nan, b=-1.0"),
    "infinite a": (0.1, math.inf, -1.0, 0.5, DomainError, "a and b must be finite, got a=inf, b=-1.0"),
    "NaN b": (0.1, 1.0, math.nan, 0.5, DomainError, "a and b must be finite, got a=1.0, b=nan"),
    "infinite b": (0.1, 1.0, -math.inf, 0.5, DomainError, "a and b must be finite, got a=1.0, b=-inf"),
    "NaN averages": (0.1, 1.0, -1.0, math.nan, MalformedInputError, "avg_values must be finite"),
    "infinite averages": (0.1, 1.0, -1.0, math.inf, MalformedInputError, "avg_values must be finite"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_INPUTS))
def test_union_bound_check_rejects_non_finite_inputs_before_any_sample(case):
    t, a, b, average, error, message = NON_FINITE_INPUTS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        union_bound_check(no_sample, np.full((1, 6), average), m_steps_partition(6, 2), a, b, t, 20)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_union_bound_check_names_a_non_finite_sample(value):
    def sampler(rep):
        values = np.full((1, 6), 0.5)
        if rep in (7, 12):
            values[0, rep % 6] = value
        return values

    with pytest.raises(MalformedInputError, match=r"^sampler\(7\) returned non-finite values$"):
        union_bound_check(sampler, np.full((1, 6), 0.5), m_steps_partition(6, 2), 1.0, -1.0, 0.1, 20)


def test_union_bound_report_consistency_flag():
    from betamix.blocking import UnionBoundReport

    good = UnionBoundReport(0.1, 0.01, 0.3, 0.01, 100)
    bad = UnionBoundReport(0.5, 0.001, 0.1, 0.001, 100)
    assert good.consistent
    assert not bad.consistent


def test_union_bound_check_rejects_no_replications():
    with pytest.raises(DomainError, match="^replications must be >= 1$"):
        union_bound_check(lambda rep: np.zeros((1, 6)), np.full((1, 6), 0.5), m_steps_partition(6, 2),
                          1.0, -1.0, 0.1, 0)


def broken_partition(**fields):
    part = Partition(10, 3)
    for name, value in fields.items():
        setattr(part, name, value)
    return part


# (fields overwritten on Partition(10, 3), the AssertionError's message): check() holds on
# every partition that the constructor builds, so only a broken one reaches these
BROKEN_PARTITIONS = {
    "block sizes": ({"q": 5}, "block 1 of (10,3) has size 4 != 6"),
    # with a negative step, block 1 one step past its end is still inside 1..10
    "block end": ({"m": -3, "q": -2, "r": 0}, "block 1 of (10,-3) stops at 10, not maximal in 1..10"),
    "size sum": ({"n": 10.5}, "sizes of (10.5,3) do not sum to n"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_PARTITIONS))
def test_partition_check_names_a_broken_invariant(case):
    fields, message = BROKEN_PARTITIONS[case]
    with pytest.raises(AssertionError) as exc:
        broken_partition(**fields).check()
    assert str(exc.value) == message
