import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betamix.errors import DegenerateFitError, MalformedInputError
from betamix.mixing import (
    MixingFit,
    beta_coefficient,
    beta_m_dependence,
    beta_max,
    fit_mixing_rate,
    markov_beta,
    pairwise_beta,
)
from betamix.pmf import FinitePmf, JointPmf, MarkovChainSpec


def random_joint(rng, shape):
    probs = rng.random(shape)
    probs /= probs.sum()
    return JointPmf(tuple(tuple(range(s)) for s in shape), probs)


def brute_force_beta(probs):
    """Oracle: max over all pairs of partitions of (1/2) sum |P(ExF) - P(E)P(F)|.

    Enumerates every partition of each alphabet into nonempty cells and takes
    the supremum in the partition characterization directly.
    """

    def partitions(items):
        items = list(items)
        if len(items) == 1:
            yield [items]
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1 :]
            yield [[first]] + part

    left_m = probs.sum(axis=1)
    right_m = probs.sum(axis=0)
    best = 0.0
    for pl in partitions(range(probs.shape[0])):
        for pr in partitions(range(probs.shape[1])):
            total = 0.0
            for E in pl:
                for F in pr:
                    pef = probs[np.ix_(E, F)].sum()
                    total += abs(pef - left_m[E].sum() * right_m[F].sum())
            best = max(best, 0.5 * total)
    return best


def test_atomic_partition_attains_supremum():
    rng = np.random.default_rng(7)
    for _ in range(10):
        j = random_joint(rng, (3, 3))
        assert beta_coefficient(j) == pytest.approx(brute_force_beta(j.probs), abs=1e-12)


def test_product_joint_has_zero_beta():
    f = FinitePmf((0, 1, 2), [0.2, 0.3, 0.5])
    g = FinitePmf((0, 1), [0.6, 0.4])
    assert beta_coefficient(JointPmf.from_product([f, g])) == pytest.approx(0.0, abs=1e-14)


def test_perfectly_correlated_binary():
    j = JointPmf(((0, 1), (0, 1)), np.diag([0.5, 0.5]))
    assert beta_coefficient(j) == pytest.approx(0.5)


@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_beta_range_and_symmetry(seed, a, b):
    rng = np.random.default_rng(seed)
    j = random_joint(rng, (a, b))
    v = beta_coefficient(j)
    assert 0.0 <= v <= 1.0
    flipped = JointPmf((j.axes[1], j.axes[0]), j.probs.T)
    assert v == pytest.approx(beta_coefficient(flipped), abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_grouping_monotone_under_coarsening(seed):
    """Dropping axes from a group never increases the dependence coefficient."""
    rng = np.random.default_rng(seed)
    j = random_joint(rng, (2, 2, 2))
    full = pairwise_beta(j, (0, 1), (2,))
    coarser = pairwise_beta(j, (0,), (2,))
    assert coarser <= full + 1e-12


def test_m_dependence_monotone_in_m():
    rng = np.random.default_rng(3)
    j = random_joint(rng, (2, 2, 2, 2))
    values = [beta_max(j, m) for m in range(1, 5)]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-12


def test_m_dependence_empty_groups():
    rng = np.random.default_rng(4)
    j = random_joint(rng, (2, 2))
    # l - m < 1 leaves no past; l outside the index set leaves no present
    assert beta_m_dependence(j, 5, 2) == 0.0
    assert beta_m_dependence(j, 1, 9) == 0.0


def test_m_dependence_custom_indices():
    rng = np.random.default_rng(5)
    j = random_joint(rng, (2, 2, 2))
    # indices (1, 5, 6): at lag 3, only index 1 is far enough in the past of 6
    expected = pairwise_beta(j, (0,), (2,))
    assert beta_m_dependence(j, 3, 6, indices=(1, 5, 6)) == pytest.approx(expected)
    with pytest.raises(MalformedInputError):
        beta_m_dependence(j, 1, 1, indices=(1, 1, 2))


def test_markov_beta_matches_atom_sum_oracle():
    p, q, m = 0.3, 0.2, 4
    pi = np.array([q / (p + q), p / (p + q)])
    T = np.array([[1 - p, p], [q, 1 - q]])
    chain = MarkovChainSpec((0, 1), T, FinitePmf((0, 1), pi))
    joint = pi[:, None] * np.linalg.matrix_power(T, m)
    oracle = 0.5 * np.abs(joint - np.outer(pi, joint.sum(axis=0))).sum()
    assert markov_beta(chain, m) == pytest.approx(oracle, abs=1e-12)


def test_markov_beta_nonstationary_scan():
    # starting from a point mass, the lag-1 coefficient varies with n; the
    # scan must take the max over starting times, not just n = 1
    T = np.array([[0.5, 0.5], [0.05, 0.95]])
    chain = MarkovChainSpec((0, 1), T, FinitePmf((0, 1), [1.0, 0.0]))
    vals = []
    mu = chain.initial.probs.copy()
    for _ in range(64):
        joint = mu[:, None] * T
        vals.append(0.5 * np.abs(joint - np.outer(mu, joint.sum(axis=0))).sum())
        mu = mu @ T
    assert markov_beta(chain, 1) == pytest.approx(max(vals), abs=1e-14)
    assert max(vals) > vals[0]


def test_fit_subexponential_dominates():
    pts = [(m, 0.8 * np.exp(-0.5 * m)) for m in range(1, 8)]
    fit = fit_mixing_rate(pts, "subexponential")
    assert fit.gamma == 1.0
    for m, v in pts:
        assert fit.envelope(m) >= v - 1e-12
    assert fit.a == pytest.approx(0.8, rel=1e-6)
    assert fit.b == pytest.approx(0.5, rel=1e-6)


def test_fit_subpolynomial_dominates_noisy_points():
    rng = np.random.default_rng(11)
    pts = [(m, 0.6 * m**-2.0 * np.exp(0.1 * rng.standard_normal())) for m in range(1, 12)]
    fit = fit_mixing_rate(pts, "subpolynomial")
    for m, v in pts:
        assert fit.envelope(m) >= v * (1 - 1e-10)


def test_fit_fixed_rate_parameter_respected():
    pts = [(1, 0.5), (2, 0.25), (3, 0.125)]
    fit = fit_mixing_rate(pts, "subexponential", gamma=1.0, b=np.log(2.0))
    assert fit.b == pytest.approx(np.log(2.0))
    assert fit.a == pytest.approx(1.0, rel=1e-9)


def test_fit_rejects_all_zero_points():
    with pytest.raises(DegenerateFitError):
        fit_mixing_rate([(1, 0.0), (2, 0.0)], "subexponential")


def test_mixing_fit_rejects_unknown_model_and_missing_rate():
    with pytest.raises(MalformedInputError):
        MixingFit("typo", 0.5, 0.7, 1.0)
    with pytest.raises(MalformedInputError):
        MixingFit("subexponential", 0.5, None, 1.0)
    assert MixingFit("subpolynomial", 0.5, None, 2.0).envelope(2.0) == pytest.approx(0.125)
