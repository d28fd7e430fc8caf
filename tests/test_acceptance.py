"""Acceptance suite: one test per shipped acceptance criterion.

Each test prints a single PASS line on success (visible with -s or in captured
output); tolerances are pinned in the assertions, never loosened at runtime.
"""
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from betamix.blocking import Z, lifted_bound, m_steps_partition, union_bound_check
from betamix.bounds import (
    BoundParams,
    indep_deviation_bound,
    proof_constants,
    statistical_error_curve,
    subexp_rate,
    subpoly_rate,
    subpoly_tradeoff,
    t0_threshold,
    theta_constants,
    u_constants,
    variance_rate_coefficient,
)
from betamix.coupling import berbee_couple, generalized_berbee, verify_coupling
from betamix.entropy import (
    FunctionFamily,
    covering_number_exact,
    covering_number_greedy,
    finite_family_entropy,
    neural_net_entropy,
    sauer_shelah_entropy,
)
from betamix.mixing import MixingFit, beta_coefficient, markov_beta, pairwise_beta
from betamix.pmf import FinitePmf, JointPmf, MarkovChainSpec
from betamix.simulate import GeneratorSpec, deviation_experiment, generate, weak_error_experiment


def random_joint(rng, shape):
    probs = rng.random(shape)
    probs /= probs.sum()
    return JointPmf(tuple(tuple(range(s)) for s in shape), probs)


def stationary_two_state(p, q):
    pi = np.array([q / (p + q), p / (p + q)])
    return MarkovChainSpec((0, 1), [[1 - p, p], [q, 1 - q]], FinitePmf((0, 1), pi)), pi


def test_criterion_01_exact_beta_closed_form():
    start = time.time()
    for p, q in itertools.product((0.1, 0.25, 0.4), repeat=2):
        chain, pi = stationary_two_state(p, q)
        T = np.asarray(chain.transition)
        for m in range(1, 11):
            # brute-force atom-sum oracle for the stationary lag-m joint
            joint = pi[:, None] * np.linalg.matrix_power(T, m)
            oracle = 0.5 * np.abs(joint - np.outer(pi, joint.sum(axis=0))).sum()
            closed = 2 * pi[0] * pi[1] * abs(1 - p - q) ** m
            assert closed == pytest.approx(oracle, abs=1e-10)
            assert markov_beta(chain, m) == pytest.approx(closed, abs=1e-10)
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"criterion 1 PASS: exact beta closed form ({elapsed:.2f}s)")


def test_criterion_02_coupling_equalities():
    start = time.time()
    rng = np.random.default_rng(2024)
    for _ in range(50):
        shape = tuple(rng.integers(2, 6, size=2))
        j = random_joint(rng, shape)
        res = berbee_couple(j)
        assert res.mismatch_probs[0] == pytest.approx(beta_coefficient(j), abs=1e-10)
        report = verify_coupling(res, j)
        assert report.marginal_error < 1e-12
        assert report.independence_error < 1e-10
    for _ in range(20):
        proc = random_joint(rng, (2, 2, 2))
        res = generalized_berbee(proc)
        report = verify_coupling(res, proc)
        assert report.marginal_error < 1e-10
        assert report.independence_error < 1e-10
        for k in range(3):
            ref = pairwise_beta(proc, tuple(range(k)), (k,))
            assert res.mismatch_probs[k] == pytest.approx(ref, abs=1e-10)
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"criterion 2 PASS: coupling equalities ({elapsed:.2f}s)")


def test_criterion_03_partition_invariants():
    start = time.time()
    # element-wise verification on a dense small range
    for n in range(1, 201):
        for m in range(1, n + 1):
            part = m_steps_partition(n, m)
            q, r = divmod(n, m)
            seen = set()
            for k, block in enumerate(part.blocks, start=1):
                block = list(block)
                assert block[0] == k
                assert all(b - a == m for a, b in zip(block, block[1:]))
                assert len(block) == (q + 1 if k <= r else q)
                seen.update(block)
            assert seen == set(range(1, n + 1))
    # structural check (exact but O(1) per pair) across the full grid
    for n in range(201, 2001):
        for m in range(1, n + 1):
            m_steps_partition(n, m).check()
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"criterion 3 PASS: partition invariants for all n <= 2000 ({elapsed:.2f}s)")


def test_criterion_04_union_bound_monte_carlo():
    start = time.time()
    chain, _ = stationary_two_state(0.3, 0.2)
    n, m, reps = 200, 5, 10**4
    spec = GeneratorSpec(kind="markov", seed=404, chain=chain)
    table = np.array([[0.0, 1.0], [1.0, 0.0]])  # indicators of each state
    laws = chain.marginal_matrix(n)
    avg_values = (laws @ table.T).T  # (members, n)
    state_index = {s: i for i, s in enumerate(chain.states)}

    cache = []
    for rep in range(reps):
        xs = generate(spec, n, rep).xs
        idx = np.fromiter((state_index[x] for x in xs), dtype=int, count=n)
        cache.append(table[:, idx])

    part = m_steps_partition(n, m)
    for t in np.linspace(0.02, 0.3, 10):
        report = union_bound_check(
            lambda rep: cache[rep], avg_values, part, 1.0, -1.0, float(t), reps
        )
        assert report.consistent
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"criterion 4 PASS: union bound Monte Carlo ({elapsed:.2f}s)")


def test_criterion_05_independent_case_bitwise_recovery():
    def base(size, t):
        return 3.7 * math.exp(-0.21 * size * t * t + math.log(5.0))

    for size in (1, 2, 17, 150, 2000):
        for t in (0.0, 1e-3, 0.05, 0.3, 0.77, 1.5, 1.999):
            lifted = lifted_bound(base, size, 1, t, 0.0, deviation_cap=2.0)
            assert lifted == min(1.0, base(size, t))
    print("criterion 5 PASS: independent-case recovery is bitwise")


def test_criterion_06_entropy_dominance():
    start = time.time()
    rng = np.random.default_rng(606)
    B = 1.0
    for _ in range(30):
        n_points = int(rng.integers(3, 13))
        n_members = int(rng.integers(2, 13))
        points = np.sort(rng.random(n_points))
        thresholds = rng.random(n_members)
        values = B * (points[None, :] >= thresholds[:, None]).astype(float)
        for r in (B / 16, B / 8, B / 4):
            assert math.exp(sauer_shelah_entropy(1, B, r)) >= covering_number_exact(values, r)
    for _ in range(30):
        n_points = int(rng.integers(3, 13))
        n_members = int(rng.integers(2, 13))
        points = rng.uniform(-1, 1, n_points)
        a = rng.uniform(-3, 3, n_members)
        b = rng.uniform(-1, 1, n_members)
        c = rng.uniform(-B, B, n_members)
        values = c[:, None] / (1.0 + np.exp(-(a[:, None] * points[None, :] + b[:, None])))
        for r in (B / 16, B / 8, B / 4):
            assert math.exp(neural_net_entropy(1, 1, B, r)) >= covering_number_greedy(values, r)
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"criterion 6 PASS: entropy dominance ({elapsed:.2f}s)")


def test_criterion_07_beta_version_dominance():
    start = time.time()
    chain, _ = stationary_two_state(0.25, 0.25)
    # exact envelope: beta(m) = 2 * pi0 * pi1 * 0.5^m = 0.5 * exp(-m log 2)
    b = math.log(2.0)
    fit = MixingFit("subexponential", 0.5, b, 1.0)
    family = FunctionFamily(
        chain.states,
        table=[[float(s) for s in chain.states], [1.0 - float(s) for s in chain.states],
               [0.5 for s in chain.states]],
    )
    entropy = finite_family_entropy(3)
    non_vacuous = 0
    for n in (250, 500, 1000):
        m = math.ceil(2.0 * math.log(n) / b)
        params = BoundParams(
            epsilon=0.9, c=4.0, gamma=2.0, gamma_prime=2.0, lam=1.5,
            B=1.0, V=1, n=n, m=m, mixing=fit,
        )
        spec = GeneratorSpec(kind="markov", seed=707 + n, chain=chain)
        report = deviation_experiment(
            spec, family, params, entropy, [0.9, 1.2], 10**4
        )
        for row in report.rows:
            if not row["vacuous"]:
                non_vacuous += 1
                assert row["frequency"] + 3.0 * row["stderr"] <= row["bound"], row
    assert non_vacuous > 0
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(f"criterion 7 PASS: beta-version dominance, {non_vacuous} informative points ({elapsed:.0f}s)")


def test_criterion_07_witness_that_the_dependence_price_is_needed():
    # A chain that stays put with probability 1 - 1e-6 from (1/2, 1/2): nearly every path is constant, and on
    # a constant path one indicator's statistic is 0.9 - 0.55, so the deviation event at t = 0.2 and 0.3 is
    # seen in nearly every draw.  The independent-case bound at the sample's size is below 1e-35 there, far
    # below the frequency's lower confidence limit: on this beta-mixing sample the independent inequality is
    # false.  The lifted bound, which pays n * beta(m), holds; a bound that drops that price equals the
    # independent one at m = 1, and fails here.
    start = time.time()
    stay = 1.0 - 1e-6
    chain = MarkovChainSpec((0, 1), np.array([[stay, 1.0 - stay], [1.0 - stay, stay]]),
                            FinitePmf((0, 1), [0.5, 0.5]))
    family = FunctionFamily(chain.states, table=[[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    entropy = finite_family_entropy(3)
    params = BoundParams(epsilon=0.1, c=4.0, gamma=2.0, gamma_prime=2.0, lam=1.5, B=1.0, V=1, n=30000, m=1)
    spec = GeneratorSpec(kind="markov", seed=16, chain=chain)
    report = deviation_experiment(spec, family, params, entropy, [0.2, 0.3], 400)
    for row in report.rows:
        independent = indep_deviation_bound(params, entropy, params.n, row["t"])
        assert row["frequency"] - Z * row["stderr"] > independent, row
        assert row["dominant"], row
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"criterion 7 witness PASS: the independent bound fails on a dependent sample ({elapsed:.2f}s)")


def test_criterion_08_weak_error_dominance_and_trend():
    start = time.time()
    states = range(4)
    phi = [(s - 1.5) / 15.0 for s in states]
    spec = GeneratorSpec(
        kind="m_dependent", seed=808, dependence_lag=2, alphabet_size=4,
        phi=phi, noise_values=(-0.1, 0.1), noise_probs=(0.5, 0.5),
        response_bound=0.25,
    )
    family = FunctionFamily(states, design=[[1.0, float(s)] for s in states])
    params = BoundParams(
        epsilon=0.5, c=2.0, gamma=2.0, gamma_prime=2.0, lam=1.5,
        B=0.25, V=3, n=100, m=2,
    )
    report = weak_error_experiment(
        spec, family, params, phi, [100, 200, 400, 800, 1600], 500
    )
    for row in report.rows:
        assert row["weak_error"] <= row["bound_total"] + 3.0 * row["stderr"], row
        assert row["bias"] == pytest.approx(0.0, abs=1e-10)
    slope = report.metadata["loglog_slope"]
    assert -1.3 <= slope <= -0.7, slope
    elapsed = time.time() - start
    assert elapsed < 1200.0
    print(f"criterion 8 PASS: weak-error dominance, slope {slope:.3f} ({elapsed:.0f}s)")


def test_criterion_09_rate_formula_identities():
    start = time.time()
    # analytic block choice collapses the exponential term to a/n exactly
    n, a, b, g = 1000, 0.8, 0.7, 1.0
    params = BoundParams(
        epsilon=0.5, c=2.0, gamma=2.0, gamma_prime=2.0, lam=1.5,
        B=1.0, V=1, n=n, m=1, mixing=MixingFit("subexponential", a, b, g),
    )
    curve = statistical_error_curve(params, np.linspace(2, 400, 500), C_sandwich=1.0)
    alpha = variance_rate_coefficient(params, 1.0)
    x = 2 ** (1 + 1 / g) * (math.log(n) / b) ** (1 / g)
    direct = alpha * x + a * n * math.exp(-(b / 2**g) * x**g)
    assert curve.analytic_x == pytest.approx(x, rel=1e-12)
    assert curve.analytic_value == pytest.approx(direct, rel=1e-12)
    assert curve.analytic_value == pytest.approx(alpha * x + a / n, rel=1e-12)

    # two-term subpolynomial balance: both sides of order n^(-(g-1)/(g+1))
    for n_sub in (10**3, 10**4, 10**5, 10**6):
        p_sub = BoundParams(
            epsilon=0.5, c=2.0, gamma=2.0, gamma_prime=2.0, lam=1.5,
            B=1.0, V=1, n=n_sub, m=1,
            mixing=MixingFit("subpolynomial", 60.0, None, 3.0),
        )
        alpha = variance_rate_coefficient(p_sub, 1.0)
        _, term1, term2 = subpoly_tradeoff(p_sub, alpha)
        assert 0.1 <= term1 / term2 <= 10.0

    # gamma -> infinity: both rates approach the independent-case shape
    n, C, big = 1000, 1.0, 10**6
    indep_shape = (C / n) * (1 * 1 * (1 + math.log(n)) / 0.5 + 2.0)
    p_e = BoundParams(
        epsilon=0.5, c=2.0, gamma=2.0, gamma_prime=2.0, lam=1.5,
        B=1.0, V=1, n=n, m=1, mixing=MixingFit("subexponential", 2.0, 1.0, big),
    )
    assert subexp_rate(p_e, C) == pytest.approx(indep_shape, rel=1e-4)
    p_p = BoundParams(
        epsilon=0.5, c=2.0, gamma=2.0, gamma_prime=2.0, lam=1.5,
        B=1.0, V=1, n=n, m=1, mixing=MixingFit("subpolynomial", 2.0, None, big),
    )
    assert subpoly_rate(p_p, C) == pytest.approx(indep_shape, rel=1e-4)
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"criterion 9 PASS: rate-formula identities ({elapsed:.2f}s)")


def test_criterion_10_constant_spot_checks():
    # independent exact-rational evaluation of each constant
    lam, c = Fraction(3, 2), Fraction(2)
    theta0_exact = (
        32
        * (Fraction(1, 3) * (1 - 1 / c) * (1 - 1 / lam) + (2 * lam - 1)) ** 2
        * (c / (c - 1)) ** 3
        * lam
        / (lam - 1)
    )
    assert theta_constants(2.0, 1.5, 100, 1)[0] == pytest.approx(float(theta0_exact), rel=1e-9)
    assert float(theta0_exact) == pytest.approx(3245.1, abs=0.1)

    g0 = 2 * (c + 1) * (2 * c + 3)
    assert proof_constants(2.0, 1.5)[0] == pytest.approx(float(g0), rel=1e-9)
    assert float(g0) == 42.0

    u1, u2 = u_constants(2.0, 2.0)
    assert u1 == pytest.approx(0.25, rel=1e-9)
    assert u2 == pytest.approx(0.125, rel=1e-9)

    sizes = [1, 3, 10, 50, 10**3, 10**6]
    t0s = [t0_threshold(2.0, 1.5, s) for s in sizes]
    assert all(a > b for a, b in zip(t0s, t0s[1:]))
    assert all(v > 0 for v in t0s)
    print("criterion 10 PASS: constant spot checks")
