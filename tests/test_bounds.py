import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from betamix.bounds import (
    BoundParams,
    RateCurve,
    WeakErrorBreakdown,
    a0_constant,
    beta_deviation_bound,
    indep_deviation_bound,
    ls_deviation_bound,
    proof_constants,
    statistical_error_curve,
    subexp_rate,
    subpoly_rate,
    subpoly_tradeoff,
    t0_threshold,
    theta_constants,
    u_constants,
    variance_rate_coefficient,
    weak_error_bound,
)
from betamix.entropy import finite_family_entropy, sauer_shelah_entropy
from betamix.errors import DomainError, HypothesisViolationError, MalformedInputError
from betamix.mixing import MixingFit


def make_params(**overrides):
    defaults = dict(
        epsilon=0.5, c=2.0, gamma=2.0, gamma_prime=2.0, lam=1.5,
        B=1.0, V=1, n=1000, m=10,
        mixing=MixingFit("subexponential", 1.0, 0.7, 1.0),
    )
    defaults.update(overrides)
    return BoundParams(**defaults)


def test_params_validation():
    with pytest.raises(DomainError):
        make_params(epsilon=1.5)
    with pytest.raises(DomainError):
        make_params(c=1.0)
    with pytest.raises(DomainError):
        make_params(m=2000)


def test_u_constants_exact():
    u1, u2 = u_constants(2.0, 2.0)
    assert u1 == pytest.approx(0.25, rel=1e-12)
    assert u2 == pytest.approx(0.125, rel=1e-12)
    # always in (0, 1)
    for c in (1.5, 3.0, 10.0):
        for g in (1.2, 2.0, 8.0):
            u1, u2 = u_constants(c, g)
            assert 0 < u1 < 1 and 0 < u2 < 1


def test_indep_bound_threshold_convention():
    p = make_params()
    ent = finite_family_entropy(1)
    thr = (p.B * p.c / 2.0) * math.sqrt(p.gamma / 100)
    assert indep_deviation_bound(p, ent, 100, thr * 0.99) == 1.0
    above = indep_deviation_bound(p, ent, 100, thr * 1.01)
    assert 0 < above < math.inf


def test_indep_bound_formula_hand_check():
    p = make_params()
    ent = finite_family_entropy(3)
    t, size = 0.5, 400
    u1, u2 = 0.25, 0.125
    expected = 4.0 * math.exp(-u2 * 0.5 * size * t / 2.0 + math.log(3))
    assert indep_deviation_bound(p, ent, size, t) == pytest.approx(expected, rel=1e-12)


def test_indep_bound_decreasing_in_t_and_size():
    p = make_params()
    ent = finite_family_entropy(1)
    vals_t = [indep_deviation_bound(p, ent, 500, t) for t in (0.3, 0.5, 0.8, 1.2)]
    assert all(a >= b for a, b in zip(vals_t, vals_t[1:]))
    vals_n = [indep_deviation_bound(p, ent, n, 0.5) for n in (100, 400, 1600)]
    assert all(a >= b for a, b in zip(vals_n, vals_n[1:]))


def test_overflowing_indep_bound_is_infinite_and_lifts_to_vacuous():
    # criterion-7 shape: the entropy term of V=200 takes the exponent past exp's range
    p = make_params(epsilon=0.9, c=4.0, n=1000, m=20,
                    mixing=MixingFit("subexponential", 0.5, math.log(2.0), 1.0))
    for ent in (functools.partial(sauer_shelah_entropy, 200, 1.0), finite_family_entropy(10**400)):
        assert indep_deviation_bound(p, ent, p.n, 1.2) == math.inf
        assert indep_deviation_bound(p, ent, p.n // p.m, 1.2) == math.inf
        assert beta_deviation_bound(p, ent, 1.2) == 1.0
    # below the overflow the formula's value is returned as it was
    ent = functools.partial(sauer_shelah_entropy, 150, 1.0)
    u1, u2 = u_constants(p.c, p.gamma_prime)
    exponent = -u2 * p.epsilon * p.n * 1.2 / (2.0 * p.B) + ent(u1 * 1.2 / 2.0)
    expected = (2.0 * p.gamma / (p.gamma - 1.0)) * math.exp(exponent)
    assert 1.0 < indep_deviation_bound(p, ent, p.n, 1.2) == expected < math.inf


def test_beta_bound_independent_recovery():
    p = make_params(m=1, mixing=None)
    ent = finite_family_entropy(2)
    for t in (0.2, 0.5, 1.0):
        lifted = beta_deviation_bound(p, ent, t, beta_at_m=0.0)
        assert lifted == min(1.0, indep_deviation_bound(p, ent, p.n, t))


def test_beta_bound_example_finite_and_clipped():
    p = make_params()  # n=1000, m=10, subexponential a=1, b=0.7, gamma=1
    ent = finite_family_entropy(1)
    val = beta_deviation_bound(p, ent, 0.5)
    assert 0.0 <= val <= 1.0
    # above the deviation cap 2B the probability is exactly zero
    assert beta_deviation_bound(p, ent, 2.1) == 0.0


def test_beta_bound_monotone_in_beta():
    p = make_params()
    ent = finite_family_entropy(2)
    vals = [beta_deviation_bound(p, ent, 0.6, beta_at_m=b) for b in (0.0, 1e-4, 1e-3)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_beta_from_the_envelope_unless_given():
    p = make_params(n=1000, m=2)
    envelope = float(p.mixing.envelope(2))
    assert weak_error_bound(p, 0.01) == weak_error_bound(p, 0.01, beta_at_m=envelope)
    bare = make_params(n=1000, m=2, mixing=None)
    with pytest.raises(DomainError, match="no mixing envelope"):
        beta_deviation_bound(bare, finite_family_entropy(1), 0.5)
    with pytest.raises(DomainError, match="no mixing envelope"):
        weak_error_bound(bare, 0.01)


def test_proof_constants_spot_values():
    g0, g1, _ = proof_constants(2.0, 1.5)
    assert g0 == pytest.approx(42.0, rel=1e-12)
    assert g1 == pytest.approx(0.025, rel=1e-12)


def test_b_exp_fraction_oracle():
    c, lam = Fraction(2), Fraction(3, 2)
    denom = (Fraction(1, 3) * (1 - 1 / c) + (2 * lam - 1) * lam / (lam - 1)) ** 2
    expected = Fraction(1, 2) * (1 - 1 / c) ** 3 * (lam / (lam - 1)) / denom
    assert proof_constants(2.0, 1.5)[2] == pytest.approx(float(expected), rel=1e-12)


def test_t0_threshold_monotone_and_positive():
    vals = [t0_threshold(2.0, 1.5, size) for size in (1, 10, 100, 1000, 10**6)]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_ls_deviation_bound_shape():
    # 1 below t0, then an exponentially decaying tail
    c, lam, V, n, m = 2.0, 1.5, 2, 1000, 5
    q = n // m
    t0 = t0_threshold(c, lam, q)
    assert ls_deviation_bound(c, lam, V, n, m, t0 * 0.9) == 1.0
    lo = ls_deviation_bound(c, lam, V, n, m, t0 * 1.5)
    hi = ls_deviation_bound(c, lam, V, n, m, t0 * 3.0)
    _, _, b_exp = proof_constants(c, lam)
    expected = m * a0_constant(c, lam, q + 1, V) * math.exp(-b_exp * q * t0 * 1.5)
    assert lo == pytest.approx(expected, rel=1e-12)
    assert hi < lo


def test_overflowing_a0_is_infinite_and_the_tail_vacuous():
    # (e/x log(3e/(2x)))**V past float range used to raise OverflowError
    assert a0_constant(2.0, 1.5, 100, 500) == math.inf
    assert ls_deviation_bound(2.0, 1.5, 500, 1000, 2, 0.5) == 1.0
    # a finite prefactor keeps the unclipped tail, above 1 or not
    assert ls_deviation_bound(2.0, 1.5, 50, 1000, 2, 0.5) == 2 * a0_constant(2.0, 1.5, 501, 50) * math.exp(
        -proof_constants(2.0, 1.5)[2] * 500 * 0.5)


def test_theta0_fraction_oracle():
    lam, c = Fraction(3, 2), Fraction(2)
    expected = (
        32
        * (Fraction(1, 3) * (1 - 1 / c) * (1 - 1 / lam) + (2 * lam - 1)) ** 2
        * (c / (c - 1)) ** 3
        * lam
        / (lam - 1)
    )
    assert theta_constants(2.0, 1.5, 100, 1)[0] == pytest.approx(float(expected), rel=1e-12)


NAN = float("nan")
# (helper called with one NaN constant, the whole message)
NAN_CONSTANTS = {
    "u constants, NaN c": (lambda: u_constants(NAN, 2.0), "c and gamma' must exceed 1"),
    "u constants, NaN gamma'": (lambda: u_constants(2.0, NAN), "c and gamma' must exceed 1"),
    "proof constants, NaN lambda": (lambda: proof_constants(2.0, NAN), "c and lambda must exceed 1"),
    "t0 threshold, NaN c": (lambda: t0_threshold(NAN, 1.5, 10), "c and lambda must exceed 1"),
    "ls deviation bound, NaN c": (lambda: ls_deviation_bound(NAN, 1.5, 1, 100, 2, 0.5),
                                  "c and lambda must exceed 1"),
    "ls deviation bound, NaN lambda": (lambda: ls_deviation_bound(2.0, NAN, 1, 100, 2, 0.5),
                                       "c and lambda must exceed 1"),
    "theta constants, NaN c": (lambda: theta_constants(NAN, 1.5, 100, 2), "c and lambda must exceed 1"),
}


@pytest.mark.parametrize("case", sorted(NAN_CONSTANTS))
def test_explicit_constants_reject_nan(case):
    evaluate, message = NAN_CONSTANTS[case]
    with pytest.raises(DomainError) as exc:
        evaluate()
    assert str(exc.value) == message


def test_weak_error_bound_structure():
    p = make_params(n=1000, m=2, mixing=None)
    out = weak_error_bound(p, bias=0.04, beta_at_m=1e-5)
    assert out.total == pytest.approx(
        out.variance_term + out.beta_error_term + out.scaled_bias_term
    )
    assert out.scaled_bias_term == pytest.approx(1.5 * 0.04)
    assert out.beta_error_term == pytest.approx(16.0 * (1 + 1.5) * 1000 * 1e-5)


def test_weak_error_bound_past_float_range():
    # B**2 overflows to inf; a zero beta still prices nothing, where inf * 0 would be NaN
    out = weak_error_bound(make_params(B=1e200, mixing=None), 0.0, beta_at_m=0.0)
    assert out.variance_term == out.total == math.inf
    assert out.beta_error_term == 0.0


def test_weak_error_bound_monotonicities():
    p = make_params(n=1000, m=2, mixing=None)
    base = weak_error_bound(p, 0.01, beta_at_m=1e-5).total
    assert weak_error_bound(p, 0.02, beta_at_m=1e-5).total >= base
    assert weak_error_bound(p, 0.01, beta_at_m=1e-4).total >= base
    assert weak_error_bound(make_params(n=1000, m=2, B=2.0, mixing=None), 0.01, 1e-5).total >= base


def test_weak_error_hypothesis_violations_named():
    with pytest.raises(HypothesisViolationError, match="lambda"):
        weak_error_bound(make_params(lam=2.0, mixing=None), 0.0, beta_at_m=0.0)
    # c so large that floor(n/m) falls below exp((c^2 - 71)/(4V))
    p = make_params(c=20.0, n=100, m=1, mixing=None)
    with pytest.raises(HypothesisViolationError, match="floor"):
        weak_error_bound(p, 0.0, beta_at_m=0.0)
    # exp((c^2 - 71)/(4V)) at c = 100 overflows; it used to raise OverflowError
    p = make_params(c=100.0, B=0.25, n=100, m=2, mixing=None)
    with pytest.raises(HypothesisViolationError, match=r"floor\(n/m\) >= exp\(\(c\^2-71\)/\(4V\)\) violated: 50 < inf"):
        p.check_weak_error_hypotheses()
    with pytest.raises(HypothesisViolationError, match="violated: 50 < inf"):
        weak_error_bound(p, 0.0, beta_at_m=0.0)


def test_curve_analytic_identity():
    p = make_params(n=1000, m=1, mixing=MixingFit("subexponential", 0.8, 0.7, 1.0))
    curve = statistical_error_curve(p, np.linspace(2, 500, 2000), C_sandwich=1.0)
    alpha = variance_rate_coefficient(p, 1.0)
    a, b, g = 0.8, 0.7, 1.0
    x = curve.analytic_x
    assert x == pytest.approx(2 ** (1 + 1 / g) * (math.log(1000) / b) ** (1 / g), rel=1e-12)
    direct = alpha * x + a * 1000 * math.exp(-(b / 2**g) * x**g)
    assert curve.analytic_value == pytest.approx(direct, rel=1e-12)
    assert curve.analytic_value == pytest.approx(alpha * x + a / 1000, rel=1e-12)
    # the grid minimum cannot beat the true curve at its own x
    assert curve.grid_value <= alpha * curve.grid_x + a * 1000 * math.exp(-(b / 2) * curve.grid_x) + 1e-12


@pytest.mark.parametrize("g", [1.0, 2.0, 3.0])
def test_curve_keeps_the_bits_of_its_first_expression(g):
    # b * (x / 2)**g against (b / 2**g) * x**g: dividing by a power of two is exact, so integer gammas keep every bit
    p = make_params(n=1000, m=1, mixing=MixingFit("subexponential", 0.8, 0.7, g))
    grid = np.linspace(2, 500, 2000)
    curve = statistical_error_curve(p, grid, C_sandwich=1.0)
    old = variance_rate_coefficient(p, 1.0) * grid + 0.8 * 1000 * np.exp(-(0.7 / 2.0**g) * grid**g)
    i = int(np.argmin(old))
    assert (curve.grid_x, curve.grid_value) == (grid[i], old[i])


@pytest.mark.parametrize("g", [1024.0, 1e6])
def test_curve_past_the_float_range_of_two_to_the_gamma(g):
    # 2.0**g raised OverflowError from gamma 1024 on; past x = 2 the exponential term is 0, its limit
    p = make_params(n=1000, m=1, mixing=MixingFit("subexponential", 1.0, 0.7, g))
    alpha = variance_rate_coefficient(p, 1.0)
    curve = statistical_error_curve(p, [2.0, 10.0], C_sandwich=1.0)
    values = [alpha * 2.0 + 1000 * np.exp(-0.7), alpha * 10.0]
    i = int(np.argmin(values))
    assert (curve.grid_x, curve.grid_value) == ([2.0, 10.0][i], values[i])
    assert math.isfinite(curve.analytic_x) and math.isfinite(curve.analytic_value)


def test_curve_requires_mandatory_constant():
    p = make_params()
    with pytest.raises(DomainError):
        statistical_error_curve(p, [10.0, 20.0], C_sandwich=0.0)


def test_subexp_rate_value_and_validity():
    p = make_params(n=1000, m=1, mixing=MixingFit("subexponential", 2.0, 1.0, 1.0))
    C = 3.0
    block = (2 * math.log(1000)) ** 1.0
    expected = (C / 1000) * (1.0 * 1 * (1 + math.log(1000)) / 0.5 + 2.0) * block
    assert subexp_rate(p, C) == pytest.approx(expected, rel=1e-12)
    tiny = make_params(n=2, m=1, mixing=MixingFit("subexponential", 2.0, 1.0, 1.0))
    with pytest.raises(HypothesisViolationError):
        subexp_rate(tiny, C)
    with pytest.raises(DomainError):
        subexp_rate(p, 0.0)


def test_subpoly_rate_and_tradeoff_balance():
    C = 1.0
    for n in (10**3, 10**4, 10**5, 10**6):
        p = make_params(n=n, m=1, mixing=MixingFit("subpolynomial", 60.0, None, 3.0))
        rate = subpoly_rate(p, C)
        assert rate == pytest.approx(
            C * n ** (-0.5) * (1 * 1 * (1 + math.log(n)) / 0.5 + 60.0), rel=1e-12
        )
        alpha = variance_rate_coefficient(p, 1.0)
        x, term1, term2 = subpoly_tradeoff(p, alpha)
        assert x == math.ceil(n**0.5)
        assert 0.1 <= term1 / term2 <= 10.0


def test_rate_limits_match_independent_shape():
    n, C = 1000, 1.0
    big_gamma = 10**6
    p_exp = make_params(n=n, m=1, mixing=MixingFit("subexponential", 2.0, 1.0, big_gamma))
    limit = (C / n) * (1 * 1 * (1 + math.log(n)) / 0.5 + 2.0)
    assert subexp_rate(p_exp, C) == pytest.approx(limit, rel=1e-4)
    p_poly = make_params(n=n, m=1, mixing=MixingFit("subpolynomial", 2.0, None, big_gamma))
    assert subpoly_rate(p_poly, C) == pytest.approx(limit, rel=1e-4)


POLY = MixingFit("subpolynomial", 2.0, None, 3.0)
FLAT_POLY = MixingFit("subpolynomial", 2.0, None, 1.0)
SUBEXP_REQUIRED = "a subexponential mixing envelope is required"
SUBPOLY_REQUIRED = "a subpolynomial mixing envelope is required"
# (evaluator, configured envelope, the whole message), in each evaluator's order of checks
ENVELOPE_ERRORS = {
    "curve without an envelope": (lambda p: statistical_error_curve(p, [4.0], 1.0), None, SUBEXP_REQUIRED),
    "curve with a subpolynomial envelope": (
        lambda p: statistical_error_curve(p, [4.0], 1.0), POLY, SUBEXP_REQUIRED),
    "subexp rate checks C first": (lambda p: subexp_rate(p, 0.0), None,
                                   "the universal constant C must be positive and supplied explicitly"),
    "subexp rate with a subpolynomial envelope": (lambda p: subexp_rate(p, 1.0), POLY, SUBEXP_REQUIRED),
    # the rates divide by b and gamma: zero used to raise ZeroDivisionError, a negative b overflowed exp
    "subexp rate with rate 0": (lambda p: subexp_rate(p, 1.0), MixingFit("subexponential", 2.0, 0.0, 1.0),
                                "mixing rate and exponent must be positive, got b=0.0, gamma=1.0"),
    "subexp rate with exponent 0": (lambda p: subexp_rate(p, 1.0), MixingFit("subexponential", 2.0, 1.0, 0.0),
                                    "mixing rate and exponent must be positive, got b=1.0, gamma=0.0"),
    "curve with a negative rate": (
        lambda p: statistical_error_curve(p, [2.0, 10.0, 1000.0], 1.0), MixingFit("subexponential", 2.0, -5.0, 1.0),
        "mixing rate and exponent must be positive, got b=-5.0, gamma=1.0"),
    "curve with a NaN rate": (
        lambda p: statistical_error_curve(p, [4.0], 1.0), MixingFit("subexponential", 2.0, NAN, 1.0),
        "mixing rate and exponent must be positive, got b=nan, gamma=1.0"),
    "subpoly rate without an envelope": (lambda p: subpoly_rate(p, 1.0), None, SUBPOLY_REQUIRED),
    "subpoly rate with exponent 1": (
        lambda p: subpoly_rate(p, 1.0), FLAT_POLY, "mixing exponent must exceed 1, got 1.0"),
    "subpoly tradeoff with a subexponential envelope": (
        lambda p: subpoly_tradeoff(p, 1.0), make_params().mixing, SUBPOLY_REQUIRED),
    "subpoly tradeoff with exponent 1": (
        lambda p: subpoly_tradeoff(p, 1.0), FLAT_POLY, "mixing exponent must exceed 1, got 1.0"),
}


@pytest.mark.parametrize("case", sorted(ENVELOPE_ERRORS))
def test_rates_name_the_missing_envelope(case):
    evaluate, fit, message = ENVELOPE_ERRORS[case]
    with pytest.raises(DomainError) as exc:
        evaluate(make_params(mixing=fit))
    assert str(exc.value) == message


def test_weak_error_size_floor_tends_to_one_as_v_grows():
    # at V = 1e308, 4V is past float range and the floor exp((c^2-71)/(4V)) reads exp(0) = 1
    make_params(c=100.0, V=10**308, n=100, m=2, mixing=None).check_weak_error_hypotheses()


ENTROPY = finite_family_entropy(2)
# (call, exception type, start of its message) of each input check
INPUT_CHECKS = {
    "V of 0": (lambda: make_params(V=0), DomainError, "V must be a positive integer, got 0"),
    "V past float range": (lambda: make_params(V=10**400), DomainError, "V must be at most the largest float"),
    # a fractional size used to be accepted: beta_deviation_bound read 0.1204 at n = 1000.5
    "fractional n": (lambda: make_params(n=1000.5), MalformedInputError, "n must be an integer, got 1000.5"),
    "fractional V": (lambda: make_params(V=1.5), MalformedInputError, "V must be an integer, got 1.5"),
    "integral float m": (lambda: make_params(m=20.0), MalformedInputError, "m must be an integer, got 20.0"),
    "size of 0 (indep deviation)": (
        lambda: indep_deviation_bound(make_params(), ENTROPY, 0, 0.5), DomainError, "size must be >= 1"),
    "size past float range (indep deviation)": (
        lambda: indep_deviation_bound(make_params(), ENTROPY, 10**400, 0.5), DomainError,
        "size must be at most the largest float"),
    "size of 0 (t0 threshold)": (lambda: t0_threshold(2.0, 1.5, 0), DomainError, "size must be >= 1"),
    "size past float range (t0 threshold)": (
        lambda: t0_threshold(2.0, 1.5, 10**400), DomainError, "size must be at most the largest float"),
    "negative t (ls deviation bound)": (
        lambda: ls_deviation_bound(2.0, 1.5, 1, 100, 2, -1.0), DomainError, "t must be nonnegative"),
    "x grid below 2": (
        lambda: statistical_error_curve(make_params(), [1.0, 1.5], 1.0), DomainError,
        "empty x grid after restriction to [2, n]"),
    "lambda above the rate's cap": (
        lambda: subexp_rate(make_params(lam=3.0), 1.0), HypothesisViolationError,
        "lambda <= (3+sqrt(1+8 sqrt(71)))/4 violated: 3.0 >"),
    "C of 0 (subpoly rate)": (
        lambda: subpoly_rate(make_params(mixing=MixingFit("subpolynomial", 1.0, None, 2.0)), 0.0), DomainError,
        "the universal constant C must be positive and supplied explicitly"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_checks_name_the_fault(case):
    call, kind, message = INPUT_CHECKS[case]
    with pytest.raises(kind) as exc:
        call()
    assert str(exc.value).startswith(message)
