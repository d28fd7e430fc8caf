"""Closed-form deviation and weak-error bounds for dependent samples.

Everything here is a direct evaluation of a printed formula: the independent
uniform deviation bound in entropy form, its dependent version obtained
through the blocking lift, the weak L2-error bound with all of its proof
constants, and the two mixing-rate corollaries.  Universal constants that the
theory leaves unspecified (C and the variance-sandwich constant) are mandatory
inputs and never defaulted.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .blocking import euclidean, lifted_bound
from .entropy import EntropyEstimate
from .errors import DomainError, HypothesisViolationError
from .mixing import MixingFit


@dataclass(frozen=True)
class BoundParams:
    """Tunable constants feeding the bound evaluators.

    ``lam`` is the bias-scaling factor (written lambda in configs); ``mixing``
    carries the dependence-rate envelope when one is needed.
    """

    epsilon: float
    c: float
    gamma: float
    gamma_prime: float
    lam: float
    B: float
    V: int
    n: int
    m: int = 1
    mixing: MixingFit | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError(f"epsilon must lie in (0,1), got {self.epsilon}")
        for name in ("c", "gamma", "gamma_prime", "lam"):
            if not getattr(self, name) > 1.0:
                raise DomainError(f"{name} must exceed 1, got {getattr(self, name)}")
        if not self.B > 0.0:
            raise DomainError(f"B must be positive, got {self.B}")
        if self.V < 1:
            raise DomainError(f"V must be a positive integer, got {self.V}")
        if self.n < 1 or self.m < 1 or self.m > self.n:
            raise DomainError(f"need 1 <= m <= n, got n={self.n}, m={self.m}")

    def check_weak_error_hypotheses(self) -> None:
        """Raise unless the weak-error theorem's two inequalities hold."""
        lam_cap = (3.0 + math.sqrt(1.0 + 8.0 * self.c)) / 4.0
        if self.lam > lam_cap:
            raise HypothesisViolationError(
                f"lambda <= (3+sqrt(1+8c))/4 violated: {self.lam} > {lam_cap}"
            )
        q, _ = euclidean(self.n, self.m)
        try:
            size_floor = math.exp((self.c**2 - 71.0) / (4.0 * self.V))
        except OverflowError:
            size_floor = math.inf
        if q < size_floor:
            raise HypothesisViolationError(
                f"floor(n/m) >= exp((c^2-71)/(4V)) violated: {q} < {size_floor}"
            )


def _beta(params: BoundParams, beta_at_m: float | None) -> float:
    """beta(m) as given, or else the configured envelope at the configured m.

    A beta above 1 passes (a fitted envelope may exceed 1 and still bounds beta);
    a NaN or negative one does not.
    """
    if beta_at_m is not None:
        beta = float(beta_at_m)
    elif params.mixing is None:
        raise DomainError("no mixing envelope configured")
    else:
        beta = float(params.mixing.envelope(params.m))
    if not beta >= 0.0:
        raise DomainError(f"beta(m) must be nonnegative, got {beta}")
    return beta


def _envelope(params: BoundParams, model: str) -> MixingFit:
    """The configured ``model`` envelope, with a >= 0 (and gamma > 1 if subpolynomial); NaN fails."""
    fit = params.mixing
    if fit is None or fit.model != model:
        raise DomainError(f"a {model} mixing envelope is required")
    if not fit.a >= 0.0:
        raise DomainError(f"mixing amplitude must be nonnegative, got {fit.a}")
    if model == "subpolynomial" and not fit.gamma > 1.0:
        raise DomainError(f"mixing exponent must exceed 1, got {fit.gamma}")
    return fit


def _check_above_one(c: float, other: float, other_name: str) -> None:
    """Raise unless c and the other constant both exceed 1; NaN fails."""
    if not c > 1.0 or not other > 1.0:
        raise DomainError(f"c and {other_name} must exceed 1")


def u_constants(c: float, gamma_prime: float) -> tuple:
    """(u1, u2) = ((1-1/c)/gamma', (1-1/c)^2 (1-1/gamma')); both in (0,1)."""
    _check_above_one(c, gamma_prime, "gamma'")
    u1 = (1.0 - 1.0 / c) / gamma_prime
    u2 = (1.0 - 1.0 / c) ** 2 * (1.0 - 1.0 / gamma_prime)
    return u1, u2


def indep_deviation_bound(
    params: BoundParams, entropy: EntropyEstimate, size: int, t: float
) -> float:
    """Uniform deviation bound for an independent sample of the given size.

    Returns 1 below the validity threshold t >= (Bc/2) sqrt(gamma/size) (the
    hidden-restriction convention); above it,
    (2 gamma / (gamma - 1)) * exp(-u2 eps size t / (2B) + entropy(u1 t / 2)),
    which is inf where the exponential overflows.  The entropy term is uniform,
    the same for every sample size, so only the first term reads ``size``.
    """
    if size < 1:
        raise DomainError("size must be >= 1")
    if not t >= 0.0:
        raise DomainError("t must be nonnegative")
    threshold = (params.B * params.c / 2.0) * math.sqrt(params.gamma / size)
    if t < threshold:
        return 1.0
    u1, u2 = u_constants(params.c, params.gamma_prime)
    exponent = -u2 * params.epsilon * size * t / (2.0 * params.B) + entropy(u1 * t / 2.0)
    try:
        return (2.0 * params.gamma / (params.gamma - 1.0)) * math.exp(exponent)
    except OverflowError:
        return math.inf


def beta_deviation_bound(
    params: BoundParams,
    entropy: EntropyEstimate,
    t: float,
    beta_at_m: float | None = None,
) -> float:
    """Dependent-case uniform deviation bound, clipped to [0, 1].

    Composes the independent bound with the blocking lift at gap m, using the
    deviation cap 2B (the statistic's coefficients sum to (1-eps)+(1+eps)=2)
    and paying n * beta(m) for the dependence.
    """
    beta = _beta(params, beta_at_m)
    base = functools.partial(indep_deviation_bound, params, entropy)
    return lifted_bound(base, params.n, params.m, t, beta, deviation_cap=2.0 * params.B)


def proof_constants(c: float, lam: float) -> tuple:
    """(G0, G1, b_exp) from the least-squares deviation proof.

    G0 = 2(c+1)(2c+3); G1 = (1/8)(1/(lam(c-1)+1))(1-1/c);
    b_exp = (1/2) (1-1/c)^3 (lam/(lam-1)) / ((1/3)(1-1/c) + (2 lam - 1) lam/(lam-1))^2.
    """
    _check_above_one(c, lam, "lambda")
    g0 = 2.0 * (c + 1.0) * (2.0 * c + 3.0)
    g1 = (1.0 / 8.0) * (1.0 / (lam * (c - 1.0) + 1.0)) * (1.0 - 1.0 / c)
    denom = ((1.0 / 3.0) * (1.0 - 1.0 / c) + (2.0 * lam - 1.0) * lam / (lam - 1.0)) ** 2
    b_exp = 0.5 * (1.0 - 1.0 / c) ** 3 * (lam / (lam - 1.0)) / denom
    return g0, g1, b_exp


def t0_threshold(c: float, lam: float, size: int) -> float:
    """Minimal valid deviation level: (-(lam-1) + sqrt((lam-1)^2 + c(c+1) lam^2/size))/2."""
    if size < 1:
        raise DomainError("size must be >= 1")
    _check_above_one(c, lam, "lambda")
    d = lam - 1.0
    return 0.5 * (-d + math.sqrt(d * d + c * (c + 1.0) * lam * lam / size))


def a0_constant(c: float, lam: float, size: int, V: int) -> float:
    """Entropy prefactor 3 G0 (e/(G1 t0) log(3e/(2 G1 t0)))^V of the deviation tail."""
    g0, g1, _ = proof_constants(c, lam)
    t0 = t0_threshold(c, lam, size)
    x = g1 * t0
    return 3.0 * g0 * (math.e / x * math.log(3.0 * math.e / (2.0 * x))) ** V


def ls_deviation_bound(c: float, lam: float, V: int, n: int, m: int, t: float) -> float:
    """Distribution-function form of the least-squares deviation tail.

    1 below t0(floor(n/m)); otherwise m * a0(c, lam, floor(n/m)+1) *
    exp(-b_exp * floor(n/m) * t).  Used for Monte Carlo dominance tests; the
    weak-error bound integrates this shape in closed form instead.
    """
    if not t >= 0.0:
        raise DomainError("t must be nonnegative")
    q, _ = euclidean(n, m)
    if t < t0_threshold(c, lam, q):
        return 1.0
    _, _, b_exp = proof_constants(c, lam)
    return m * a0_constant(c, lam, q + 1, V) * math.exp(-b_exp * q * t)


def theta_constants(c: float, lam: float, n: int, m: int) -> tuple:
    """The three theta constants of the weak-error bound."""
    _check_above_one(c, lam, "lambda")
    q, _ = euclidean(n, m)
    theta0 = (
        32.0
        * ((1.0 / 3.0) * (1.0 - 1.0 / c) * (1.0 - 1.0 / lam) + (2.0 * lam - 1.0)) ** 2
        * (c / (c - 1.0)) ** 3
        * lam
        / (lam - 1.0)
    )
    theta1 = math.log(6.0 * (c + 1.0) * (2.0 * c + 3.0)) + math.log(m)
    theta2 = (
        1.0
        + math.log(24.0)
        + math.log(1.0 + math.sqrt(1.0 + c * (c + 1.0) / (q + 1.0)))
        - math.log(c - 1.0 / c)
        + math.log(q + 1.0)
    )
    return theta0, theta1, theta2


@dataclass(frozen=True)
class WeakErrorBreakdown:
    """The weak L2-error bound split into its three terms."""

    variance_term: float
    beta_error_term: float
    scaled_bias_term: float

    @property
    def total(self) -> float:
        return self.variance_term + self.beta_error_term + self.scaled_bias_term


def weak_error_bound(params: BoundParams, bias: float, beta_at_m: float | None = None) -> WeakErrorBreakdown:
    """Closed-form bound on the expected average squared error of the truncated fit.

    variance = (B^2/floor(n/m)) theta0 (1 + theta1 + V (theta2 + log theta2));
    dependence price = 16 B^2 (1 + lam) n beta(m); bias enters scaled by lam.
    Raises when the theorem's hypotheses fail, naming the violated inequality.
    """
    if not bias >= 0.0:
        raise DomainError("bias must be nonnegative")
    params.check_weak_error_hypotheses()
    beta = _beta(params, beta_at_m)
    q, _ = euclidean(params.n, params.m)
    theta0, theta1, theta2 = theta_constants(params.c, params.lam, params.n, params.m)
    variance = (params.B**2 / q) * theta0 * (
        1.0 + theta1 + params.V * (theta2 + math.log(theta2))
    )
    beta_error = 16.0 * params.B**2 * (1.0 + params.lam) * params.n * beta
    return WeakErrorBreakdown(variance, beta_error, params.lam * bias)


@dataclass(frozen=True)
class RateCurve:
    """Grid minimum and the analytic block-size choice of the subexponential tradeoff."""

    grid_x: float
    grid_value: float
    analytic_x: float
    analytic_value: float


def variance_rate_coefficient(params: BoundParams, C_sandwich: float) -> float:
    """alpha = 2 C B^2 V (log sqrt(71) + log n) / ((lam - 1) n), the per-block variance slope."""
    if not C_sandwich > 0.0:
        raise DomainError("the sandwich constant must be positive and supplied explicitly")
    return (
        2.0
        * C_sandwich
        * params.B**2
        * params.V
        * (math.log(math.sqrt(71.0)) + math.log(params.n))
        / ((params.lam - 1.0) * params.n)
    )


def statistical_error_curve(params: BoundParams, x_grid, C_sandwich: float) -> RateCurve:
    """Minimize alpha*x + a*n*exp(-(b/2^gamma) x^gamma) over block sizes x in [2, n].

    Returns the grid minimum together with the analytic choice
    x = 2^(1+1/gamma) (log n / b)^(1/gamma), whose value collapses to
    x * alpha + a/n exactly.
    """
    fit = _envelope(params, "subexponential")
    grid = np.asarray(list(x_grid), dtype=float)
    grid = grid[(grid >= 2.0) & (grid <= params.n)]
    if grid.size == 0:
        raise DomainError("empty x grid after restriction to [2, n]")
    a, b, g = fit.a, fit.b, fit.gamma
    alpha = variance_rate_coefficient(params, C_sandwich)
    values = alpha * grid + a * params.n * np.exp(-(b / 2.0**g) * grid**g)
    i = int(np.argmin(values))
    x_star = 2.0 ** (1.0 + 1.0 / g) * (math.log(params.n) / b) ** (1.0 / g)
    analytic_value = x_star * alpha + a / params.n
    return RateCurve(float(grid[i]), float(values[i]), x_star, analytic_value)


def subexp_rate(params: BoundParams, C: float) -> float:
    """Statistical-error rate for subexponential mixing.

    (C/n) (B^2 V (1 + log n)/(lam - 1) + a) (2 log n / b)^(1/gamma), valid when
    the block choice fits in [1, n/2] and lam is below its universal cap.
    """
    if not C > 0.0:
        raise DomainError("the universal constant C must be positive and supplied explicitly")
    fit = _envelope(params, "subexponential")
    lam_cap = (3.0 + math.sqrt(1.0 + 8.0 * math.sqrt(71.0))) / 4.0
    if params.lam > lam_cap:
        raise HypothesisViolationError(f"lambda <= (3+sqrt(1+8 sqrt(71)))/4 violated: {params.lam} > {lam_cap}")
    a, b, g = fit.a, fit.b, fit.gamma
    block = (2.0 * math.log(params.n) / b) ** (1.0 / g)
    if not 1.0 <= block <= params.n / 2.0:
        raise HypothesisViolationError(
            f"1 <= (2 log n / b)^(1/gamma) <= n/2 violated: got {block} for n={params.n}"
        )
    return (C / params.n) * (
        params.B**2 * params.V * (1.0 + math.log(params.n)) / (params.lam - 1.0) + a
    ) * block


def subpoly_rate(params: BoundParams, C: float) -> float:
    """Statistical-error rate for subpolynomial mixing.

    C n^(-(gamma-1)/(gamma+1)) (B^2 V (1 + log n)/(lam - 1) + a); requires the
    mixing exponent gamma > 1.
    """
    if not C > 0.0:
        raise DomainError("the universal constant C must be positive and supplied explicitly")
    fit = _envelope(params, "subpolynomial")
    g = fit.gamma
    return (
        C
        * params.n ** (-(g - 1.0) / (g + 1.0))
        * (params.B**2 * params.V * (1.0 + math.log(params.n)) / (params.lam - 1.0) + fit.a)
    )


def subpoly_tradeoff(params: BoundParams, alpha: float) -> tuple:
    """(x, alpha*x, a*n*x^(-gamma)) at the block choice x = ceil(n^(2/(gamma+1))).

    Both terms are of order n^(-(gamma-1)/(gamma+1)); exposed for cross-checking
    the subpolynomial rate.
    """
    fit = _envelope(params, "subpolynomial")
    g = fit.gamma
    x = math.ceil(params.n ** (2.0 / (g + 1.0)))
    return x, alpha * x, fit.a * params.n * x ** (-g)
