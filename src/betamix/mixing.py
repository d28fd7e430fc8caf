"""Exact beta-dependence coefficients for finite-alphabet processes and Markov chains.

For finite alphabets the supremum over finite partitions in the coefficient's
characterization is attained at the atomic partition, so every quantity here
is an exact (double-precision) atom sum over an explicit joint law.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateFitError, MalformedInputError
from .pmf import CELL_CAP, JointPmf, MarkovChainSpec, _check_marginal_cells, _integer

MIXING_MODELS = ("subexponential", "subpolynomial")
# the starting times that markov_beta scans unless told otherwise
HORIZON = 64


def beta_coefficient(joint: JointPmf) -> float:
    """Dependence coefficient between the two coordinates of a two-axis joint.

    Returns (1/2) * sum over atom pairs |P(E x F) - P(E)P(F)|.  Zero exactly
    on product joints; symmetric under axis swap; always in [0, 1].
    """
    if joint.n_axes != 2:
        raise MalformedInputError(f"expected a two-axis joint, got {joint.n_axes} axes")
    return float(_beta(joint.probs))


def _dependence(p: np.ndarray) -> np.ndarray:
    """p - p_L (x) p_R for each two-dimensional probability array in a stack (..., a, b)."""
    return p - p.sum(-1)[..., :, None] * p.sum(-2)[..., None, :]


def _beta(p: np.ndarray) -> np.ndarray:
    """(1/2) * ||p - p_L (x) p_R||_1 for each two-dimensional probability array in a stack."""
    return 0.5 * np.abs(_dependence(p)).sum(axis=(-2, -1))


def beta_m_dependence(process: JointPmf, m: int, l: int) -> float:
    """l-th coefficient of m-dependence of a finite process whose axes are the times 1..N.

    The coefficient between the coordinate at time ``l`` and the coordinates at
    times <= l - m, computed by marginalizing onto the two groups.  Empty
    groups (l - m < 1, or l > N) give 0 by convention.
    """
    m, l = _integer("m", m), _integer("l", l)
    if m < 1 or l < 1:
        raise MalformedInputError("m and l must be positive")
    if l > process.n_axes:
        return 0.0
    return pairwise_beta(process, tuple(range(l - m)), (l - 1,))


def beta_max(process: JointPmf, m: int) -> float:
    """Maximal coefficient of m-dependence: max over the times l = 1..N of beta_m_dependence, else 0."""
    if _integer("m", m) < 1:
        raise MalformedInputError("m and l must be positive")
    return max((beta_m_dependence(process, m, l) for l in range(1, process.n_axes + 1)), default=0.0)


def pairwise_beta(process: JointPmf, left: Sequence[int], right: Sequence[int]) -> float:
    """Coefficient between two disjoint groups of axis positions."""
    if not left or not right:
        return 0.0
    return float(_beta(process.grouped(left, right)))


def markov_beta(chain: MarkovChainSpec, m: int, horizon: int = HORIZON) -> float:
    """Lag-m dependence coefficient of a finite-state Markov chain.

    By the Markov property this is sup_n beta(sigma(Z_n), sigma(Z_{n+m})); the
    sup is scanned for n = 1..horizon by batched atom sums over the joints
    diag(mu_n) P^m of (Z_n, Z_{n+m}), stacked in blocks of starting times holding
    at most ``CELL_CAP`` cells (one joint per block if a joint alone exceeds it).
    Each joint's sum does not depend on the block around it, so the blocks do
    not change the result.  The marginals are the chain's distinct ones, from the
    recursion that ``chain.marginal_matrix`` pads: it stops at its first exact
    fixed point, whose joint every later starting time repeats, so the scan
    stops there too.  A horizon whose marginals alone exceed ``CELL_CAP`` cells
    raises SizeError before any array is built.
    """
    if _integer("m", m) < 1:
        raise MalformedInputError("m must be >= 1")
    if _integer("horizon", horizon) < 1:
        raise MalformedInputError("horizon must be >= 1")
    _check_marginal_cells("horizon", horizon, chain.n_states)
    step_m = np.linalg.matrix_power(chain.transition, m)
    mus = chain._distinct_marginals(np.empty((horizon, chain.n_states)))
    rows = max(1, CELL_CAP // step_m.size)
    # transition entries within tolerance below 0 are clipped, as a JointPmf would
    return max(float(_beta(np.maximum(mus[i:i + rows, :, None] * step_m, 0.0)).max())
               for i in range(0, len(mus), rows))


@dataclass(frozen=True)
class MixingFit:
    """A dominating mixing-rate envelope fitted to (m, beta) points.

    subexponential: beta(m) <= a * exp(-b * m**gamma)
    subpolynomial:  beta(m) <= a * m**(-gamma)
    """

    model: str
    a: float
    b: float | None
    gamma: float

    def __post_init__(self):
        if self.model not in MIXING_MODELS:
            raise MalformedInputError(f"unknown model {self.model!r}")
        if self.model == "subexponential" and self.b is None:
            raise MalformedInputError("the subexponential model needs a rate b")

    def envelope(self, m) -> float:
        """The envelope at m; a power past float range is inf, so a subexponential one reads 0."""
        m = np.asarray(m, dtype=float)
        with np.errstate(over="ignore"):
            if self.model == "subexponential":
                val = self.a * np.exp(-self.b * m**self.gamma)
            else:
                val = self.a * m ** (-self.gamma)
        return float(val) if val.ndim == 0 else val


def _float(x) -> float:
    """``float(x)``, or inf for an integer past float range, which ``float`` refuses."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _rate(given, single: float, abscissae, logv: np.ndarray) -> float:
    """The envelope's rate: the caller's, else ``single`` for one point, else minus the
    log-linear least-squares slope of ``logv`` against ``abscissae()``, clipped at 0."""
    if given is not None:
        return float(given)
    if len(logv) == 1:
        return single
    return max(-float(np.polyfit(abscissae(), logv, 1)[0]), 0.0)


def fit_mixing_rate(
    points: Sequence[tuple],
    model: str,
    gamma: float | None = None,
    b: float | None = None,
) -> MixingFit:
    """Fit a dominating envelope of the requested shape to (m, beta) points.

    The rate parameter (b for the subexponential model with gamma fixed, gamma
    for the subpolynomial model) is taken from the caller when supplied and
    otherwise obtained by log-linear least squares on the strictly positive
    points.  The amplitude a is then set to the smallest value giving pointwise
    dominance, which is re-verified before returning; one past float range
    raises DegenerateFitError.
    """
    if model not in MIXING_MODELS:
        raise MalformedInputError(f"unknown model {model!r}")
    pts = [(_float(m), _float(v)) for m, v in points]
    if not all(math.isfinite(m) and math.isfinite(v) for m, v in pts):
        raise MalformedInputError("lag and beta values must be finite")
    for name, value in (("gamma", gamma), ("b", b)):
        if value is not None and not math.isfinite(_float(value)):
            raise MalformedInputError(f"{name} must be finite, got {value}")
    if any(m < 1 for m, _ in pts):
        raise MalformedInputError("lag values must be >= 1")
    pos = [(m, v) for m, v in pts if v > 0.0]
    if not pos:
        raise DegenerateFitError("no strictly positive beta values to fit")
    ms = np.array([m for m, _ in pos])
    logv = np.log([v for _, v in pos])

    if model == "subexponential":
        g = 1.0 if gamma is None else float(gamma)
        if not g > 0.0:
            raise MalformedInputError("gamma must be positive")
        # log beta = log a - b * m**gamma
        b = _rate(b, 0.0, lambda: ms**g, logv)
        scale = lambda m: math.exp(b * m**g)
    else:
        # log beta = log a - gamma * log m
        g, b = _rate(gamma, 1.0, lambda: np.log(ms), logv), None
        scale = lambda m: m**g
    try:
        a = float(np.max([v * scale(m) for m, v in pos]))
    except OverflowError:  # math.exp or a power past float range
        a = math.inf
    if not math.isfinite(a):
        raise DegenerateFitError(f"the dominating amplitude of the {model} envelope is past float range")
    fit = MixingFit(model, a, b, g)

    for m, v in pts:
        env = fit.envelope(m)
        if v > env * (1 + 1e-12) + 1e-300:
            raise DegenerateFitError(f"fitted envelope fails dominance at m={m}: {v} > {env}")
    return fit
