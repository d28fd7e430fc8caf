"""Truncated least-squares regression over finite hypothesis classes.

Covers the simulation-side regression machinery: the truncation operator,
exhaustive / normal-equation least squares, the loss-difference family used by
the deviation experiments, and the average-mean squared distance and family
bias that the weak-error experiment (``simulate.weak_error_experiment``) scores
each fit with.  A sample carries only its observed states and responses; the
exact marginal laws that average means need come from the generator, once per
sample length.  ``_fit`` fits a stack of samples at once, a linear span by one
batched solve of every sample's normal equations (with the ridge only for the
singular ones), a finite family by one argmin over every member's risk on every
sample; each sample's fit has the bits of its fit alone.  The weak-error
experiment calls it, and ``_average_sq_distance`` after it, once on each stack
of replications, and ``family_bias`` scores a finite family's members in one
such call; each score has the bits of its row's score alone.
``fit_least_squares`` checks a ``Dataset`` against its family, fits it as a
stack of one and adds its empirical risk.  ``_check_responses`` owns the
response rules, of a ``Dataset`` and of every response that a
``simulate.GeneratorSpec`` can draw; ``_check_squares`` refuses, before a fit, a
value that the fit or its score would square past the float range, and
``fit_least_squares`` also one whose square times 4n does, since its fit of n
points sums n such squares.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .entropy import FunctionFamily
from .errors import DomainError, MalformedInputError
from .pmf import _eq_by_value

RIDGE = 1e-10


@dataclass(frozen=True)
class Dataset:
    """An observed (x, y) sample on a finite state alphabet.

    ``index`` holds the position in ``states`` of each observed input.  The
    exact laws of the inputs belong to the generator, not to the sample.
    """

    states: tuple
    index: np.ndarray
    ys: np.ndarray
    response_bound: float | None = None

    __eq__ = _eq_by_value

    def __post_init__(self):
        index = np.asarray(self.index, dtype=np.intp)
        ys = np.asarray(self.ys, dtype=float)
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "ys", ys)
        if index.ndim != 1 or index.shape != ys.shape or ys.shape[0] < 1:
            raise MalformedInputError("index and ys must share a positive length")
        if index.min() < 0 or index.max() >= len(self.states):
            raise MalformedInputError(f"state indices must lie in 0..{len(self.states) - 1}")
        _check_responses(ys, self.response_bound)

    @property
    def xs(self) -> tuple:
        """The observed inputs as state labels, read with one gather.

        ``fromiter`` keeps each label whole, a tuple label included.
        """
        labels = np.fromiter(self.states, dtype=object, count=len(self.states))
        return tuple(labels[self.index].tolist())


def _check_responses(ys: np.ndarray, response_bound: float | None) -> None:
    """Finite responses, within ``response_bound`` when one is declared: the rules of a
    ``Dataset``'s responses, and of every response a ``GeneratorSpec`` can draw."""
    if not np.isfinite(ys).all():
        raise MalformedInputError("responses must be finite")
    if response_bound is not None:
        if not response_bound >= 0.0:
            raise MalformedInputError(f"response_bound must be nonnegative, got {response_bound}")
        if not np.abs(ys).max() <= response_bound + 1e-12:
            raise MalformedInputError(f"responses exceed the declared bound {response_bound}")


def _check_squares(family: FunctionFamily, name: str, values: np.ndarray, n: int = 0) -> None:
    """Refuse, before a fit, a value of the family or of the field ``name`` whose square passes the float
    range, which the fit and its score would square, or, given the n points of a fit, whose square times
    4n does: the fit sums n squared differences of two such values, each at most 4 times the larger
    square.  A DomainError names the field."""
    field = "table" if family.design is None else "design"
    with np.errstate(over="ignore"):
        for label, array in ((f"{field} values", getattr(family, field)), (name, values)):
            squares = np.square(array)
            if np.isinf(squares).any():
                raise DomainError(f"{label} must have finite squares")
            if np.isinf(4.0 * n * squares).any():
                raise DomainError(f"{label} must have squares at most {sys.float_info.max:g} / (4n), n = {n}")


def truncate(value, B: float):
    """Clamp to [-B, B]; the identity on values already inside."""
    if not B > 0.0:
        raise DomainError("B must be positive")
    return np.clip(value, -B, B)


@dataclass(frozen=True)
class RegressionResult:
    """A fitted member and its truncation, as values over the family's states."""

    fitted: np.ndarray
    truncated: np.ndarray
    empirical_risk: float
    member_index: int | None = None
    coefficients: np.ndarray | None = None
    ridge_used: bool = False


def _solve_normal(gram: np.ndarray, rhs: np.ndarray) -> tuple:
    """(coefficients, ridge used) of the normal equations, with a small ridge when singular."""
    try:
        return np.linalg.solve(gram, rhs), False
    except np.linalg.LinAlgError:
        return np.linalg.solve(gram + RIDGE * np.eye(gram.shape[0]), rhs), True


def fit_least_squares(data: Dataset, family: FunctionFamily, B: float) -> RegressionResult:
    """Least-squares fit over the family, reported with its truncation T_B.

    Finite families are searched exhaustively with lexicographic tie-break;
    linear spans are solved by normal equations, falling back to a small ridge
    when the design is singular.  The sample is fitted by ``_fit`` as a stack of one.
    A response or family value whose square times 4n passes the float range, n the
    sample size, is refused before the fit (``_check_squares``), so that the risk,
    a mean of n squared residuals, stays finite.
    """
    if not B > 0.0:
        raise DomainError("B must be positive")
    if family.states != data.states:
        raise MalformedInputError("the family and the data must share one state alphabet")
    _check_squares(family, "responses", data.ys, len(data.ys))
    fitted, found, detail = _fit(family, data.index[None], data.ys[None])
    if family.design is not None:
        risk = float(np.mean((family.design[data.index] @ found[0] - data.ys) ** 2))
        return RegressionResult(fitted[0], truncate(fitted[0], B), risk, coefficients=found[0],
                                ridge_used=bool(detail[0]))
    i = int(found[0])
    return RegressionResult(fitted[0], truncate(fitted[0], B), float(detail[i, 0]), member_index=i)


def _fit(family: FunctionFamily, index: np.ndarray, ys: np.ndarray) -> tuple:
    """Least-squares fits of the samples (index, ys), one per row, with no check of them.

    Returns the fitted values over the family's states, one row per sample, and for
    a linear span the coefficients and whether each fit took the ridge, or for a
    finite family the chosen members and every (member, sample) empirical risk.  A
    span's normal equations are built and solved for the whole stack at once; if any
    is singular, each is solved again by ``_solve_normal``, so the ridge goes only to
    the singular ones.  Each sample's numbers are those of its fit alone.
    """
    if family.design is not None:
        design = family.design.take(index, axis=0)  # (samples, n, basis)
        dt = design.transpose(0, 2, 1)
        gram, rhs = dt @ design, dt @ ys[..., None]
        try:
            coef, ridge = np.linalg.solve(gram, rhs)[..., 0], np.zeros(len(ys), dtype=bool)
        except np.linalg.LinAlgError:
            solved = [_solve_normal(g, r) for g, r in zip(gram, rhs)]
            coef, ridge = np.stack([c[:, 0] for c, _ in solved]), np.array([used for _, used in solved])
        # one basis column at a time, so each value rounds as the scalar sum
        # c_0 g_0(s) + c_1 g_1(s) + ... does (a matrix product may fuse steps)
        fitted = sum(c[:, None] * column for c, column in zip(coef.T, family.design.T))
        return fitted, coef, ridge
    risks = ((family.table[:, index] - ys) ** 2).mean(axis=2)  # (members, samples)
    members = risks.argmin(axis=0)
    return family.table[members], members, risks


def loss_difference_family(
    family: FunctionFamily, B: float, truth: np.ndarray, responses
) -> FunctionFamily:
    """The family of excess-loss functions g_f(x, y) = (y - f(x))^2 - (y - truth(x))^2.

    Tabulated over the pair alphabet states x ``responses``, in that order.
    With responses and members bounded by B = 1/4 every member is [-1, 1]
    valued, the normalization the deviation bounds assume.
    """
    if family.table is None:
        raise DomainError("the loss-difference family needs an enumerable family")
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (len(family.states),):
        raise MalformedInputError("truth needs one value per state of the family")
    ys = np.asarray(responses, dtype=float)
    table = (ys - family.table[:, :, None]) ** 2 - (ys - truth[:, None]) ** 2
    return FunctionFamily(
        tuple((s, y) for s in family.states for y in ys.tolist()),
        table=table.reshape(table.shape[0], -1),
    )


def _average_sq_distance(values: np.ndarray, truth: np.ndarray, laws: np.ndarray) -> np.ndarray:
    # one score per row of values (..., k).  float_power squares through libm pow, as Python's float ** 2
    # does (numpy's x ** 2 differs in the last bit on some inputs); the trailing (k, 1) axis sends each row
    # through the matrix-vector product a lone row takes, where sq @ laws.T would round as one matrix product
    return np.matmul(laws, np.float_power(values - truth, 2.0)[..., None])[..., 0].mean(axis=-1)


def family_bias(family: FunctionFamily, truth: np.ndarray, laws: np.ndarray, B: float) -> float:
    """inf over the family of the average-mean squared distance to the truth.

    Finite families: exhaustive.  Truncated linear spans: the weighted
    projection of the truth, truncated; exact whenever the truncation is
    inactive at the projection (in particular whenever the truth lies in the
    span with values in [-B, B], where the bias is 0).
    """
    truth = np.asarray(truth, dtype=float)
    if family.design is not None:
        weights = np.asarray(laws, dtype=float).mean(axis=0)
        design = family.design
        coef, _ = _solve_normal(design.T @ (weights[:, None] * design), design.T @ (weights * truth))
        proj = np.clip(design @ coef, -B, B)
        return float(weights @ (proj - truth) ** 2)
    return float(_average_sq_distance(truncate(family.table, B), truth, laws).min())
