"""Seeded data generators with known dependence structure and the Monte Carlo
experiments that test bound dominance.

Three generator kinds: a finite-state Markov chain (exact lag-m dependence
coefficients available), an m-dependent sliding-window construction built from
independent seeds (dependence vanishes beyond the lag), and an i.i.d. draw from
a fixed law.  A spec resolves each kind's data in one branch of its
construction: the states, the law of its first draw, a chain's transition and
the constant marginal law of the other two kinds; ``_sampling.tables`` builds
its sampling tables from them.  Only ``beta_at`` branches on the kind again.
The spec also checks every response a draw can return, so no draw checks one.
Every replication draws from its own stream, derived from (seed, replication),
so reports are bit-reproducible regardless of execution order.  Every draw goes
through ``_sampling.draw``, which returns stacks of replications, each row from
its own stream: state indices, and responses when they are asked for (the
streams, the walks and the maps are described in ``_sampling``).
``generate`` is a stack of one, wrapped in a ``Dataset`` that is not checked
again (``regression._drawn``): the spec checked its responses, and its indices
are the walk's, into the spec's states.
``deviation_experiment`` reads only the states, so its stacks draw no
responses: the same states, of which the statistic reads only each path's state
counts.  It owns the statistic's coefficients, computed once and read by both
its stack loop and its proof (``_reach``) that no path's statistic can reach a
t: a row so proven has frequency 0 and is dominant by proof, and a grid whose
every t is proven draws nothing.
``weak_error_experiment`` draws and fits (``regression._fit``) a stack, scoring
its truncated fits in one call (``regression._average_sq_distance``), each with
the bits of its score alone.  Both experiments draw each n's replications as
stacks of at most ``_sampling.STACK_DRAWS`` cells of their widest
per-replication array (the sampler's one cell budget), and check every input
before the first draw.
Samples carry no laws; experiments ask the spec for its exact marginals once
per n.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _sampling
from .blocking import Z, wilson_stderr
from .bounds import BoundParams, beta_deviation_bound, weak_error_bound
from .entropy import EntropyEstimate, FunctionFamily
from .errors import DomainError, MalformedInputError, SizeError
from .mixing import markov_beta
from .pmf import CELL_CAP, FinitePmf, MarkovChainSpec, _check_marginal_cells, _eq_by_value, _integer, _law
from .regression import (Dataset, _average_sq_distance, _check_responses, _check_squares, _drawn, _fit, family_bias,
                         truncate)


GENERATOR_KINDS = ("markov", "m_dependent", "iid")


@dataclass(frozen=True)
class GeneratorSpec:
    """A seeded source of dependent (x, y) samples with exact input marginals.

    kinds: "markov" (needs ``chain``), "m_dependent" (sliding window of width
    ``dependence_lag`` over i.i.d. uniform seeds modulo ``alphabet_size``),
    "iid" (needs ``law``).  Responses are phi(x) plus discrete noise, with
    ``phi`` given as its value at each of ``states()`` (zero when omitted); every
    response a draw can return is checked at construction (``_check_responses``).
    ``seed`` is an integer in [0, 2**63), stored as an ``int`` (an integral float or a
    numpy integer is read as the int it stands for).

    Construction checks the kind's fields and resolves its data in one branch
    per kind: its states; the law of its first draw (the chain's initial law or
    the i.i.d. law; the m_dependent kind draws integer seeds); a chain's
    transition; and its constant marginal law (the i.i.d. law, or the uniform
    law of the window sums; None for a chain, whose marginals change with the
    time).  ``_sampling.tables`` builds the sampling tables from the first law,
    the transition and the noise law, which passes the one law rule
    (``pmf._law``) and is clipped at 0 as every law is.  That data and those
    tables are held beside the fields, not as fields, so equality, ``repr`` and
    ``dataclasses.replace`` see the fields alone (and ``replace`` builds them anew).
    """

    kind: str
    seed: int
    chain: MarkovChainSpec | None = None
    dependence_lag: int | None = None
    alphabet_size: int | None = None
    law: FinitePmf | None = None
    phi: np.ndarray | None = None
    noise_values: tuple = (0.0,)
    noise_probs: tuple = (1.0,)
    response_bound: float | None = None

    __eq__ = _eq_by_value

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise MalformedInputError(f"unknown generator kind {self.kind!r}")
        object.__setattr__(self, "seed", _sampling.key_word("seed", self.seed))
        start = transition = marginal = None
        if self.kind == "markov":
            if self.chain is None:
                raise MalformedInputError("markov kind requires a chain")
            states, start, transition = self.chain.states, self.chain.initial.probs, self.chain.transition
        elif self.kind == "m_dependent":
            lag, size = self.dependence_lag, self.alphabet_size
            if lag is not None and size is not None:
                lag, size = _integer("dependence_lag", lag), _integer("alphabet_size", size)
            if lag is None or size is None or lag < 1 or size < 2:
                raise MalformedInputError("m_dependent kind requires dependence_lag >= 1 and alphabet_size >= 2")
            if max(lag, size) > CELL_CAP:
                raise SizeError(f"dependence_lag and alphabet_size must be at most {CELL_CAP}, got {lag} and {size}")
            states = tuple(range(size))
            # sums of i.i.d. uniforms modulo the alphabet size stay uniform
            marginal = np.full(size, 1.0 / size)
        else:
            if self.law is None:
                raise MalformedInputError("iid kind requires a law")
            states, start, marginal = self.law.support, self.law.probs, self.law.probs
        noise_law = _law(np.asarray(self.noise_probs, float), "noise_probs must be a pmf", "noise_probs must be a pmf")
        if len(self.noise_values) != len(self.noise_probs):
            raise MalformedInputError("noise_values and noise_probs must have matching length")
        if not np.isfinite(self.noise_values).all():
            raise MalformedInputError("noise_values must be finite")
        k = len(states)
        phi = np.zeros(k) if self.phi is None else np.array(self.phi, dtype=float)
        if phi.shape != (k,):
            raise MalformedInputError(f"phi needs one value per state, got shape {phi.shape}")
        if not np.isfinite(phi).all():
            raise MalformedInputError("phi must be finite")
        values = np.asarray(self.noise_values, dtype=float)
        # one noise value per noise probability, each a number: a nested list is no law
        for name, array in (("noise_values", values), ("noise_probs", noise_law)):
            if array.shape != (len(values),):
                raise MalformedInputError(f"{name} must have shape ({len(values)},), got {array.shape}")
        # A draw returns phi(s) + v, v a noise value of positive mass (one of zero mass is never drawn);
        # rounding is monotone, so the least and largest such sums decide both response rules for all
        # of them (past the float range a sum is inf).  A one-point law's responses are added once, here.
        noise = values[noise_law > 0.0]
        with np.errstate(over="ignore"):
            extremes = np.array([phi.min() + noise.min(), phi.max() + noise.max()])
            point = phi + noise[0] if len(self.noise_values) == 1 else None
        _check_responses(extremes, self.response_bound)
        # a frozen instance's attributes, set past its __setattr__
        vars(self).update(_sampling.tables(start, transition, noise_law), phi=phi, _states=states,
                          _marginal=marginal, _noise_values=values, _point_responses=point)

    def states(self) -> tuple:
        return self._states

    def marginal_laws(self, n: int) -> np.ndarray:
        """Exact per-index laws of X_1..X_n, one row per index: the chain's marginals, or the kind's
        constant law in every row.

        A negative n, or more than ``CELL_CAP`` cells, is refused before any array is built.
        """
        if self._marginal is None:
            return self.chain.marginal_matrix(n)
        _check_marginal_cells("n", n, len(self._marginal))
        return np.full((n, len(self._marginal)), self._marginal)

    def beta_at(self, m: int, n: int) -> float:
        """Lag-m dependence coefficient of the inputs X_1..X_n.

        0 when m >= n: no two of the times are m apart.  Exact for the markov
        kind: the largest beta(X_s, X_{s+m}) over s = 1..n-m, which by the
        Markov property is the coefficient between the past up to s and the
        future from s+m.  0 for the iid kind; for the m_dependent kind, exactly
        0 at or beyond the lag and the trivial bound 1 below it.
        """
        if m >= n or self.kind == "iid":
            return 0.0
        if self.kind == "markov":
            return markov_beta(self.chain, m, horizon=n - m)
        return 0.0 if m >= self.dependence_lag else 1.0


def generate(spec: GeneratorSpec, n: int, replication: int = 0) -> Dataset:
    """Draw one replication of length n from its own stream, as a ``Dataset``: a stack of one.

    ``replication`` is an integer in [0, 2**63), as the seed is (``_sampling.key_word``).  The
    ``Dataset`` is built by ``regression._drawn``, without its checks: the spec checked every
    response that a draw can return when it was built, and the draw's indices are into
    ``spec.states()`` by construction.
    """
    if _integer("n", n) < 1:
        raise DomainError("n must be >= 1")
    replication = _sampling.key_word("replication", replication)
    [(_, index, ys)] = _sampling.draw(spec, n, range(replication, replication + 1), n, True)
    return _drawn(spec.states(), index[0], ys[0], spec.response_bound)


def _count_means(states: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Each member's mean over each path, (paths, members): the sum over the path's visited states s, in
    state order, of counts[s] * table[:, s], over n, so that a path's means do not depend on its stack.

    The visited (path, state) pairs are coded r * k + s in ascending order, with their counts: by one
    bincount over the stack when k <= n, and otherwise by the runs of each path's sorted states, so that
    no path pays for a row of k counts.
    """
    (paths, n), (members, k) = states.shape, table.shape
    if k <= n:
        counts = np.bincount((states + k * np.arange(paths)[:, None]).ravel(), minlength=paths * k)
        pairs = np.flatnonzero(counts)
        counts = counts[pairs]
    else:
        keys = (np.sort(states, axis=1) + k * np.arange(paths)[:, None]).ravel()
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        pairs, counts = keys[starts], np.diff(starts, append=keys.size)
    path, state = np.divmod(pairs, k)
    # total[f * paths + r] adds member f's term of each of path r's pairs, in order; add.at is unbuffered
    total = np.zeros(members * paths)
    np.add.at(total, (path + paths * np.arange(members)[:, None]).ravel(), (table[:, state] * counts).ravel())
    return (total.reshape(members, paths) / n).T


def _reach(table: np.ndarray, a: float, y: np.ndarray, n: int) -> np.ndarray:
    """Per member f, a number that no path's computed statistic a * mean_f - y_f exceeds, where a and y
    are the statistic's own coefficients, the values that ``deviation_experiment`` computes once and
    its stack loop reads, and mean_f is ``_count_means``' mean of f over a path of length n.

    With M = max_s f(s), A = max_s |f(s)| and k states, a path's exact counts mean is a weighted
    average of f's values, at most M and at most A in size.  ``_count_means`` computes it as an
    inner product of at most k terms and one division, so within gamma_{k+1} * A of it (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, (3.5)), where gamma_j = j u / (1 - j u)
    and u = 2**-53; a > 0, so the product with a and the subtraction of y round twice more, and the
    statistic is at most a M - y + gamma_{k+3} * (a A + |y|).  The reach is
    a M - y + 2 (k + 4) u (a A + |y|) + tiny, with tiny the least normal float: evaluated in floats,
    its own roundings cost at most (gamma_2 + u) (a A + |y|) in all, which the (k + 2) u left over
    covers, and tiny covers the absolute error that underflow adds.  Where 2 n A passes the float
    range a path's sums may overflow, and the reach is inf.
    """
    k = table.shape[1]
    size = np.abs(table).max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        margin = 2 * (k + 4) * (np.finfo(float).eps / 2) * (a * size + np.abs(y)) + np.finfo(float).tiny
        reach = a * table.max(axis=1) - y + margin
        reach[~np.isfinite(2.0 * n * size)] = np.inf
    return reach


@dataclass(frozen=True)
class ExperimentReport:
    """Row-per-configuration Monte Carlo report with dominance flags."""

    rows: tuple
    metadata: dict

    @property
    def all_dominant(self) -> bool:
        return all(row["dominant"] for row in self.rows)


def deviation_experiment(
    spec: GeneratorSpec,
    family: FunctionFamily,
    params: BoundParams,
    entropy: EntropyEstimate,
    t_grid: Sequence[float],
    replications: int,
) -> ExperimentReport:
    """Frequency of the uniform deviation event against its closed-form bound.

    The statistic per replication is sup over family members of
    a * empirical mean - y, with a = 1-eps and y = (1+eps) * average mean of
    the member over the sample; a and y are computed once, before any draw, and
    both the stack loop and the proof (``_reach``) read them, so the proof
    bounds the statistic's own bits.  Frequencies of {statistic >= t} are
    paired with the dependent-case deviation bound at each t on the grid, all
    evaluated before the first draw.
    Replications are drawn in stacks (``_sampling.draw``), so that a stack's
    draws, paths, state counts and member means each hold at most
    ``_sampling.STACK_DRAWS`` cells.
    The empirical mean is a function of each path's state counts (see
    ``_count_means``), and each stack adds its hits per t to one counter.
    An empirical mean never exceeds max_s f(s), so where every member's
    a * max_s f(s) - y, plus a margin of 2 (k + 4) u (a max_s |f(s)| + |y|) and
    the least normal float for rounding (k states, u = 2**-53; derived in
    ``_reach``), lies below t, no statistic reaches t: its count is 0 by proof,
    and its row is dominant.  Only a grid with a t that the proof does not
    cover is drawn.  ``replications`` is at most 2**63, the range of the
    stream keys.  A family whose average means sum past the float range, and an
    empty grid, which would check nothing, are refused before any draw.
    """
    replications = _integer("replications", replications)
    if replications < 1:
        raise DomainError("replications must be >= 1")
    if len(t_grid) == 0:
        raise DomainError("t_grid must not be empty")
    # replication numbers are stream keys, in [0, 2**63)
    if replications > 2**63:
        raise SizeError(f"replications must be at most 2**63, got {replications}")
    table = family.table  # (members, n_states)
    if table is None:
        raise DomainError("the deviation experiment needs an enumerable family")
    if family.states != spec.states():
        raise MalformedInputError("the family must be tabulated over the generator's states")
    n, m = params.n, params.m
    laws = spec.marginal_laws(n)
    with np.errstate(over="ignore"):
        avg = (laws @ table.T).mean(axis=0)  # per-member average mean
        # the statistic a * mean - y, per member: its coefficients, read by the draws and by the proof
        a, y = 1.0 - params.epsilon, (1.0 + params.epsilon) * avg
    if not np.isfinite(avg).all():
        raise DomainError("table values must have finite average means")
    beta = spec.beta_at(m, n)
    bounds = [beta_deviation_bound(params, entropy, float(t), beta_at_m=beta) for t in t_grid]

    t_values = np.array(t_grid, dtype=float)
    hits = np.zeros(len(t_values), dtype=np.int64)
    # a t that no path's statistic can reach has count 0 by proof; the draw serves the others
    proven = _reach(table, a, y, n).max() < t_values
    if not proven.all():
        for _, index, _ in _sampling.draw(spec, n, range(replications), max(table.shape), False):
            emp = _count_means(index, table)
            stat = (a * emp - y).max(axis=1)
            hits += (stat[:, None] >= t_values).sum(axis=0)
            del index, emp, stat  # no array of a stack outlives it

    rows = []
    for t, count, bound, sure in zip(t_grid, hits.tolist(), bounds, proven.tolist()):
        freq, se = count / replications, wilson_stderr(count, replications)
        vacuous = bound >= 1.0
        rows.append({"n": n, "m": m, "t": float(t), "frequency": freq, "stderr": se, "bound": bound,
                     "dominant": sure or vacuous or freq + Z * se <= bound, "vacuous": vacuous})
    meta = {"seed": spec.seed, "replications": replications, "beta_at_m": beta, "kind": spec.kind}
    return ExperimentReport(tuple(rows), meta)


def weak_error_experiment(
    spec: GeneratorSpec,
    family: FunctionFamily,
    params: BoundParams,
    truth: np.ndarray,
    n_grid: Sequence[int],
    replications: int,
) -> ExperimentReport:
    """Measured weak error of the truncated fit against its closed-form bound.

    ``truth`` holds the true regression function's value at each generator
    state, finite and with a finite square, as does the family
    (``regression._check_squares``).  ``replications`` is at most ``CELL_CAP``,
    the cells of the array of errors.  An empty grid, which would check nothing,
    is refused.  Every n's ``BoundParams``, the theorem's
    hypotheses and the cap on the cells of its marginal laws are checked before
    the first draw; no n's laws are built before that n is reached.  For each n
    the replications are drawn (``_sampling.draw``, whose responses the spec
    checked when it was built) and fitted (``_fit``) in stacks, each holding at
    most ``_sampling.STACK_DRAWS`` cells of the largest per-replication array:
    the fit's design columns or member risks, the fitted values, the draws.
    Each stack's fits are then truncated and scored in one call by their
    average-mean squared distance to the truth under the exact laws of
    X_1..X_n, each replication with the same numbers as if it were fitted and
    scored alone.  The bias, inf over the family of that distance, is computed
    once per n.  One row per n on the grid, vacuous when its bound is at least
    max_s (B + |truth(s)|)**2, which no truncated fit's error exceeds; the
    metadata carries the log-log slope of the measured error over the grid for
    trend checks, None unless the grid holds at least two distinct n and every
    error is positive.
    """
    replications = _integer("replications", replications)
    if replications < 1:
        raise DomainError("replications must be >= 1")
    # one error per replication, in one array
    if replications > CELL_CAP:
        raise SizeError(f"replications must be at most {CELL_CAP}, got {replications}")
    if family.states != spec.states():
        raise MalformedInputError("the family must be tabulated over the generator's states")
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (len(family.states),):
        raise MalformedInputError("truth needs one value per state of the family")
    if not np.isfinite(truth).all():
        raise MalformedInputError("truth must be finite")
    _check_squares(family, "truth", truth)
    grid = [dataclasses.replace(params, n=_integer("n_grid", n)) for n in n_grid]
    if not grid:
        raise DomainError("n_grid must not be empty")
    for p in grid:
        p.check_weak_error_hypotheses()
        _check_marginal_cells("n", p.n, len(spec.states()))
    # cells per replication: its fit's design columns or member risks, its fitted values, its draws
    width = family.table.shape[0] if family.design is None else family.design.shape[1]
    with np.errstate(over="ignore"):  # past float range it is inf, which only an infinite bound reaches
        trivial = float(np.square(params.B + np.abs(truth)).max())
    rows = []
    for p in grid:
        laws = spec.marginal_laws(p.n)
        errors = np.empty(replications)
        for reps, index, ys in _sampling.draw(spec, p.n, range(replications), max(p.n * width, len(truth)), True):
            errors[reps.start:reps.stop] = _average_sq_distance(truncate(_fit(family, index, ys)[0], p.B), truth, laws)
            del index, ys  # no array of a stack outlives it
        mean = float(errors.mean())
        stderr = float(errors.std(ddof=1) / math.sqrt(replications)) if replications > 1 else 0.0
        bias = family_bias(family, truth, laws, p.B)
        breakdown = weak_error_bound(p, bias, beta_at_m=spec.beta_at(p.m, p.n))
        rows.append({"n": p.n, "m": p.m, "replications": replications, "weak_error": mean, "stderr": stderr,
                     "bias": bias, "bound_total": breakdown.total, "bound_variance": breakdown.variance_term,
                     "bound_beta": breakdown.beta_error_term, "dominant": mean <= breakdown.total + Z * stderr,
                     "vacuous": breakdown.total >= trivial})
    slope = None
    if len({r["n"] for r in rows}) > 1 and all(r["weak_error"] > 0 for r in rows):
        slope = float(np.polyfit(np.log([r["n"] for r in rows]), np.log([r["weak_error"] for r in rows]), 1)[0])
    meta = {"seed": spec.seed, "replications": replications, "loglog_slope": slope}
    return ExperimentReport(tuple(rows), meta)
