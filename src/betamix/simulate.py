"""Seeded data generators with known dependence structure and the Monte Carlo
experiments that test bound dominance.

Three generator kinds: a finite-state Markov chain (exact lag-m dependence
coefficients available), an m-dependent sliding-window construction built from
independent seeds (dependence vanishes beyond the lag), and an i.i.d. draw
from a fixed law.  Every replication draws from its own counter-based stream
derived from (seed, replication), so reports are bit-reproducible regardless of
execution order.  A spec builds its sampling tables (the CDFs its draws are
inverted through) once, when it is constructed, and every draw reads them.
States come from one sampler, ``_sample_states``, which takes the first draws
of the stream; ``generate`` adds responses to them from the draws that follow,
except under a one-point noise law, which draws nothing.
``deviation_experiment`` reads only the states, so it draws them without
responses.  Samples carry no laws; experiments ask the spec for its exact
marginals once per n.
"""
from __future__ import annotations

import dataclasses
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blocking import wilson_stderr
from .bounds import BoundParams, beta_deviation_bound, weak_error_bound
from .entropy import EntropyEstimate, FunctionFamily
from .errors import DomainError, MalformedInputError, SizeError
from .mixing import markov_beta
from .pmf import CELL_CAP, FinitePmf, MarkovChainSpec, _eq_by_value
from .regression import Dataset, weak_error


def replication_rng(seed: int, replication: int) -> np.random.Generator:
    """Counter-based stream for one replication: independent of execution order."""
    return np.random.Generator(np.random.Philox(key=[seed, replication]))


@dataclass(frozen=True)
class GeneratorSpec:
    """A seeded source of dependent (x, y) samples with exact input marginals.

    kinds: "markov" (needs ``chain``), "m_dependent" (sliding window of width
    ``dependence_lag`` over i.i.d. uniform seeds modulo ``alphabet_size``),
    "iid" (needs ``law``).  Responses are phi(x) plus discrete noise, with
    ``phi`` given as its value at each of ``states()`` (zero when omitted).
    ``seed`` is an integer in [0, 2**63).

    The sampling tables are built from the fields at construction and held
    beside them, not as fields, so equality, ``repr`` and
    ``dataclasses.replace`` see the fields alone (and ``replace`` builds the
    tables anew).
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
        if self.kind not in ("markov", "m_dependent", "iid"):
            raise MalformedInputError(f"unknown generator kind {self.kind!r}")
        # written so that a NaN fails it
        if not 0 <= self.seed < 2**63:
            raise MalformedInputError(f"seed must be in [0, 2**63), got {self.seed}")
        if self.kind == "markov" and self.chain is None:
            raise MalformedInputError("markov kind requires a chain")
        if self.kind == "m_dependent" and (
            self.dependence_lag is None or self.alphabet_size is None
            or self.dependence_lag < 1 or self.alphabet_size < 2
        ):
            raise MalformedInputError("m_dependent kind requires dependence_lag >= 1 and alphabet_size >= 2")
        if self.kind == "iid" and self.law is None:
            raise MalformedInputError("iid kind requires a law")
        if not (abs(sum(self.noise_probs) - 1.0) <= 1e-12 and min(self.noise_probs) >= 0):
            raise MalformedInputError("noise_probs must be a pmf")
        if len(self.noise_values) != len(self.noise_probs):
            raise MalformedInputError("noise_values and noise_probs must have matching length")
        if not np.isfinite(self.noise_values).all():
            raise MalformedInputError("noise_values must be finite")
        if self.response_bound is not None and not self.response_bound >= 0.0:
            raise MalformedInputError(f"response_bound must be nonnegative, got {self.response_bound}")
        k = len(self.states())
        phi = np.zeros(k) if self.phi is None else np.array(self.phi, dtype=float)
        if phi.shape != (k,):
            raise MalformedInputError(f"phi needs one value per state, got shape {phi.shape}")
        if not np.isfinite(phi).all():
            raise MalformedInputError("phi must be finite")
        object.__setattr__(self, "phi", phi)
        # Sampling tables.  bisect_right on a tuple of Python floats is
        # searchsorted(side="right") on the same float64 row, so the Markov walk
        # skips zero-mass states alike, and inverse_cdf pins every total to 1.0.
        if self.kind == "markov":
            start, rows = inverse_cdf(self.chain.initial.probs), inverse_cdf(self.chain.transition)
            object.__setattr__(self, "_start_cdf", tuple(start.tolist()))
            object.__setattr__(self, "_row_cdfs", tuple(map(tuple, rows.tolist())))
        if self.kind == "iid":
            object.__setattr__(self, "_law_cdf", inverse_cdf(self.law.probs))
        object.__setattr__(self, "_noise_cdf", inverse_cdf(self.noise_probs))
        object.__setattr__(self, "_noise_values", np.asarray(self.noise_values, dtype=float))

    def states(self) -> tuple:
        if self.kind == "markov":
            return self.chain.states
        if self.kind == "m_dependent":
            return tuple(range(self.alphabet_size))
        return self.law.support

    def marginal_laws(self, n: int) -> np.ndarray:
        """Exact per-index laws of X_1..X_n, one row per index.

        More than ``CELL_CAP`` cells raise SizeError before any array is built.
        """
        k = len(self.states())
        if n * k > CELL_CAP:
            raise SizeError(f"n {n} needs {n * k} marginal cells, above cap {CELL_CAP}")
        if self.kind == "markov":
            return self.chain.marginal_matrix(n)
        if self.kind == "m_dependent":
            # sums of i.i.d. uniforms modulo the alphabet size stay uniform
            return np.full((n, k), 1.0 / k)
        return np.tile(self.law.probs, (n, 1))

    def beta_at(self, m: int) -> float:
        """Lag-m dependence coefficient of the inputs.

        Exact for markov and iid kinds; for the m_dependent kind, exactly 0 at
        or beyond the lag and the trivial bound 1 below it.
        """
        if self.kind == "markov":
            return markov_beta(self.chain, m)
        if self.kind == "m_dependent":
            return 0.0 if m >= self.dependence_lag else 1.0
        return 0.0


def inverse_cdf(probs) -> np.ndarray:
    """Cumulative sums along the last axis for searchsorted(side="right") draws, with the
    total (and any zero-mass tail sharing it) pinned to 1.0 so that a pmf short of 1
    within tolerance cannot map a draw past its last state."""
    cum = np.cumsum(probs, axis=-1)
    cum[cum >= cum[..., -1:]] = 1.0
    return cum


def _sample_states(spec: GeneratorSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Indices into ``spec.states()`` of one sampled path of length n."""
    if spec.kind == "markov":
        # the random map is evaluated only at the current state
        u = rng.random(n).tolist()
        rows = spec._row_cdfs

        def walk(s):
            yield s
            for x in u[1:]:
                s = bisect_right(rows[s], x)
                yield s

        return np.fromiter(walk(bisect_right(spec._start_cdf, u[0])), dtype=np.intp, count=n)
    if spec.kind == "m_dependent":
        k, lag = spec.alphabet_size, spec.dependence_lag
        w = rng.integers(0, k, size=n + lag - 1)
        return np.convolve(w, np.ones(lag, dtype=int), mode="valid") % k
    return np.searchsorted(spec._law_cdf, rng.random(n), side="right")


def generate(spec: GeneratorSpec, n: int, replication: int = 0) -> Dataset:
    """Draw one replication of length n from its own stream.

    A one-point noise law adds its value without drawing: every draw would map
    to it, and no later draw reads the stream.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = replication_rng(spec.seed, replication)
    index = _sample_states(spec, n, rng)
    values = spec._noise_values
    if values.size == 1:
        noise = values[0]
    else:
        noise = values[np.searchsorted(spec._noise_cdf, rng.random(n), side="right")]
    return Dataset(
        states=spec.states(),
        index=index,
        ys=spec.phi[index] + noise,
        response_bound=spec.response_bound,
    )


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
    (1-eps) * empirical mean - (1+eps) * average mean of the member over the
    sample; frequencies of {statistic >= t} are paired with the dependent-case
    deviation bound at each t on the grid.
    """
    if replications < 1:
        raise DomainError("replications must be >= 1")
    table = family.table  # (members, n_states)
    if table is None:
        raise DomainError("the deviation experiment needs an enumerable family")
    if family.states != spec.states():
        raise MalformedInputError("the family must be tabulated over the generator's states")
    n, m = params.n, params.m
    laws = spec.marginal_laws(n)
    avg = (laws @ table.T).mean(axis=0)  # per-member average mean
    beta = spec.beta_at(m)

    stats = np.empty(replications)
    for rep in range(replications):
        emp = table[:, _sample_states(spec, n, replication_rng(spec.seed, rep))].mean(axis=1)
        stats[rep] = ((1.0 - params.epsilon) * emp - (1.0 + params.epsilon) * avg).max()

    rows = []
    for t in t_grid:
        hits = int((stats >= t).sum())
        freq = hits / replications
        se = wilson_stderr(hits, replications)
        bound = beta_deviation_bound(params, entropy, float(t), beta_at_m=beta)
        vacuous = bound >= 1.0
        dominant = vacuous or freq + 3.0 * se <= bound
        rows.append(
            {
                "n": n,
                "m": m,
                "t": float(t),
                "frequency": freq,
                "stderr": se,
                "bound": bound,
                "dominant": dominant,
                "vacuous": vacuous,
            }
        )
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
    state.  One row per n on the grid; the metadata carries the log-log slope
    of the measured error over the grid for trend checks.
    """
    rows = []
    beta = spec.beta_at(params.m)
    for n in n_grid:
        p = dataclasses.replace(params, n=int(n))
        samples = (generate(spec, p.n, rep) for rep in range(replications))
        est = weak_error(samples, family, p.B, truth, spec.marginal_laws(p.n))
        breakdown = weak_error_bound(p, est.bias, beta_at_m=beta)
        dominant = est.mean <= breakdown.total + 3.0 * est.stderr
        rows.append(
            {
                "n": int(n),
                "m": p.m,
                "replications": replications,
                "weak_error": est.mean,
                "stderr": est.stderr,
                "bias": est.bias,
                "bound_total": breakdown.total,
                "bound_variance": breakdown.variance_term,
                "bound_beta": breakdown.beta_error_term,
                "dominant": dominant,
                "vacuous": False,
            }
        )
    slope = None
    if len(rows) > 1 and all(r["weak_error"] > 0 for r in rows):
        logs_n = np.log([r["n"] for r in rows])
        logs_e = np.log([r["weak_error"] for r in rows])
        slope = float(np.polyfit(logs_n, logs_e, 1)[0])
    meta = {"seed": spec.seed, "replications": replications, "loglog_slope": slope}
    return ExperimentReport(tuple(rows), meta)
