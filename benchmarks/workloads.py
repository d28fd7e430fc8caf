"""The four benchmark workloads: seeded inputs, one timed operation, output checks.

Every workload builds all of its inputs from the benchmark seed, calls the
public entry points of betamix in this process, and checks each output.  An
*operation* is the unit the benchmark times: one ``betamix verify`` call on the
two CLI Monte Carlo workloads, one criterion-4 experiment (a
``union_bound_check`` call per t on the grid) on ``markov-union-bound``, and
one pass through the fixed call mix on ``exact-queries``.

Output checks (each failed check counts the operation as failed):

* every ``verify`` exits 0 and every dominance flag holds;
* the sampled columns of each Monte Carlo result hash to the same digest each
  time the same generator seed is run, and to the digest recorded in
  ``digests.json`` for the generator seeds recorded there (the reference seed
  is always run during warm-up).  The digest covers only the sampled columns,
  so report metadata may change without breaking the check;
* ``couple`` outputs carry verification errors <= 1e-10;
* each ``beta`` value equals an atom-sum oracle computed here over the
  horizon the document states.  Whether that horizon is long enough to reach
  the supremum (horizon truncation) is not checked here;
* ``entropy`` exact covers equal the cover number the family was built with,
  and ``bound`` outputs are finite, nonnegative and self-consistent.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from betamix import blocking, cli, pmf, simulate

DIGESTS_PATH = Path(__file__).with_name("digests.json")
# Generator seed whose digests every run checks during warm-up.
REFERENCE_GEN_SEED = 0
# Each Monte Carlo workload cycles through this many generator seeds, so that
# consecutive operations never repeat the same call.
SEEDS_PER_RUN = 4
BETA_TOL = 1e-12
COUPLING_TOL = 1e-10

LN2 = math.log(2.0)
CRITERION7_PARAMS = {
    "epsilon": 0.9, "c": 4.0, "gamma": 2.0, "gamma_prime": 2.0, "lambda": 1.5,
    "B": 1.0, "V": 1, "n": 1000, "m": 20,
    "mixing": {"model": "subexponential", "a": 0.5, "b": LN2, "gamma": 1.0},
}
CRITERION8_PARAMS = {
    "epsilon": 0.5, "c": 2.0, "gamma": 2.0, "gamma_prime": 2.0, "lambda": 1.5,
    "B": 0.25, "V": 3, "n": 100, "m": 2,
}


def gen_seeds(seed: int) -> list:
    return [seed * SEEDS_PER_RUN + k for k in range(SEEDS_PER_RUN)]


def digest(values) -> str:
    """SHA-256 of the exact bit patterns of a flat sequence of numbers."""
    text = ",".join(float(v).hex() for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


class Workload:
    """Common state: the call counters the per-layer report reads."""

    name = ""
    calls_per_op = 1
    reps_per_op = 1
    # calibration loop (see run.py) whose slowdown tracks this workload's
    calibration = "numpy-calls"

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.counters = {"output_bytes": 0, "sampler_calls": 0, "experiments": 0,
                         "couple_calls": 0, "extended_cells": 0}

    def write_doc(self, name: str, doc) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(doc))
        return str(path)

    def run_cli(self, argv) -> tuple:
        """Call ``betamix.cli.main`` in-process; returns (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments this way
                code = exc.code
        text = out.getvalue()
        self.counters["output_bytes"] += len(text.encode())
        return code, text, err.getvalue()

    def call(self, i: int):
        """The i-th program call of the run (the timed part)."""
        raise NotImplementedError

    def check(self, i: int, result) -> list:
        """Problems found in the result of call i; empty when it is correct."""
        raise NotImplementedError

    def warm_up(self) -> list:
        """Run the reference calls once, untimed; returns the problems found."""
        raise NotImplementedError


class _SeededMonteCarlo(Workload):
    """A Monte Carlo workload whose calls cycle through SEEDS_PER_RUN generator seeds.

    Subclasses define ``run_seed(gen_seed)``, one program call, and
    ``inspect(result)``, which returns (problems, sampled columns or None).
    """

    def __init__(self, seed, workdir):
        super().__init__(workdir)
        self.seeds = gen_seeds(seed)
        self.recorded = load_digests().get(self.name, {})
        self.seen = {}

    def _checked(self, gen_seed: int, result) -> list:
        problems, columns = self.inspect(result)
        if columns is None:
            return problems
        d = digest(columns)
        if d != self.seen.setdefault(gen_seed, d):
            problems.append(f"gen seed {gen_seed}: digest changed within the run")
        expected = self.recorded.get(str(gen_seed))
        if expected is not None and d != expected:
            problems.append(f"gen seed {gen_seed}: digest {d[:12]} != recorded {expected[:12]}")
        return problems

    def call(self, i):
        return self.run_seed(self.seeds[i % SEEDS_PER_RUN])

    def check(self, i, result):
        return self._checked(self.seeds[i % SEEDS_PER_RUN], result)

    def warm_up(self):
        if str(REFERENCE_GEN_SEED) not in self.recorded:
            return [f"no recorded digest for reference gen seed {REFERENCE_GEN_SEED}"]
        return self._checked(REFERENCE_GEN_SEED, self.run_seed(REFERENCE_GEN_SEED))

    def digest_of(self, gen_seed: int) -> str:
        problems, columns = self.inspect(self.run_seed(gen_seed))
        if problems:
            raise RuntimeError(f"{self.name} gen seed {gen_seed}: {problems}")
        return digest(columns)


class _VerifyWorkload(_SeededMonteCarlo):
    """``betamix verify`` on one experiment document per generator seed."""

    columns = ()

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.paths = {}
        for gen_seed in self.seeds + [REFERENCE_GEN_SEED]:
            self.path(gen_seed)

    def document(self, gen_seed: int) -> dict:
        raise NotImplementedError

    def path(self, gen_seed: int) -> str:
        if gen_seed not in self.paths:
            self.paths[gen_seed] = self.write_doc(f"{self.name}-{gen_seed}.json",
                                                  self.document(gen_seed))
        return self.paths[gen_seed]

    def run_seed(self, gen_seed):
        path = self.path(gen_seed)
        self.counters["experiments"] += 1
        return self.run_cli(["verify", path])

    def inspect(self, result):
        code, out, err = result
        if code != 0:
            return [f"verify exited {code}: {err.strip()[:200]}"], None
        rows = json.loads(out)["rows"]
        problems = [f"row {k} not dominant" for k, row in enumerate(rows) if not row["dominant"]]
        return problems, [row[c] for row in rows for c in self.columns]


class MarkovDeviation(_VerifyWorkload):
    """Criterion-7 shape: stationary two-state chain, n=1000, m=20."""

    name = "markov-deviation"
    # 42 is the fewest replications whose 3 * Wilson stderr at frequency 0 stays
    # below the bound at t = 1.2, so every verify exits 0.
    replications = 45
    reps_per_op = replications
    # The statistic stays below t on this grid, so frequency and stderr do not
    # depend on the stream: the digest here guards the columns, while the
    # other two Monte Carlo workloads detect a changed stream.
    columns = ("frequency", "stderr")

    def document(self, gen_seed):
        return {
            "experiment": "deviation",
            "generator": {"kind": "markov", "seed": gen_seed,
                          "chain": {"states": [0, 1],
                                    "transition": [[0.75, 0.25], [0.25, 0.75]],
                                    "initial": [0.5, 0.5]}},
            "family": {"kind": "state_table",
                       "tables": [{"0": 0.0, "1": 1.0}, {"0": 1.0, "1": 0.0},
                                  {"0": 0.5, "1": 0.5}]},
            "params": CRITERION7_PARAMS,
            "entropy_spec": {"entropy": "finite", "n_members": 3},
            "t_grid": [0.9, 1.2],
            "replications": self.replications,
        }


class MdepWeakError(_VerifyWorkload):
    """Criterion-8 shape: m-dependent inputs, affine span, n_grid 100..1600."""

    name = "mdep-weak-error"
    replications = 10
    n_grid = (100, 200, 400, 800, 1600)
    reps_per_op = replications * len(n_grid)
    columns = ("weak_error", "stderr")

    def document(self, gen_seed):
        table = {str(s): (s - 1.5) / 15.0 for s in range(4)}
        return {
            "experiment": "weak_error",
            "generator": {"kind": "m_dependent", "seed": gen_seed, "dependence_lag": 2,
                          "alphabet_size": 4, "phi": table,
                          "noise": {"values": [-0.1, 0.1], "probs": [0.5, 0.5]},
                          "response_bound": 0.25},
            "family": {"kind": "affine_span", "range_bound": 0.25},
            "truth": table,
            "params": CRITERION8_PARAMS,
            "n_grid": list(self.n_grid),
            "replications": self.replications,
        }


class MarkovUnionBound(_SeededMonteCarlo):
    """Criterion-4 shape: ``union_bound_check`` over ten t values per experiment."""

    name = "markov-union-bound"
    n, m = 200, 5
    replications = 10
    reps_per_op = replications
    t_grid = tuple(float(t) for t in np.linspace(0.02, 0.3, 10))
    table = np.array([[0.0, 1.0], [1.0, 0.0]])  # indicator of each state

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        p, q = 0.3, 0.2
        self.chain = pmf.MarkovChainSpec(
            (0, 1), [[1 - p, p], [q, 1 - q]], pmf.FinitePmf((0, 1), [q / (p + q), p / (p + q)]))

    def run_seed(self, gen_seed):
        self.counters["experiments"] += 1
        spec = simulate.GeneratorSpec(kind="markov", seed=gen_seed, chain=self.chain)
        avg_values = (self.chain.marginal_matrix(self.n) @ self.table.T).T
        part = blocking.m_steps_partition(self.n, self.m)
        index = {s: i for i, s in enumerate(self.chain.states)}

        def sampler(rep):
            self.counters["sampler_calls"] += 1
            xs = simulate.generate(spec, self.n, rep).xs
            return self.table[:, [index[x] for x in xs]]

        return [blocking.union_bound_check(sampler, avg_values, part, 1.0, -1.0, t,
                                           self.replications)
                for t in self.t_grid]

    def inspect(self, reports):
        problems = [f"t={t}: union bound inconsistent" for t, r in zip(self.t_grid, reports)
                    if not r.consistent]
        columns = [v for r in reports for v in (r.lhs_frequency, r.lhs_stderr, r.rhs_sum,
                                                r.rhs_stderr, r.replications)]
        return problems, columns


# --------------------------------------------------------------- exact queries

def beta_chain_oracle(transition, initial, m: int, horizon: int) -> float:
    """sup over n = 1..horizon of the atom sum of (Z_n, Z_{n+m})."""
    P = np.asarray(transition, dtype=float)
    step_m = np.eye(len(P))
    for _ in range(m):
        step_m = step_m @ P
    mu = np.asarray(initial, dtype=float)
    best = 0.0
    for _ in range(horizon):
        joint = mu[:, None] * step_m
        product = np.outer(joint.sum(axis=1), joint.sum(axis=0))
        best = max(best, 0.5 * float(np.abs(joint - product).sum()))
        mu = mu @ P
    return best


def beta_max_oracle(probs: np.ndarray, m: int) -> float:
    """max over l of the atom sum between axis l and the axes at or before l - m."""
    best = 0.0
    for l in range(probs.ndim):
        left = list(range(l - m + 1))
        if not left:
            continue
        others = tuple(ax for ax in range(probs.ndim) if ax not in left and ax != l)
        # the kept axes stay in order, so axis l is last
        joint = (probs.sum(axis=others) if others else probs).reshape(-1, probs.shape[l])
        product = np.outer(joint.sum(axis=1), joint.sum(axis=0))
        best = max(best, 0.5 * float(np.abs(joint - product).sum()))
    return best


class ExactQueries(Workload):
    """Closed loop, one client: a fixed mix of exact (non-sampling) CLI queries.

    One operation is a pass through MIX.  Each run builds VARIANTS document
    sets from the seed and pass j uses set j % VARIANTS.
    """

    name = "exact-queries"
    # parsing, JSON and small-object work in the interpreter matter as much as
    # numpy calls here
    calibration = "mixed"
    VARIANTS = 4
    COUPLE_AXES = 7
    BETA_LAGS = tuple(range(1, 9))
    HORIZON = 64
    PROCESS_AXES, PROCESS_LAG = 5, 2
    COVER_MEMBERS, COVER_CLUSTERS, COVER_POINTS, COVER_R = 12, 3, 6, 0.5
    MIX = (("couple", 0),) + tuple(("beta_chain", m) for m in BETA_LAGS[:4]) + (
        ("beta_process", 0), ("bound_deviation", 0), ("couple", 1),
    ) + tuple(("beta_chain", m) for m in BETA_LAGS[4:]) + (
        ("bound_weak_error", 0), ("entropy", 0),
    )
    calls_per_op = len(MIX)

    def __init__(self, seed, workdir):
        super().__init__(workdir)
        rng = np.random.default_rng([seed, 0xE9])
        self.variants = [self._make_variant(rng, v) for v in range(self.VARIANTS)]

    def _make_variant(self, rng, v: int) -> dict:
        docs, expect = {}, {}
        for k in range(2):
            probs = rng.random(2 ** self.COUPLE_AXES) + 0.05
            probs /= probs.sum()
            doc = {"process": {"axes": [[0, 1]] * self.COUPLE_AXES, "probs": probs.tolist()}}
            docs[("couple", k)] = self.write_doc(f"couple-{v}-{k}.json", doc)

        transition = 0.05 + 0.85 * rng.dirichlet(np.ones(3), size=3)
        transition /= transition.sum(axis=1, keepdims=True)
        initial = [0.0, 0.0, 0.0]
        initial[int(rng.integers(3))] = 1.0
        chain = {"states": [0, 1, 2], "transition": transition.tolist(), "initial": initial}
        for m in self.BETA_LAGS:
            doc = {"chain": chain, "m": m, "horizon": self.HORIZON}
            docs[("beta_chain", m)] = self.write_doc(f"beta-{v}-{m}.json", doc)
            expect[("beta_chain", m)] = beta_chain_oracle(
                chain["transition"], initial, m, self.HORIZON)

        probs = rng.random(2 ** self.PROCESS_AXES) + 0.05
        probs /= probs.sum()
        doc = {"process": {"axes": [[0, 1]] * self.PROCESS_AXES, "probs": probs.tolist()},
               "m": self.PROCESS_LAG}
        docs[("beta_process", 0)] = self.write_doc(f"process-{v}.json", doc)
        expect[("beta_process", 0)] = beta_max_oracle(
            np.asarray(doc["process"]["probs"]).reshape((2,) * self.PROCESS_AXES),
            self.PROCESS_LAG)

        n = int(rng.choice([250, 500, 1000]))
        params = dict(CRITERION7_PARAMS, n=n, m=math.ceil(2.0 * math.log(n) / LN2))
        doc = {"bound": "beta_deviation", "params": params,
               "entropy_spec": {"entropy": "finite", "n_members": 3},
               "t": float(rng.uniform(0.8, 1.5))}
        docs[("bound_deviation", 0)] = self.write_doc(f"bound-dev-{v}.json", doc)

        params = dict(CRITERION8_PARAMS, n=int(rng.choice([100, 200, 400, 800, 1600])),
                      mixing={"model": "subexponential", "a": 0.5, "b": LN2, "gamma": 1.0})
        doc = {"bound": "weak_error", "params": params, "bias": float(rng.uniform(0, 0.01))}
        docs[("bound_weak_error", 0)] = self.write_doc(f"bound-weak-{v}.json", doc)

        # well-separated clusters: members within a cluster lie closer than
        # r, members of different clusters farther, so the cover number is
        # exactly the number of clusters
        centers = np.arange(self.COVER_CLUSTERS)[:, None] * 1.0 + rng.random(self.COVER_POINTS) * 0.1
        labels = np.concatenate([np.arange(self.COVER_CLUSTERS), rng.integers(
            0, self.COVER_CLUSTERS, self.COVER_MEMBERS - self.COVER_CLUSTERS)])
        rng.shuffle(labels)
        values = centers[labels] + rng.uniform(-0.1, 0.1, (self.COVER_MEMBERS, self.COVER_POINTS))
        doc = {"entropy": "exact_cover", "values": values.tolist(), "r": self.COVER_R}
        docs[("entropy", 0)] = self.write_doc(f"cover-{v}.json", doc)
        expect[("entropy", 0)] = self.COVER_CLUSTERS
        return {"docs": docs, "expect": expect}

    def call(self, i):
        key = self.MIX[i % self.calls_per_op]
        variant = self.variants[(i // self.calls_per_op) % self.VARIANTS]
        command = {"couple": "couple", "beta_chain": "beta", "beta_process": "beta",
                   "bound_deviation": "bound", "bound_weak_error": "bound",
                   "entropy": "entropy"}[key[0]]
        if key[0] == "couple":
            self.counters["couple_calls"] += 1
        return self.run_cli([command, variant["docs"][key]])

    def check(self, i, result):
        key = self.MIX[i % self.calls_per_op]
        expect = self.variants[(i // self.calls_per_op) % self.VARIANTS]["expect"].get(key)
        code, out, err = result
        if code != 0:
            return [f"{key[0]} exited {code}: {err.strip()[:200]}"]
        doc = json.loads(out)
        kind = key[0]
        if kind == "couple":
            self.counters["extended_cells"] += len(doc["probs"])
            worst = max(doc["verification"].values())
            if not worst <= COUPLING_TOL:
                return [f"couple verification error {worst}"]
            if len(doc["probs"]) != 4 ** self.COUPLE_AXES:
                return [f"couple extended joint has {len(doc['probs'])} cells"]
            return []
        if kind == "beta_chain":
            if doc["horizon"] != self.HORIZON or doc["m"] != key[1]:
                return [f"beta echoes horizon {doc['horizon']}, m {doc['m']}"]
            if not abs(doc["beta"] - expect) <= BETA_TOL:
                return [f"beta(m={key[1]}) = {doc['beta']} != oracle {expect}"]
            return []
        if kind == "beta_process":
            if not abs(doc["beta_max"] - expect) <= BETA_TOL:
                return [f"beta_max = {doc['beta_max']} != oracle {expect}"]
            return []
        if kind == "bound_deviation":
            return [] if 0.0 <= doc["bound"] <= 1.0 else [f"deviation bound {doc['bound']}"]
        if kind == "bound_weak_error":
            terms = (doc["variance_term"], doc["beta_error_term"], doc["scaled_bias_term"])
            ok = all(math.isfinite(t) and t >= 0.0 for t in terms)
            if not ok or not math.isclose(doc["total"], sum(terms), rel_tol=1e-12):
                return [f"weak-error bound terms {terms} total {doc['total']}"]
            return []
        if doc["covering_number"] != expect:
            return [f"covering number {doc['covering_number']} != {expect}"]
        return []

    def warm_up(self):
        problems = []
        for i in range(self.calls_per_op):
            problems += self.check(i, self.call(i))
        return problems


WORKLOADS = {cls.name: cls for cls in (MarkovDeviation, MdepWeakError, MarkovUnionBound, ExactQueries)}
