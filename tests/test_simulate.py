import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betamix.bounds import BoundParams
from betamix.entropy import FunctionFamily, finite_family_entropy
from betamix.errors import MalformedInputError, SizeError
from betamix.mixing import MixingFit, markov_beta
from betamix.pmf import CELL_CAP, FinitePmf, MarkovChainSpec
from betamix import config
from betamix.cli import main
from betamix.simulate import (
    GeneratorSpec,
    _sample_states,
    deviation_experiment,
    generate,
    inverse_cdf,
    replication_rng,
    weak_error_experiment,
)


def two_state_chain(p=0.25, q=0.25):
    pi = np.array([q / (p + q), p / (p + q)])
    return MarkovChainSpec((0, 1), [[1 - p, p], [q, 1 - q]], FinitePmf((0, 1), pi))


def state_family(tables):
    states = tuple(tables[0])
    return FunctionFamily(states, table=[[t[s] for s in states] for t in tables])


def test_spec_validation():
    with pytest.raises(MalformedInputError):
        GeneratorSpec(kind="markov", seed=0)
    with pytest.raises(MalformedInputError):
        GeneratorSpec(kind="m_dependent", seed=0, dependence_lag=0, alphabet_size=4)
    with pytest.raises(MalformedInputError):
        GeneratorSpec(kind="weird", seed=0)


@pytest.mark.parametrize("values, probs", [((0.0,), (0.5, 0.5)), ((-1.0, 0.0, 1.0), (1.0,))])
def test_spec_rejects_noise_values_and_probs_of_different_lengths(values, probs):
    # one value short used to index past the values; one prob short never drew the rest
    with pytest.raises(MalformedInputError, match="noise_values and noise_probs"):
        GeneratorSpec(kind="iid", seed=0, law=FinitePmf((0, 1), [0.5, 0.5]), noise_values=values, noise_probs=probs)


CAPPED_SPECS = {
    "markov": GeneratorSpec(kind="markov", seed=0, chain=two_state_chain()),
    "m_dependent": GeneratorSpec(kind="m_dependent", seed=0, dependence_lag=2, alphabet_size=4),
    "iid": GeneratorSpec(kind="iid", seed=0, law=FinitePmf((0, 1, 2), [0.2, 0.3, 0.5])),
}


@pytest.mark.parametrize("kind", sorted(CAPPED_SPECS))
def test_marginal_laws_reject_n_past_the_cell_cap_before_allocating(kind):
    spec = CAPPED_SPECS[kind]
    k = len(spec.states())
    for n in (CELL_CAP // k + 1, int(1e300)):
        tracemalloc.start()
        try:
            with pytest.raises(SizeError, match=f"n {n} needs {n * k} marginal cells, above cap {CELL_CAP}"):
                spec.marginal_laws(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_seed_must_lie_in_the_key_range():
    law = FinitePmf((0, 1), [0.5, 0.5])
    for seed in (-1, 2**63, 2**64, float("nan")):
        with pytest.raises(MalformedInputError, match=r"seed must be in \[0, 2\*\*63\)"):
            GeneratorSpec(kind="iid", seed=seed, law=law)
    for seed in (0, 2**63 - 1):
        assert generate(GeneratorSpec(kind="iid", seed=seed, law=law), 3).index.shape == (3,)


def test_generator_determinism():
    spec = GeneratorSpec(kind="markov", seed=42, chain=two_state_chain())
    a = generate(spec, 50, replication=3)
    b = generate(spec, 50, replication=3)
    assert a.xs == b.xs
    assert np.array_equal(a.ys, b.ys)
    c = generate(spec, 50, replication=4)
    assert a.xs != c.xs


def test_replication_streams_are_independent_of_order():
    r1 = replication_rng(7, 0).random(5)
    replication_rng(7, 99).random(100)
    r2 = replication_rng(7, 0).random(5)
    assert np.array_equal(r1, r2)


def test_markov_marginals_attached_exactly():
    chain = MarkovChainSpec(
        (0, 1), [[0.9, 0.1], [0.3, 0.7]], FinitePmf((0, 1), [1.0, 0.0])
    )
    spec = GeneratorSpec(kind="markov", seed=0, chain=chain)
    assert np.allclose(spec.marginal_laws(10), chain.marginal_matrix(10))


def test_markov_trajectory_frequencies_match_marginals():
    chain = two_state_chain(0.3, 0.2)
    spec = GeneratorSpec(kind="markov", seed=5, chain=chain)
    n = 20000
    data = generate(spec, n)
    freq1 = np.mean([x == 1 for x in data.xs])
    pi1 = chain.initial.probs[1]
    assert abs(freq1 - pi1) < 0.02


def test_empirical_lagged_joint_matches_exact():
    chain = two_state_chain(0.3, 0.2)
    spec = GeneratorSpec(kind="markov", seed=8, chain=chain)
    m, n = 2, 200
    reps = 400
    counts = np.zeros((2, 2))
    for rep in range(reps):
        xs = generate(spec, n, rep).xs
        for k in range(n - m):
            counts[xs[k], xs[k + m]] += 1
    counts /= counts.sum()
    pi = chain.initial.probs
    exact = pi[:, None] * np.linalg.matrix_power(chain.transition, m)
    assert np.abs(counts - exact).max() < 5 / np.sqrt(reps * (n - m))


def test_m_dependent_marginals_uniform_and_beta_zero():
    spec = GeneratorSpec(kind="m_dependent", seed=1, dependence_lag=2, alphabet_size=4)
    data = generate(spec, 1000)
    assert np.allclose(spec.marginal_laws(1000), 0.25)
    counts = np.bincount(np.array(data.xs), minlength=4) / 1000
    assert np.abs(counts - 0.25).max() < 0.06
    assert spec.beta_at(2) == 0.0
    assert spec.beta_at(5) == 0.0
    assert spec.beta_at(1) == 1.0


def test_m_dependent_pairs_beyond_lag_independent():
    spec = GeneratorSpec(kind="m_dependent", seed=2, dependence_lag=2, alphabet_size=4)
    xs = np.array(generate(spec, 200000).xs)
    m = 2
    joint = np.zeros((4, 4))
    for a, b in zip(xs[:-m], xs[m:]):
        joint[a, b] += 1
    joint /= joint.sum()
    assert np.abs(joint - 1 / 16).max() < 0.005


def test_iid_kind():
    law = FinitePmf((0, 1, 2), [0.2, 0.3, 0.5])
    spec = GeneratorSpec(kind="iid", seed=3, law=law)
    data = generate(spec, 5000)
    assert spec.beta_at(1) == 0.0
    freq = np.bincount(np.array(data.xs), minlength=3) / 5000
    assert np.abs(freq - law.probs).max() < 0.03


def test_responses_bounded_by_construction():
    spec = GeneratorSpec(
        kind="iid",
        seed=4,
        law=FinitePmf((0, 1), [0.5, 0.5]),
        phi=[0.1 * s for s in (0, 1)],
        noise_values=(-0.1, 0.1),
        noise_probs=(0.5, 0.5),
        response_bound=0.25,
    )
    data = generate(spec, 500)
    assert np.abs(data.ys).max() <= 0.25


def make_params(**overrides):
    defaults = dict(
        epsilon=0.5, c=2.0, gamma=2.0, gamma_prime=2.0, lam=1.5,
        B=1.0, V=1, n=100, m=1, mixing=None,
    )
    defaults.update(overrides)
    return BoundParams(**defaults)


def test_deviation_experiment_zero_family():
    spec = GeneratorSpec(kind="iid", seed=6, law=FinitePmf((0, 1), [0.5, 0.5]))
    fam = state_family([{0: 0.0, 1: 0.0}])
    report = deviation_experiment(
        spec, fam, make_params(), finite_family_entropy(1), [0.05, 0.2], 200
    )
    for row in report.rows:
        assert row["frequency"] == 0.0
        assert row["dominant"]


def test_deviation_experiment_iid_dominance():
    spec = GeneratorSpec(kind="iid", seed=7, law=FinitePmf((0, 1), [0.5, 0.5]))
    fam = state_family([{0: 0.0, 1: 1.0}, {0: 1.0, 1: 0.0}])
    params = make_params(n=400)
    report = deviation_experiment(
        spec, fam, params, finite_family_entropy(2), [0.3, 0.38, 0.45], 500
    )
    assert report.all_dominant
    assert report.metadata["beta_at_m"] == 0.0
    # frequencies are nonincreasing in t
    freqs = [row["frequency"] for row in report.rows]
    assert freqs == sorted(freqs, reverse=True)


def test_deviation_experiment_markov_uses_exact_beta():
    chain = two_state_chain()
    spec = GeneratorSpec(kind="markov", seed=9, chain=chain)
    params = make_params(n=60, m=3)
    report = deviation_experiment(
        spec,
        state_family([{0: 0.0, 1: 1.0}]),
        params,
        finite_family_entropy(1),
        [0.4],
        50,
    )
    assert report.metadata["beta_at_m"] == pytest.approx(markov_beta(chain, 3))


def test_weak_error_experiment_rows_and_slope():
    spec = GeneratorSpec(
        kind="m_dependent",
        seed=10,
        dependence_lag=2,
        alphabet_size=4,
        phi=[(s - 1.5) / 15.0 for s in range(4)],
        noise_values=(-0.1, 0.1),
        noise_probs=(0.5, 0.5),
        response_bound=0.25,
    )
    fam = FunctionFamily(range(4), design=[[1.0, float(s)] for s in range(4)])
    params = make_params(B=0.25, V=3, m=2, n=100)
    truth = [(s - 1.5) / 15.0 for s in range(4)]
    report = weak_error_experiment(spec, fam, params, truth, [50, 200], 40)
    assert len(report.rows) == 2
    for row in report.rows:
        assert row["bias"] == pytest.approx(0.0, abs=1e-10)
        assert row["dominant"]
    assert report.rows[0]["weak_error"] > report.rows[1]["weak_error"]
    assert report.metadata["loglog_slope"] < 0


def test_report_csv_roundtrip(tmp_path):
    doc = {
        "generator": {"kind": "iid", "seed": 11, "law": {"support": [0, 1], "probs": [0.5, 0.5]}},
        "family": {"kind": "state_table", "tables": [{"0": 0.0, "1": 0.0}]},
        "params": {"epsilon": 0.5, "c": 2.0, "gamma": 2.0, "gamma_prime": 2.0, "lambda": 1.5,
                   "B": 1.0, "V": 1, "n": 100, "m": 1},
        "entropy_spec": {"entropy": "finite", "n_members": 1},
        "t_grid": [0.1],
        "replications": 20,
    }
    cfg, out = tmp_path / "exp.json", tmp_path / "report.csv"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", str(cfg), "--format", "csv", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,m,t,frequency,stderr,bound,dominant,vacuous"
    assert len(lines) == 2


def test_spec_from_json_roundtrip():
    doc = {
        "kind": "m_dependent",
        "seed": 12,
        "dependence_lag": 2,
        "alphabet_size": 4,
        "phi": {"0": -0.1, "1": 0.0, "2": 0.05, "3": 0.1},
        "noise": {"values": [-0.1, 0.1], "probs": [0.5, 0.5]},
        "response_bound": 0.25,
    }
    spec = config.generator(config.Section(doc))
    data = generate(spec, 30)
    assert data.response_bound == 0.25
    assert spec.phi[2] == 0.05


class _StubRng:
    """Every uniform draw is the given value."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


def test_draws_near_one_stay_on_the_alphabet():
    # masses short of 1 by less than the tolerance; a draw above their total
    # maps to the last state of positive mass
    short = [0.2, 0.3, 0.5 - 5e-13]
    u = 1.0 - 1e-13
    law = FinitePmf((0, 1, 2), short)
    assert list(_sample_states(GeneratorSpec(kind="iid", seed=0, law=law), 3, _StubRng(u))) == [2, 2, 2]
    chain = MarkovChainSpec((0, 1, 2), [short, short, [0.5, 0.5 - 5e-13, 0.0]], law)
    path = _sample_states(GeneratorSpec(kind="markov", seed=0, chain=chain), 3, _StubRng(u))
    assert list(path) == [2, 1, 2]
    # the noise draw goes through the same helper
    assert np.searchsorted(inverse_cdf((0.5, 0.5 - 5e-13)), u, side="right") == 1


def per_step_path(spec, n, rng):
    """The per-step searchsorted loop that the next-state walk replaced: the reference."""
    cum_rows = inverse_cdf(spec.chain.transition)
    u = rng.random(n)
    idx = int(np.searchsorted(inverse_cdf(spec.chain.initial.probs), u[0], side="right"))
    path = [idx]
    for j in range(1, n):
        idx = int(np.searchsorted(cum_rows[idx], u[j], side="right"))
        path.append(idx)
    return np.array(path)


def normalised(weights):
    return [w / sum(weights) for w in weights]


def chain_spec(weights, initial_weights, seed=13):
    """A markov spec from nonnegative weights per transition row and for the start law."""
    states = tuple(range(len(weights)))
    initial = FinitePmf(states, normalised(initial_weights))
    chain = MarkovChainSpec(states, [normalised(row) for row in weights], initial)
    return GeneratorSpec(kind="markov", seed=seed, chain=chain)


@st.composite
def markov_specs(draw):
    """Chains on 1..6 states whose laws may put zero mass on some states."""
    k = draw(st.integers(1, 6))

    def weights():
        return draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))

    return chain_spec([weights() for _ in range(k)], weights(), draw(st.integers(0, 2**32 - 1)))


# 40 states, about a fifth of every row and of the start law at zero mass
LARGE_CHAIN = chain_spec(
    [[0 if (3 * i + 7 * j) % 5 == 0 else (i + 2 * j) % 9 + 1 for j in range(40)] for i in range(40)],
    [0 if j % 4 == 1 else j % 6 + 1 for j in range(40)],
)


@given(markov_specs(), st.integers(1, 300), st.integers(0, 2**32 - 1))
@example(LARGE_CHAIN, 2000, 0)
@example(LARGE_CHAIN, 2000, 2**32 - 1)
@example(chain_spec([[1]], [1]), 2000, 5)
@settings(max_examples=150, deadline=None)
def test_markov_walk_equals_per_step_loop(spec, n, rep):
    path = _sample_states(spec, n, replication_rng(spec.seed, rep))
    assert np.array_equal(path, per_step_path(spec, n, replication_rng(spec.seed, rep)))


@st.composite
def generator_specs(draw):
    """Specs of every kind, with noise so that responses draw from the stream too."""
    kind = draw(st.sampled_from(("markov", "m_dependent", "iid")))
    noise = dict(noise_values=(-0.1, 0.1), noise_probs=(0.5, 0.5))
    if kind == "markov":
        return dataclasses.replace(draw(markov_specs()), **noise)
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "m_dependent":
        return GeneratorSpec(kind=kind, seed=seed, dependence_lag=draw(st.integers(1, 4)),
                             alphabet_size=draw(st.integers(2, 6)), **noise)
    weights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6).filter(any))
    law = FinitePmf(tuple(range(len(weights))), normalised(weights))
    return GeneratorSpec(kind=kind, seed=seed, law=law, **noise)


@given(generator_specs(), st.integers(1, 300), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_states_only_draw_equals_generated_index(spec, n, rep):
    # the deviation experiment draws states without responses: the same states
    states = _sample_states(spec, n, replication_rng(spec.seed, rep))
    index = generate(spec, n, rep).index
    assert states.dtype == index.dtype
    assert np.array_equal(states, index)


def per_call_draw(spec, n, replication):
    """One replication with every CDF derived again and the noise always drawn: the reference."""
    rng = replication_rng(spec.seed, replication)
    if spec.kind == "markov":
        index = per_step_path(spec, n, rng)
    elif spec.kind == "m_dependent":
        k, lag = spec.alphabet_size, spec.dependence_lag
        index = np.convolve(rng.integers(0, k, size=n + lag - 1), np.ones(lag, dtype=int), mode="valid") % k
    else:
        index = np.searchsorted(inverse_cdf(spec.law.probs), rng.random(n), side="right")
    values = np.asarray(spec.noise_values, dtype=float)
    noise = values[np.searchsorted(inverse_cdf(spec.noise_probs), rng.random(n), side="right")]
    return index, spec.phi[index] + noise


REFERENCE_SPECS = {
    "markov": chain_spec([[1, 0, 2], [3, 1, 0], [0, 2, 2]], [0, 1, 1], seed=17),
    "iid": GeneratorSpec(kind="iid", seed=18, law=FinitePmf((0, 1, 2), [0.2, 0.0, 0.8])),
    "m_dependent": GeneratorSpec(kind="m_dependent", seed=19, dependence_lag=2, alphabet_size=4),
}
NOISE_LAWS = {"one point": ((0.25,), (1.0,)), "two points": ((-0.1, 0.1), (0.3, 0.7))}


@pytest.mark.parametrize("noise", sorted(NOISE_LAWS))
@pytest.mark.parametrize("kind", sorted(REFERENCE_SPECS))
def test_generate_equals_per_call_reference(kind, noise):
    base = REFERENCE_SPECS[kind]
    values, probs = NOISE_LAWS[noise]
    phi = [0.1 * s - 0.05 for s in range(len(base.states()))]
    spec = dataclasses.replace(base, phi=phi, noise_values=values, noise_probs=probs)
    for n in (1, 2, 257):
        for rep in (0, 1, 2**32 - 1):
            index, ys = per_call_draw(spec, n, rep)
            data = generate(spec, n, rep)
            assert np.array_equal(data.index, index)
            assert data.ys.tobytes() == ys.tobytes()
            assert np.array_equal(_sample_states(spec, n, replication_rng(spec.seed, rep)), index)


def test_sampling_tables_are_not_fields():
    names = [f.name for f in dataclasses.fields(GeneratorSpec)]
    assert names == ["kind", "seed", "chain", "dependence_lag", "alphabet_size", "law", "phi",
                     "noise_values", "noise_probs", "response_bound"]
    # one state, so phi compares as one value; the two-point noise table would not
    law = FinitePmf(("a",), [1.0])
    spec = GeneratorSpec(kind="iid", seed=3, law=law, noise_values=(-0.1, 0.1), noise_probs=(0.5, 0.5))
    twin = GeneratorSpec(kind="iid", seed=3, law=law, noise_values=(-0.1, 0.1), noise_probs=(0.5, 0.5))
    assert spec == twin
    assert spec != dataclasses.replace(spec, seed=4)
    assert repr(spec) == (
        f"GeneratorSpec(kind='iid', seed=3, chain=None, dependence_lag=None, alphabet_size=None, "
        f"law={law!r}, phi={spec.phi!r}, noise_values=(-0.1, 0.1), noise_probs=(0.5, 0.5), "
        f"response_bound=None)"
    )


def test_spec_equality_compares_arrays_by_value():
    specs = [
        GeneratorSpec(kind="m_dependent", seed=1, dependence_lag=2, alphabet_size=4),
        GeneratorSpec(kind="iid", seed=1, law=FinitePmf((0, 1), [0.5, 0.5]), phi=[0.1, -0.1],
                      noise_values=(-0.1, 0.1), noise_probs=(0.5, 0.5)),
        chain_spec([[0.5, 0.5], [0.25, 0.75]], [1, 0], seed=5),
    ]
    for spec in specs:
        assert spec == dataclasses.replace(spec)
        phi = spec.phi.copy()
        phi[-1] += 0.5
        assert spec != dataclasses.replace(spec, phi=phi)
        assert spec != dataclasses.replace(spec, seed=spec.seed + 1)
    chain = specs[2].chain
    assert specs[2] != dataclasses.replace(specs[2], chain=dataclasses.replace(
        chain, transition=[[0.5, 0.5], [0.5, 0.5]]))
    assert specs[1] != dataclasses.replace(specs[1], law=FinitePmf((0, 1), [0.25, 0.75]))


def test_replaced_chain_samples_the_new_chain():
    stay = chain_spec([[1, 0], [0, 1]], [1, 0], seed=23)
    flip = MarkovChainSpec((0, 1), [[0.0, 1.0], [1.0, 0.0]], FinitePmf((0, 1), [1.0, 0.0]))
    spec = dataclasses.replace(stay, chain=flip)
    assert list(generate(stay, 6).index) == [0] * 6
    assert list(generate(spec, 6).index) == [0, 1, 0, 1, 0, 1]
    assert list(_sample_states(spec, 6, replication_rng(spec.seed, 0))) == [0, 1, 0, 1, 0, 1]
