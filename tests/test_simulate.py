import copy
import dataclasses
import itertools
import json
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betamix.blocking import m_steps_partition, union_bound_check, wilson_stderr
from betamix.bounds import BoundParams, beta_deviation_bound, weak_error_bound
from betamix.entropy import FunctionFamily, finite_family_entropy
from betamix.errors import DomainError, HypothesisViolationError, MalformedInputError, SizeError
from betamix.mixing import MixingFit, markov_beta
from betamix.pmf import CELL_CAP, FinitePmf, MarkovChainSpec
from betamix.regression import RIDGE, Dataset, _average_sq_distance, _check_responses, _fit, family_bias
from betamix import _sampling, config, regression, simulate
from betamix._sampling import (
    INVERT_COMPARE_CAP,
    STACK_DRAWS,
    _chunk_table,
    _interval_codes,
    _invert,
    _paths,
    _stack_draws,
    _stream,
    _walk_stack,
    inverse_cdf,
)
from betamix.cli import main
from betamix.simulate import GeneratorSpec, _count_means, _reach, deviation_experiment, generate, weak_error_experiment


def philox(seed, rep):
    """The stream of replication rep by its definition: Philox's with key [seed, rep]."""
    return np.random.Generator(np.random.Philox(key=[seed, rep]))


def stack_of_one(spec, n, rep, visits=None):
    """The states of replication rep, drawn as a stack of one without responses."""
    return _paths(spec, _stack_draws(spec, n, range(rep, rep + 1))[0], visits)[0]


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


@pytest.mark.parametrize("values, probs, message", [
    ((-0.1, 0.1), [[0.5], [0.5]], "noise_probs must have shape (2,), got (2, 1)"),
    ((0.1,), [[0.5, 0.5]], "noise_probs must have shape (1,), got (1, 2)"),
    ([[-0.1], [0.1]], (0.5, 0.5), "noise_values must have shape (2,), got (2, 1)"),
    ([[-0.1, 0.1]], (1.0,), "noise_values must have shape (1,), got (1, 2)"),
])
def test_spec_refuses_a_noise_law_of_another_shape(values, probs, message):
    # a nested noise law passes the law rule (its total is 1) and the length check (one row per value)
    with pytest.raises(MalformedInputError, match=re.escape(message)):
        GeneratorSpec(kind="iid", seed=0, law=FinitePmf((0, 1), [0.5, 0.5]), noise_values=values, noise_probs=probs)


def test_a_noise_entry_within_tolerance_below_zero_draws_as_zero():
    # the noise law passes the one law rule (pmf._law), which clips an entry in [-1e-12, 0) to 0 as in every
    # other law; the noise law used to refuse it
    clipped, zero = (GeneratorSpec(kind="markov", seed=3, chain=two_state_chain(), noise_values=(-0.1, 0.1),
                                   noise_probs=probs) for probs in ((-5e-13, 1.0), (0.0, 1.0)))
    for rep in range(3):
        assert generate(clipped, 200, rep).ys.tobytes() == generate(zero, 200, rep).ys.tobytes()


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


@pytest.mark.parametrize("kind", sorted(CAPPED_SPECS))
def test_marginal_laws_reject_a_negative_n(kind):
    # numpy used to raise its own ValueError on the negative dimension
    with pytest.raises(MalformedInputError, match=r"^n must be >= 0, got -1$"):
        CAPPED_SPECS[kind].marginal_laws(-1)


COIN = FinitePmf((0, 1), [0.5, 0.5])
# (call, exception type, start of its message) of each input check
INPUT_CHECKS = {
    "iid kind without a law": (lambda: GeneratorSpec(kind="iid", seed=0), MalformedInputError,
                               "iid kind requires a law"),
    "noise probs short of 1": (
        lambda: GeneratorSpec(kind="iid", seed=0, law=COIN, noise_values=(0.0, 1.0), noise_probs=(0.5, 0.25)),
        MalformedInputError, "noise_probs must be a pmf"),
    "phi of one value on two states": (
        lambda: GeneratorSpec(kind="iid", seed=0, law=COIN, phi=[0.0]), MalformedInputError,
        "phi needs one value per state, got shape (1,)"),
    "sample of length 0": (lambda: generate(GeneratorSpec(kind="iid", seed=0, law=COIN), 0), DomainError,
                           "n must be >= 1"),
}
# marginal laws of a length that is not an integer used to end in numpy's TypeError
INPUT_CHECKS.update({
    f"{kind} marginal laws of length {n!r}": (
        lambda spec=spec, n=n: spec.marginal_laws(n), MalformedInputError, f"n must be an integer, got {n!r}")
    for kind, spec in CAPPED_SPECS.items() for n in (2.5, 2.0, True)
})
# an m_dependent size that is not an integer used to end in range's or numpy's TypeError, and a lag of True
# to build a lag-1 spec
INPUT_CHECKS.update({
    f"m_dependent {field} of {value!r}": (
        lambda field=field, value=value: GeneratorSpec(
            kind="m_dependent", seed=0, **{"dependence_lag": 2, "alphabet_size": 4, field: value}),
        MalformedInputError, f"{field} must be an integer, got {value!r}")
    for field in ("dependence_lag", "alphabet_size") for value in (2.5, 3.0, True)
})


def deviation_call(**change):
    args = dict(spec=GeneratorSpec(kind="iid", seed=0, law=COIN), family=state_family([{0: 0.0, 1: 1.0}]),
                params=make_params(n=20), entropy=finite_family_entropy(1), t_grid=[0.3], replications=3)
    return deviation_experiment(**dict(args, **change))


def weak_error_call(**change):
    args = dict(spec=weak_error_spec("iid"), family=WEAK_ERROR_FAMILIES["affine span"],
                params=make_params(B=0.25, V=2, m=1), truth=[-0.1, 0.12, 0.02], n_grid=[5], replications=3)
    return weak_error_experiment(**dict(args, **change))


def union_call(replications):
    return union_bound_check(lambda rep: np.zeros((1, 6)), np.full((1, 6), 0.5), m_steps_partition(6, 2),
                             1.0, -1.0, 0.1, replications)


# a count that is not an integer: a replications of True ran one replication, one of 2.5 (or a sample
# length or grid n of 2.5) ended in numpy's TypeError or was truncated, and a string seed or replication
# ended in a TypeError from the key check
INPUT_CHECKS.update({
    "deviation replications of True": (lambda: deviation_call(replications=True), MalformedInputError,
                                       "replications must be an integer, got True"),
    "deviation replications of 2.5": (lambda: deviation_call(replications=2.5), MalformedInputError,
                                      "replications must be an integer, got 2.5"),
    "weak-error replications of 2.5": (lambda: weak_error_call(replications=2.5), MalformedInputError,
                                       "replications must be an integer, got 2.5"),
    "weak-error n_grid entry of 5.5": (lambda: weak_error_call(n_grid=[5, 5.5]), MalformedInputError,
                                       "n_grid must be an integer, got 5.5"),
    "union check replications of 2.5": (lambda: union_call(2.5), MalformedInputError,
                                        "replications must be an integer, got 2.5"),
    "sample of length 2.5": (lambda: generate(GeneratorSpec(kind="iid", seed=0, law=COIN), 2.5),
                             MalformedInputError, "n must be an integer, got 2.5"),
    "seed of '3'": (lambda: GeneratorSpec(kind="iid", seed="3", law=COIN), MalformedInputError,
                    "seed must be an integer, got '3'"),
    "replication of '3'": (lambda: generate(GeneratorSpec(kind="iid", seed=0, law=COIN), 3, "3"),
                           MalformedInputError, "replication must be an integer, got '3'"),
})


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_checks_name_the_fault(case):
    call, kind, message = INPUT_CHECKS[case]
    with pytest.raises(kind) as exc:
        call()
    assert str(exc.value).startswith(message)


# each fault that construction refuses, in the order in which it is checked, with the message it raises;
# an m_dependent spec's missing field is its lag and its size fault its alphabet, so that both can be injected at once
MISSING_FIELD = {"markov": ("chain", "markov kind requires a chain"),
                 "m_dependent": ("dependence_lag", "m_dependent kind requires dependence_lag >= 1 and alphabet_size >= 2"),
                 "iid": ("law", "iid kind requires a law")}
CONSTRUCTION_FAULTS = {
    "unknown kind": "unknown generator kind 'weird'",
    "seed": "seed must be in [0, 2**63), got -1",
    "missing field": None,  # the kind's own, from MISSING_FIELD
    "m_dependent size": f"dependence_lag and alphabet_size must be at most {CELL_CAP}, got 2 and {CELL_CAP + 1}",
    "noise not a pmf": "noise_probs must be a pmf",
    "noise lengths": "noise_values and noise_probs must have matching length",
    "non-finite noise": "noise_values must be finite",
    "phi shape": None,  # one value too many for the kind's states
    "non-finite phi": "phi must be finite",
    "response past the bound": "responses exceed the declared bound 0.05",
}


@given(st.sampled_from(sorted(CAPPED_SPECS)), st.sets(st.sampled_from(sorted(CONSTRUCTION_FAULTS))))
@settings(max_examples=300, deadline=None)
def test_construction_refuses_the_earliest_fault(kind, faults):
    spec = CAPPED_SPECS[kind]
    if kind != "m_dependent":
        faults.discard("m_dependent size")
    k = len(spec.states())
    fields = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    values, probs, phi = [-0.1, 0.1], (0.5, 0.5), [0.0] * k
    if "unknown kind" in faults:
        fields["kind"] = "weird"
    if "seed" in faults:
        fields["seed"] = -1
    if "missing field" in faults:
        fields[MISSING_FIELD[kind][0]] = None
    if "m_dependent size" in faults:
        fields["alphabet_size"] = CELL_CAP + 1
    if "noise not a pmf" in faults:
        probs = (0.5, 0.25)
    if "noise lengths" in faults:
        values.append(0.0)
    if "non-finite noise" in faults:
        values[0] = math.inf
    if "non-finite phi" in faults:
        phi[0] = math.nan
    if "phi shape" in faults:
        phi.append(0.0)
    fields.update(noise_values=tuple(values), noise_probs=probs, phi=phi,
                  response_bound=0.05 if "response past the bound" in faults else 1.0)
    messages = {**CONSTRUCTION_FAULTS, "missing field": MISSING_FIELD[kind][1],
                "phi shape": f"phi needs one value per state, got shape ({k + 1},)"}
    earliest = [messages[fault] for fault in CONSTRUCTION_FAULTS if fault in faults]
    if not earliest:
        assert GeneratorSpec(**fields).states() == spec.states()
        return
    with pytest.raises((MalformedInputError, SizeError)) as exc:
        GeneratorSpec(**fields)
    assert str(exc.value) == earliest[0]


@pytest.mark.parametrize("field", ["alphabet_size", "dependence_lag"])
def test_m_dependent_sizes_past_the_cell_cap_are_rejected_before_allocating(field):
    # 3e7 states used to build a 3e7-tuple and more before exiting 1, a lag of 1e15 to die in numpy
    for size in (CELL_CAP + 1, 10**15):
        fields = {"dependence_lag": 2, "alphabet_size": 4, field: size}
        tracemalloc.start()
        try:
            with pytest.raises(SizeError, match=f"at most {CELL_CAP}, got {fields['dependence_lag']} and "
                                                f"{fields['alphabet_size']}"):
                GeneratorSpec(kind="m_dependent", seed=0, **fields)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
    assert GeneratorSpec(kind="m_dependent", seed=0, dependence_lag=CELL_CAP, alphabet_size=2).states() == (0, 1)


def test_seed_must_lie_in_the_key_range():
    law = FinitePmf((0, 1), [0.5, 0.5])
    for seed in (-1, 2**63, 2**64, float("nan")):
        with pytest.raises(MalformedInputError, match=r"seed must be in \[0, 2\*\*63\)"):
            GeneratorSpec(kind="iid", seed=seed, law=law)
    # a bool or a fraction used to draw the streams of seed 1
    for seed in (1.5, True):
        with pytest.raises(MalformedInputError, match=f"seed must be an integer, got {seed!r}"):
            GeneratorSpec(kind="iid", seed=seed, law=law)
    # an integral float or a numpy integer is stored as the int it stands for, which the report carries
    family = state_family([{0: 0.0, 1: 1.0}])
    for seed in (0, 2**63 - 1, np.int64(7), np.uint64(3), 2.0):
        spec = GeneratorSpec(kind="iid", seed=seed, law=law)
        assert type(spec.seed) is int and spec.seed == seed
        assert generate(spec, 3).index.shape == (3,)
        report = deviation_experiment(spec, family, make_params(n=3), finite_family_entropy(1), [0.5], 1)
        assert type(report.metadata["seed"]) is int and report.metadata["seed"] == seed


def test_replication_must_lie_in_the_key_range():
    law = FinitePmf((0, 1), [0.5, 0.5])
    spec = GeneratorSpec(kind="iid", seed=3, law=law)
    # outside the key range numpy raised OverflowError
    for rep in (-1, 2**64):
        with pytest.raises(MalformedInputError, match=rf"^replication must be in \[0, 2\*\*63\), got {rep}$"):
            generate(spec, 3, rep)
    # 1.5 raised a TypeError, and True ran as replication 1
    for rep in (1.5, True):
        with pytest.raises(MalformedInputError, match=f"^replication must be an integer, got {rep!r}$"):
            generate(spec, 3, rep)
    for rep in (0, 2**63 - 1, np.int64(7), 2.0):
        expected = np.searchsorted(inverse_cdf(law.probs), philox(3, int(rep)).random(3), side="right")
        assert generate(spec, 3, rep).index.tolist() == expected.tolist()


def test_states_are_resolved_once():
    for spec in (GeneratorSpec(kind="markov", seed=1, chain=two_state_chain()),
                 GeneratorSpec(kind="m_dependent", seed=1, dependence_lag=2, alphabet_size=5),
                 GeneratorSpec(kind="iid", seed=1, law=FinitePmf((0, 1), [0.5, 0.5]))):
        assert spec.states() is spec.states()
        assert generate(spec, 4).states is spec.states()


def test_generator_determinism():
    spec = GeneratorSpec(kind="markov", seed=42, chain=two_state_chain())
    a = generate(spec, 50, replication=3)
    b = generate(spec, 50, replication=3)
    assert a.xs == b.xs
    assert np.array_equal(a.ys, b.ys)
    c = generate(spec, 50, replication=4)
    assert a.xs != c.xs


def test_replication_streams_are_independent_of_order():
    # each call re-keys the thread's one Philox, whatever the call before left buffered: words
    # mid-block (101 words), or half of a 64-bit word as well (3 int32 draws of a Generator on it)
    r1 = _stream(7, 0).random_raw(5)
    assert np.array_equal(r1, philox(7, 0).bit_generator.random_raw(5))
    _stream(7, 99).random_raw(101)
    assert np.array_equal(_stream(7, 0).random_raw(5), r1)
    np.random.Generator(_stream(7, 98)).integers(0, 5, size=3, dtype=np.int32)
    # no half is left buffered for a 32-bit draw from the re-keyed stream
    ints = np.random.Generator(_stream(7, 0)).integers(0, 5, size=3, dtype=np.int32)
    assert np.array_equal(ints, philox(7, 0).integers(0, 5, size=3, dtype=np.int32))


# The first five words of Philox4x64-10 keyed [seed, rep] (Salmon et al., SC 2011), from counter 1 as numpy
# starts it: the round function's own values, which numpy guarantees and every draw maps, so that a change
# in numpy's stream fails here by name.
PHILOX_WORDS = {
    (0, 0): (0x02F4BA6408E4D89B, 0x3DD62B0B9CA8C5B2, 0x1C8667A55D902E79, 0x907D7A052FD5B4DC, 0x809BF322883987C3),
    (2**63 - 1, 0): (0xED01AB40F6E3C032, 0x2E7B634ED9DE606D, 0x9E879E5FC056D40D, 0x7C88D0264F51764D,
                     0xE341E7D9887DFE44),
    (5, 2**32 - 1): (0x790E75CCEF1353F5, 0x6EA274AAA1DC7A6D, 0x3BA11EDFB88B800D, 0x21EFCDC097C914DB,
                     0x532EC79394F3F09B),
    (2**63 - 1, 2**63 - 1): (0x0E1F0BFE034BF1A8, 0xB81BAD1220DB6039, 0x1588FCE52D71C3B9, 0x193B3E9AD4B23B92,
                             0x8797DCE41883E8E1),
}


@pytest.mark.parametrize("key", sorted(PHILOX_WORDS))
def test_stream_raw_words_are_pinned(key):
    # five words cross the first four-word block, and each key follows another, so that every call re-keys
    _stream(3, 3).random_raw(3)
    assert tuple(_stream(*key).random_raw(5).tolist()) == PHILOX_WORDS[key]


def test_markov_marginals_attached_exactly():
    chain = MarkovChainSpec(
        (0, 1), [[0.9, 0.1], [0.3, 0.7]], FinitePmf((0, 1), [1.0, 0.0])
    )
    spec = GeneratorSpec(kind="markov", seed=0, chain=chain)
    assert np.allclose(spec.marginal_laws(10), chain.marginal_matrix(10))


@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_marginal_laws_keep_their_bits(n):
    # each kind's laws equal, bit for bit, the array that defines them
    chain = MarkovChainSpec((0, 1, 2), [[0.1, 0.6, 0.3], [0.7, 0.2, 0.1], [0.3, 0.3, 0.4]],
                            FinitePmf((0, 1, 2), [1.0, 0.0, 0.0]))
    law = FinitePmf((0, 1, 2), [0.1, 0.2, 0.7])
    assert np.array_equal(GeneratorSpec(kind="markov", seed=0, chain=chain).marginal_laws(n), chain.marginal_matrix(n))
    assert np.array_equal(GeneratorSpec(kind="iid", seed=0, law=law).marginal_laws(n), np.tile(law.probs, (n, 1)))
    for k in (3, 7):
        spec = GeneratorSpec(kind="m_dependent", seed=0, dependence_lag=2, alphabet_size=k)
        assert np.array_equal(spec.marginal_laws(n), np.full((n, k), 1 / k))


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
    assert spec.beta_at(2, 1000) == 0.0
    assert spec.beta_at(5, 1000) == 0.0
    assert spec.beta_at(1, 1000) == 1.0


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
    assert spec.beta_at(1, 5000) == 0.0
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


def test_draws_near_one_stay_on_the_alphabet():
    # masses short of 1 by less than the tolerance; a draw above their total
    # maps to the last state of positive mass
    short = [0.2, 0.3, 0.5 - 5e-13]
    u = 1.0 - 1e-13
    draws = np.full((1, 3), u)
    law = FinitePmf((0, 1, 2), short)
    assert _paths(GeneratorSpec(kind="iid", seed=0, law=law), draws, None).tolist() == [[2, 2, 2]]
    chain = MarkovChainSpec((0, 1, 2), [short, short, [0.5, 0.5 - 5e-13, 0.0]], law)
    spec = GeneratorSpec(kind="markov", seed=0, chain=chain)
    # walked alone and as a stack
    for visits in (None, _chunk_table(spec, 3)):
        assert _paths(spec, draws, visits).tolist() == [[2, 1, 2]]
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


def uniforms(spec, n, reps):
    """The draws of the replications ``reps`` that a path of length n reads, one row each."""
    return np.stack([philox(spec.seed, rep).random(n) for rep in reps])


def breakpoints(spec):
    """The sorted CDF breakpoints below 1 of every transition row: the intervals' edges."""
    return np.array(sorted({x for row in inverse_cdf(spec.chain.transition) for x in row if x < 1.0}))


def chunk_steps(spec):
    """The d of a chain with at least two intervals, for n past it: the most steps whose
    visit table of I**d * k * d cells fits the cap."""
    intervals, k = len(breakpoints(spec)) + 1, len(spec.states())
    return max(d for d in range(1, 16) if intervals ** d * k * d <= STACK_DRAWS)


# breakpoints 1/4, 2/5 and 4/5 with three states: 4 intervals, chunks of 5 steps
CHUNKED_CHAIN = chain_spec([[1, 3, 0], [2, 0, 3], [4, 1, 0]], [1, 1, 1], seed=17)
# breakpoints .26, .27 and .28, none of them dyadic, in two of the 64 cells that 4 intervals get:
# .27 and .28 split the same cell
CELL_CHAIN = chain_spec([[26, 74, 0], [27, 0, 73], [28, 72, 0]], [1, 1, 1], seed=22)
# every breakpoint lies strictly inside [19/64, 39/128), one of the 128 cells that 11 intervals get:
# the one split cell, holding ten breakpoints
ONE_CELL_CHAIN = chain_spec(
    [[3000, 1, 2, 6997], [3001, 3, 1, 6995], [2990, 4, 1, 7005], [2995, 1, 1, 7003]], [1, 2, 3, 4], seed=18
)
# 16 states that stay put with probability about .999: their breakpoints crowd the cells at 0 and 1
LAZY_CHAIN = chain_spec([[45000 if i == j else (7 * i + 3 * j) % 5 + 1 for j in range(16)] for i in range(16)],
                        [1] * 16, seed=21)
# 20 states with every weight nonzero: hundreds of intervals, so d = 1
DENSE_CHAIN = chain_spec([[(3 * i + 7 * j) % 11 + 1 for j in range(20)] for i in range(20)], [1] * 20, seed=19)
ONE_STATE_CHAIN = chain_spec([[1]], [1])
D = chunk_steps(CHUNKED_CHAIN)


@given(markov_specs(), st.integers(1, 300), st.integers(0, 2**32 - 1))
@example(LARGE_CHAIN, 2000, 0)
@example(LARGE_CHAIN, 2000, 2**32 - 1)
@example(LARGE_CHAIN, 1, 3)
@example(LARGE_CHAIN, 2, 3)
@example(ONE_STATE_CHAIN, 2000, 5)
@example(ONE_STATE_CHAIN, 2, 5)
@example(CHUNKED_CHAIN, 2000, 0)
@example(CHUNKED_CHAIN, 1, 4)
@example(CHUNKED_CHAIN, 2, 4)
@example(CELL_CHAIN, 1000, 3)
@example(ONE_CELL_CHAIN, 1000, 3)
@example(ONE_CELL_CHAIN, 2, 3)
@example(LAZY_CHAIN, 1000, 3)
@example(DENSE_CHAIN, 1000, 7)
@example(DENSE_CHAIN, 1, 7)
@example(DENSE_CHAIN, 2, 7)
@settings(max_examples=150, deadline=None)
def test_markov_walk_equals_per_step_loop(spec, n, rep):
    # a lone path walks through the step table where the chain has one, and by bisection of its rows where
    # it has none: each walk is run with the other's table hidden from it
    assert (spec._steps is None) == (spec is LARGE_CHAIN)
    lone = copy.copy(spec)
    vars(lone)["_steps" if spec._steps is None else "_row_cdfs"] = None
    reference = per_step_path(spec, n, philox(spec.seed, rep))
    assert np.array_equal(stack_of_one(lone, n, rep), reference)
    assert np.array_equal(stack_of_one(spec, n, rep), reference)


@given(markov_specs(), st.sampled_from([1, 2, 3, 17, 2000]), st.integers(0, 2**32 - 40), st.integers(1, 40))
@example(ONE_STATE_CHAIN, 2000, 5, 3)
@example(CHUNKED_CHAIN, D, 5, 33)
@example(CHUNKED_CHAIN, D + 1, 5, 33)
@example(CHUNKED_CHAIN, 2 * D + 1, 2**32 - 40, 40)
@example(CHUNKED_CHAIN, 2000, 0, 16)
@example(CELL_CHAIN, 17, 3, 40)
@example(CELL_CHAIN, 1000, 3, 32)
@example(ONE_CELL_CHAIN, 1000, 3, 32)
@example(LAZY_CHAIN, 1000, 3, 32)
@example(DENSE_CHAIN, 2, 7, 40)
@example(DENSE_CHAIN, 1000, 7, 32)
@settings(max_examples=60, deadline=None)
def test_stacked_walk_equals_per_step_loop(spec, n, first, count):
    reps = range(first, first + count)
    assert spec._steps is not None
    visits = _chunk_table(spec, n)
    # d is the longest chunk, up to n - 1 steps, whose table fits the cap
    intervals, k, d = len(breakpoints(spec)) + 1, len(spec.states()), visits.shape[1]
    assert visits.shape == (intervals ** d * k, d)
    assert d * intervals ** d * k <= STACK_DRAWS
    assert d == max(1, n - 1) or (d < n - 1 and (d + 1) * intervals ** (d + 1) * k > STACK_DRAWS)
    paths = _walk_stack(spec, visits, uniforms(spec, n, reps))
    assert paths.shape == (count, n)
    for path, rep in zip(paths, reps):
        assert np.array_equal(path, per_step_path(spec, n, philox(spec.seed, rep)))


def cell_size(spec):
    """The number of dyadic cells of [0, 1) that the chain's intervals get: the power of two in (8I, 16I]."""
    return 2 ** ((len(breakpoints(spec)) + 1).bit_length() + 3)


def test_example_chains_have_the_shapes_they_stand_for():
    assert D == 5 and chunk_steps(CELL_CHAIN) == 5 and chunk_steps(DENSE_CHAIN) == 1
    # breakpoints, split cells and the most breakpoints in one split cell
    for spec, count, split, crowd in [(CHUNKED_CHAIN, 3, 2, 1), (CELL_CHAIN, 3, 2, 2), (ONE_CELL_CHAIN, 10, 1, 10),
                                      (LAZY_CHAIN, 156, 6, 54), (DENSE_CHAIN, 209, 194, 2)]:
        edges, size = breakpoints(spec), cell_size(spec)
        _, lut, _, _ = spec._steps
        assert len(edges) == count and lut.size == size
        scaled = edges * size
        cells = np.floor(scaled[scaled != np.floor(scaled)]).astype(np.intp)  # where non-dyadic breakpoints fall
        assert np.array_equal(np.flatnonzero(lut == -1), np.unique(cells))
        assert np.count_nonzero(lut == -1) == split and np.bincount(cells).max() == crowd
        assert 8 * split <= size
        # every other cell holds the one interval of its draws
        whole = np.flatnonzero(lut >= 0)
        assert np.array_equal(lut[whole], np.searchsorted(edges, whole / size, side="right"))
    # CHUNKED_CHAIN's 1/4 is dyadic: a cell's low end, which splits no cell
    assert 0.25 in breakpoints(CHUNKED_CHAIN)


# zero mass on the first state of a row: its breakpoint is 0.0
ZERO_FIRST_CHAIN = chain_spec([[0, 1, 1], [1, 0, 3], [0, 2, 1]], [0, 1, 1], seed=20)


def assert_codes_on_adversarial_draws(spec):
    """The interval codes equal searchsorted on 0, 1 - 2**-53, every breakpoint and every cell's low end,
    each also one ulp either side."""
    edges, lut, _, _ = spec._steps
    assert np.array_equal(edges, breakpoints(spec))
    size = cell_size(spec)
    assert lut.size == size
    boundaries = np.arange(size + 1) / size
    near = np.concatenate([edges, boundaries])
    draws = np.concatenate([[0.0, 1.0 - 2.0**-53], near, np.nextafter(near, -1.0), np.nextafter(near, 2.0)])
    draws = draws[(0.0 <= draws) & (draws < 1.0)]  # a draw lies in [0, 1)
    codes = _interval_codes(edges, lut, draws)
    assert np.array_equal(codes, np.searchsorted(edges, draws, side="right"))


@pytest.mark.parametrize("spec", [CHUNKED_CHAIN, CELL_CHAIN, ONE_CELL_CHAIN, LAZY_CHAIN, DENSE_CHAIN,
                                  ZERO_FIRST_CHAIN, chain_spec([[1, 1], [1, 3]], [1, 1]), ONE_STATE_CHAIN])
def test_interval_codes_equal_searchsorted_on_adversarial_draws(spec):
    assert 0.0 in breakpoints(spec) or spec is not ZERO_FIRST_CHAIN
    assert_codes_on_adversarial_draws(spec)


@given(markov_specs())
@settings(max_examples=100, deadline=None)
def test_interval_codes_equal_searchsorted_on_random_chains(spec):
    # which cells are split, and so which draws are searched, depends on the chain
    assert_codes_on_adversarial_draws(spec)


@pytest.mark.parametrize("seed", [0, 2**63 - 1])
@pytest.mark.parametrize("reps", [range(0, 3), range(2**32 - 3, 2**32)])
@pytest.mark.parametrize("n", [1, 5, 8, 1001])
def test_stacked_uniforms_equal_the_replication_streams(seed, reps, n):
    # an i.i.d. stack draws n uniforms per row for its states, then n for its noise
    spec = GeneratorSpec(kind="iid", seed=seed, law=FinitePmf((0, 1), [0.5, 0.5]))
    U, noise = _stack_draws(spec, n, reps, True)
    assert U.shape == noise.shape == (len(reps), n)
    assert np.array_equal(U, _stack_draws(spec, n, reps)[0])
    assert _stack_draws(spec, n, reps)[1] is None
    for row, noise_row, rep in zip(U, noise, reps, strict=True):
        rng = philox(seed, rep)
        assert np.array_equal(row, rng.random(n))
        assert np.array_equal(noise_row, rng.random(n))
    # 2n draws for n = 1, 5 or 1001 leave the next row's key set mid-buffer: 4 draws per Philox block
    assert (rng.bit_generator.state["buffer_pos"] == 4) == (2 * n % 4 == 0)


def assert_window_seeds_equal_the_replication_streams(spec, n, reps, noise):
    """An m_dependent stack against each stream drawn by ``Generator.integers`` and then ``random``."""
    width = n + spec.dependence_lag - 1
    seeds, u = _stack_draws(spec, n, reps, noise)
    assert seeds.dtype == np.int64 and seeds.shape == (len(reps), width)
    assert (u is None) != noise
    for row, rep in enumerate(reps):
        rng = philox(spec.seed, rep)
        assert np.array_equal(seeds[row], rng.integers(0, spec.alphabet_size, size=width))
        if noise:
            assert u[row].tobytes() == rng.random(n).tobytes()


def rejected_halves(spec, n, reps):
    """How many of the stack's first 32-bit halves Lemire's method would reject (the seeds' own halves)."""
    k, width = spec.alphabet_size, n + spec.dependence_lag - 1
    count = 0
    for rep in reps:
        words = philox(spec.seed, rep).bit_generator.random_raw(-(-width // 2)).tolist()
        halves = [half for word in words for half in (word & 0xFFFFFFFF, word >> 32)][:width]
        count += sum((half * k) % 2**32 < (2**32 - k) % k for half in halves)
    return count


@pytest.mark.parametrize("noise", [False, True])
@pytest.mark.parametrize("lag", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 4, 7, 1000, 999983, 10**6])
def test_m_dependent_stack_equals_the_replication_streams(k, lag, noise):
    # the stack maps each stream's raw words: n + lag - 1 seeds take ceil((n + lag - 1) / 2) words,
    # and the noise starts at the next word whether the last word's high half was used or not
    spec = GeneratorSpec(kind="m_dependent", seed=2**63 - 1 - k, dependence_lag=lag, alphabet_size=k)
    for n, first in [(1, 0), (2, 5), (10, 2**32 - 3), (11, 2**63 - 4), (300, 40)]:
        assert_window_seeds_equal_the_replication_streams(spec, n, range(first, first + 3), noise)


@pytest.mark.parametrize("noise", [False, True])
@pytest.mark.parametrize("k, n", [(999983, 30000), (10**6, 2000)])
def test_m_dependent_stack_with_a_rejected_seed_equals_the_replication_streams(k, n, noise):
    # k = 999983 rejects about one half in 1.1e5, and 10**6 one in 4440: these stacks hold a rejection,
    # after which numpy reads one more half for that seed, so the stack is drawn again row by row
    spec = GeneratorSpec(kind="m_dependent", seed=10, dependence_lag=2, alphabet_size=k)
    reps = range(4)
    assert rejected_halves(spec, n, reps) > 0
    assert_window_seeds_equal_the_replication_streams(spec, n, reps, noise)


@pytest.mark.parametrize("noise", [False, True])
@pytest.mark.parametrize("rep", [7272, 12237])
def test_m_dependent_row_read_past_its_first_words_equals_the_replication_streams(rep, noise):
    # 2000 seeds (lag 1) leave no spare high half, so a rejected half costs its row another word and moves the
    # start of its noise: one word in replication 7272, two in 12237, where a half read to replace one is rejected
    spec = GeneratorSpec(kind="m_dependent", seed=10, dependence_lag=1, alphabet_size=10**6)
    assert rejected_halves(spec, 2000, [rep]) > 0
    assert_window_seeds_equal_the_replication_streams(spec, 2000, range(rep - 1, rep + 2), noise)


@pytest.mark.parametrize("probs", [
    [1.0], [0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [0.3, 0.0, 0.7], [0.25, 0.25, 0.5, 0.0],
    # above INVERT_COMPARE_CAP: binary search
    [0.2, 0.0, 0.3, 0.0, 0.5], [0.1] * 10, [0.0, 0.0, 0.5, 0.0, 0.5, 0.0, 0.0], [1 / 3] * 3 + [0.0] * 3,
])
def test_invert_equals_searchsorted(probs):
    cdf = inverse_cdf(probs)
    assert (len(cdf) <= INVERT_COMPARE_CAP) == (len(probs) <= 4)
    edges = cdf[cdf < 1.0]
    # every breakpoint below 1.0 and its neighbours, both ends of [0, 1) and uniforms
    u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0), [0.0, np.nextafter(1.0, 0.0)],
                        np.random.default_rng(len(probs)).random(200)])
    u = u[(u >= 0.0) & (u < 1.0)].reshape(1, -1)
    expected = np.searchsorted(cdf, u, side="right")
    for table in (cdf, tuple(cdf.tolist())):  # noise tables are arrays, first-draw tables tuples
        index = _invert(table, u)
        assert index.dtype == expected.dtype and index.shape == u.shape
        assert np.array_equal(index, expected)


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
    states = stack_of_one(spec, n, rep, _chunk_table(spec, n))
    index = generate(spec, n, rep).index
    assert states.dtype == index.dtype
    assert np.array_equal(states, index)
    assert np.array_equal(states, per_call_draw(spec, n, rep)[0])


@given(generator_specs(), st.sampled_from([1, 2, 3, 17, 300]), st.integers(0, 2**32 - 40), st.integers(1, 40))
# a step table above the cap: each path is walked alone
@example(LARGE_CHAIN, 1, 14, 17)
@example(LARGE_CHAIN, 2, 14, 17)
@example(LARGE_CHAIN, 3, 14, 17)
@example(LARGE_CHAIN, 17, 14, 17)
@example(LARGE_CHAIN, 2000, 14, 17)
@example(ONE_STATE_CHAIN, 300, 2**32 - 40, 40)
@example(CHUNKED_CHAIN, D, 5, 33)
@example(CHUNKED_CHAIN, D + 1, 5, 33)
@example(CHUNKED_CHAIN, 2 * D + 1, 5, 33)
@example(CELL_CHAIN, 300, 3, 40)
@example(ONE_CELL_CHAIN, 300, 3, 40)
@example(LAZY_CHAIN, 300, 3, 40)
@example(DENSE_CHAIN, 300, 7, 40)
@settings(max_examples=60, deadline=None)
def test_stacked_states_equal_one_replication_at_a_time(spec, n, first, count):
    reps = range(first, first + count)
    states = _paths(spec, _stack_draws(spec, n, reps)[0], _chunk_table(spec, n))
    assert states.shape == (count, n)
    for row, rep in zip(states, reps):
        assert np.array_equal(row, per_call_draw(spec, n, rep)[0])


def per_replication_stats(spec, family, params, replications):
    """The deviation statistic one replication at a time, paths by ``per_call_draw``: the reference."""
    n, eps = params.n, params.epsilon
    table = family.table
    avg = (spec.marginal_laws(n) @ table.T).mean(axis=0)
    stats = []
    for rep in range(replications):
        index = per_call_draw(spec, n, rep)[0]
        emp = sum(count * table[:, s] for s, count in enumerate(np.bincount(index, minlength=table.shape[1]))) / n
        stats.append(((1.0 - eps) * emp - (1.0 + eps) * avg).max())
    return stats


SIGNED_FAMILY_SPECS = {
    "markov": chain_spec([[1, 0, 2], [3, 1, 0], [0, 2, 2]], [0, 1, 1], seed=31),
    "markov above the step-table cap": dataclasses.replace(LARGE_CHAIN, seed=32),
    "iid": GeneratorSpec(kind="iid", seed=33, law=FinitePmf((0, 1, 2), [0.2, 0.0, 0.8])),
    "m_dependent": GeneratorSpec(kind="m_dependent", seed=34, dependence_lag=2, alphabet_size=3),
}


@pytest.mark.parametrize("members", [1, 4])
@pytest.mark.parametrize("n, replications", [(17, 5), (1000, 45), (2000, 33)])
@pytest.mark.parametrize("kind", sorted(SIGNED_FAMILY_SPECS))
def test_deviation_experiment_equals_per_replication_loop(kind, n, replications, members):
    # each mean adds count * value one state at a time, whatever the stack around its path
    spec = SIGNED_FAMILY_SPECS[kind]
    if kind.startswith("markov"):
        # about 40 * 39 breakpoints put LARGE_CHAIN's 40-state table above the cap
        assert (spec._steps is None) == kind.endswith("cap")
    k = len(spec.states())
    # members centred under the sample's laws, so that about half the statistics are nonnegative
    raw = np.array([[np.sin(3.0 * j + s) for s in range(k)] for j in range(members)])
    family = FunctionFamily(spec.states(), table=raw - (spec.marginal_laws(n) @ raw.T).mean(axis=0)[:, None])
    params = make_params(epsilon=0.1, n=n, m=2)
    entropy = finite_family_entropy(members)
    stats = per_replication_stats(spec, family, params, replications)
    # every nonnegative statistic is a threshold: a statistic one ulp off moves a frequency
    t_grid = sorted(stat for stat in stats if stat >= 0.0) + [0.0]
    assert len(t_grid) > 1
    assert replications > max(1, STACK_DRAWS // n) or n == 17
    beta = spec.beta_at(2, n)
    report = deviation_experiment(spec, family, params, entropy, t_grid, replications)
    for row, t in zip(report.rows, t_grid, strict=True):
        hits = sum(stat >= t for stat in stats)
        freq, se = hits / replications, wilson_stderr(hits, replications)
        bound = beta_deviation_bound(params, entropy, t, beta_at_m=beta)
        assert row == {"n": n, "m": 2, "t": t, "frequency": freq, "stderr": se, "bound": bound,
                       "dominant": bound >= 1.0 or freq + 3.0 * se <= bound, "vacuous": bound >= 1.0}
    assert report.metadata == {"seed": spec.seed, "replications": replications, "beta_at_m": beta, "kind": spec.kind}


def per_state_count_means(states, table):
    """Each member's mean over each path, one column step over the stack per state that a path visits:
    the reference."""
    (paths, n), k = states.shape, table.shape[1]
    counts = np.array([np.bincount(path, minlength=k) for path in states])
    total = np.zeros((paths, len(table)))
    for s in np.unique(states):
        total += counts[:, s, None] * table[:, s]
    return total / n


@given(st.sampled_from([1, 2, 3, 40, 5000, 10**5]), st.integers(1, 300), st.integers(1, 12), st.integers(0, 2**32 - 1))
@example(5000, 100, 6, 0)
@example(10**5, 10, 1, 0)
@settings(max_examples=100, deadline=None)
def test_count_means_equal_the_per_state_sums(k, n, paths, seed):
    # bincount up to k = n and sorted runs above it: both add each path's visited states in state order;
    # a state that another path visits adds +0.0 or -0.0 in the reference, which leaves every total as it is
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((3, k)) * 10.0 ** rng.integers(-3, 4, size=(3, 1))
    table[rng.random(table.shape) < 0.2] = -0.0
    states = rng.integers(0, k, size=(paths, n)) if k > 40 else rng.choice(k, size=(paths, n), p=rng.dirichlet(np.full(k, 0.3)))
    means = _count_means(states, table)
    assert means.shape == (paths, 3)
    assert means.tobytes(order="C") == per_state_count_means(states, table).tobytes()


@given(st.integers(1, 40), st.integers(1, 3000), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_count_means_stay_within_rounding_of_the_n_term_mean(k, n, seed):
    # The counts mean rounds k products, k - 1 sums and one division: (k + 1) u max|f| at most.
    # numpy's mean of one member's n values sums runs of at most 128 terms in 8 partial sums of
    # at most 16 terms plus up to 7 terms one by one, halves longer runs and divides once:
    # (log2 n + 26) u max|f| at most.  u is the unit roundoff, eps / 2.
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((3, k)) * 10.0 ** rng.integers(-3, 4, size=(3, 1))
    states = rng.choice(k, size=(4, n), p=rng.dirichlet(np.full(k, 0.3)))
    gap = (math.log2(n) + k + 27) * np.finfo(float).eps / 2 * np.abs(table).max(axis=1)
    for path, means in zip(states, _count_means(states, table), strict=True):
        direct = np.array([values[path].mean() for values in table])
        assert (np.abs(means - direct) <= gap).all()


def test_reach_covers_a_counts_mean_rounded_above_the_largest_value():
    # Every path of a one-state run visits 0.1 three times: fl(0.1 * 3) / 3 = 0.10000000000000002, above
    # the largest value, so the statistic passes a * max f - fl(b * avg), the reach without its margin.
    spec = GeneratorSpec(kind="iid", seed=0, law=FinitePmf((0, 1), [0.5, 0.5]))
    family = state_family([{0: 0.0, 1: 0.1}])
    params = make_params(epsilon=0.1, n=3)
    avg = (spec.marginal_laws(3) @ family.table.T).mean(axis=0)
    stats = per_replication_stats(spec, family, params, 400)
    t = max(stats)
    assert (1.0 - 0.1) * 0.1 - (1.0 + 0.1) * avg[0] < t
    hits = sum(stat >= t for stat in stats)
    assert hits > 0
    report = deviation_experiment(spec, family, params, finite_family_entropy(1), [t], 400)
    assert report.rows[0]["frequency"] == hits / 400
    assert t <= _reach(family.table, 1.0 - 0.1, (1.0 + 0.1) * avg, 3)[0]


@given(markov_specs(), st.integers(1, 300), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.integers(0, 2**32 - 1))
@example(chain_spec([[1]], [1]), 3, 0.1, 0)
@example(chain_spec([[1]], [1]), 300, 0.9, 1)
@settings(max_examples=60, deadline=None)
def test_every_statistic_lies_below_the_reach(spec, n, epsilon, seed):
    # signed members over decades with -0.0 entries, and decimal fractions, whose counts means round;
    # one member at a time, so that each statistic meets its own member's reach
    rng = np.random.default_rng(seed)
    k = len(spec.states())
    table = rng.standard_normal((3, k)) * 10.0 ** rng.integers(-3, 4, size=(3, 1))
    table[rng.random(table.shape) < 0.3] = 0.1
    table[rng.random(table.shape) < 0.2] = -0.0
    params = make_params(epsilon=epsilon, n=n)
    for row in table:
        family = FunctionFamily(spec.states(), table=[row])
        avg = (spec.marginal_laws(n) @ family.table.T).mean(axis=0)
        reach = _reach(family.table, 1.0 - epsilon, (1.0 + epsilon) * avg, n)
        assert max(per_replication_stats(spec, family, params, 10)) <= reach[0]


def test_reach_is_infinite_where_a_counts_sum_can_overflow():
    # a path that starts at state 1 stays there: its sum 400 * 1e306 is inf, and so is its statistic, while
    # (1 - eps) * max f - (1 + eps) * avg is 5e305 - 3e305, from an average mean of 2e305
    spec = chain_spec([[1, 0], [0, 1]], [4, 1], seed=3)
    family = state_family([{0: 0.0, 1: 1e306}])
    params = make_params(epsilon=0.5, n=400)
    avg = (spec.marginal_laws(400) @ family.table.T).mean(axis=0)
    with np.errstate(over="ignore"):
        stats = per_replication_stats(spec, family, params, 20)
        report = deviation_experiment(spec, family, params, finite_family_entropy(1), [1e306], 20)
    assert report.rows[0]["frequency"] == sum(stat >= 1e306 for stat in stats) / 20 > 0.0
    assert _reach(family.table, 1.0 - 0.5, (1.0 + 0.5) * avg, 400)[0] == math.inf


def test_unreachable_grid_draws_nothing(monkeypatch):
    # criterion 7's shape: with eps = 0.9 and members in [0, 1] of average 0.5 no statistic passes
    # 0.1 - 0.95 = -0.85, so every frequency is 0 by proof, for any number of replications
    spec = chain_spec([[3, 1], [1, 3]], [1, 1], seed=5)
    family = state_family([{0: 0.0, 1: 1.0}, {0: 1.0, 1: 0.0}])
    params = make_params(epsilon=0.9, n=200, m=2)
    entropy = finite_family_entropy(2)
    t_grid = [0.9, 1.2]
    assert max(per_replication_stats(spec, family, params, 45)) < -0.8

    def refuse(*args):
        raise AssertionError("a grid that no statistic reaches was sampled")

    monkeypatch.setattr(_sampling, "draw", refuse)
    beta = spec.beta_at(2, 200)
    for replications in (45, 2**63):
        report = deviation_experiment(spec, family, params, entropy, t_grid, replications)
        se = wilson_stderr(0, replications)
        bounds = [beta_deviation_bound(params, entropy, t, beta_at_m=beta) for t in t_grid]
        # every row is proven, so every row is dominant, whatever its bound
        assert report.rows == tuple(
            {"n": 200, "m": 2, "t": t, "frequency": 0.0, "stderr": se, "bound": bound,
             "dominant": True, "vacuous": bound >= 1.0}
            for t, bound in zip(t_grid, bounds, strict=True))
        assert report.metadata == {"seed": 5, "replications": replications, "beta_at_m": beta, "kind": "markov"}


# criterion 7's shape at n = 2000: no statistic passes 0.1 - 0.95 = -0.85, below t = 1.2, and the bound,
# 5.0e-4, lies below the resolution 3 * stderr = 6.3e-3 that 1000 replications give at frequency 0
PROVEN_ROW_DOC = {
    "experiment": "deviation",
    "generator": {"kind": "markov", "seed": 7,
                  "chain": {"states": [0, 1], "transition": [[0.75, 0.25], [0.25, 0.75]], "initial": [0.5, 0.5]}},
    "family": {"kind": "state_table",
               "tables": [{"0": 0.0, "1": 1.0}, {"0": 1.0, "1": 0.0}, {"0": 0.5, "1": 0.5}]},
    "params": {"epsilon": 0.9, "c": 4.0, "gamma": 2.0, "gamma_prime": 2.0, "lambda": 1.5, "B": 1.0, "V": 1,
               "n": 2000, "m": 22},
    "entropy_spec": {"entropy": "finite", "n_members": 3},
    "t_grid": [1.2],
    "replications": 1000,
}


def test_verify_exits_zero_on_a_row_that_the_reach_proves(tmp_path, capsys):
    # the library has proved the event impossible, so the row is not reported as violated
    path = tmp_path / "proven.json"
    path.write_text(json.dumps(PROVEN_ROW_DOC))
    code = main(["verify", str(path)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    [row] = json.loads(out)["rows"]
    assert row["frequency"] == 0.0 and row["dominant"] and not row["vacuous"]


def test_a_row_that_the_reach_proves_is_dominant_without_a_draw(monkeypatch):
    spec = chain_spec([[3, 1], [1, 3]], [1, 1], seed=7)
    family = state_family([{0: 0.0, 1: 1.0}, {0: 1.0, 1: 0.0}, {0: 0.5, 1: 0.5}])
    params = make_params(epsilon=0.9, c=4.0, n=2000, m=22)
    entropy = finite_family_entropy(3)

    def refuse(*args):
        raise AssertionError("a grid that no statistic reaches was sampled")

    monkeypatch.setattr(_sampling, "draw", refuse)
    report = deviation_experiment(spec, family, params, entropy, [1.2], 1000)
    se, bound = wilson_stderr(0, 1000), beta_deviation_bound(params, entropy, 1.2, beta_at_m=spec.beta_at(22, 2000))
    assert 3.0 * se > bound  # the confidence rule alone would call it violated
    assert report.rows == ({"n": 2000, "m": 22, "t": 1.2, "frequency": 0.0, "stderr": se, "bound": bound,
                            "dominant": True, "vacuous": False},)
    assert report.all_dominant


def test_a_grid_partly_past_the_reach_draws_and_judges_its_proven_rows_by_the_reach(monkeypatch):
    # members in [0, 1] with eps = 0.1: the indicator's statistic reaches 0.9 - 0.55 = 0.35 at most, so
    # t = 0.2 is drawn and t = 2.5 is proven; past the deviation cap 2B its bound is 0, below 3 * stderr
    spec = chain_spec([[3, 1], [1, 3]], [1, 1], seed=8)
    family = state_family([{0: 0.0, 1: 1.0}, {0: 1.0, 1: 0.0}, {0: 0.5, 1: 0.5}])
    params = make_params(epsilon=0.1, n=20, m=2)
    entropy = finite_family_entropy(3)
    draw, draws = _sampling.draw, []

    def counted(*args):
        draws.append(args)
        return draw(*args)

    monkeypatch.setattr(_sampling, "draw", counted)
    report = deviation_experiment(spec, family, params, entropy, [0.2, 2.5], 400)
    assert len(draws) == 1
    drawn, proven = report.rows
    stats = per_replication_stats(spec, family, params, 400)
    assert drawn["frequency"] == sum(stat >= 0.2 for stat in stats) / 400 > 0.0
    assert drawn["dominant"] == (drawn["vacuous"] or drawn["frequency"] + 3.0 * drawn["stderr"] <= drawn["bound"])
    assert max(stats) < 2.5
    assert (proven["frequency"], proven["bound"], proven["vacuous"]) == (0.0, 0.0, False)
    assert proven["stderr"] > 0.0 and proven["dominant"]


def test_deviation_experiment_memory_does_not_grow_with_the_stacks():
    # one statistic per replication, or a stack's paths kept while the next is drawn, would grow the peak
    spec = chain_spec([[3, 1], [1, 3]], [1, 1], seed=5)
    family = state_family([{0: 0.0, 1: 1.0}, {0: 1.0, 1: 0.0}])
    params = make_params(epsilon=0.1, n=1000, m=2)
    one = STACK_DRAWS // params.n

    def peak(spec, replications):
        tracemalloc.start()
        try:
            deviation_experiment(spec, family, params, finite_family_entropy(2), [0.0, 0.2], replications)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # first-call allocations, made by the longer run so that both measured runs find them done, and from
    # another seed, so that anything kept per (seed, replication) is new to the measured runs and shows
    peak(dataclasses.replace(spec, seed=6), 30 * one)
    # replication numbers past 256 are new Python ints: a few hundred bytes, against 256 KB per stack of paths
    assert peak(spec, 30 * one) <= peak(spec, one) + 2**11


def test_deviation_experiment_stacks_count_the_window_seeds():
    # an m-dependent row holds n + lag - 1 window seeds: stacks sized by n alone held 400 rows of 2009 seeds
    # and their cumulative sums here, about 13 MB
    spec = GeneratorSpec(kind="m_dependent", seed=7, dependence_lag=2000, alphabet_size=2)
    family = state_family([{0: 0.0, 1: 1.0}, {0: 1.0, 1: 0.0}])
    params = make_params(epsilon=0.1, n=10, m=2)

    def peak(spec):
        tracemalloc.start()
        try:
            deviation_experiment(spec, family, params, finite_family_entropy(2), [0.0, 0.2], 400)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(dataclasses.replace(spec, seed=8))  # first-call allocations
    # a stack's seeds and their cumulative sums, each at most STACK_DRAWS int64 cells: 512 KB
    assert peak(spec) <= 4 * 8 * STACK_DRAWS


def sticky_spec(seed=0):
    """Two states that stay put with probability 0.998, started at state 0."""
    chain = MarkovChainSpec((0, 1), [[0.998, 0.002], [0.002, 0.998]], FinitePmf((0, 1), [1.0, 0.0]))
    return GeneratorSpec(kind="markov", seed=seed, chain=chain)


def per_time_beta(chain, m, n):
    """max over s = 1..n-m of the atom sum of (X_s, X_{s+m}), one time at a time: the reference."""
    step_m = np.linalg.matrix_power(chain.transition, m)
    mu, best = chain.initial.probs.copy(), 0.0
    for _ in range(n - m):
        joint = mu[:, None] * step_m
        best = max(best, 0.5 * float(np.abs(joint - np.outer(joint.sum(axis=1), joint.sum(axis=0))).sum()))
        mu = mu @ chain.transition
    return best


def test_beta_at_is_exact_over_the_sample():
    spec = sticky_spec()
    beta = spec.beta_at(5, 1000)
    assert beta == pytest.approx(per_time_beta(spec.chain, 5, 1000), rel=1e-12)
    assert round(beta, 4) == 0.4899
    # the 64 starting times that the chain's default scan covers miss the largest coefficient
    assert round(markov_beta(spec.chain, 5), 4) == 0.1943
    assert spec.beta_at(5, 30) == pytest.approx(per_time_beta(spec.chain, 5, 30), rel=1e-12)


@pytest.mark.parametrize("kind", sorted(CAPPED_SPECS))
def test_beta_at_with_no_split_time_is_zero(kind):
    assert CAPPED_SPECS[kind].beta_at(5, 5) == 0.0


def test_weak_error_experiment_takes_beta_per_n():
    spec = dataclasses.replace(sticky_spec(seed=3), phi=[0.0, 0.1], noise_values=(-0.1, 0.1),
                               noise_probs=(0.5, 0.5), response_bound=0.25)
    fam = FunctionFamily((0, 1), design=[[1.0, 0.0], [1.0, 1.0]])
    params = make_params(B=0.25, V=2, m=5, n=100)
    report = weak_error_experiment(spec, fam, params, [0.0, 0.1], [50, 400], 4)
    betas = [spec.beta_at(5, n) for n in (50, 400)]
    assert betas[0] < betas[1]
    for row, beta in zip(report.rows, betas):
        assert row["bound_beta"] == 16.0 * 0.25**2 * 2.5 * row["n"] * beta


def per_sample_fit(family, index, ys, B):
    """The truncated least-squares fit of one sample, its normal equations built and solved alone: the reference."""
    if family.design is not None:
        design = family.design[index]
        gram, rhs = design.T @ design, design.T @ ys
        try:
            coef = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            coef = np.linalg.solve(gram + RIDGE * np.eye(gram.shape[0]), rhs)
        fitted = sum(c * column for c, column in zip(coef, family.design.T))
    else:
        risks = ((family.table[:, index] - ys[None, :]) ** 2).mean(axis=1)
        fitted = family.table[int(np.argmin(risks))]
    return np.clip(fitted, -B, B)


def per_replication_weak_error_rows(spec, family, params, truth, n_grid, replications):
    """The weak-error rows from one ``per_call_draw`` and one ``per_sample_fit`` per replication: the reference."""
    truth = np.asarray(truth, dtype=float)
    rows = []
    for n in n_grid:
        p = dataclasses.replace(params, n=n)
        laws = spec.marginal_laws(n)
        errors = np.array([_average_sq_distance(per_sample_fit(family, *per_call_draw(spec, n, rep), p.B), truth, laws)
                           for rep in range(replications)])
        mean = float(errors.mean())
        stderr = float(errors.std(ddof=1) / math.sqrt(replications)) if replications > 1 else 0.0
        bias = family_bias(family, truth, laws, p.B)
        bound = weak_error_bound(p, bias, beta_at_m=spec.beta_at(p.m, n))
        # no truncated fit lies farther from the truth than B + |truth(s)| at any state
        trivial = max((p.B + abs(value)) ** 2 for value in truth.tolist())
        rows.append({"n": n, "m": p.m, "replications": replications, "weak_error": mean, "stderr": stderr,
                     "bias": bias, "bound_total": bound.total, "bound_variance": bound.variance_term,
                     "bound_beta": bound.beta_error_term, "dominant": mean <= bound.total + 3.0 * stderr,
                     "vacuous": bound.total >= trivial})
    return tuple(rows)


WEAK_ERROR_SPECS = {
    "markov": chain_spec([[1, 0, 2], [3, 1, 0], [0, 2, 2]], [0, 1, 1], seed=41),
    "iid": GeneratorSpec(kind="iid", seed=42, law=FinitePmf((0, 1, 2), [0.2, 0.0, 0.8])),
    "m_dependent": GeneratorSpec(kind="m_dependent", seed=43, dependence_lag=2, alphabet_size=3),
}
WEAK_ERROR_FAMILIES = {
    "affine span": FunctionFamily((0, 1, 2), design=[[1.0, float(s)] for s in range(3)]),
    "state table": FunctionFamily((0, 1, 2), table=[[0.1, -0.05, 0.0], [0.0, 0.2, -0.2], [0.3, 0.3, 0.3]]),
}


def weak_error_spec(kind):
    return dataclasses.replace(WEAK_ERROR_SPECS[kind], phi=[-0.1, 0.12, 0.02], noise_values=(-0.1, 0.1),
                               noise_probs=(0.3, 0.7), response_bound=0.25)


@pytest.mark.parametrize("replications", [1, 9])
@pytest.mark.parametrize("family", sorted(WEAK_ERROR_FAMILIES))
@pytest.mark.parametrize("kind", sorted(WEAK_ERROR_SPECS))
def test_weak_error_experiment_equals_per_replication_loop(kind, family, replications):
    # n = 1 leaves the affine design singular, so its fit takes the ridge
    spec, fam = weak_error_spec(kind), WEAK_ERROR_FAMILIES[family]
    params = make_params(B=0.25, V=2, m=1)
    truth = [-0.1, 0.12, 0.02]
    n_grid = [1, 17, 300]
    report = weak_error_experiment(spec, fam, params, truth, n_grid, replications)
    expected = per_replication_weak_error_rows(spec, fam, params, truth, n_grid, replications)
    # repr prints each float's shortest round trip: equal text is equal bits
    assert repr(report.rows) == repr(expected)
    assert all(row["stderr"] == 0.0 for row in report.rows) == (replications == 1)
    slope = report.metadata.pop("loglog_slope")
    assert report.metadata == {"seed": spec.seed, "replications": replications}
    errors = [row["weak_error"] for row in expected]
    assert slope == (float(np.polyfit(np.log(n_grid), np.log(errors), 1)[0]) if min(errors) > 0 else None)


@pytest.mark.parametrize("family", sorted(WEAK_ERROR_FAMILIES))
@pytest.mark.parametrize("kind", sorted(WEAK_ERROR_SPECS))
def test_weak_error_experiment_equals_per_replication_loop_across_stacks(kind, family):
    spec, fam = weak_error_spec(kind), WEAK_ERROR_FAMILIES[family]
    params = make_params(B=0.25, V=2, m=1)
    truth = [-0.1, 0.12, 0.02]
    replications = 120
    # at n = 300 each replication's fit holds 2 design columns or 3 member risks per point: 3 or 4 stacks
    width = 2 if fam.design is not None else 3
    assert STACK_DRAWS // (300 * width) < replications // 2
    if fam.design is not None:
        # at n = 3 some paths of the one stack visit a single state: only their systems are singular and take the ridge
        [(_, index, ys)] = _sampling.draw(spec, 3, range(replications), 0, True)
        _, _, ridge = _fit(fam, index, ys)
        assert 0 < ridge.sum() < replications
    report = weak_error_experiment(spec, fam, params, truth, [3, 300], replications)
    assert repr(report.rows) == repr(per_replication_weak_error_rows(spec, fam, params, truth, [3, 300], replications))


def test_weak_error_rows_are_vacuous_at_or_above_the_trivial_bound():
    # a truncated fit lies in [-B, B], so no weak error exceeds max_s (B + |truth(s)|)**2 = 0.35**2 here;
    # the bound falls below that only past n = 2 * 10**5
    truth = [(s - 1.5) / 15.0 for s in range(4)]
    spec = GeneratorSpec(kind="iid", seed=3, law=FinitePmf((0, 1, 2, 3), [0.25] * 4), phi=truth,
                         noise_values=(-0.1, 0.1), noise_probs=(0.5, 0.5), response_bound=0.25)
    family = FunctionFamily((0, 1, 2, 3), design=[[1.0, float(s)] for s in range(4)])
    report = weak_error_experiment(spec, family, make_params(B=0.25, V=3, m=2), truth, [100, 250000], 2)
    assert [row["bound_total"] >= 0.35**2 for row in report.rows] == [True, False]
    assert [row["vacuous"] for row in report.rows] == [True, False]


def test_weak_error_experiment_builds_no_dataset(monkeypatch):
    spec, fam = weak_error_spec("m_dependent"), WEAK_ERROR_FAMILIES["affine span"]
    args = (spec, fam, make_params(B=0.25, V=2, m=1), [-0.1, 0.12, 0.02], [5, 50], 4)
    expected = weak_error_experiment(*args)

    def no_dataset(self):
        raise AssertionError("a Dataset was built")

    monkeypatch.setattr(Dataset, "__post_init__", no_dataset)
    with pytest.raises(AssertionError, match="a Dataset was built"):
        Dataset((0,), [0], [0.0])
    assert weak_error_experiment(*args) == expected


@pytest.mark.parametrize("family", sorted(WEAK_ERROR_FAMILIES))
def test_weak_error_experiment_scores_each_stack_in_one_call(monkeypatch, family):
    spec, fam = weak_error_spec("m_dependent"), WEAK_ERROR_FAMILIES[family]
    args = (spec, fam, make_params(B=0.25, V=2, m=1), [-0.1, 0.12, 0.02], [3, 300], 120)
    expected_report = weak_error_experiment(*args)
    events = []
    draw, score, laws = _sampling.draw, simulate._average_sq_distance, GeneratorSpec.marginal_laws

    def counted_draw(spec, n, *rest):
        for reps, index, ys in draw(spec, n, *rest):
            events.append(("draw", n, len(reps)))
            yield reps, index, ys

    def counted_score(values, truth, weights):
        events.append(("score", values.shape[:-1]))
        return score(values, truth, weights)

    def counted_laws(self, n):
        events.append(("laws", n))
        return laws(self, n)

    monkeypatch.setattr(_sampling, "draw", counted_draw)
    monkeypatch.setattr(simulate, "_average_sq_distance", counted_score)
    monkeypatch.setattr(regression, "_average_sq_distance", counted_score)
    monkeypatch.setattr(GeneratorSpec, "marginal_laws", counted_laws)
    assert weak_error_experiment(*args) == expected_report
    # each n's laws when that n is reached; then one score per stack, of all its replications, and for a
    # finite family one of all its members for the bias
    width = 2 if fam.design is not None else 3
    expected = []
    for n in (3, 300):
        # the widest per-replication array: the design columns or member risks, or the window seeds
        size = STACK_DRAWS // max(n * width, n + spec.dependence_lag - 1)
        expected.append(("laws", n))
        for first in range(0, 120, size):
            stack = min(size, 120 - first)
            expected += [("draw", n, stack), ("score", (stack,))]
        expected += [("score", (3,))] if fam.design is None else []
    assert events == expected
    assert sum(event[0] == "draw" for event in events) > 3


def test_weak_error_bound_is_informative_and_dominant_at_large_n():
    """Criterion 8's generator and affine family, with c = sqrt(71) (the value ``subexp_rate`` fixes) and
    lambda = 1.3: the bound falls below the trivial max_s (B + |truth(s)|)**2 = 0.1225 from n = 30730, so
    both rows say something, and both dominate.  The bound (0.115 and 0.060) still sits about 1.8e5 times
    above the measured error (6.4e-7 and 2.7e-7, 2.2e5 times at the larger n): the check passes by a
    margin that no Monte Carlo error could close."""
    phi = [(s - 1.5) / 15.0 for s in range(4)]
    spec = GeneratorSpec(kind="m_dependent", seed=808, dependence_lag=2, alphabet_size=4, phi=phi,
                         noise_values=(-0.1, 0.1), noise_probs=(0.5, 0.5), response_bound=0.25)
    family = FunctionFamily(tuple(range(4)), design=[[1.0, float(s)] for s in range(4)])
    params = make_params(c=math.sqrt(71.0), lam=1.3, B=0.25, V=3, m=2)
    report = weak_error_experiment(spec, family, params, phi, [32768, 65536], 200)
    for row in report.rows:
        assert (row["vacuous"], row["dominant"]) == (False, True), row
        assert 1e5 < row["bound_total"] / row["weak_error"] < 1e6, row


def no_draw(*args):
    raise AssertionError("drawn before the experiment's inputs were checked")


# c = 9 and V = 2 need floor(n/m) >= exp(10/8), which n = 5 meets and n = 3 does not
LATE_SIZE_FLOOR = f"floor(n/m) >= exp((c^2-71)/(4V)) violated: 3 < {math.exp(10.0 / 8.0)}"


@pytest.mark.parametrize("change, error, message", [
    ({"replications": 0}, DomainError, "replications must be >= 1"),
    ({"family": FunctionFamily((0, 1, 3), design=[[1.0, 0.0], [1.0, 1.0], [1.0, 3.0]])},
     MalformedInputError, "the family must be tabulated over the generator's states"),
    ({"truth": [0.0, 0.1]}, MalformedInputError, "truth needs one value per state of the family"),
    ({"truth": [-0.1, math.nan, 0.02]}, MalformedInputError, "truth must be finite"),
    ({"truth": [-0.1, 0.12, math.inf]}, MalformedInputError, "truth must be finite"),
    # each n's bound inputs, the last n's included
    ({"n_grid": [100, 400, 1], "params": make_params(B=0.25, V=2, m=2)}, DomainError,
     "need 1 <= m <= n, got n=1, m=2"),
    ({"n_grid": [5, 3], "params": make_params(B=0.25, V=2, m=1, c=9.0)}, HypothesisViolationError,
     LATE_SIZE_FLOOR),
    # and each n's cap on its marginal laws' cells, the last n's included
    ({"n_grid": [5, 400000]}, SizeError, f"n 400000 needs 1200000 marginal cells, above cap {CELL_CAP}"),
    # one error per replication, in one array: 10**400 ended in numpy's "Maximum allowed dimension exceeded"
    ({"replications": CELL_CAP + 1}, SizeError, f"replications must be at most {CELL_CAP}, got {CELL_CAP + 1}"),
    ({"replications": 10**400}, SizeError, f"replications must be at most {CELL_CAP}, got {10**400}"),
    # a square past the float range used to make numpy warn and score the fits as NaN
    ({"truth": [-0.1, 1e308, 0.02]}, DomainError, "truth must have finite squares"),
    # with no n there is no row, and a report of no rows read all_dominant
    ({"n_grid": []}, DomainError, "n_grid must not be empty"),
])
def test_weak_error_experiment_rejects_bad_inputs_before_any_draw(monkeypatch, change, error, message):
    args = dict(spec=weak_error_spec("iid"), family=WEAK_ERROR_FAMILIES["affine span"],
                params=make_params(B=0.25, V=2, m=1), truth=[-0.1, 0.12, 0.02], n_grid=[5], replications=3)
    monkeypatch.setattr(_sampling, "draw", no_draw)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        weak_error_experiment(**dict(args, **change))


@pytest.mark.parametrize("change, error, message", [
    ({"replications": 0}, DomainError, "replications must be >= 1"),
    ({"family": WEAK_ERROR_FAMILIES["affine span"]}, DomainError,
     "the deviation experiment needs an enumerable family"),
    ({"family": state_family([{0: 0.0, 1: 1.0, 3: 0.5}])}, MalformedInputError,
     "the family must be tabulated over the generator's states"),
    # every t's bound inputs, the last t's included
    ({"t_grid": [0.9, -0.1]}, DomainError, "t must be nonnegative"),
    ({"t_grid": [0.9, math.nan]}, DomainError, "t must be nonnegative"),
    # replication numbers are stream keys in [0, 2**63)
    ({"replications": 2**63 + 1}, SizeError, f"replications must be at most 2**63, got {2**63 + 1}"),
    # 20 average means of about 1e308 sum past the float range: numpy used to warn, and the statistic read NaN
    ({"family": state_family([{0: 1e308, 1: 1e308, 2: 0.5}])}, DomainError,
     "table values must have finite average means"),
    # with no t there is no row, and a report of no rows read all_dominant
    ({"t_grid": []}, DomainError, "t_grid must not be empty"),
])
def test_deviation_experiment_rejects_bad_inputs_before_any_draw(monkeypatch, change, error, message):
    args = dict(spec=WEAK_ERROR_SPECS["iid"], family=WEAK_ERROR_FAMILIES["state table"], params=make_params(n=20),
                entropy=finite_family_entropy(3), t_grid=[0.3], replications=3)
    monkeypatch.setattr(_sampling, "draw", no_draw)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        deviation_experiment(**dict(args, **change))


def test_weak_error_experiment_rejects_responses_past_float_range():
    # phi + noise overflows to inf with no overflow warning: the spec refuses it when built, before any draw
    with pytest.raises(MalformedInputError, match="^responses must be finite$"):
        GeneratorSpec(kind="iid", seed=44, law=FinitePmf((0, 1), [0.5, 0.5]), phi=[1e308, 0.0],
                      noise_values=(1e308,), noise_probs=(1.0,))


def test_spec_checks_every_response_it_can_draw():
    # state 2 has zero mass, so no path visits it; its responses are checked all the same
    law = FinitePmf((0, 1, 2), [0.5, 0.5, 0.0])

    def spec(phi, values, probs=(0.5, 0.5), bound=None):
        return GeneratorSpec(kind="iid", seed=0, law=law, phi=phi, noise_values=values, noise_probs=probs,
                             response_bound=bound)

    # phi is +-x at state s and 0 elsewhere, the noise values are -y and y: only the cell of s and the
    # noise value of x's sign, +-(x + y), breaks the rule
    for s, sign in itertools.product(range(3), (1.0, -1.0)):
        with pytest.raises(MalformedInputError, match="^responses exceed the declared bound 0.25$"):
            spec(np.eye(3)[s] * sign * 0.2, (-0.1, 0.1), bound=0.25)
        with pytest.raises(MalformedInputError, match="^responses must be finite$"):
            spec(np.eye(3)[s] * sign * 1e308, (-1e308, 1e308))
    # every cell past the bound and one past the float range: finiteness is the rule named
    with pytest.raises(MalformedInputError, match="^responses must be finite$"):
        spec([1e308, 0.0, 0.0], (0.5, 1e308), bound=0.25)
    with pytest.raises(MalformedInputError, match="^responses must be finite$"):
        _check_responses(np.array([[0.0, 1.0], [math.nan, 0.0]]), 0.25)
    # a noise value of zero mass is never drawn, so phi + 1.0 is no response of the spec
    drawn = generate(spec([0.0, 0.1, 0.0], (-0.1, 1.0, 0.1), (0.5, 0.0, 0.5), bound=0.25), 200).ys
    assert np.abs(drawn).max() <= 0.2 + 1e-12


def refusal(check):
    """The message of the MalformedInputError that check() raises, or None."""
    try:
        check()
    except MalformedInputError as exc:
        return str(exc)
    return None


# near the bound, past it, and near the float range, so that sums round, pass the bound or overflow
EDGE_FLOATS = st.sampled_from([0.0, 0.1, 0.15, 0.25, 0.25 + 1e-12, 0.3, 1e308, 1.7e308]) | st.floats(-1.7e308, 1.7e308)


@given(phi=st.lists(EDGE_FLOATS | EDGE_FLOATS.map(lambda x: -x), min_size=1, max_size=4),
       noise=st.lists(st.tuples(EDGE_FLOATS | EDGE_FLOATS.map(lambda x: -x), st.booleans()), min_size=1, max_size=4)
       .filter(lambda noise: any(drawn for _, drawn in noise)),
       bound=st.none() | st.sampled_from([0.0, 0.25, 1e308, -1.0, math.nan]))
@settings(max_examples=300, deadline=None)
def test_spec_refuses_exactly_what_the_check_of_its_whole_table_refuses(phi, noise, bound):
    # the reference: phi(s) + v at every state and every noise value of positive mass, checked as one table
    values = [v for v, _ in noise]
    probs = [1.0 / sum(drawn for _, drawn in noise) if drawn else 0.0 for _, drawn in noise]
    with np.errstate(over="ignore"):
        table = np.array([v for v, drawn in noise if drawn])[:, None] + np.array(phi)
    law = FinitePmf(tuple(range(len(phi))), [1.0 / len(phi)] * len(phi))
    built = refusal(lambda: GeneratorSpec(kind="iid", seed=0, law=law, phi=phi, noise_values=tuple(values),
                                          noise_probs=tuple(probs), response_bound=bound))
    assert built == refusal(lambda: _check_responses(table, bound))


def test_weak_error_experiment_memory_does_not_grow_with_the_stacks():
    # a stack's draws or designs kept while the next is drawn would grow the peak
    spec, fam = weak_error_spec("m_dependent"), WEAK_ERROR_FAMILIES["affine span"]
    params = make_params(B=0.25, V=2, m=1)
    n = 16384
    one = STACK_DRAWS // (2 * n)  # replications in one stack, two design columns per point: one

    def peak(replications):
        # Both measured runs start from the same one-off state, so that anything kept per (seed, replication)
        # is new to them: the same run from another seed warms every cache, and a burst of small dicts fills
        # CPython's free list of dict key tables, which the keyword calls into numpy would otherwise fill
        # while traced, by a number of tables that depends on what ran before.
        weak_error_experiment(dataclasses.replace(spec, seed=45), fam, params, [-0.1, 0.12, 0.02], [n],
                              replications)
        burst = [{"key": i} for i in range(200)]
        del burst
        tracemalloc.start()
        try:
            weak_error_experiment(spec, fam, params, [-0.1, 0.12, 0.02], [n], replications)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # each replication keeps one error, 8 bytes: 232 bytes more here, against 256 KB per stack of designs
    assert peak(30 * one) <= peak(one) + 2**11


def per_call_draw(spec, n, replication):
    """One replication with every CDF derived again and the noise always drawn: the reference."""
    rng = philox(spec.seed, replication)
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
    # each call follows one of another (seed, n, replication), so each re-keys the thread's shared stream
    for seed, bound in ((base.seed, None), (2**63 - 1, 0.5)):
        spec = dataclasses.replace(base, seed=seed, phi=phi, noise_values=values, noise_probs=probs,
                                   response_bound=bound)
        for n in (1, 2, 257):
            for rep in (0, 1, 2**32 - 1):
                index, ys = per_call_draw(spec, n, rep)
                data = generate(spec, n, rep)
                assert np.array_equal(data.index, index)
                assert data.ys.tobytes() == ys.tobytes()
                assert np.array_equal(stack_of_one(spec, n, rep), index)
                # the draw's Dataset, built past the checks, equals the checked one in fields and their types
                checked = Dataset(spec.states(), index, ys, response_bound=spec.response_bound)
                assert data == checked and data.response_bound == bound
                assert type(data.states) is tuple and data.index.dtype == np.intp and data.ys.dtype == float


@pytest.mark.parametrize("kind", sorted(REFERENCE_SPECS))
def test_generate_runs_no_dataset_check(monkeypatch, kind):
    # the spec checked every response that a draw can return, and the walk indexes its states by construction
    values, probs = NOISE_LAWS["two points"]
    spec = dataclasses.replace(REFERENCE_SPECS[kind], noise_values=values, noise_probs=probs, response_bound=0.25)
    expected = [per_call_draw(spec, 200, rep) for rep in range(3)]

    def no_check(self):
        raise AssertionError("a Dataset was checked")

    monkeypatch.setattr(Dataset, "__post_init__", no_check)
    with pytest.raises(AssertionError, match="a Dataset was checked"):
        Dataset((0,), [0], [0.0])
    for rep, (index, ys) in enumerate(expected):
        data = generate(spec, 200, rep)
        assert np.array_equal(data.index, index) and data.ys.tobytes() == ys.tobytes()


def shared_stream_cases():
    """(spec, n, replication) over every kind, two seeds and three replications, ordered so that
    each call follows one of another (seed, replication)."""
    values, probs = NOISE_LAWS["two points"]
    specs = [dataclasses.replace(base, seed=seed, phi=[0.1 * s for s in range(len(base.states()))],
                                 noise_values=values, noise_probs=probs)
             for base in REFERENCE_SPECS.values() for seed in (base.seed, 2**63 - 1)]
    return [(spec, n, rep) for rep in (0, 5, 2**32 - 1) for n in (1, 7, 257) for spec in specs]


def assert_drawn_from_fresh_streams(cases, datasets):
    for case, data in zip(cases, datasets, strict=True):
        index, ys = per_call_draw(*case)
        assert np.array_equal(data.index, index)
        assert data.ys.tobytes() == ys.tobytes()


def test_generate_from_two_threads_at_once_draws_each_replication_stream():
    cases = shared_stream_cases()
    orders = {"forward": cases * 10, "backward": cases[::-1] * 10}
    datasets = {}
    start = threading.Barrier(len(orders))

    def draw(name):
        start.wait()
        datasets[name] = [generate(*case) for case in orders[name]]

    threads = [threading.Thread(target=draw, args=(name,)) for name in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between as many draws as the interpreter allows
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(datasets) == sorted(orders)
    for name, order in orders.items():
        assert_drawn_from_fresh_streams(order, datasets[name])


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
    for visits in (None, _chunk_table(spec, 6)):
        assert list(stack_of_one(spec, 6, 0, visits)) == [0, 1, 0, 1, 0, 1]
