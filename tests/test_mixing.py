import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betamix.errors import DegenerateFitError, MalformedInputError, SizeError
from betamix.mixing import (
    MixingFit,
    _beta,
    beta_coefficient,
    beta_m_dependence,
    beta_max,
    fit_mixing_rate,
    markov_beta,
    pairwise_beta,
)
from betamix.pmf import CELL_CAP, FinitePmf, JointPmf, MarkovChainSpec
from test_pmf import chain_runs


# rows short of 1 within tolerance
DRIFTING_CHAIN = MarkovChainSpec((0, 1), [[0.5, 0.5 - 9e-13], [0.5, 0.5 - 9e-13]], FinitePmf((0, 1), [0.5, 0.5]))
# an entry below 0 within tolerance, which the chain clips
NEGATIVE_ENTRY_CHAIN = MarkovChainSpec((0, 1), [[1 + 5e-13, -5e-13], [0.5, 0.5]], FinitePmf((0, 1), [1.0, 0.0]))


def random_joint(rng, shape):
    probs = rng.random(shape)
    probs /= probs.sum()
    return JointPmf(tuple(tuple(range(s)) for s in shape), probs)


def brute_force_beta(probs):
    """Oracle: max over all pairs of partitions of (1/2) sum |P(ExF) - P(E)P(F)|.

    Enumerates every partition of each alphabet into nonempty cells and takes
    the supremum in the partition characterization directly.
    """

    def partitions(items):
        items = list(items)
        if len(items) == 1:
            yield [items]
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1 :]
            yield [[first]] + part

    left_m = probs.sum(axis=1)
    right_m = probs.sum(axis=0)
    best = 0.0
    for pl in partitions(range(probs.shape[0])):
        for pr in partitions(range(probs.shape[1])):
            total = 0.0
            for E in pl:
                for F in pr:
                    pef = probs[np.ix_(E, F)].sum()
                    total += abs(pef - left_m[E].sum() * right_m[F].sum())
            best = max(best, 0.5 * total)
    return best


def test_atomic_partition_attains_supremum():
    rng = np.random.default_rng(7)
    for _ in range(10):
        j = random_joint(rng, (3, 3))
        assert beta_coefficient(j) == pytest.approx(brute_force_beta(j.probs), abs=1e-12)


def test_product_joint_has_zero_beta():
    f = FinitePmf((0, 1, 2), [0.2, 0.3, 0.5])
    g = FinitePmf((0, 1), [0.6, 0.4])
    product = JointPmf((f.support, g.support), np.outer(f.probs, g.probs))
    assert beta_coefficient(product) == pytest.approx(0.0, abs=1e-14)


def test_perfectly_correlated_binary():
    j = JointPmf(((0, 1), (0, 1)), np.diag([0.5, 0.5]))
    assert beta_coefficient(j) == pytest.approx(0.5)


@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_beta_range_and_symmetry(seed, a, b):
    rng = np.random.default_rng(seed)
    j = random_joint(rng, (a, b))
    v = beta_coefficient(j)
    assert 0.0 <= v <= 1.0
    flipped = JointPmf((j.axes[1], j.axes[0]), j.probs.T)
    assert v == pytest.approx(beta_coefficient(flipped), abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_grouping_monotone_under_coarsening(seed):
    """Dropping axes from a group never increases the dependence coefficient."""
    rng = np.random.default_rng(seed)
    j = random_joint(rng, (2, 2, 2))
    full = pairwise_beta(j, (0, 1), (2,))
    coarser = pairwise_beta(j, (0,), (2,))
    assert coarser <= full + 1e-12


def test_m_dependence_monotone_in_m():
    rng = np.random.default_rng(3)
    j = random_joint(rng, (2, 2, 2, 2))
    values = [beta_max(j, m) for m in range(1, 5)]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-12


def test_m_dependence_empty_groups():
    rng = np.random.default_rng(4)
    j = random_joint(rng, (2, 2))
    # l - m < 1 leaves no past; l outside the index set leaves no present
    assert beta_m_dependence(j, 5, 2) == 0.0
    assert beta_m_dependence(j, 1, 9) == 0.0


def on_times(joint, times, horizon):
    """The process on times 1..horizon that observes ``joint``'s axis k at times[k] and
    holds a one-atom axis at every other time, which carries no information."""
    order = np.argsort(times)
    probs = np.transpose(joint.probs, order)
    axes = [("*",)] * horizon
    for k, t in enumerate(times):
        axes[t - 1] = joint.axes[k]
    return JointPmf(axes, probs.reshape([len(ax) for ax in axes]))


def test_m_dependence_custom_indices():
    rng = np.random.default_rng(5)
    j = random_joint(rng, (2, 2, 2))
    # observed at times (1, 5, 6): at lag 3, only time 1 is far enough in the past of 6
    expected = pairwise_beta(j, (0,), (2,))
    assert beta_m_dependence(on_times(j, (1, 5, 6), 6), 3, 6) == pytest.approx(expected)
    # times with gaps: the one-atom times have empty groups
    for times in ((2, 5, 9), (9, 2, 5)):
        process = on_times(j, times, 9)
        expected = max(beta_m_dependence(process, 2, l) for l in range(1, 10))
        assert beta_max(process, 2) == expected
    # a single time has no past: every group is empty, and so is the supremum
    assert beta_max(on_times(random_joint(rng, (3,)), (1,), 1), 1) == 0.0
    with pytest.raises(MalformedInputError, match="^m must be >= 1$"):
        beta_max(j, 0)


def test_markov_beta_matches_atom_sum_oracle():
    p, q, m = 0.3, 0.2, 4
    pi = np.array([q / (p + q), p / (p + q)])
    T = np.array([[1 - p, p], [q, 1 - q]])
    chain = MarkovChainSpec((0, 1), T, FinitePmf((0, 1), pi))
    joint = pi[:, None] * np.linalg.matrix_power(T, m)
    oracle = 0.5 * np.abs(joint - np.outer(pi, joint.sum(axis=0))).sum()
    assert markov_beta(chain, m) == pytest.approx(oracle, abs=1e-12)
    # rows short of 1 within tolerance: the marginals drift past the mass
    # tolerance over the scan, which must not be rejected
    chain, T = DRIFTING_CHAIN, DRIFTING_CHAIN.transition
    mu, oracle = chain.initial.probs, 0.0
    for _ in range(64):
        joint = mu[:, None] * np.linalg.matrix_power(T, m)
        oracle = max(oracle, 0.5 * np.abs(joint - np.outer(joint.sum(axis=1), joint.sum(axis=0))).sum())
        mu = mu @ T
    assert markov_beta(chain, m) == pytest.approx(oracle, abs=1e-12)


def per_n_markov_beta(chain, m, horizon):
    """The per-n scan that the batched atom sum replaced, as it was: the reference."""

    def _beta(p: np.ndarray) -> float:
        """(1/2) * ||p - p_L (x) p_R||_1 for a two-dimensional probability array p."""
        return 0.5 * float(np.abs(p - np.outer(p.sum(axis=1), p.sum(axis=0))).sum())

    step_m = np.linalg.matrix_power(chain.transition, m)
    mu = chain.initial.probs.copy()
    best = 0.0
    for _ in range(horizon):
        # transition entries within tolerance below 0 are clipped, as a JointPmf would
        best = max(best, _beta(np.maximum(mu[:, None] * step_m, 0.0)))
        mu = mu @ chain.transition
    return best


@st.composite
def markov_chains(draw):
    """Chains on 2..6 states, started at a point mass or at a random law."""
    k = draw(st.integers(2, 6))

    def law():
        weights = draw(st.lists(st.integers(0, 20), min_size=k, max_size=k).filter(any))
        return [w / sum(weights) for w in weights]

    states = tuple(range(k))
    if draw(st.booleans()):
        initial = FinitePmf(states, np.eye(k)[draw(st.sampled_from(states))])
    else:
        initial = FinitePmf(states, law())
    return MarkovChainSpec(states, [law() for _ in states], initial)


# a stationary start, whose scan stops after one joint, and a sticky chain whose marginals
# have not settled after 995 steps
STATIONARY_CHAIN = MarkovChainSpec((0, 1), [[0.75, 0.25], [0.25, 0.75]], FinitePmf((0, 1), [0.5, 0.5]))
STICKY_CHAIN = MarkovChainSpec((0, 1), [[0.998, 0.002], [0.002, 0.998]], FinitePmf((0, 1), [1.0, 0.0]))


# (chain, horizon) pairs: chains with horizons up to 64, and chains on 1..8 states in three memory
# layouts with horizons on either side of their recursion's first fixed point
@given(st.one_of(st.tuples(st.one_of(markov_chains(), st.sampled_from([DRIFTING_CHAIN, NEGATIVE_ENTRY_CHAIN])),
                           st.integers(1, 64)),
                 chain_runs().map(lambda run: (run[0], max(run[1], 1)))),
       st.integers(1, 20))
@example((STATIONARY_CHAIN, 980), 20)
@example((STICKY_CHAIN, 995), 5)
@settings(max_examples=300, deadline=None)
def test_markov_beta_equals_per_n_scan(scan, m):
    chain, horizon = scan
    beta = markov_beta(chain, m, horizon)
    assert beta.hex() == per_n_markov_beta(chain, m, horizon).hex()
    assert type(beta) is float


def test_markov_beta_scans_in_blocks_within_the_cell_cap():
    # 200 states drifting along a cycle from a point mass: the horizon's joints
    # hold 64 * 200**2 cells, and the largest coefficient lies past the first block
    k, m, horizon = 200, 3, 64
    rng = np.random.default_rng(1)
    transition = 0.02 * rng.random((k, k))
    transition[np.arange(k), (np.arange(k) + 1) % k] += 1.0
    transition[np.arange(k), np.arange(k)] += rng.random(k)
    transition /= transition.sum(axis=1, keepdims=True)
    states = tuple(range(k))
    chain = MarkovChainSpec(states, transition, FinitePmf(states, np.eye(k)[0]))
    assert horizon * k * k > CELL_CAP
    step_m = np.linalg.matrix_power(transition, m)
    stack = _beta(np.maximum(chain.marginal_matrix(horizon)[:, :, None] * step_m, 0.0))
    assert stack.argmax() >= CELL_CAP // (k * k)

    tracemalloc.start()
    try:
        beta = markov_beta(chain, m, horizon)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert beta.hex() == float(stack.max()).hex()
    # a few temporaries of one block each; one unblocked stack needs about 60 MB
    assert peak < 4 * CELL_CAP * 8


@pytest.mark.parametrize("horizon", [CELL_CAP // 2 + 1, int(1e300)], ids=["one past the cap", "1e300"])
def test_markov_beta_rejects_a_horizon_past_the_cell_cap_before_allocating(horizon):
    chain = MarkovChainSpec((0, 1), [[0.75, 0.25], [0.25, 0.75]], FinitePmf((0, 1), [0.5, 0.5]))
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match=f"horizon {horizon} needs"):
            markov_beta(chain, 2, horizon)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_markov_beta_nonstationary_scan():
    # starting from a point mass, the lag-1 coefficient varies with n; the
    # scan must take the max over starting times, not just n = 1
    T = np.array([[0.5, 0.5], [0.05, 0.95]])
    chain = MarkovChainSpec((0, 1), T, FinitePmf((0, 1), [1.0, 0.0]))
    vals = []
    mu = chain.initial.probs.copy()
    for _ in range(64):
        joint = mu[:, None] * T
        vals.append(0.5 * np.abs(joint - np.outer(mu, joint.sum(axis=0))).sum())
        mu = mu @ T
    assert markov_beta(chain, 1) == pytest.approx(max(vals), abs=1e-14)
    assert max(vals) > vals[0]


def test_fit_subexponential_dominates():
    pts = [(m, 0.8 * np.exp(-0.5 * m)) for m in range(1, 8)]
    fit = fit_mixing_rate(pts, "subexponential")
    assert fit.gamma == 1.0
    for m, v in pts:
        assert fit.envelope(m) >= v - 1e-12
    assert fit.a == pytest.approx(0.8, rel=1e-6)
    assert fit.b == pytest.approx(0.5, rel=1e-6)


def test_fit_subpolynomial_dominates_noisy_points():
    rng = np.random.default_rng(11)
    pts = [(m, 0.6 * m**-2.0 * np.exp(0.1 * rng.standard_normal())) for m in range(1, 12)]
    fit = fit_mixing_rate(pts, "subpolynomial")
    for m, v in pts:
        assert fit.envelope(m) >= v * (1 - 1e-10)


def test_fit_fixed_rate_parameter_respected():
    pts = [(1, 0.5), (2, 0.25), (3, 0.125)]
    fit = fit_mixing_rate(pts, "subexponential", gamma=1.0, b=np.log(2.0))
    assert fit.b == pytest.approx(np.log(2.0))
    assert fit.a == pytest.approx(1.0, rel=1e-9)


def test_fit_rejects_all_zero_points():
    with pytest.raises(DegenerateFitError):
        fit_mixing_rate([(1, 0.0), (2, 0.0)], "subexponential")


NAN = float("nan")
# (points, model, keyword arguments, the whole message)
NON_FINITE_FITS = {
    "NaN beta": ([(1, 0.5), (2, NAN), (3, 0.1)], "subexponential", {}, "lag and beta values must be finite"),
    "NaN lag": ([(1, 0.5), (NAN, 0.2), (3, 0.1)], "subexponential", {}, "lag and beta values must be finite"),
    "infinite beta": ([(1, 0.5), (2, np.inf)], "subpolynomial", {}, "lag and beta values must be finite"),
    "NaN b": ([(1, 0.5), (2, 0.25)], "subexponential", {"b": NAN}, "b must be finite, got nan"),
    "NaN gamma": ([(1, 0.5), (2, 0.25)], "subpolynomial", {"gamma": NAN}, "gamma must be finite, got nan"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_FITS))
def test_fit_rejects_non_finite_input(case):
    points, model, kwargs, message = NON_FINITE_FITS[case]
    with pytest.raises(MalformedInputError) as exc:
        fit_mixing_rate(points, model, **kwargs)
    assert str(exc.value) == message


def test_mixing_fit_rejects_unknown_model_and_missing_rate():
    with pytest.raises(MalformedInputError):
        MixingFit("typo", 0.5, 0.7, 1.0)
    with pytest.raises(MalformedInputError):
        MixingFit("subexponential", 0.5, None, 1.0)
    assert MixingFit("subpolynomial", 0.5, None, 2.0).envelope(2.0) == pytest.approx(0.125)


# amplitudes past float range used to end in math.exp's or the power's OverflowError, or a
# product past it in a fit whose amplitude is inf
@pytest.mark.parametrize("points, model, kwargs", [
    ([(1, 0.5)], "subexponential", {"gamma": 1.0, "b": 1000.0}),
    ([(1e200, 0.5)], "subpolynomial", {"gamma": 2.0}),
    ([(1e200, 0.5)], "subexponential", {"gamma": 2.0, "b": 1e-300}),
    ([(1e200, 1e10)], "subpolynomial", {"gamma": 1.5}),
], ids=["exp past float range", "power past float range", "power in exp past float range", "product of inf"])
def test_fit_refuses_an_amplitude_past_float_range(points, model, kwargs):
    with pytest.raises(DegenerateFitError) as exc:
        fit_mixing_rate(points, model, **kwargs)
    assert str(exc.value) == f"the dominating amplitude of the {model} envelope is past float range"


@pytest.mark.parametrize("points, model, kwargs", [
    ([(709, 1e-15)], "subexponential", {"b": -1.0}),
    ([(1000, 1e-20)], "subpolynomial", {"gamma": -100.0}),
], ids=["subexponential", "subpolynomial"])
def test_fit_refuses_an_envelope_that_rounding_leaves_below_a_point(points, model, kwargs):
    # a given rate below 0 scales the point down into the subnormals (1e-323 and 1e-320 here),
    # whose spacing of 2**-1074 rounds the amplitude far past the check's relative 1e-12
    (m, v), = points
    with pytest.raises(DegenerateFitError) as exc:
        fit_mixing_rate(points, model, **kwargs)
    assert str(exc.value).startswith(f"fitted envelope fails dominance at m={float(m)}: {v} > ")


# a given rate below 0 that scales the point past the subnormals used to return a fit with a = 0,
# whose envelope is 0 * inf = NaN (with a RuntimeWarning) and so never failed the dominance check
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("points, model, kwargs", [
    ([(1, 0.5)], "subexponential", {"b": -1000.0}),
    ([(10, 0.5)], "subpolynomial", {"gamma": -400.0}),
], ids=["subexponential", "subpolynomial"])
def test_fit_refuses_an_amplitude_that_underflows_to_zero(points, model, kwargs):
    with pytest.raises(DegenerateFitError) as exc:
        fit_mixing_rate(points, model, **kwargs)
    assert str(exc.value) == f"the dominating amplitude of the {model} envelope underflows to 0"


def test_fit_of_one_point_defaults_to_a_flat_rate():
    # one point fixes no slope: the subexponential rate b is 0 and the subpolynomial exponent 1
    assert fit_mixing_rate([(3, 0.2)], "subexponential") == MixingFit("subexponential", 0.2, 0.0, 1.0)
    assert fit_mixing_rate([(3, 0.2)], "subpolynomial") == MixingFit("subpolynomial", 0.2 * 3.0, None, 1.0)
    # a given b is kept; the subpolynomial model has none
    assert fit_mixing_rate([(3, 0.2)], "subexponential", b=0.5).b == 0.5
    assert fit_mixing_rate([(3, 0.2)], "subpolynomial", b=0.5).b is None


JOINT_3 = JointPmf(((0, 1),) * 3, np.full((2, 2, 2), 1 / 8))

# (call, start of the MalformedInputError's message) of each input check
INPUT_CHECKS = {
    "three-axis joint": (lambda: beta_coefficient(JOINT_3), "expected a two-axis joint, got 3 axes"),
    "lag of 0 (m-dependence)": (lambda: beta_m_dependence(JOINT_3, 0, 1), "m and l must be positive"),
    "time of 0 (m-dependence)": (lambda: beta_m_dependence(JOINT_3, 1, 0), "m and l must be positive"),
    "lag of 0 (markov)": (lambda: markov_beta(STATIONARY_CHAIN, 0), "m must be >= 1"),
    "horizon of 0": (lambda: markov_beta(STATIONARY_CHAIN, 1, horizon=0), "horizon must be >= 1"),
    "unknown model": (lambda: fit_mixing_rate([(1, 0.5)], "linear"), "unknown model 'linear'"),
    "lag below 1": (lambda: fit_mixing_rate([(0.5, 0.5)], "subpolynomial"), "lag values must be >= 1"),
    "exponent of 0": (lambda: fit_mixing_rate([(1, 0.5)], "subexponential", gamma=0.0), "gamma must be positive"),
    # each used to end in numpy's TypeError
    "fractional horizon": (lambda: markov_beta(STATIONARY_CHAIN, 1, horizon=2.5), "horizon must be an integer, got 2.5"),
    "integral float horizon": (
        lambda: markov_beta(STATIONARY_CHAIN, 1, horizon=2.0), "horizon must be an integer, got 2.0"),
    "bool horizon": (lambda: markov_beta(STATIONARY_CHAIN, 1, horizon=True), "horizon must be an integer, got True"),
    # a lag that is not an integer used to end in numpy's TypeError, and a lag of True to run as lag 1
    "fractional lag (markov)": (lambda: markov_beta(STATIONARY_CHAIN, 2.5), "m must be an integer, got 2.5"),
    "integral float lag (markov)": (lambda: markov_beta(STATIONARY_CHAIN, 2.0), "m must be an integer, got 2.0"),
    "bool lag (markov)": (lambda: markov_beta(STATIONARY_CHAIN, True), "m must be an integer, got True"),
    # a lag, time or horizon that is not an integer used to end in a bare TypeError of its comparison with 1
    "absent horizon": (lambda: markov_beta(STATIONARY_CHAIN, 1, horizon=None), "horizon must be an integer, got None"),
    "string horizon": (lambda: markov_beta(STATIONARY_CHAIN, 1, horizon="5"), "horizon must be an integer, got '5'"),
    "absent lag (m-dependence)": (lambda: beta_m_dependence(JOINT_3, None, 2), "m must be an integer, got None"),
    "string time (m-dependence)": (lambda: beta_m_dependence(JOINT_3, 1, "2"), "l must be an integer, got '2'"),
    "fractional lag (m-dependence)": (lambda: beta_m_dependence(JOINT_3, 1.5, 2), "m must be an integer, got 1.5"),
    "absent lag (beta_max)": (lambda: beta_max(JOINT_3, None), "m must be an integer, got None"),
    "integral float lag (beta_max)": (lambda: beta_max(JOINT_3, 2.0), "m must be an integer, got 2.0"),
    # integers past float range used to end in float's or math.isfinite's OverflowError
    "rate b past float range": (
        lambda: fit_mixing_rate([(1, 0.5), (2, 0.2)], "subexponential", b=10**400), f"b must be finite, got {10**400}"),
    "subexponential gamma past float range": (
        lambda: fit_mixing_rate([(1, 0.5), (2, 0.2)], "subexponential", gamma=10**400),
        f"gamma must be finite, got {10**400}"),
    "subpolynomial gamma past float range": (
        lambda: fit_mixing_rate([(1, 0.5), (2, 0.2)], "subpolynomial", gamma=-10**400),
        f"gamma must be finite, got {-10**400}"),
    "subexponential lag past float range": (
        lambda: fit_mixing_rate([(1, 0.5), (10**400, 0.2)], "subexponential"), "lag and beta values must be finite"),
    "subpolynomial lag past float range": (
        lambda: fit_mixing_rate([(1, 0.5), (10**400, 0.2)], "subpolynomial"), "lag and beta values must be finite"),
    "subexponential beta past float range": (
        lambda: fit_mixing_rate([(1, 10**400), (2, 0.2)], "subexponential"), "lag and beta values must be finite"),
    "subpolynomial beta past float range": (
        lambda: fit_mixing_rate([(1, -10**400), (2, 0.2)], "subpolynomial"), "lag and beta values must be finite"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_checks_name_the_fault(case):
    call, message = INPUT_CHECKS[case]
    with pytest.raises(MalformedInputError) as exc:
        call()
    assert str(exc.value).startswith(message)


def test_markov_lag_takes_any_integer_type():
    # the lag rule is operator.index's, so a numpy integer is a lag like the int it equals
    assert markov_beta(STICKY_CHAIN, np.int64(2)) == markov_beta(STICKY_CHAIN, 2)
