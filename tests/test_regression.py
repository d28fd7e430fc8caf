import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betamix.bounds import BoundParams
from betamix.entropy import FunctionFamily
from betamix.errors import DomainError, MalformedInputError
from betamix.regression import (
    Dataset,
    _average_sq_distance,
    family_bias,
    fit_least_squares,
    loss_difference_family,
    truncate,
)
from betamix.pmf import FinitePmf
from betamix.simulate import GeneratorSpec, weak_error_experiment


def state_family(tables):
    states = tuple(tables[0])
    return FunctionFamily(states, table=[[t[s] for s in states] for t in tables])


def affine_span(states):
    return FunctionFamily(states, design=[[1.0, float(s)] for s in states])


def test_truncate_basics():
    assert truncate(0.5, 1.0) == 0.5
    assert truncate(2.0, 1.0) == 1.0
    assert truncate(-2.0, 1.0) == -1.0
    with pytest.raises(DomainError):
        truncate(0.5, 0.0)


@given(st.floats(-100, 100), st.floats(0.01, 10))
@settings(max_examples=60, deadline=None)
def test_truncate_idempotent_and_contained(v, B):
    once = truncate(v, B)
    assert -B <= once <= B
    assert truncate(once, B) == once


def test_dataset_validation():
    with pytest.raises(MalformedInputError):
        Dataset((0, 1), index=(0, 1), ys=np.array([0.1]))
    with pytest.raises(MalformedInputError):
        Dataset((0,), index=(0,), ys=np.array([2.0]), response_bound=1.0)
    with pytest.raises(MalformedInputError):
        Dataset((0, 1), index=(0, 2), ys=np.array([0.1, 0.2]))


# (states, index): int, str and tuple labels, a one-point sample, a state that never occurs
XS_CASES = [
    ((0, 1, 2), (2, 0, 0, 1, 2)),
    (("a", "bc", ""), (1, 1, 2, 0)),
    (((0, 1), (1, 0), (1, 1)), (0, 2, 2, 0)),
    (((0, (1, 2)), "x", 3), (1, 0, 2)),
    ((7,), (0,)),
    (((0, 0), (0, 1)), (1,)),
    ((0, 1, 2, 3), (3, 0, 3)),
]


@pytest.mark.parametrize("states, index", XS_CASES)
def test_dataset_xs_reads_the_labels(states, index):
    data = Dataset(states, index, np.zeros(len(index)))
    xs = data.xs
    assert xs == tuple(states[i] for i in index)
    assert all(type(x) is type(states[i]) for x, i in zip(xs, index))


def test_fit_recovers_truth_noiseless():
    truth = {0: 0.1, 1: -0.2}
    fam = state_family([{0: 0.0, 1: 0.0}, truth, {0: 0.3, 1: 0.3}])
    xs = (0, 1, 0, 1, 1)
    ys = np.array([truth[x] for x in xs])
    res = fit_least_squares(Dataset((0, 1), xs, ys), fam, B=1.0)
    assert res.member_index == 1
    assert res.empirical_risk == pytest.approx(0.0, abs=1e-15)


def test_fit_exhaustive_two_member():
    fam = state_family([{0: 0.0, 1: 0.0}, {0: 1.0, 1: 1.0}])
    res = fit_least_squares(Dataset((0, 1), (0, 1, 0), np.ones(3)), fam, B=1.0)
    assert res.member_index == 1


def test_fit_tie_breaks_lexicographically():
    fam = state_family([{0: 1.0}, {0: -1.0}])
    res = fit_least_squares(Dataset((0,), (0, 0), np.zeros(2)), fam, B=1.0)
    assert res.member_index == 0


def test_fit_risk_never_beats_truth_in_family():
    rng = np.random.default_rng(1)
    truth = {0: 0.1, 1: -0.1}
    fam = state_family([truth, {0: 0.2, 1: 0.0}, {0: -0.3, 1: 0.3}])
    xs = tuple(rng.integers(0, 2, size=30))
    ys = np.array([truth[x] for x in xs]) + rng.choice([-0.05, 0.05], size=30)
    res = fit_least_squares(Dataset((0, 1), xs, ys), fam, B=1.0)
    truth_risk = np.mean([(y - truth[x]) ** 2 for x, y in zip(xs, ys)])
    assert res.empirical_risk <= truth_risk + 1e-15


def test_span_fit_matches_grid_search_oracle():
    rng = np.random.default_rng(2)
    xs = tuple(rng.integers(0, 4, size=40))
    ys = 0.05 * np.array(xs) - 0.1 + 0.02 * rng.standard_normal(40)
    states = (0, 1, 2, 3)
    res = fit_least_squares(Dataset(states, xs, ys), affine_span(states), B=1.0)
    grid = np.linspace(-0.2, 0.2, 81)
    best = min(
        (np.mean((c0 + c1 * np.array(xs) - ys) ** 2), (c0, c1))
        for c0, c1 in itertools.product(grid, grid)
    )
    assert res.empirical_risk <= best[0] + 1e-12
    assert np.allclose(res.coefficients, best[1], atol=0.0051)


def test_span_fit_ridge_fallback_on_degenerate_design():
    # constant inputs make the design rank-deficient
    fam = affine_span((0, 1))
    res = fit_least_squares(Dataset((0, 1), (1, 1, 1), np.array([0.2, 0.2, 0.2])), fam, B=1.0)
    assert res.ridge_used
    assert res.empirical_risk == pytest.approx(0.0, abs=1e-9)


def test_truncated_estimator_clamped():
    fam = state_family([{0: 5.0}])
    res = fit_least_squares(Dataset((0,), (0,), np.array([0.9])), fam, B=1.0)
    assert res.fitted[0] == 5.0
    assert res.truncated[0] == 1.0


def test_loss_difference_zero_at_truth():
    truth = [0.1 * s for s in (0, 1)]
    fam = state_family([{0: 0.0, 1: 0.1}])  # equals truth on {0, 1}
    g = loss_difference_family(fam, 0.25, truth, responses=(0.2, -0.1))
    for xy in ((0, 0.2), (1, -0.1)):
        assert g.table[0, g.states.index(xy)] == pytest.approx(0.0, abs=1e-15)


def test_loss_difference_square_when_truth_zero():
    fam = state_family([{0: 0.2, 1: -0.3}])
    g = loss_difference_family(fam, 0.25, [0.0 for s in (0, 1)], responses=(0.0,))
    assert g.table[0, g.states.index((0, 0.0))] == pytest.approx(0.04)
    assert g.table[0, g.states.index((1, 0.0))] == pytest.approx(0.09)


def test_loss_difference_range_under_quarter_bound():
    rng = np.random.default_rng(3)
    tables = [{0: rng.uniform(-0.25, 0.25), 1: rng.uniform(-0.25, 0.25)} for _ in range(5)]
    truth_tbl = {0: 0.1, 1: -0.05}
    g = loss_difference_family(
        state_family(tables), 0.25, [truth_tbl[s] for s in (0, 1)],
        responses=np.linspace(-0.25, 0.25, 51),
    )
    assert g.table.shape == (5, 2 * 51)
    assert np.abs(g.table).max() <= 1.0 + 1e-12


def test_loss_difference_requires_truth():
    family = state_family([{0: 0.0, 1: 0.1}])
    for truth in (None, [0.0], [0.0, 0.1, 0.2], [[0.0, 0.1]]):
        with pytest.raises(MalformedInputError, match="one value per state"):
            loss_difference_family(family, 0.25, truth, responses=(0.0,))
    with pytest.raises(DomainError, match="enumerable"):
        loss_difference_family(affine_span((0, 1)), 0.25, [0.0, 0.1], responses=(0.0,))


def test_orthogonal_decomposition_identity():
    # E|Y - f|^2 = E|Y - Phi|^2 + E|f - Phi|^2 per index, exactly computable
    # for finite noise: Y = Phi(X) + eta with centered eta independent of X
    states = (0, 1)
    law = np.array([0.3, 0.7])
    phi = {0: 0.1, 1: -0.2}
    noise = [(-0.1, 0.5), (0.1, 0.5)]
    f = {0: -0.05, 1: 0.3}
    lhs = sum(
        law[i] * pn * (phi[s] + nv - f[s]) ** 2
        for i, s in enumerate(states)
        for nv, pn in noise
    )
    noise_var = sum(pn * nv**2 for nv, pn in noise)
    rhs = noise_var + sum(law[i] * (f[s] - phi[s]) ** 2 for i, s in enumerate(states))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_family_bias_zero_when_truth_in_family():
    laws = np.full((5, 2), 0.5)
    truth = [0.1 - 0.15 * s for s in (0, 1)]
    fam = affine_span((0, 1))
    assert family_bias(fam, truth, laws, B=0.25) == pytest.approx(0.0, abs=1e-12)
    finite = state_family([{0: 0.1, 1: -0.05}, {0: 0.2, 1: 0.2}])
    assert family_bias(finite, finite.table[0], laws, B=1.0) == 0.0


def test_weak_error_unbiased_noiseless_shrinks():
    truth = [0.05, -0.05]
    fam = affine_span((0, 1))
    spec = GeneratorSpec(kind="iid", seed=7, law=FinitePmf((0, 1), [0.5, 0.5]), phi=truth,
                         noise_values=(-0.02, 0.02), noise_probs=(0.5, 0.5), response_bound=0.25)
    params = BoundParams(epsilon=0.5, c=2.0, gamma=2.0, gamma_prime=2.0, lam=1.5, B=0.25, V=2, n=40, m=1)
    small, big = weak_error_experiment(spec, fam, params, truth, [40, 640], 60).rows
    assert [small["bias"], big["bias"]] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert big["weak_error"] < small["weak_error"]


@given(st.lists(st.integers(1, 6), min_size=1, max_size=2), st.integers(1, 300), st.integers(1, 12),
       st.integers(0, 2**32 - 1))
@example([1], 1, 1, 0)
@example([1], 300, 12, 1)
@example([6, 1], 1, 12, 2)
@example([6], 300, 1, 3)
@settings(max_examples=200, deadline=None)
def test_average_sq_distance_of_a_stack_equals_one_call_per_row(stack, n, k, seed):
    # each row of a stack must keep the bits of its score alone: sq @ laws.T, one matrix product
    # for the whole stack, rounds otherwise on most of these shapes
    rng = np.random.default_rng(seed)
    laws = rng.random((n, k))
    laws /= laws.sum(axis=1, keepdims=True)
    truth, values = rng.normal(size=k), rng.normal(size=(*stack, k))
    scores = _average_sq_distance(values, truth, laws)
    assert scores.shape == tuple(stack)
    rows = values.reshape(-1, k)
    alone = [_average_sq_distance(row, truth, laws) for row in rows]
    # a lone row is the plain matrix-vector product of the laws and its squared distances, averaged
    assert alone == [float((laws @ np.float_power(row - truth, 2.0)).mean()) for row in rows]
    assert scores.ravel().tolist() == alone
    family = FunctionFamily(tuple(range(k)), table=rows)
    B = 0.5
    assert family_bias(family, truth, laws, B) == min(_average_sq_distance(truncate(row, B), truth, laws)
                                                      for row in rows)


# (call, exception type, start of its message) of each input check
INPUT_CHECKS = {
    "B of 0": (lambda: fit_least_squares(Dataset((0, 1), (0, 1), [0.1, 0.2]), affine_span((0, 1)), 0.0),
               DomainError, "B must be positive"),
    "family on other states": (
        lambda: fit_least_squares(Dataset((0, 1), (0, 1), [0.1, 0.2]), affine_span((0, 1, 2)), 1.0),
        MalformedInputError, "the family and the data must share one state alphabet"),
    # a square past the float range used to make numpy warn "overflow encountered in square" and fit on
    "table value with an infinite square": (
        lambda: fit_least_squares(Dataset((0, 1), (0, 1), [0.1, 0.2]), FunctionFamily((0, 1), table=[[0.0, 1e308]]),
                                  1.0),
        DomainError, "table values must have finite squares"),
    "design value with an infinite square": (
        lambda: fit_least_squares(Dataset((0, 1), (0, 1), [0.1, 0.2]),
                                  FunctionFamily((0, 1), design=[[1.0, 0.0], [1.0, -1e155]]), 1.0),
        DomainError, "design values must have finite squares"),
    "response with an infinite square": (
        lambda: fit_least_squares(Dataset((0, 1), (0, 1), [0.1, 2e154]), affine_span((0, 1)), 1.0),
        DomainError, "responses must have finite squares"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_checks_name_the_fault(case):
    call, kind, message = INPUT_CHECKS[case]
    with pytest.raises(kind) as exc:
        call()
    assert str(exc.value).startswith(message)
