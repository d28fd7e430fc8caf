import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betamix import config
from betamix.entropy import (
    FunctionFamily,
    _cover_from_distances,
    covering_number_exact,
    covering_number_greedy,
    finite_family_entropy,
    l1_distances,
    neural_net_entropy,
    sauer_shelah_entropy,
)
from betamix.errors import DomainError, MalformedInputError, SizeError


def test_l1_distances_hand_case():
    values = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    d = l1_distances(values)
    assert d[0, 1] == pytest.approx(0.5)
    assert d[0, 2] == pytest.approx(1.0)
    assert np.allclose(d, d.T)
    assert np.allclose(np.diag(d), 0.0)


def test_exact_cover_hand_cases():
    # three members pairwise 1 apart: radius below 1 needs all three centers
    values = np.diag([3.0, 3.0, 3.0])
    assert covering_number_exact(values, 0.5) == 3
    assert covering_number_exact(values, 2.5) == 1
    # a single member always covers itself
    assert covering_number_exact(np.array([[1.0, 2.0]]), 0.1) == 1
    # also at radii below the strictness margin
    assert covering_number_exact(np.array([[0.0, 1.0], [1.0, 0.0]]), 1e-13) == 2
    assert covering_number_exact(np.array([[1.0, 2.0]]), 1e-13) == 1
    # a table with no points, or with a NaN, has no distances
    for values in (np.zeros((1, 0)), np.zeros((0, 2)), np.array([[0.0, np.nan], [1.0, 0.0]])):
        with pytest.raises(MalformedInputError):
            covering_number_exact(values, 0.5)


def test_exact_cover_beats_star_heuristic():
    # two tight clusters: one center per cluster suffices
    values = np.array([[0.0], [0.01], [5.0], [5.01]])
    assert covering_number_exact(values, 0.1) == 2


def test_greedy_upper_bounds_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        values = rng.random((7, 5))
        for r in (0.05, 0.2, 0.5):
            exact = covering_number_exact(values, r)
            greedy = covering_number_greedy(values, r)
            assert exact <= greedy <= values.shape[0]
    # radii below the strictness margin end with every member its own center
    values = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert covering_number_exact(values, 1e-13) == covering_number_greedy(values, 1e-13) == 2
    for values in (np.zeros((1, 0)), np.array([[np.nan]])):
        with pytest.raises(MalformedInputError):
            covering_number_greedy(values, 0.5)


def test_exact_cover_size_cap():
    with pytest.raises(SizeError):
        covering_number_exact(np.zeros((21, 2)), 0.1)


def test_cover_strictness():
    # members exactly r apart do not cover each other (strict radius)
    values = np.array([[0.0], [1.0]])
    assert covering_number_exact(values, 1.0) == 2
    assert covering_number_exact(values, 1.0 + 1e-9) == 1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_smaller_distances_need_fewer_centers(seed):
    """Covering under empirical L1 never needs more centers than under L2."""
    rng = np.random.default_rng(seed)
    values = rng.random((6, 4))
    d1 = l1_distances(values)
    d2 = np.sqrt(((values[:, None, :] - values[None, :, :]) ** 2).mean(axis=2))
    assert np.all(d1 <= d2 + 1e-12)
    for r in (0.1, 0.3, 0.6):
        assert _cover_from_distances(d1, r) <= _cover_from_distances(d2, r)


def test_sauer_shelah_spot_value():
    # V=1, B=1, r=1/4: log 3 + 1 + log 2 + log 4 + log(1 + log 3 + log 4)
    expected = math.log(3) + 1 + math.log(2) + math.log(4) + math.log(1 + math.log(3) + math.log(4))
    assert sauer_shelah_entropy(1, 1.0, 0.25) == pytest.approx(expected, rel=1e-12)


def test_sauer_shelah_extension_conventions():
    # r in (B/4, B]: falls back to the estimate at scale 4B
    assert sauer_shelah_entropy(2, 1.0, 0.5) == pytest.approx(sauer_shelah_entropy(2, 4.0, 0.5))
    # r > B: trivial class of radius-B balls, entropy 0
    assert sauer_shelah_entropy(2, 1.0, 1.5) == 0.0
    with pytest.raises(DomainError):
        sauer_shelah_entropy(2, 1.0, 0.0)


def test_sauer_shelah_monotone():
    rs = np.linspace(0.01, 0.25, 30)
    vals = [sauer_shelah_entropy(3, 1.0, float(r)) for r in rs]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert sauer_shelah_entropy(4, 1.0, 0.1) > sauer_shelah_entropy(2, 1.0, 0.1)


def test_neural_net_spot_value_and_domain():
    # N=1, d=1, B=1, r=1/4: 8 * (1 + log 12 + log 4 + log 2)
    expected = 8 * (1 + math.log(12) + math.log(4) + math.log(2))
    assert neural_net_entropy(1, 1, 1.0, 0.25) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(DomainError):
        neural_net_entropy(1, 1, 1.0, 0.5)  # r = B/2 is outside the open interval
    with pytest.raises(DomainError):
        neural_net_entropy(1, 1, 1.0, 0.75)


def test_entropy_estimates_callable():
    def estimate(**doc):
        return config.entropy_estimate(config.Section(doc))

    assert estimate(V=1, B=1.0)(0.1) == pytest.approx(sauer_shelah_entropy(1, 1.0, 0.1))
    assert finite_family_entropy(5)(0.01) == pytest.approx(math.log(5))
    assert estimate(entropy="zero")(0.001) == 0.0


def test_finite_family_entropy_dominates_exact_cover():
    rng = np.random.default_rng(1)
    values = rng.random((8, 6))
    for r in (0.05, 0.2):
        bound = math.exp(finite_family_entropy(8)(r))
        assert bound * (1 + 1e-9) >= covering_number_exact(values, r)


def test_threshold_family_within_sauer_shelah():
    """Thresholds on the line have VC dimension 1; the closed form must
    dominate the exact covering number on random point sets."""
    rng = np.random.default_rng(2)
    B = 1.0
    for _ in range(10):
        points = np.sort(rng.random(8))
        thresholds = rng.random(10)
        values = B * (points[None, :] >= thresholds[:, None]).astype(float)
        for r in (B / 16, B / 8, B / 4):
            assert math.exp(sauer_shelah_entropy(1, B, r)) >= covering_number_exact(values, r)


def test_linear_span_holds_design():
    states = (0, 1)
    fam = FunctionFamily(states, design=[[1.0, float(s)] for s in states])
    assert fam.table is None
    assert fam.design.shape == (2, 2)


def test_function_family_arrays_must_fit_states():
    states = (0, 1, 2)
    fam = FunctionFamily(states, table=[[float(s) for s in states], [1.0 - s for s in states]])
    assert fam.design is None and fam.table.shape == (2, 3)
    with pytest.raises(MalformedInputError):
        FunctionFamily(states, table=[[0.0, 1.0]])
    with pytest.raises(MalformedInputError):
        FunctionFamily(states, design=[[1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(MalformedInputError):
        FunctionFamily(states)
