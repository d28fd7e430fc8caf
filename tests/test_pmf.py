import numpy as np
import pytest

from betamix import config
from betamix.errors import MalformedInputError, SizeError
from betamix.pmf import FinitePmf, JointPmf, MarkovChainSpec, joint_to_json


def test_finite_pmf_validation():
    FinitePmf((0, 1), [0.5, 0.5])
    with pytest.raises(MalformedInputError):
        FinitePmf((0, 1), [0.5, 0.6])
    with pytest.raises(MalformedInputError):
        FinitePmf((0, 0), [0.5, 0.5])
    with pytest.raises(MalformedInputError):
        FinitePmf((0, 1), [1.2, -0.2])
    # NaN fails the mass checks rather than slipping past them
    for probs in ([np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan]):
        with pytest.raises(MalformedInputError):
            FinitePmf((0, 1), probs)
    with pytest.raises(MalformedInputError):
        JointPmf(((0, 1), (0, 1)), [[0.5, np.nan], [0.0, 0.5]])
    initial = FinitePmf((0, 1), [0.5, 0.5])
    with pytest.raises(MalformedInputError):
        MarkovChainSpec((0, 1), [[0.5, 0.5], [np.nan, 1.0]], initial)


def test_uniform_and_point_mass():
    u = FinitePmf("abc", np.full(3, 1 / 3))
    assert np.allclose(u.probs, 1 / 3)
    p = FinitePmf((0, 1, 2), [0.0, 1.0, 0.0])
    assert p.probs[1] == 1.0 and p.probs[0] == 0.0


def test_joint_marginals_preserve_order():
    probs = np.arange(24, dtype=float).reshape(2, 3, 4)
    probs /= probs.sum()
    j = JointPmf(((0, 1), (0, 1, 2), (0, 1, 2, 3)), probs)
    m = j.marginal((2, 0))
    assert m.shape == (4, 2)
    assert np.allclose(m, probs.sum(axis=1).T)
    assert np.allclose(j.marginal((1,)), probs.sum(axis=(0, 2)))


def test_grouped_blocks():
    probs = np.full((2, 2, 2), 1 / 8)
    j = JointPmf(((0, 1),) * 3, probs)
    g = j.grouped((0, 2), (1,))
    assert g.shape == (4, 2)
    assert abs(g.sum() - 1.0) < 1e-12
    assert np.array_equal(g, probs.transpose(0, 2, 1).reshape(4, 2))


def test_cell_cap_enforced():
    with pytest.raises(SizeError):
        JointPmf(((0, 1),) * 20, np.full((2,) * 20, 2.0**-20))


def test_from_product_is_independent():
    f = FinitePmf((0, 1), [0.3, 0.7])
    g = FinitePmf(("a", "b", "c"), [0.2, 0.3, 0.5])
    j = JointPmf((f.support, g.support), np.multiply.outer(f.probs, g.probs))
    assert np.allclose(j.probs, np.outer(f.probs, g.probs))


def test_markov_marginal_propagation():
    chain = MarkovChainSpec(
        (0, 1), [[0.9, 0.1], [0.4, 0.6]], FinitePmf((0, 1), [1.0, 0.0])
    )
    mat = chain.marginal_matrix(5)
    assert np.allclose(mat[0], [1.0, 0.0])
    mu = np.array([1.0, 0.0])
    for j in range(5):
        assert np.allclose(mat[j], mu)
        mu = mu @ chain.transition


def test_chain_json_roundtrip():
    doc = {"states": [0, 1], "transition": [[0.5, 0.5], [0.2, 0.8]], "initial": [1.0, 0.0]}
    chain = config.chain(config.Section(doc))
    assert chain.states == (0, 1)
    assert np.allclose(chain.transition, doc["transition"])


def test_joint_json_roundtrip():
    j = JointPmf(((0, 1), ("x", "y")), np.array([[0.1, 0.2], [0.3, 0.4]]))
    back = config.joint(config.Section(joint_to_json(j)))
    assert np.allclose(back.probs, j.probs)
    assert back.axes == j.axes
