import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betamix import config
from betamix.entropy import FunctionFamily
from betamix.errors import MalformedInputError, SizeError
from betamix.mixing import markov_beta
from betamix.pmf import CELL_CAP, FinitePmf, JointPmf, MarkovChainSpec
from betamix.regression import Dataset, family_bias


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


def plain_marginal_loop(chain, n):
    """The mu @ P recursion run for all n rows: the reference."""
    out = np.empty((n, chain.n_states))
    mu = chain.initial.probs.copy()
    for j in range(n):
        out[j] = mu
        mu = mu @ chain.transition
    return out


MARGINAL_CHAINS = {
    # criterion 7's stationary chain: a fixed point from the first row
    "stationary": ((0, 1), [[0.75, 0.25], [0.25, 0.75]], [0.5, 0.5]),
    "three states from a point mass": (
        (0, 1, 2), [[0.7, 0.2, 0.1], [0.25, 0.5, 0.25], [0.1, 0.3, 0.6]], [0.0, 1.0, 0.0]),
    # never reaches a fixed point
    "periodic": ((0, 1), [[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0]),
    # rows short of 1 within tolerance: the mass drains a little every step
    "mass deficit": ((0, 1), [[0.5, 0.5 - 9e-13], [0.5, 0.5 - 9e-13]], [0.5, 0.5]),
}


@pytest.mark.parametrize("n", [1, 2, 1000])
@pytest.mark.parametrize("name", sorted(MARGINAL_CHAINS))
def test_marginal_matrix_equals_plain_loop(name, n):
    states, transition, initial = MARGINAL_CHAINS[name]
    chain = MarkovChainSpec(states, transition, FinitePmf(states, initial))
    got, want = chain.marginal_matrix(n), plain_marginal_loop(chain, n)
    assert got.shape == want.shape == (n, len(states))
    assert got.tobytes() == want.tobytes()


# rows of the plain recursion searched for its first exact fixed point
SETTLE_ROWS = 200


def settled_rows(chain):
    """The rows of the plain recursion up to its first exact fixed point, or SETTLE_ROWS rows."""
    mus = plain_marginal_loop(chain, SETTLE_ROWS + 1)
    return next((j + 1 for j in range(SETTLE_ROWS) if mus[j + 1].tobytes() == mus[j].tobytes()), SETTLE_ROWS)


@st.composite
def chain_runs(draw):
    """A chain on 1..8 states and a row count on either side of its recursion's first fixed point.

    The transition's rows are drawn laws with zero-mass entries, or the rows of a permutation
    (a periodic chain), handed to the chain C-contiguous, F-contiguous or strided: the chain
    copies each layout into its own C-ordered transition.  The start is a point mass, a drawn
    law, or the law that the plain recursion from a drawn law has reached after SETTLE_ROWS
    steps (stationary, if it settles).
    """
    k = draw(st.integers(1, 8))
    states = tuple(range(k))

    def law():
        weights = draw(st.lists(st.integers(0, 20), min_size=k, max_size=k).filter(any))
        return [w / sum(weights) for w in weights]

    if draw(st.booleans()):
        transition = np.array([law() for _ in states])
    else:
        transition = np.eye(k)[list(draw(st.permutations(states)))]
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        transition = np.asfortranarray(transition)
    elif layout == "strided":
        transition = np.repeat(np.repeat(transition, 2, axis=0), 2, axis=1)[::2, ::2]
    start = draw(st.sampled_from(["point mass", "drawn", "stationary"]))
    initial = np.eye(k)[draw(st.sampled_from(states))] if start == "point mass" else law()
    if start == "stationary":
        initial = plain_marginal_loop(MarkovChainSpec(states, transition, FinitePmf(states, initial)),
                                      SETTLE_ROWS + 1)[-1]
    chain = MarkovChainSpec(states, transition, FinitePmf(states, initial))
    r = settled_rows(chain)
    return chain, draw(st.one_of(st.integers(max(r - 1, 0), r + 1), st.integers(0, 2 * r + 1)))


@given(chain_runs())
@settings(max_examples=300, deadline=None)
def test_marginal_matrix_equals_plain_loop_on_drawn_chains(run):
    chain, n = run
    got, want = chain.marginal_matrix(n), plain_marginal_loop(chain, n)
    assert got.shape == want.shape == (n, chain.n_states)
    assert got.tobytes() == want.tobytes()


@given(chain_runs(), st.integers(1, 20))
@settings(max_examples=300, deadline=None)
def test_equal_objects_give_equal_bits(run, m):
    # the chain was built from the drawn layout, its twin from a C-ordered copy of that array
    chain, n = run
    twin = MarkovChainSpec(chain.states, np.ascontiguousarray(chain.transition), chain.initial)
    assert twin == chain
    assert twin.marginal_matrix(n).tobytes() == chain.marginal_matrix(n).tobytes()
    horizon = max(n, 1)
    assert markov_beta(twin, m, horizon).hex() == markov_beta(chain, m, horizon).hex()


def test_writes_to_the_callers_array_leave_a_chain_unchanged():
    transition = np.array([[0.75, 0.25], [0.25, 0.75]])
    chain = MarkovChainSpec((0, 1), transition, FinitePmf((0, 1), [1.0, 0.0]))
    before = chain.transition.copy(), chain.marginal_matrix(30), markov_beta(chain, 3, 30)
    transition[:] = [[1e10, -1e10], [0.0, 1.0]]
    assert np.array_equal(chain.transition, before[0])
    assert chain.marginal_matrix(30).tobytes() == before[1].tobytes()
    assert markov_beta(chain, 3, 30).hex() == before[2].hex()


@pytest.mark.parametrize("kind", ["table", "design"])
def test_a_family_from_an_f_ordered_array_keeps_the_bits_of_its_c_copy(kind):
    rng = np.random.default_rng(33)
    states = tuple(range(6))
    laws = rng.dirichlet(np.ones(6), size=40)
    truth = rng.uniform(-1.0, 1.0, 6)
    for _ in range(20):
        values = rng.uniform(-1.0, 1.0, (5, 6) if kind == "table" else (6, 3))
        c_family = FunctionFamily(states, **{kind: values})
        f_family = FunctionFamily(states, **{kind: np.asfortranarray(values)})
        assert f_family == c_family
        assert family_bias(f_family, truth, laws, 0.75).hex() == family_bias(c_family, truth, laws, 0.75).hex()


def test_chain_json_roundtrip():
    doc = {"states": [0, 1], "transition": [[0.5, 0.5], [0.2, 0.8]], "initial": [1.0, 0.0]}
    chain = config.chain(config.Section(doc))
    assert chain.states == (0, 1)
    assert np.allclose(chain.transition, doc["transition"])


def test_joint_json_roundtrip():
    j = JointPmf(((0, 1), ("x", "y")), np.array([[0.1, 0.2], [0.3, 0.4]]))
    back = config.joint(config.Section(config.joint_doc(j)))
    assert np.allclose(back.probs, j.probs)
    assert back.axes == j.axes


def equality_cases():
    """(object, a twin built apart, a copy with one cell changed), one per class.

    A design family's third entry holds the same values as a table instead.
    """
    law = FinitePmf((0, 1, 2), [0.25, 0.25, 0.5])
    joint = JointPmf(((0, 1), ("a", "b", "c")), np.full((2, 3), 1 / 6))
    probs = np.full((2, 3), 1 / 6)
    probs[1, 2], probs[1, 1] = 1 / 12, 1 / 4
    chain = MarkovChainSpec((0, 1, 2), np.full((3, 3), 1 / 3), law)
    transition = np.full((3, 3), 1 / 3)
    transition[2] = [0.5, 0.25, 0.25]
    rows = [[1.0, 0.0], [1.0, 1.0]]
    return {
        "FinitePmf": (law, FinitePmf((0, 1, 2), [0.25, 0.25, 0.5]), FinitePmf((0, 1, 2), [0.25, 0.5, 0.25])),
        "JointPmf": (joint, JointPmf(((0, 1), ("a", "b", "c")), np.full((2, 3), 1 / 6)),
                     JointPmf(((0, 1), ("a", "b", "c")), probs)),
        "MarkovChainSpec": (chain, MarkovChainSpec((0, 1, 2), np.full((3, 3), 1 / 3), law),
                            MarkovChainSpec((0, 1, 2), transition, law)),
        "Dataset": (Dataset((0, 1), [0, 1], [0.1, 0.2]), Dataset((0, 1), [0, 1], [0.1, 0.2]),
                    Dataset((0, 1), [0, 1], [0.1, 0.25])),
        "FunctionFamily (table)": (FunctionFamily((0, 1), table=rows), FunctionFamily((0, 1), table=rows),
                                   FunctionFamily((0, 1), table=[[1.0, 0.0], [1.0, 0.5]])),
        "FunctionFamily (design)": (FunctionFamily((0, 1), design=rows), FunctionFamily((0, 1), design=rows),
                                    FunctionFamily((0, 1), table=rows)),
    }


@pytest.mark.parametrize("name", sorted(equality_cases()))
def test_equality_compares_arrays_by_value(name):
    obj, twin, changed = equality_cases()[name]
    assert obj == twin and not obj != twin
    assert obj != changed and not obj == changed
    assert obj != "not a pmf"
    assert repr(obj) == repr(twin)


TWO_STATE = MarkovChainSpec((0, 1), [[0.75, 0.25], [0.25, 0.75]], FinitePmf((0, 1), [1.0, 0.0]))
HALVES = FinitePmf((0, 1), [0.5, 0.5])
QUARTERS = JointPmf(((0, 1), (0, 1)), np.full((2, 2), 0.25))

# (call, exception type, start of its message) of each input check
INPUT_CHECKS = {
    "repeated marginal axis": (lambda: QUARTERS.marginal((0, 0)), MalformedInputError, "invalid axis subset (0, 0)"),
    "marginal axis out of range": (lambda: QUARTERS.marginal((2,)), MalformedInputError, "invalid axis subset (2,)"),
    "support longer than probs": (
        lambda: FinitePmf((0, 1), [1.0]), MalformedInputError, "support and probs must have matching length"),
    "empty support": (lambda: FinitePmf((), []), MalformedInputError, "empty support"),
    "joint shape off its axes": (
        lambda: JointPmf(((0, 1),), [[1.0]]), MalformedInputError, "probs shape (1, 1) does not match axes (2,)"),
    "joint mass short of 1": (lambda: JointPmf(((0, 1),), [0.25, 0.25]), MalformedInputError, "total mass 0.5 != 1"),
    "overlapping groups": (
        lambda: QUARTERS.grouped((0,), (0, 1)), MalformedInputError, "left and right groups must be disjoint"),
    "transition shape off the states": (
        lambda: MarkovChainSpec((0, 1), [[1.0]], HALVES), MalformedInputError, "transition shape (1, 1) != (2,2)"),
    "transition row short of 1": (
        lambda: MarkovChainSpec((0, 1), [[0.5, 0.25], [0.5, 0.5]], HALVES), MalformedInputError,
        "transition rows must sum to 1, got"),
    "initial law on other states": (
        lambda: MarkovChainSpec(("a", "b"), [[0.5, 0.5], [0.5, 0.5]], HALVES), MalformedInputError,
        "initial law support must equal the state set"),
    "negative n of marginals": (lambda: TWO_STATE.marginal_matrix(-1), MalformedInputError, "n must be >= 0, got -1"),
    # each used to end in numpy's TypeError
    "fractional n of marginals": (
        lambda: TWO_STATE.marginal_matrix(2.5), MalformedInputError, "n must be an integer, got 2.5"),
    "integral float n of marginals": (
        lambda: TWO_STATE.marginal_matrix(2.0), MalformedInputError, "n must be an integer, got 2.0"),
    "bool n of marginals": (
        lambda: TWO_STATE.marginal_matrix(True), MalformedInputError, "n must be an integer, got True"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_checks_name_the_fault(case):
    call, kind, message = INPUT_CHECKS[case]
    with pytest.raises(kind) as info:
        call()
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("n", [10**12, 10**20])
def test_marginal_matrix_refuses_past_the_cell_cap_before_allocating(n):
    # numpy used to raise MemoryError here, for 14.6 TiB at n = 1e12
    tracemalloc.start()
    try:
        with pytest.raises(SizeError) as info:
            TWO_STATE.marginal_matrix(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"n {n} needs {2 * n} marginal cells, above cap {CELL_CAP}"
    assert peak < 2**20


def test_marginal_matrix_at_the_cell_cap_and_of_no_rows():
    assert TWO_STATE.marginal_matrix(CELL_CAP // 2).shape == (CELL_CAP // 2, 2)
    with pytest.raises(SizeError, match=f"n {CELL_CAP // 2 + 1} needs {CELL_CAP + 2} marginal cells"):
        TWO_STATE.marginal_matrix(CELL_CAP // 2 + 1)
    assert TWO_STATE.marginal_matrix(0).shape == (0, 2)
