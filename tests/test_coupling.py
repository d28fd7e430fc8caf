import dataclasses
import json
import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betamix import config
from betamix.cli import main
from betamix.coupling import (
    _maximal_coupling,
    berbee_couple,
    generalized_berbee,
    verify_coupling,
)
from betamix.errors import MalformedInputError, SizeError
from betamix.mixing import beta_coefficient, pairwise_beta
from betamix.pmf import JointPmf


def random_joint(rng, shape):
    probs = rng.random(shape)
    probs /= probs.sum()
    return JointPmf(tuple(tuple(range(s)) for s in shape), probs)


def test_maximal_coupling_is_maximal():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.random(5)
        p /= p.sum()
        q = rng.random(5)
        q /= q.sum()
        M = _maximal_coupling(p, q)
        assert np.all(M >= -1e-15)
        assert np.allclose(M.sum(axis=1), p)
        assert np.allclose(M.sum(axis=0), q)
        tv = 0.5 * np.abs(p - q).sum()
        assert 1.0 - np.trace(M) == pytest.approx(tv, abs=1e-12)


def test_berbee_pair_mismatch_equals_beta():
    rng = np.random.default_rng(1)
    for _ in range(20):
        j = random_joint(rng, (4, 3))
        res = berbee_couple(j)
        assert res.mismatch_probs[0] == pytest.approx(beta_coefficient(j), abs=1e-12)
        report = verify_coupling(res, j)
        assert max(astuple(report)) < 1e-12


def test_berbee_pair_with_zero_mass_atom():
    probs = np.array([[0.25, 0.25], [0.25, 0.25], [0.0, 0.0]])
    j = JointPmf(((0, 1, 2), (0, 1)), probs)
    res = berbee_couple(j)
    report = verify_coupling(res, j)
    assert max(astuple(report)) < 1e-12


def test_berbee_pair_independent_input():
    j = JointPmf(((0, 1), (0, 1, 2)), np.outer([0.3, 0.7], [0.2, 0.5, 0.3]))
    res = berbee_couple(j)
    assert res.mismatch_probs[0] == pytest.approx(0.0, abs=1e-12)
    # the coupling is then the diagonal: W* = W almost surely
    ext = res.extended_joint.probs
    off_diag = ext.sum() - np.einsum("vww->", ext)
    assert off_diag == pytest.approx(0.0, abs=1e-12)


def test_berbee_requires_two_axes():
    rng = np.random.default_rng(2)
    with pytest.raises(MalformedInputError):
        berbee_couple(random_joint(rng, (2, 2, 2)))


def test_generalized_three_axis_properties():
    rng = np.random.default_rng(3)
    for _ in range(5):
        proc = random_joint(rng, (2, 2, 2))
        res = generalized_berbee(proc)
        report = verify_coupling(res, proc)
        assert report.marginal_error < 1e-10
        assert report.independence_error < 1e-10
        assert report.mismatch_error < 1e-10
        for k in range(3):
            ref = pairwise_beta(proc, tuple(range(k)), (k,))
            assert res.mismatch_probs[k] == pytest.approx(ref, abs=1e-10)
        # the first coordinate is copied, never resampled
        assert res.mismatch_probs[0] == 0.0


def test_generalized_mixed_alphabet_sizes():
    rng = np.random.default_rng(4)
    proc = random_joint(rng, (3, 2, 4))
    report = verify_coupling(generalized_berbee(proc), proc)
    assert max(astuple(report)) < 1e-10


def test_generalized_independent_process_is_diagonal():
    p = np.array([0.4, 0.6])
    proc = JointPmf(((0, 1),) * 3, p[:, None, None] * p[:, None] * p)
    res = generalized_berbee(proc)
    assert all(mm == pytest.approx(0.0, abs=1e-12) for mm in res.mismatch_probs)


def test_generalized_cell_cap():
    rng = np.random.default_rng(5)
    proc = random_joint(rng, (4,) * 6)  # 4096 cells, an extended joint of 4096**2
    with pytest.raises(SizeError):
        generalized_berbee(proc)


def test_generalized_cap_counts_the_extended_joint():
    # 2**10 cells, and an extended joint of 2**20 > 10**6 cells
    proc = JointPmf(((0, 1),) * 10, np.full((2,) * 10, 2.0**-10))
    with pytest.raises(SizeError):
        generalized_berbee(proc)


def test_pair_cap_checked_before_allocating():
    # 62,500 cells whose extension would hold 15,625,000
    proc = random_joint(np.random.default_rng(7), (250, 250))
    tracemalloc.start()
    try:
        with pytest.raises(SizeError):
            berbee_couple(proc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_coupling_json_document(tmp_path, capsys):
    rng = np.random.default_rng(6)
    j = random_joint(rng, (2, 2))
    cfg = tmp_path / "couple.json"
    cfg.write_text(json.dumps({"joint": config.joint_doc(j)}, default=np.ndarray.tolist))
    assert main(["couple", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_original"] == 2
    assert doc["starred_indices"] == [1]
    assert len(doc["probs"]) == 8


# Reference constructions with one maximal coupling per conditioning atom,
# written into the extended joint atom by atom; the batched constructions must
# equal them bit for bit.


def pair_maximal_coupling(p, q):
    overlap = np.minimum(p, q)
    M = np.diag(overlap)
    d = 1.0 - overlap.sum()
    if d > 1e-15:
        M = M + np.outer(p - overlap, q - overlap) / d
    return M


def per_atom_berbee_couple(p):
    """Extended probabilities and mismatch of the pair coupling, one atom of V at a time."""
    sv, sw = p.shape
    p_v = p.sum(axis=1)
    p_w = p.sum(axis=0)
    ext = np.zeros((sv, sw, sw))
    for v in range(sv):
        if p_v[v] <= 0.0:
            continue
        ext[v] = p_v[v] * pair_maximal_coupling(p[v] / p_v[v], p_w)
    return ext, max(float(ext.sum() - np.einsum("vww->", ext)), 0.0)


def per_atom_generalized_berbee(process):
    """Extended probabilities and mismatches of the sequence coupling, one atom at a time."""
    n = process.n_axes
    shape = process.probs.shape
    ext = process.probs.copy()
    star_pos = {}
    for k in range(n - 1, 0, -1):
        sk = shape[k]
        cond_axes = list(range(k)) + [star_pos[j] for j in range(k + 1, n)]
        p_w = process.marginal((k,))
        keep = cond_axes + [k]
        others = [ax for ax in range(ext.ndim) if ax not in keep]
        block = np.transpose(ext, keep + others)
        if others:
            block = block.sum(axis=tuple(range(len(keep), ext.ndim)))
        new_ext = np.zeros(ext.shape + (sk,))
        for u in np.ndindex(*block.shape[:-1]):
            pu_w = block[u]
            pu = pu_w.sum()
            if pu <= 0.0:
                continue
            cond = pu_w / pu
            coupling = pair_maximal_coupling(cond, p_w)
            with np.errstate(divide="ignore", invalid="ignore"):
                rows = np.where(cond[:, None] > 0.0, coupling / cond[:, None], 0.0)
            idx = [slice(None)] * ext.ndim
            for ax, val in zip(cond_axes, u):
                idx[ax] = val
            sub = ext[tuple(idx)]
            new_ext[tuple(idx)] = sub[..., None] * rows.reshape(sk, *([1] * (sub.ndim - 1)), sk)
        ext = new_ext
        star_pos[k] = ext.ndim - 1
    s0 = shape[0]
    ext = ext[..., None] * np.eye(s0).reshape(s0, *([1] * (ext.ndim - 1)), s0)
    star_pos[0] = ext.ndim - 1
    ext = np.transpose(ext, list(range(n)) + [star_pos[k] for k in range(n)])
    extended = JointPmf(process.axes + process.axes, ext)
    mismatch = []
    for k in range(n):
        pair = extended.marginal((k, n + k))
        mismatch.append(max(float(pair.sum() - np.trace(pair)), 0.0))
    return extended.probs, tuple(mismatch)


def sparse_joint(seed, shape):
    """A random joint on ``shape`` with some zero cells and some zero-mass atoms."""
    rng = np.random.default_rng(seed)
    probs = rng.random(shape) * (rng.random(shape) > 0.2)
    for axis, size in enumerate(shape):
        if size > 1 and rng.random() < 0.5:
            np.moveaxis(probs, axis, 0)[rng.integers(size)] = 0.0
    if probs.sum() == 0.0:
        probs.flat[0] = 1.0
    return JointPmf(tuple(tuple(range(s)) for s in shape), probs / probs.sum())


ALPHABET = st.integers(1, 10)


def bit_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@given(st.integers(0, 2**32 - 1), ALPHABET, ALPHABET)
@settings(max_examples=100, deadline=None)
def test_berbee_couple_equals_per_atom_loop(seed, sv, sw):
    joint = sparse_joint(seed, (sv, sw))
    ext, mismatch = per_atom_berbee_couple(joint.probs)
    res = berbee_couple(joint)
    assert bit_equal(res.extended_joint.probs, ext)
    assert res.mismatch_probs == (mismatch,)


@given(st.integers(0, 2**32 - 1),
       st.lists(ALPHABET, min_size=1, max_size=4).filter(lambda shape: math.prod(shape) <= 200))
@example(seed=0, shape=[2, 9, 2])  # a nine-atom axis summed out of a transposed block
@example(seed=1, shape=[1, 10, 3, 1])
@example(seed=2, shape=[2, 1, 3, 2, 2])  # beyond four axes, with a one-atom axis
@example(seed=3, shape=[2, 2, 1, 2, 2, 2])
@settings(max_examples=100, deadline=None)
def test_generalized_berbee_equals_per_atom_loop(seed, shape):
    process = sparse_joint(seed, tuple(shape))
    ext, mismatch = per_atom_generalized_berbee(process)
    res = generalized_berbee(process)
    assert bit_equal(res.extended_joint.probs, ext)
    assert res.mismatch_probs == mismatch


PAIR = JointPmf(((0, 1), (0, 1)), [[0.5, 0.0], [0.25, 0.25]])
# (result, original joint, the MalformedInputError's message) of verify_coupling's input checks
MISMATCHED_COUPLINGS = {
    "starred indices off the extended joint": (
        dataclasses.replace(berbee_couple(PAIR), starred_indices=()), PAIR,
        "extended joint shape inconsistent with starred indices"),
    "original with another axis count": (
        berbee_couple(PAIR), JointPmf(((0, 1),) * 3, np.full((2, 2, 2), 1 / 8)),
        "original joint has wrong axis count"),
}


@pytest.mark.parametrize("case", sorted(MISMATCHED_COUPLINGS))
def test_verify_coupling_rejects_a_mismatched_result(case):
    result, original, message = MISMATCHED_COUPLINGS[case]
    with pytest.raises(MalformedInputError) as exc:
        verify_coupling(result, original)
    assert str(exc.value) == message
