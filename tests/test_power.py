"""Checks that can fail: a table of mutants, wrong bounds that are too small somewhere, each applied with
``monkeypatch``.

A mutant is killed by a check that fails under it because of an observed event.  A check that pins an
exact value does not count, nor does one that fails only because the mutated bound falls below the
resolution 3·stderr of a row of frequency 0.  Each mutant is either killed by the checks named beside it,
which the test runs under the patch, or listed in README with the ROADMAP items whose checks will kill it.
"""
import re
from pathlib import Path

import numpy as np
import pytest

import test_acceptance
from betamix.blocking import lifted_bound
from betamix.bounds import BoundParams, WeakErrorBreakdown, beta_deviation_bound, weak_error_bound
from betamix.entropy import finite_family_entropy
from betamix.mixing import HORIZON, markov_beta
from betamix.pmf import FinitePmf, MarkovChainSpec
from betamix.simulate import GeneratorSpec

README = Path(__file__).resolve().parents[1] / "README.md"
# the witness's shape: at m = 1 the lifted bound is the independent one plus n·beta(1)
WITNESS = BoundParams(epsilon=0.1, c=4.0, gamma=2.0, gamma_prime=2.0, lam=1.5, B=1.0, V=1, n=30000, m=1)
# the sticky chain started at a point mass, whose beta(5) a 64-step scan finds at 0.194 of about 0.49
STICKY = GeneratorSpec(kind="markov", seed=0, chain=MarkovChainSpec(
    (0, 1), np.array([[0.998, 0.002], [0.002, 0.998]]), FinitePmf((0, 1), [1.0, 0.0])))
TOTAL = WeakErrorBreakdown.total.fget

# name: (patched target, mutant, probe of the quantity that the mutant makes too small)
MUTANTS = {
    "the dependence price n*beta(m) dropped": (
        "betamix.bounds.lifted_bound",
        lambda base, n, m, t, beta_at_m, deviation_cap: lifted_bound(base, n, m, t, 0.0, deviation_cap),
        lambda: beta_deviation_bound(WITNESS, finite_family_entropy(3), 0.2, beta_at_m=0.499999)),
    "the base bound halved inside the lifted sum": (
        "betamix.bounds.lifted_bound",
        lambda base, *args, **kwargs: lifted_bound(lambda q, t: 0.5 * base(q, t), *args, **kwargs),
        lambda: beta_deviation_bound(WITNESS, finite_family_entropy(3), 0.2, beta_at_m=0.0)),
    "beta from a 64-step scan on the sticky chain": (
        "betamix.simulate.markov_beta",
        lambda chain, m, horizon=HORIZON: markov_beta(chain, m, min(horizon, HORIZON)),
        lambda: STICKY.beta_at(5, 20000)),
    "`WeakErrorBreakdown.total` x 1e-3": (
        "betamix.bounds.WeakErrorBreakdown.total",
        property(lambda self: 1e-3 * TOTAL(self)),
        lambda: weak_error_bound(WITNESS, bias=0.01, beta_at_m=0.0).total),
}
# mutant: the checks that kill it
KILLED = {
    "the dependence price n*beta(m) dropped": [
        test_acceptance.test_criterion_07_witness_that_the_dependence_price_is_needed],
}
# mutant: the ROADMAP items whose checks will kill it, as README lists them
NOT_YET_KILLED = {
    "the base bound halved inside the lifted sum": "items 4, 12 and 13",
    "beta from a 64-step scan on the sticky chain": "item 2",
    "`WeakErrorBreakdown.total` x 1e-3": "item 5",
}


def test_every_mutant_is_killed_or_listed():
    assert not set(KILLED) & set(NOT_YET_KILLED)
    assert set(KILLED) | set(NOT_YET_KILLED) == set(MUTANTS)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_every_mutant_makes_its_quantity_too_small(monkeypatch, name):
    target, mutant, probe = MUTANTS[name]
    right = probe()
    monkeypatch.setattr(target, mutant)
    assert 0.0 <= probe() < right


@pytest.mark.parametrize("name", sorted(KILLED))
def test_a_killed_mutant_fails_each_of_its_killers(monkeypatch, name):
    target, mutant, _ = MUTANTS[name]
    monkeypatch.setattr(target, mutant)
    for killer in KILLED[name]:
        with pytest.raises(AssertionError):
            killer()


def test_readme_lists_every_mutant_that_no_check_kills_yet():
    rows = set(re.findall(r"^\| (.+) \| ROADMAP (.+) \|$", README.read_text(), flags=re.MULTILINE))
    assert set(NOT_YET_KILLED.items()) <= rows
