"""Config documents: check every field, then build the library objects.

Every document the command line reads goes through ``Section``, whose reads raise
``ConfigError`` naming the field's path (``generator.chain.states``) when it is
missing, does not convert, names an unknown kind or has the wrong shape; an
integer field refuses a bool and a number with a fractional part.  Range
and mass checks stay with the objects built.  State tables map each state's
string form to a value.  ``joint_doc``, the inverse of ``joint``, writes a
joint's document, so that one format has one owner for reading and writing.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math

import numpy as np

from . import bounds, entropy, mixing, pmf, regression, simulate
from .errors import ConfigError

_REQUIRED = object()


class Section:
    """One JSON object and its path in the document."""

    def __init__(self, doc, path: str = ""):
        if not isinstance(doc, dict):
            raise ConfigError(f"{path or 'document'}: expected an object, got {type(doc).__name__}")
        self.doc, self.path = doc, path
        self.prefix = f"{path}." if path else ""

    def __contains__(self, key: str) -> bool:
        return self.doc.get(key) is not None

    def get(self, key: str, convert=lambda value: value, default=_REQUIRED):
        """The field passed through ``convert``; a null field counts as absent."""
        if key not in self:
            if default is _REQUIRED:
                raise ConfigError(f"{self.prefix}{key}: missing field")
            return default
        try:
            return convert(self.doc[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{self.prefix}{key}: {exc}") from exc

    def section(self, key: str) -> "Section":
        return Section(self.get(key), f"{self.prefix}{key}")

    def kind(self, key: str, kinds: tuple, default=_REQUIRED) -> str:
        value = self.get(key, str, default)
        if value not in kinds:
            raise ConfigError(f"{self.prefix}{key}: unknown kind {value!r}, expected one of {kinds}")
        return value

    def one_of(self, keys: tuple) -> str:
        for key in keys:
            if key in self:
                return key
        raise ConfigError(f"{self.path or 'document'}: needs one of {keys}")


def load(path) -> Section:
    """The top-level object of a JSON config file (OSError propagates)."""
    with open(path) as fh:
        try:
            return Section(json.load(fh))
        except ValueError as exc:  # malformed JSON or text that does not decode
            raise ConfigError(f"{path}: not a JSON document: {exc}") from exc


def _list(value) -> list:
    if not isinstance(value, list):
        raise ValueError(f"expected a list, got {type(value).__name__}")
    return value


def integer(value) -> int:
    """An integer field; an integral float such as 2.0 counts, a bool or a fraction does not."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {json.dumps(value)}")
    return int(value)


def labels(value) -> tuple:
    if not all(isinstance(v, (str, int, float)) for v in _list(value)):
        raise ValueError("state labels must be strings or numbers")
    return tuple(value)


def floats(*shape):
    """Converter to a float array of the given shape; None matches any length."""
    def convert(value):
        arr = np.asarray(value, dtype=float)
        if arr.ndim != len(shape) or any(s not in (None, a) for s, a in zip(shape, arr.shape)):
            raise ValueError(f"expected an array of shape {shape}, got {arr.shape}")
        return arr
    return convert


def grid(value) -> np.ndarray:
    """A nonempty list of numbers: with no grid point an experiment checks nothing."""
    arr = floats(None)(value)
    if arr.size == 0:
        raise ValueError("expected at least one grid point")
    return arr


def state_values(sec: Section, states: tuple) -> np.ndarray:
    """A state table's values over ``states``; a missing state is a missing field."""
    return np.array([sec.get(str(s), float) for s in states])


def chain(sec: Section) -> pmf.MarkovChainSpec:
    """{"states": [...], "transition": [[...]], "initial": [...]}."""
    states = sec.get("states", labels)
    k = len(states)
    initial = pmf.FinitePmf(states, sec.get("initial", floats(k)))
    return pmf.MarkovChainSpec(states, sec.get("transition", floats(k, k)), initial)


def joint(sec: Section) -> pmf.JointPmf:
    """{"axes": [[...], ...], "probs": [...]} with row-major probs."""
    axes = sec.get("axes", lambda value: tuple(labels(ax) for ax in _list(value)))
    shape = tuple(len(ax) for ax in axes)
    probs = sec.get("probs", lambda value: np.asarray(value, dtype=float))
    if probs.size != math.prod(shape):
        raise ConfigError(f"{sec.prefix}probs: {probs.size} probabilities do not fit axes {shape}")
    return pmf.JointPmf(axes, probs.reshape(shape))


def joint_doc(joint_pmf: pmf.JointPmf) -> dict:
    """The document that ``joint`` reads back as ``joint_pmf``: axes as lists, probs row-major."""
    return {"axes": [list(ax) for ax in joint_pmf.axes], "probs": joint_pmf.probs.ravel().tolist()}


def params(sec: Section) -> bounds.BoundParams:
    """Bound constants; "lambda" is the bias scaling, "mixing" an optional rate envelope."""
    fit = None
    if "mixing" in sec:
        mx = sec.section("mixing")
        model = mx.kind("model", mixing.MIXING_MODELS)
        b = mx.get("b", float, _REQUIRED if model == "subexponential" else None)
        fit = mixing.MixingFit(model, mx.get("a", float), b, mx.get("gamma", float))
    reals = {key: sec.get(key, float) for key in ("epsilon", "c", "gamma", "gamma_prime", "B")}
    return bounds.BoundParams(
        **reals, lam=sec.get("lambda", float), V=sec.get("V", integer), n=sec.get("n", integer),
        m=sec.get("m", integer, 1), mixing=fit,
    )


ENTROPY_ESTIMATES = ("sauer_shelah", "neural_net", "finite", "zero")


def entropy_estimate(sec: Section) -> entropy.EntropyEstimate:
    """A closed-form entropy estimate named by "entropy" (default sauer_shelah)."""
    kind = sec.kind("entropy", ENTROPY_ESTIMATES, "sauer_shelah")
    if kind == "sauer_shelah":
        return functools.partial(entropy.sauer_shelah_entropy, sec.get("V", integer), sec.get("B", float))
    if kind == "neural_net":
        return functools.partial(entropy.neural_net_entropy, sec.get("N", integer), sec.get("d", integer),
                                 sec.get("B", float))
    # "zero" is a one-member class: log(1) is exactly 0.0
    return entropy.finite_family_entropy(sec.get("n_members", integer) if kind == "finite" else 1)


def family(sec: Section, states: tuple) -> entropy.FunctionFamily:
    """A state_table family (one state table per member) or an affine_span over ``states``."""
    kind = sec.kind("kind", ("state_table", "affine_span"))
    if kind == "state_table":
        tables = [Section(t, f"{sec.prefix}tables[{j}]")
                  for j, t in enumerate(sec.get("tables", _list))]
        return entropy.FunctionFamily(states, table=[state_values(t, states) for t in tables])
    scale = sec.get("scale", float, 1.0)
    try:
        design = [[1.0, scale * float(s)] for s in states]
    except ValueError as exc:
        raise ConfigError(f"{sec.prefix}kind: affine_span needs numeric states: {exc}") from exc
    return entropy.FunctionFamily(states, design=design)


def law(sec: Section) -> pmf.FinitePmf:
    """{"support": [...], "probs": [...]}."""
    support = sec.get("support", labels)
    return pmf.FinitePmf(support, sec.get("probs", floats(len(support))))


def generator(sec: Section, seed: int | None = None) -> simulate.GeneratorSpec:
    """A generator fragment; ``seed`` overrides its "seed"."""
    kind = sec.kind("kind", ("markov", "m_dependent", "iid"))
    noise = sec.section("noise") if "noise" in sec else Section({"values": [0.0], "probs": [1.0]})
    values = noise.get("values", floats(None)).tolist()
    spec = simulate.GeneratorSpec(
        kind=kind,
        seed=sec.get("seed", integer, 0) if seed is None else seed,
        chain=chain(sec.section("chain")) if kind == "markov" else None,
        dependence_lag=sec.get("dependence_lag", integer) if kind == "m_dependent" else None,
        alphabet_size=sec.get("alphabet_size", integer) if kind == "m_dependent" else None,
        law=law(sec.section("law")) if kind == "iid" else None,
        noise_values=tuple(values),
        noise_probs=tuple(noise.get("probs", floats(len(values))).tolist()),
        response_bound=sec.get("response_bound", float, None),
    )
    if "phi" in sec:
        spec = dataclasses.replace(spec, phi=state_values(sec.section("phi"), spec.states()))
    return spec


def regression_data(sec: Section) -> regression.Dataset:
    """The "xs" / "ys" sample of a regress document, over the distinct xs as states."""
    xs = sec.get("xs", labels)
    position = {x: i for i, x in enumerate(dict.fromkeys(xs))}
    ys, bound = sec.get("ys", floats(len(xs))), sec.get("response_bound", float, None)
    return regression.Dataset(tuple(position), [position[x] for x in xs], ys, response_bound=bound)
