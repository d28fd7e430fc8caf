"""Config documents: check every field, then build the library objects.

Every document the command line reads goes through ``Section``, whose reads raise
``ConfigError`` naming the field's path (``generator.chain.states``) when it is
missing, does not convert, names an unknown kind or has the wrong shape.  A real
field, and each entry of an array, is a JSON number (``number``): a bool, a string
or an integer past float range is refused, while NaN and Infinity go on to the
domain checks.  An integer field refuses a bool, a string and a number with a
fractional part.  Range and mass checks stay with the objects built.  State
tables map each state's string form to a value, so states that share one (0 and
"0") are refused.
``joint_doc``, the inverse of ``joint``, writes a joint's document, so that
one format has one owner for reading and writing; it hands the probabilities
over as one flat float array, which ``joint`` reads back as it reads a list
and the command line's writer lays out as the list of its floats.
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


def number(value) -> float:
    """A real field: an int or a float, not a bool or a string.  NaN and Infinity pass on to the
    domain checks; an int past float range is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("expected a number, got an integer past float range") from None


def integer(value) -> int:
    """An integer field; an integral float such as 2.0 counts, a bool, a string or a fraction
    does not."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {json.dumps(value)}")
    return int(value)


def labels(value) -> tuple:
    if not all(isinstance(v, (str, int, float)) for v in _list(value)):
        raise ValueError("state labels must be strings or numbers")
    return tuple(value)


def _numbers(value) -> list:
    """A list (or an array) with each entry through ``number``, nested lists kept nested; a
    float, which ``number`` returns as it is, skips the call."""
    entries = value.tolist() if isinstance(value, np.ndarray) else _list(value)
    return [v if v.__class__ is float else _numbers(v) if isinstance(v, list) else number(v) for v in entries]


def floats(*shape):
    """Converter to a float array of the given shape, each entry through ``number``; None
    matches any length."""
    def convert(value):
        arr = np.array(_numbers(value), dtype=float)
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
    """A state table's values over ``states``; a missing state is a missing field, and two
    states with one string form would share its entry."""
    keys = {}
    for s in states:
        if str(s) in keys:
            raise ConfigError(f"{sec.path}: states {keys[str(s)]!r} and {s!r} share the key {str(s)!r}")
        keys[str(s)] = s
    return np.array([sec.get(key, number) for key in keys])


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
    probs = sec.get("probs", lambda value: np.array(_numbers(value), dtype=float))
    if probs.size != math.prod(shape):
        raise ConfigError(f"{sec.prefix}probs: {probs.size} probabilities do not fit axes {shape}")
    return pmf.JointPmf(axes, probs.reshape(shape))


def joint_doc(joint_pmf: pmf.JointPmf) -> dict:
    """The document that ``joint`` reads back as ``joint_pmf``: axes as lists, probs as the flat
    float64 array of its cells in row-major (C) order, not a list, so that no float is boxed
    (``json.dumps`` needs ``default=np.ndarray.tolist`` for it)."""
    return {"axes": [list(ax) for ax in joint_pmf.axes], "probs": joint_pmf.probs.ravel()}


def params(sec: Section) -> bounds.BoundParams:
    """Bound constants; "lambda" is the bias scaling, "mixing" an optional rate envelope."""
    fit = None
    if "mixing" in sec:
        mx = sec.section("mixing")
        model = mx.kind("model", mixing.MIXING_MODELS)
        b = mx.get("b", number, _REQUIRED if model == "subexponential" else None)
        fit = mixing.MixingFit(model, mx.get("a", number), b, mx.get("gamma", number))
    reals = {key: sec.get(key, number) for key in ("epsilon", "c", "gamma", "gamma_prime", "B")}
    return bounds.BoundParams(
        **reals, lam=sec.get("lambda", number), V=sec.get("V", integer), n=sec.get("n", integer),
        m=sec.get("m", integer, 1), mixing=fit,
    )


ENTROPY_ESTIMATES = ("sauer_shelah", "neural_net", "finite", "zero")


def entropy_estimate(sec: Section) -> entropy.EntropyEstimate:
    """A closed-form entropy estimate named by "entropy" (default sauer_shelah)."""
    kind = sec.kind("entropy", ENTROPY_ESTIMATES, "sauer_shelah")
    if kind == "sauer_shelah":
        return functools.partial(entropy.sauer_shelah_entropy, sec.get("V", integer), sec.get("B", number))
    if kind == "neural_net":
        return functools.partial(entropy.neural_net_entropy, sec.get("N", integer), sec.get("d", integer),
                                 sec.get("B", number))
    # "zero" is a one-member class: log(1) is exactly 0.0
    return entropy.finite_family_entropy(sec.get("n_members", integer) if kind == "finite" else 1)


def family(sec: Section, states: tuple) -> entropy.FunctionFamily:
    """A state_table family (one state table per member) or an affine_span over ``states``."""
    kind = sec.kind("kind", ("state_table", "affine_span"))
    if kind == "state_table":
        tables = [Section(t, f"{sec.prefix}tables[{j}]")
                  for j, t in enumerate(sec.get("tables", _list))]
        return entropy.FunctionFamily(states, table=[state_values(t, states) for t in tables])
    scale = sec.get("scale", number, 1.0)
    try:
        design = [[1.0, scale * float(s)] for s in states]
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{sec.prefix}kind: affine_span needs numeric states: {exc}") from exc
    return entropy.FunctionFamily(states, design=design)


def law(sec: Section) -> pmf.FinitePmf:
    """{"support": [...], "probs": [...]}."""
    support = sec.get("support", labels)
    return pmf.FinitePmf(support, sec.get("probs", floats(len(support))))


def generator(sec: Section, seed: int | None = None) -> simulate.GeneratorSpec:
    """A generator fragment; ``seed`` overrides its "seed"."""
    kind = sec.kind("kind", simulate.GENERATOR_KINDS)
    noise = sec.section("noise") if "noise" in sec else Section({"values": [0.0], "probs": [1.0]})
    values = noise.get("values", floats(None)).tolist()
    bound = sec.get("response_bound", number, None)
    spec = simulate.GeneratorSpec(
        kind=kind,
        seed=sec.get("seed", integer, 0) if seed is None else seed,
        chain=chain(sec.section("chain")) if kind == "markov" else None,
        dependence_lag=sec.get("dependence_lag", integer) if kind == "m_dependent" else None,
        alphabet_size=sec.get("alphabet_size", integer) if kind == "m_dependent" else None,
        law=law(sec.section("law")) if kind == "iid" else None,
        noise_values=tuple(values),
        noise_probs=tuple(noise.get("probs", floats(len(values))).tolist()),
        response_bound=None if "phi" in sec else bound,
    )
    if "phi" in sec:  # phi is read over the spec's states, and only then are the responses checked
        spec = dataclasses.replace(spec, phi=state_values(sec.section("phi"), spec.states()), response_bound=bound)
    return spec


def regression_data(sec: Section) -> regression.Dataset:
    """The "xs" / "ys" sample of a regress document, over the distinct xs as states."""
    xs = sec.get("xs", labels)
    position = {x: i for i, x in enumerate(dict.fromkeys(xs))}
    ys, bound = sec.get("ys", floats(len(xs))), sec.get("response_bound", number, None)
    return regression.Dataset(tuple(position), [position[x] for x in xs], ys, response_bound=bound)
