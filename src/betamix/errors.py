"""Exception hierarchy shared by all betamix modules."""


class BetamixError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInputError(BetamixError, ValueError):
    """An input object violates its structural invariants (shapes, mass, labels)."""


class DomainError(BetamixError, ValueError):
    """A scalar argument lies outside the domain of the requested operation."""


class SizeError(BetamixError):
    """An exact computation would exceed the configured size cap."""


class DegenerateFitError(BetamixError):
    """An envelope fit has no usable data points."""


class HypothesisViolationError(BetamixError):
    """A closed-form bound was requested outside its stated hypotheses."""


class ConfigError(BetamixError):
    """A config document lacks a field, or holds a value of the wrong type, kind or shape."""
