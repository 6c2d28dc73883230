"""Typed domain errors.

Every failure mode that callers (and the CLI) are expected to distinguish
gets its own class. The CLI prints ``type(e).__name__`` and exits 1, so
these names are part of the external contract.
"""


class DomainError(Exception):
    """Base class for all expected failure modes."""


class InvariantViolation(Exception):
    """Internal consistency bug: a mathematical cross-check failed.

    Not a ``DomainError``: no input, however bad, should raise it. The CLI
    exits 3 on it.
    """


# front diagrams

class MalformedToken(DomainError):
    pass


class InvalidPosition(DomainError):
    pass


class UnbalancedDiagram(DomainError):
    pass


class EmptyDiagram(DomainError):
    pass


class ComponentOutOfRange(DomainError):
    pass


class SameComponent(DomainError):
    pass


class OddInterCrossingCount(DomainError):
    """Internal consistency bug: signed inter-component count must be even."""


class InvalidInsertionPoint(DomainError):
    pass


class InvalidParams(DomainError):
    pass


# Brieskorn / Milnor

class DegenerateThirdMultiplicity(DomainError):
    pass


class InternalIntegralSum(DomainError):
    """Internal consistency bug: lattice sum divisible by p1*p2*p3."""


class NonIntegralResult(DomainError):
    """Internal consistency bug: closed-form division not exact."""


# handlebodies

class FramingMismatch(DomainError):
    pass


class AsymmetricLinking(DomainError):
    pass


class ParityViolation(DomainError):
    pass


class ExcludedCase(DomainError):
    pass


class ScheduleInfeasible(DomainError):
    pass
