"""Typed domain errors.

Every failure mode that callers (and the CLI) are expected to distinguish
gets its own class. The CLI prints ``type(e).__name__`` and exits 1, so
these names are part of the external contract. ``brief`` formats the
numbers in a message, and ``integer`` reads every integer from outside,
on argv or in a file (the CLI loads this module, so no command imports
another layer for it).
"""

import sys


def brief(value) -> str:
    """``value`` for an error message, so that no limit on int-to-str
    conversion can refuse it: an int in full below 10**100, else by sign
    and bit length; a fraction as num/den; a tuple, such as a record, entry
    by entry."""
    if isinstance(value, tuple):
        return "(" + ", ".join(map(brief, value)) + ")"
    if value.denominator != 1:
        return f"{brief(value.numerator)}/{brief(value.denominator)}"
    n = value.numerator
    if -(10**100) < n < 10**100:
        return str(n)
    return f"{'-' if n < 0 else ''}<integer of {n.bit_length()} bits>"


def integer(token: str) -> int:
    """The integer ``token`` spells as ASCII ``-?[0-9]+`` of at most 4,300
    digits, or ValueError, whatever limit on str-to-int conversion is in
    force: the digits are counted against Python's default, and a token the
    limit may bind converts through ``Decimal``. Its name is the type that
    ``argparse`` names in a usage error: ``invalid integer value: 'x'``."""
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad integer {token!r}")
    if len(digits) > sys.int_info.default_max_str_digits:
        raise ValueError("integer too long")
    if len(digits) > sys.int_info.str_digits_check_threshold:
        from decimal import Decimal
        token = Decimal(token)
    return int(token)


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


class InvalidInsertionPoint(DomainError):
    pass


class InvalidParams(DomainError):
    pass


# budgets

class WorkBudgetExceeded(DomainError):
    pass


# handlebodies

class FramingMismatch(DomainError):
    pass


class AsymmetricLinking(DomainError):
    pass


class ParityViolation(DomainError):
    pass


class ExcludedCase(DomainError):
    pass
