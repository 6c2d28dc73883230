"""Legendrian knots by their invariants: (tb, r) pairs, zig-zag schedules
and torus-knot parameters, with no diagrams; and ``StrictRecord``, records
that are not tuples, which the layers share. ``fronts`` builds on it; other
layers import it without ``fronts``. Integers from a file or argv reach it
through ``errors.integer``: each is ASCII ``-?[0-9]+`` of at most 4,300
digits.
"""

import math
from typing import NamedTuple

from .errors import InvalidParams


class LegendrianInvariants(NamedTuple):
    tb: int
    r: int


class _Schedule(NamedTuple):
    up: int
    down: int


class StabilizationSchedule(_Schedule):
    """Counts of upward and downward zig-zags.

    Effect on invariants: tb -> tb - up - down, r -> r - up + down.
    """

    __slots__ = ()

    def __new__(cls, up: int, down: int):
        if up < 0 or down < 0:
            raise InvalidParams("schedule counts must be non-negative")
        return tuple.__new__(cls, (up, down))


class _TorusKnot(NamedTuple):
    p: int
    q: int


class TorusKnotParams(_TorusKnot):
    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if not (2 <= p < q):
            raise InvalidParams(f"need 2 <= p < q, got ({p}, {q})")
        if math.gcd(p, q) != 1:
            raise InvalidParams(f"({p}, {q}) not coprime")
        return tuple.__new__(cls, (p, q))

    @property
    def l(self) -> int:
        # (p-1)(q-1) is even because p, q are coprime.
        return (self.p - 1) * (self.q - 1) // 2


class StrictRecord:
    """A record that is not a tuple: equality, hash and repr go by the
    attributes named in ``_key``, and an instance equals only instances of
    its own type."""

    __slots__ = ()
    _key: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._key)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._key)
        return f"{type(self).__name__}({fields})"


def stabilize_invariants(
    inv: LegendrianInvariants, schedule: StabilizationSchedule
) -> LegendrianInvariants:
    """Apply a zig-zag schedule at the invariant level."""
    return LegendrianInvariants(
        tb=inv.tb - schedule.up - schedule.down,
        r=inv.r - schedule.up + schedule.down,
    )


def reachable(
    source: LegendrianInvariants, target: LegendrianInvariants
) -> StabilizationSchedule | None:
    """Zig-zag schedule from ``source`` to ``target``, or None.

    tb can only decrease; each zig-zag moves r by exactly 1, so the target
    is reachable iff the tb-drop dominates |Delta r| with matching parity.
    """
    dtb = source.tb - target.tb
    dr = target.r - source.r
    if (dtb - dr) % 2 != 0:
        return None
    up = (dtb - dr) // 2
    down = (dtb + dr) // 2
    if up < 0 or down < 0:
        return None
    return StabilizationSchedule(up=up, down=down)

