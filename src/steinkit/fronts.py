"""Combinatorial Legendrian front diagrams.

A front is stored as an ordered word of Morse events, read left to right
across the plane of the diagram:

* ``L i`` -- a left cusp inserting two new strands at heights ``i`` and
  ``i + 1`` (0 = topmost strand),
* ``R i`` -- a right cusp merging the strands at heights ``i`` and ``i + 1``,
* ``X i`` -- a transverse crossing swapping the strands at ``i`` and ``i + 1``.

Any word that keeps the strand count non-negative and ends with zero strands
describes a geometrically realizable front, so no slope or coordinate data
is stored. All arithmetic is exact integer arithmetic. An event is a plain
``(kind, position)`` record, ``FrontEvent``, that checks nothing itself.

The (tb, r) algebra is in ``legendrian``. ``FrontDiagram`` and ``Component``
are ``StrictRecord``s, equal only to their own type; a diagram is compared
by everything but its trace.

Orientation convention: each component is canonically oriented so that the
upper strand of its first-created left cusp points rightward; components
listed in ``orientation_flips`` are reversed. Orientation reverses across
every cusp and is preserved through crossings.

Tracing. A diagram is traced once, when it is built, as threads: an *arc*
is a piece of strand from a left cusp to a right cusp, and one sweep keeps
the list of arcs at each strand height. It tests for crossings first, as
they are most events: ``X`` swaps two entries and records the (upper arc,
lower arc) pair, ``R`` records that its two arcs meet, ``L`` inserts two
new arcs. That sweep is the only validator of a word: it checks each
event's kind and position as it reaches it, and that no strand is left open
at the end. Every arc meets one arc at its left cusp and one at its right
cusp, and runs opposite to both, so each component is one even cycle of
arcs; a walk around each cycle gives the components (numbered by their
creating left cusp) and every arc's direction. One pass over the crossing
arc pairs and the cusps fills one k x k table whose diagonal holds every tb,
and gives every r; the table then becomes the linking matrix in place.
``components``, ``invariants``, ``linking_number`` and ``linking_matrix``
only look them up. The pairs stay as ``_crossings`` for
``tests/trace_oracle.py``, which checks each crossing's sign. No segment is
kept: ``stabilize_diagram`` replays the strand heights to find its insertion
point.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    ComponentOutOfRange, EmptyDiagram, InvalidInsertionPoint, InvalidParams, InvalidPosition,
    InvariantViolation, MalformedToken, SameComponent, UnbalancedDiagram, WorkBudgetExceeded,
    integer,
)
from .legendrian import LegendrianInvariants, StabilizationSchedule, StrictRecord, TorusKnotParams

LEFT_CUSP = "L"
RIGHT_CUSP = "R"
CROSSING = "X"

UP = "up"
DOWN = "down"

# Most events a front may have, checked before its trace sweep, and by
# ``torus_knot_front`` before it builds any: a front of 10**5 events takes
# about a second to build, trace and print as JSON from the CLI (Python 3.11
# on one core of an x86-64 host).
EVENT_BUDGET = 10**5

# Most components a traced front may have. The trace fills one k x k table
# (signed crossing counts, then linking numbers), so a front of more is
# refused once its sweep has counted them, before the table is built. A front
# of 1,000 unknots traces in about 0.1 s (Python 3.11 on one core of an x86-64
# host).
COMPONENT_BUDGET = 1000


class FrontEvent(NamedTuple):
    """A plain record; ``FrontDiagram``'s trace sweep validates it."""

    kind: str  # one of LEFT_CUSP, RIGHT_CUSP, CROSSING
    position: int


class FrontDiagram(StrictRecord):
    """An event word and the components whose orientation it reverses,
    traced once when built (see the module docstring)."""

    __slots__ = (
        "events", "orientation_flips",
        # the trace: per component, per crossing and per arc
        "_created_at", "_invariants", "_linking", "_crossings",
        "_comp", "_sign",
    )
    _key = ("events", "orientation_flips")

    def __init__(self, events, orientation_flips=frozenset()):
        self.events: tuple[FrontEvent, ...] = tuple(events)
        self.orientation_flips: frozenset[int] = frozenset(orientation_flips)
        if not self.events:
            raise EmptyDiagram("front has no events")
        if len(self.events) > EVENT_BUDGET:
            raise WorkBudgetExceeded(
                f"the front has {len(self.events)} events, more than {EVENT_BUDGET}"
            )

        # The sweep, and the only check of event kinds and positions. Arcs
        # are numbered 0, 1, 2, ... as their left cusps create them, upper
        # arc first, so arc ``a ^ 1`` meets arc ``a`` at its left cusp.
        heights: list[int] = []  # the arc at each strand height
        partner: list[int] = []  # the arc meeting each arc at its right cusp
        lefts: list[tuple[int, int]] = []  # (event index, upper arc)
        rights: list[int] = []  # upper arc
        crossings: list[tuple[int, int]] = []  # (upper arc, lower arc)
        for g, (kind, i) in enumerate(self.events):
            if kind == CROSSING:
                if not 0 <= i <= len(heights) - 2:
                    raise InvalidPosition(f"event {g}: X {i} with {len(heights)} strands")
                a, b = heights[i], heights[i + 1]
                heights[i], heights[i + 1] = b, a
                crossings.append((a, b))
            elif kind == RIGHT_CUSP:
                if not 0 <= i <= len(heights) - 2:
                    raise InvalidPosition(f"event {g}: R {i} with {len(heights)} strands")
                a, b = heights[i], heights[i + 1]
                del heights[i : i + 2]
                rights.append(a)
                partner[a], partner[b] = b, a
            elif kind == LEFT_CUSP:
                if not 0 <= i <= len(heights):
                    raise InvalidPosition(f"event {g}: L {i} with {len(heights)} strands")
                a = len(partner)
                heights[i:i] = (a, a + 1)
                partner += (a, a)  # set at their right cusps
                lefts.append((g, a))
            else:
                raise MalformedToken(f"event {g}: unknown event kind {kind!r}")
        if heights:
            raise UnbalancedDiagram(f"{len(heights)} strands left open")

        # Each component is one cycle of arcs, x -> partner[x] -> its left
        # cusp partner ^ 1 -> ..., and the direction flips at every cusp.
        # Number components by their creating left cusp and walk each from
        # the upper arc of that cusp, which points rightward unless flipped.
        comp = [0] * len(partner)
        sign = [0] * len(partner)  # +1 rightward, -1 leftward, 0 not yet walked
        created_at: list[int] = []
        for g, start in lefts:
            if sign[start]:
                continue
            c = len(created_at)
            created_at.append(g)
            s = -1 if c in self.orientation_flips else 1
            x = start
            while not sign[x]:
                y = partner[x]
                comp[x] = comp[y] = c
                sign[x], sign[y] = s, -s
                x = y ^ 1
            if x != start:
                raise InvariantViolation("front does not close up")
        k = len(created_at)
        if k > COMPONENT_BUDGET:
            raise WorkBudgetExceeded(
                f"the front has {k} components, more than {COMPONENT_BUDGET}"
            )
        for c in self.orientation_flips:
            if not 0 <= c < k:
                raise ComponentOutOfRange(f"flip {c} with {k} components")

        # One table: signed crossing counts by (upper, lower) component; less
        # its component's left cusps, each diagonal entry is a tb.
        table = [[0] * k for _ in range(k)]
        for a, b in crossings:
            table[comp[a]][comp[b]] += sign[a] * sign[b]
        # A left cusp is traversed downward iff its upper arc points
        # leftward; a right cusp iff its upper arc points rightward.
        twice_r = [0] * k
        for _g, u in lefts:
            twice_r[comp[u]] -= sign[u]
            table[comp[u]][comp[u]] -= 1
        for u in rights:
            twice_r[comp[u]] += sign[u]
        invariants: list[LegendrianInvariants] = []
        for c in range(k):
            if twice_r[c] % 2 != 0:
                raise InvariantViolation(
                    f"component {c}: odd signed cusp count {twice_r[c]}"
                )
            invariants.append(LegendrianInvariants(tb=table[c][c], r=twice_r[c] // 2))
        # The table becomes the linking matrix in place; row i reads each (j, i) first.
        for i in range(k):
            row = table[i]
            row[i] = 0
            for j in range(i + 1, k):
                lk2 = row[j] + table[j][i]
                if lk2 % 2 != 0:
                    raise InvariantViolation(
                        f"odd inter-component crossing count {lk2}"
                    )
                row[j] = table[j][i] = lk2 // 2

        self._created_at = created_at
        self._invariants = invariants
        self._linking = table
        self._crossings = crossings
        self._comp = comp
        self._sign = sign

class Component(StrictRecord):
    """One link component: its index and creating event."""

    __slots__ = _key = ("index", "created_at")

    def __init__(self, index: int, created_at: int):
        self.index = index
        self.created_at = created_at  # the left-cusp event that first creates it


def components(diagram: FrontDiagram) -> list[Component]:
    """Components in canonical order (earliest creating event first)."""
    return [Component(c, g) for c, g in enumerate(diagram._created_at)]


def _check_component(diagram: FrontDiagram, c: int) -> None:
    k = len(diagram._created_at)
    if not 0 <= c < k:
        raise ComponentOutOfRange(f"component {c} with {k} components")


def invariants(diagram: FrontDiagram, c: int) -> LegendrianInvariants:
    """Thurston-Bennequin invariant and rotation number of component ``c``.

    tb is the signed count of self-crossings minus the count of left cusps;
    the sign of a crossing is the product of the two strands' horizontal
    orientation signs (+1 rightward). r is half the signed cusp count,
    counting a cusp positively when traversed downward.
    """
    _check_component(diagram, c)
    return diagram._invariants[c]


def linking_number(diagram: FrontDiagram, c1: int, c2: int) -> int:
    """Half the signed count of crossings between two distinct components."""
    if c1 == c2:
        raise SameComponent(f"component {c1} given twice")
    _check_component(diagram, c1)
    _check_component(diagram, c2)
    return diagram._linking[c1][c2]


def linking_matrix(diagram: FrontDiagram) -> list[list[int]]:
    """A copy of the k x k table of ``linking_number``, with 0 on the diagonal."""
    return [row[:] for row in diagram._linking]


def _zigzag(slot: int, below: bool) -> tuple[FrontEvent, FrontEvent]:
    """A zig-zag's two events on the strand at ``slot``, below or above it."""
    if below:
        return FrontEvent(LEFT_CUSP, slot + 1), FrontEvent(RIGHT_CUSP, slot)
    return FrontEvent(LEFT_CUSP, slot), FrontEvent(RIGHT_CUSP, slot + 1)


def stabilize_diagram(
    diagram: FrontDiagram, c: int, direction: str, at: int
) -> FrontDiagram:
    """Insert one zig-zag on component ``c``.

    ``at`` indexes the component's segments, ordered by (gap, slot): gap g
    lies between events g-1 and g, and slot 0 is the topmost strand in it.
    The two-event rewrite goes in at that point: a down zig-zag yields
    tb - 1, r + 1, an up zig-zag tb - 1, r - 1. One replay of the strand
    heights, one step per event as in the trace sweep, counts the
    component's strands in each gap from the cusps and scans only the gap
    of segment ``at``.
    """
    if direction not in (UP, DOWN):
        raise InvalidParams(f"direction must be 'up' or 'down', got {direction!r}")
    _check_component(diagram, c)
    comp = diagram._comp
    heights: list[int] = []  # the arc at each strand height, as the trace numbers them
    created = alive = seen = 0  # arcs made; c's strands in this gap; in earlier gaps
    for g, (kind, i) in enumerate(diagram.events):
        if kind == LEFT_CUSP:
            heights[i:i] = (created, created + 1)
            alive += 2 if comp[created] == c else 0
            created += 2
        elif kind == RIGHT_CUSP:
            alive -= 2 if comp[heights[i]] == c else 0
            del heights[i : i + 2]
        else:
            heights[i], heights[i + 1] = heights[i + 1], heights[i]
        if 0 <= at - seen < alive:
            gap = g + 1
            slot, arc = [(s, a) for s, a in enumerate(heights) if comp[a] == c][at - seen]
            break
        seen += alive
    else:
        raise InvalidInsertionPoint(f"insertion point {at} with {seen} segments")
    rightward = diagram._sign[arc] > 0
    # A down zig-zag dips below a rightward strand, an up one below a leftward one.
    inserted = _zigzag(slot, (direction == DOWN) == rightward)
    events = diagram.events[:gap] + inserted + diagram.events[gap:]
    return FrontDiagram(events, diagram.orientation_flips)


def torus_knot_front(
    params: TorusKnotParams, schedule: StabilizationSchedule | None = None
) -> FrontDiagram:
    """Standard front of the right-handed (p, q) torus knot.

    p left cusps, then q blocks of the positive braid word, then p right
    cusps: exactly (p-1)q crossings, all positive, with tb = (p-1)q - p
    and r = 0.

    A ``schedule`` splices its zig-zags in after the first left cusp, whose
    rightward upper arc is segment 0: each is the ``_zigzag`` that
    ``stabilize_diagram(d, 0, DOWN or UP, 0)`` inserts there, so the word is
    that of ``up`` UP stabilizations followed by ``down`` DOWN ones.

    Raises ``WorkBudgetExceeded`` when the word would have more than
    ``EVENT_BUDGET`` events.
    """
    p, q = params.p, params.q
    zigzags = 0 if schedule is None else schedule.up + schedule.down
    if 2 * p + (p - 1) * q + 2 * zigzags > EVENT_BUDGET:
        raise WorkBudgetExceeded(
            f"the front would have more than {EVENT_BUDGET} events"
        )
    events = [FrontEvent(LEFT_CUSP, i) for i in range(p)]
    for _ in range(q):
        events.extend(FrontEvent(CROSSING, i) for i in range(p - 1))
    events.extend(FrontEvent(RIGHT_CUSP, i) for i in range(p - 1, -1, -1))
    if schedule is not None:
        events[1:1] = _zigzag(0, True) * schedule.down + _zigzag(0, False) * schedule.up
    return FrontDiagram(tuple(events))


def parse_front(text: str) -> FrontDiagram:
    """Parse the front file format.

    One event per line (``L i``, ``R i`` or ``X i``), optionally followed by
    ``flip k`` lines; ``#`` starts a comment, blank lines are ignored.
    Positions are checked when the diagram is traced, not here. A front
    repeats a few distinct lines, so each is read once: until the first
    flip line, a line seen before gives its event again.
    """
    events: list[FrontEvent] = []
    flips: set[int] = set()
    seen: dict[str, FrontEvent] = {}  # raw line -> its event
    for lineno, raw in enumerate(text.splitlines(), start=1):
        event = seen.get(raw)
        if event is not None and not flips:
            events.append(event)
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedToken(f"line {lineno}: {raw.strip()!r}")
        tag, arg = parts
        try:
            value = integer(arg)
        except ValueError as exc:
            raise MalformedToken(f"line {lineno}: {exc}") from None
        if tag == "flip":
            if value < 0:
                raise MalformedToken(f"line {lineno}: negative flip index")
            flips.add(value)
        elif tag in (LEFT_CUSP, RIGHT_CUSP, CROSSING):
            if flips:
                raise MalformedToken(
                    f"line {lineno}: event after flip lines"
                )
            event = seen[raw] = FrontEvent(tag, value)
            events.append(event)
        else:
            raise MalformedToken(f"line {lineno}: unknown tag {tag!r}")
    if not events:
        raise EmptyDiagram("no events in front file")
    return FrontDiagram(tuple(events), frozenset(flips))


def serialize_front(diagram: FrontDiagram) -> str:
    """Inverse of parse_front, up to comments and whitespace."""
    lines = [f"{ev.kind} {ev.position}" for ev in diagram.events]
    lines.extend(f"flip {c}" for c in sorted(diagram.orientation_flips))
    return "\n".join(lines) + "\n"
