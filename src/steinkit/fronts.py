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

The (tb, r) algebra is in ``legendrian``. ``FrontDiagram`` holds its trace
and a ``Component`` its diagram, so they are ``StrictRecord``s: equal only
to their own type, compared by everything but the trace.

Orientation convention: each component is canonically oriented so that the
upper strand of its first-created left cusp points rightward; components
listed in ``orientation_flips`` are reversed. Orientation reverses across
every cusp and is preserved through crossings.

Tracing. A diagram is traced once, when it is built, as threads: an *arc*
is a piece of strand from a left cusp to a right cusp, and one sweep keeps
the list of arcs at each strand height. It tests for crossings first, as
they are most events: ``X`` swaps two entries and records the (upper arc,
lower arc) pair, ``R`` joins the two it merges, ``L`` inserts two new arcs.
That sweep is the only validator of a word: it checks each event's kind
and position as it reaches it, and that no strand is left open at the end.
Arcs meeting at a cusp run in opposite directions, so a union-find over
arcs with a parity bit per arc gives the components (numbered by their
creating left cusp) and every arc's direction. One pass over the crossing
arc pairs then gives every signed crossing count, and with the cusps every
tb, every r and the whole linking matrix; ``components``, ``invariants``
and ``linking_number`` only look them up. The pairs stay as ``_crossings``
for ``tests/trace_oracle.py``, which checks each crossing's sign. The
(gap, slot) segments of a component, which index ``stabilize_diagram``'s
insertion points, take one replay of the strand heights and are built only
when asked for.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    ComponentOutOfRange, EmptyDiagram, InvalidInsertionPoint, InvalidParams, InvalidPosition,
    InvariantViolation, MalformedToken, SameComponent, UnbalancedDiagram, WorkBudgetExceeded,
)
from .legendrian import (
    LegendrianInvariants, StabilizationSchedule, StrictRecord, TorusKnotParams, _int_token,
)

LEFT_CUSP = "L"
RIGHT_CUSP = "R"
CROSSING = "X"

UP = "up"
DOWN = "down"

# Most events ``torus_knot_front`` builds, checked before it builds any:
# a front of 10**5 events takes about a second to build, trace and print
# as JSON from the CLI (Python 3.11 on one core of an x86-64 host).
EVENT_BUDGET = 10**5


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
        "_comp", "_sign", "_segment_cache",
    )
    _key = ("events", "orientation_flips")

    def __init__(self, events, orientation_flips=frozenset()):
        self.events: tuple[FrontEvent, ...] = tuple(events)
        self.orientation_flips: frozenset[int] = frozenset(orientation_flips)
        if not self.events:
            raise EmptyDiagram("front has no events")

        parent: list[int] = []  # union-find forest over arcs
        parity: list[int] = []  # 1 if an arc runs opposite to its parent
        size: list[int] = []

        def find(a: int) -> tuple[int, int]:
            p = 0
            while parent[a] != a:
                p ^= parity[a]
                a = parent[a]
            return a, p

        def join(a: int, b: int) -> None:
            """Arcs ``a`` and ``b`` meet at a cusp: opposite directions."""
            (ra, pa), (rb, pb) = find(a), find(b)
            if ra == rb:
                if pa == pb:
                    raise InvariantViolation("front does not close up")
                return
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            parity[rb] = pa ^ pb ^ 1
            size[ra] += size[rb]

        # The sweep, and the only check of event kinds and positions. Arcs
        # are numbered 0, 1, 2, ... as their left cusps create them, upper
        # arc first.
        heights: list[int] = []  # the arc at each strand height
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
                join(a, b)
            elif kind == LEFT_CUSP:
                if not 0 <= i <= len(heights):
                    raise InvalidPosition(f"event {g}: L {i} with {len(heights)} strands")
                a = len(parent)
                heights[i:i] = (a, a + 1)
                # the cusp joins its two new arcs: one tree, opposite parities
                parent += (a, a)
                parity += (0, 1)
                size += (2, 1)
                lefts.append((g, a))
            else:
                raise MalformedToken(f"event {g}: unknown event kind {kind!r}")
        if heights:
            raise UnbalancedDiagram(f"{len(heights)} strands left open")

        # Number components by their creating left cusp and orient each so
        # that the upper arc of that cusp points rightward, then flip.
        roots = [find(a) for a in range(len(parent))]
        comp_of_root: dict[int, int] = {}
        sign_of_root: dict[int, int] = {}
        created_at: list[int] = []
        for g, a in lefts:
            root, p = roots[a]
            if root not in comp_of_root:
                comp_of_root[root] = len(created_at)
                sign_of_root[root] = -1 if p else 1
                created_at.append(g)
        k = len(created_at)
        for c in self.orientation_flips:
            if not 0 <= c < k:
                raise ComponentOutOfRange(f"flip {c} with {k} components")
        for root, c in comp_of_root.items():
            if c in self.orientation_flips:
                sign_of_root[root] = -sign_of_root[root]
        comp = [comp_of_root[root] for root, _p in roots]
        sign = [-sign_of_root[root] if p else sign_of_root[root] for root, p in roots]

        # One pass over crossings and cusps gives every tb, r and lk.
        signed = [[0] * k for _ in range(k)]  # by (upper, lower) component
        for a, b in crossings:
            signed[comp[a]][comp[b]] += sign[a] * sign[b]
        # A left cusp is traversed downward iff its upper arc points
        # leftward; a right cusp iff its upper arc points rightward.
        twice_r = [0] * k
        left_cusps = [0] * k
        for _g, u in lefts:
            twice_r[comp[u]] -= sign[u]
            left_cusps[comp[u]] += 1
        for u in rights:
            twice_r[comp[u]] += sign[u]
        invariants: list[LegendrianInvariants] = []
        for c in range(k):
            if twice_r[c] % 2 != 0:
                raise InvariantViolation(
                    f"component {c}: odd signed cusp count {twice_r[c]}"
                )
            invariants.append(LegendrianInvariants(
                tb=signed[c][c] - left_cusps[c], r=twice_r[c] // 2
            ))
        linking = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                lk2 = signed[i][j] + signed[j][i]
                if lk2 % 2 != 0:
                    raise InvariantViolation(
                        f"odd inter-component crossing count {lk2}"
                    )
                linking[i][j] = linking[j][i] = lk2 // 2

        self._created_at = created_at
        self._invariants = invariants
        self._linking = linking
        self._crossings = crossings
        self._comp = comp
        self._sign = sign
        self._segment_cache: dict[int, tuple[tuple[tuple[int, int], ...], list[int]]] = {}

    def _segments(self, c: int) -> tuple[tuple[tuple[int, int], ...], list[int]]:
        """Sorted (gap, slot) segments of component ``c`` and the arc on
        each; built on first request by replaying the strand heights, with
        arcs numbered as the trace sweep numbers them."""
        if c not in self._segment_cache:
            comp = self._comp
            segs: list[tuple[int, int]] = []
            arcs: list[int] = []
            heights: list[int] = []
            created = 0
            for g, (kind, i) in enumerate(self.events):
                if kind == LEFT_CUSP:
                    heights[i:i] = (created, created + 1)
                    created += 2
                elif kind == RIGHT_CUSP:
                    del heights[i : i + 2]
                else:
                    heights[i], heights[i + 1] = heights[i + 1], heights[i]
                for slot, arc in enumerate(heights):
                    if comp[arc] == c:
                        segs.append((g + 1, slot))
                        arcs.append(arc)
            self._segment_cache[c] = (tuple(segs), arcs)
        return self._segment_cache[c]


class Component(StrictRecord):
    """One link component: its index and creating event.

    ``segments`` are its (gap, slot) pairs, sorted: gap g lies between
    events g-1 and g, and slot 0 is the topmost strand in that gap. They are
    built on first read.
    """

    __slots__ = ("index", "created_at", "_diagram")
    _key = ("index", "created_at")

    def __init__(self, index: int, created_at: int, diagram: FrontDiagram):
        self.index = index
        self.created_at = created_at  # the left-cusp event that first creates it
        self._diagram = diagram

    @property
    def segments(self) -> tuple[tuple[int, int], ...]:
        return self._diagram._segments(self.index)[0]


def components(diagram: FrontDiagram) -> list[Component]:
    """Components in canonical order (earliest creating event first)."""
    return [Component(c, g, diagram) for c, g in enumerate(diagram._created_at)]


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


def stabilize_diagram(
    diagram: FrontDiagram, c: int, direction: str, at: int
) -> FrontDiagram:
    """Insert one zig-zag on component ``c``.

    ``at`` indexes into the component's strand segments, ordered by
    (gap, slot); the two-event rewrite is inserted at that point. A down
    zig-zag yields tb - 1, r + 1; an up zig-zag yields tb - 1, r - 1.
    """
    if direction not in (UP, DOWN):
        raise InvalidParams(f"direction must be 'up' or 'down', got {direction!r}")
    _check_component(diagram, c)
    segments, arcs = diagram._segments(c)
    if not 0 <= at < len(segments):
        raise InvalidInsertionPoint(
            f"insertion point {at} with {len(segments)} segments"
        )
    gap, slot = segments[at]
    rightward = diagram._sign[arcs[at]] > 0
    # On a rightward strand a down zig-zag dips below (left cusp under the
    # strand, right cusp merging into it); on a leftward strand the roles swap.
    if (direction == DOWN) == rightward:
        inserted = (
            FrontEvent(LEFT_CUSP, slot + 1),
            FrontEvent(RIGHT_CUSP, slot),
        )
    else:
        inserted = (
            FrontEvent(LEFT_CUSP, slot),
            FrontEvent(RIGHT_CUSP, slot + 1),
        )
    events = diagram.events[:gap] + inserted + diagram.events[gap:]
    return FrontDiagram(events, diagram.orientation_flips)


def torus_knot_front(
    params: TorusKnotParams, schedule: StabilizationSchedule | None = None
) -> FrontDiagram:
    """Standard front of the right-handed (p, q) torus knot.

    p left cusps, then q blocks of the positive braid word, then p right
    cusps: exactly (p-1)q crossings, all positive, with tb = (p-1)q - p
    and r = 0.

    A ``schedule`` splices its zig-zags in after the first left cusp, giving
    the word that ``stabilize_diagram(d, 0, UP, 0)`` applied ``up`` times and
    then ``stabilize_diagram(d, 0, DOWN, 0)`` applied ``down`` times give:
    segment 0 is always the rightward upper arc of that cusp.

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
        down = (FrontEvent(LEFT_CUSP, 1), FrontEvent(RIGHT_CUSP, 0))
        up = (FrontEvent(LEFT_CUSP, 0), FrontEvent(RIGHT_CUSP, 1))
        events[1:1] = down * schedule.down + up * schedule.up
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
        value = _int_token(arg, lineno)
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
